"""Untraced compile -> load -> match measurement of one workload.

The phases follow the CLI path: ``setmatch compile`` is ``from_text``,
``build`` and ``to_json`` per pattern set; ``setmatch match`` is
``from_json`` once per automaton, then ``parse_term`` and a depth-first
``evaluate`` per subject.  Every call into setmatch below goes through this
module's globals, which is where the traced run wraps them.

How the figures stay steady on a shared machine.  On a 2-vCPU host shared
with other tenants the same pure-Python loop takes anywhere from 1x to
2.5x its fastest time from one 10 ms sample to the next, and its typical
speed drifts by a fifth or more over minutes.  Probes there, over 30 s
windows, showed:

* The fastest state is rare, so the least of a few repeats depends on
  whether one fell into it: its spread across windows was twice that of
  the median.  So every figure below is a median of repeats.
* A slow stretch slows every kind of Python work alike while it lasts.
  So a run keeps a gauge: between operations, whenever GAUGE_EVERY_S has
  passed, it times a fixed reference loop that never calls setmatch, and
  every operation's time is multiplied by REFERENCE_LOOP_S over the latest
  reading, which reports it at the reference speed.  Scaling each
  operation by its own latest reading cut the spread of compile and match
  times across windows from 0.2-0.4 of their median to 0.03-0.06;
  scaling by a window's median reading cut it only to 0.13-0.21.  The
  scales are printed beside the result.

A run is a series of cycles -- compile, load, match -- so every phase is
sampled across the whole run rather than in one block.  Each step of a
cycle fills a slot: it repeats until the slot has lasted SLOT_MIN_S.  The
cycles run for the run's ``seconds``, whole cycles only: a cycle starts
only if one as long as the last still ends in time, and at least one runs.
``compile_s`` and ``setup_s`` are medians of scaled rounds, a round being
one compile of every pattern set or one load of every automaton.  A
subject's latency is the median of its scaled passes.  Only a fingerprint
of each match set is kept, so the heap the timed steps run in, and the
peak memory, hold one subject's matches at a time.

Correctness is checked after the timed phases: every match set against the
brute-force oracle, and every work-item count against the subject's size.
"""

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import setmatch
from setmatch import (DepthFirst, PatternSet, brute_force_matches, build,
                      evaluate, from_json, parse_term, read_signature, to_json)

from_text = PatternSet.from_text
DEPTH_FIRST = DepthFirst()

SLOT_MIN_S = 2.0      # a step in a cycle repeats until it has run this long
GAUGE_EVERY_S = 0.1   # least gap between two timings of the reference loop
# Median time of reference_loop on a 2-vCPU Xeon at 2.1 GHz (CPython 3.11),
# so scaled times read close to that machine's typical seconds.
REFERENCE_LOOP_S = 0.0011
ORACLE_WORKERS = 2
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIB = 2 ** 20


@dataclass
class Tally:
    """Operations attempted and failed; an operation is one compile or match."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.note(what)

    def note(self, what: str) -> None:
        if len(self.notes) < 10:
            self.notes.append(what)


class _Item:
    __slots__ = ("key", "tags")

    def __init__(self, key, tags):
        self.key = key
        self.tags = tags


def _reference_key(i: int) -> tuple:
    return (i * 40503) & 1023, i & 7


def reference_loop() -> int:
    """Fixed pure-Python work of the program's kind -- calls, tuple keys,
    dict lookups, small objects, frozensets, a keyed sort, string joins --
    that never touches setmatch."""
    table, items = {}, []
    for i in range(500):
        key = _reference_key(i)
        table[key] = table.get(key, 0) + 1
        items.append(_Item(key, frozenset((i & 15, i & 7))))
    items.sort(key=lambda item: (item.key[1], item.key[0]))
    tags = set()
    for item in items:
        tags |= item.tags
    text = ",".join(str(item.key[0]) for item in items[:200])
    return len(sorted(table)) + len(tags) + len(text.split(","))


class Gauge:
    """The scale from measured time to time at the reference speed.

    Between operations, when GAUGE_EVERY_S has passed since the last
    reading, it times ``reference_loop``; the scale is REFERENCE_LOOP_S over
    that reading, and applies to the operations that follow it.
    """

    def __init__(self):
        self.scales = []  # one per reading
        self.due = 0.0

    def tick(self) -> float:
        if time.perf_counter() >= self.due:
            enabled = gc.isenabled()
            gc.disable()  # the loop makes no cycles; keep the program's heap out of it
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            if enabled:
                gc.enable()
            self.scales.append(REFERENCE_LOOP_S / (t1 - t0))
            self.due = t1 + GAUGE_EVERY_S
        return self.scales[-1]


def describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def signatures(w):
    return [read_signature(src.signature) for src in w.sources]


def compile_round(w, sigs, tally: Tally, gauge=None):
    """Compile every pattern set once; returns (seconds per set, JSON texts)."""
    times, texts = [], []
    for k, (src, sig) in enumerate(zip(w.sources, sigs)):
        scale = gauge.tick() if gauge else 1.0
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            text = to_json(build(from_text(src.patterns, sig), src.label))
        except Exception as exc:  # a failed compile is counted, not fatal
            tally.fail(f"compile {k}: {describe(exc)}")
            text = None
        times.append((time.perf_counter() - t0) * scale)
        texts.append(text)
    return times, texts


def load_round(texts, tally: Tally, gauge=None):
    """``from_json`` every compiled automaton once; returns (seconds per
    automaton, automata)."""
    times, autos = [], []
    for k, text in enumerate(texts):
        scale = gauge.tick() if gauge else 1.0
        t0 = time.perf_counter()
        a = None
        if text is not None:
            try:
                a = from_json(text)
            except Exception as exc:  # its subjects then fail as matches
                tally.note(f"load {k}: {describe(exc)}")
        times.append((time.perf_counter() - t0) * scale)
        autos.append(a)
    return times, autos


@dataclass
class Matches:
    """What the match passes found and how long each subject took."""

    found: list       # fingerprint of the first successful pass's match set, or None
    agreeing: list    # passes whose match set had that fingerprint
    times: list       # seconds of every successful match, per subject
    items: int = 0    # work items evaluate reported, summed over passes
    nodes: int = 0    # subject nodes matched, summed over passes

    @classmethod
    def empty(cls, n: int) -> "Matches":
        return cls([None] * n, [0] * n, [[] for _ in range(n)])


def match_pass(w, autos, tally: Tally, out: Matches, gauge=None) -> None:
    """Parse and evaluate every subject once, timing each one."""
    for k, s in enumerate(w.subjects):
        scale = gauge.tick() if gauge else 1.0
        tally.attempted += 1
        a = autos[s.automaton]
        if a is None:
            tally.fail(f"subject {k}: automaton {s.automaton} did not compile")
            continue
        t0 = time.perf_counter()
        try:
            term = parse_term(s.text, a.signature)
            report = evaluate(a, term, DEPTH_FIRST)
        except Exception as exc:
            tally.fail(f"subject {k}: {describe(exc)}")
            continue
        dt = (time.perf_counter() - t0) * scale
        del term  # freeing a large subject is not part of the match
        out.times[k].append(dt)
        out.nodes += s.nodes
        out.items += report.node_count
        got = fingerprint(report.matches)
        if report.node_count != s.nodes:
            tally.fail(f"subject {k}: {report.node_count} work items for "
                       f"{s.nodes} nodes")
        elif out.found[k] is None:
            out.found[k] = got
            out.agreeing[k] = 1
        elif got == out.found[k]:
            out.agreeing[k] += 1
        else:
            tally.fail(f"subject {k}: match set changed between passes")


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile ``p`` among ``n`` values, counted from 1."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def tail_percentile(samples: int) -> float:
    """The highest reported percentile with at least ten samples beyond it."""
    return max(p for p in PERCENTILES if samples - _rank(p, samples) >= 10)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB


def _slot(step) -> None:
    """Run ``step`` once, then again until the slot has lasted SLOT_MIN_S."""
    start = time.perf_counter()
    while True:
        gc.collect()
        step()
        if time.perf_counter() - start >= SLOT_MIN_S:
            return


# -- the correctness gate --------------------------------------------------

def fingerprint(matches) -> tuple:
    """(count, hash) of a match set, so no match set needs storing.

    A match is a (pattern id, position) pair of ints and tuples of ints,
    whose hashes do not depend on PYTHONHASHSEED, so the oracle's worker
    processes compute the same fingerprints.  The frozenset a report
    holds keeps its elements' hashes, so this costs one pass over them.
    """
    return len(matches), hash(frozenset(matches))


def oracle_worker() -> None:
    """Oracle worker process: a JSON job on stdin, JSON fingerprints on stdout.

    The job is ``{"sources": [[signature, patterns], ...], "subjects":
    [[automaton index, text], ...]}``.
    """
    job = json.load(sys.stdin)
    pattern_sets = [from_text(patterns, read_signature(sig)) for sig, patterns in job["sources"]]
    json.dump([fingerprint(brute_force_matches(pattern_sets[k],
                                               parse_term(text, pattern_sets[k].signature)))
               for k, text in job["subjects"]], sys.stdout)


def oracle_fingerprints(w) -> list:
    """Fingerprint of every subject's match set by brute force.

    The subjects are dealt round-robin to ORACLE_WORKERS processes; the
    oracle runs after every timed phase, so they contend with nothing.
    """
    subjects = [(s.automaton, s.text) for s in w.subjects]
    sources = [(src.signature, src.patterns) for src in w.sources]
    n = min(ORACLE_WORKERS, len(subjects))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(setmatch.__file__)),
                            os.path.dirname(os.path.abspath(__file__))])
    procs = [subprocess.Popen([sys.executable, "-c", "import bench; bench.oracle_worker()"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
             for _ in range(n)]
    try:
        for i, proc in enumerate(procs):
            # a worker reads its whole job before it writes, so this cannot block
            proc.stdin.write(json.dumps({"sources": sources, "subjects": subjects[i::n]}))
            proc.stdin.close()
        outputs = [proc.stdout.read() for proc in procs]
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.stdout.close()
            proc.wait()
    if any(proc.returncode != 0 for proc in procs):
        raise RuntimeError("an oracle worker failed")
    prints = [None] * len(subjects)
    for i, text in enumerate(outputs):
        prints[i::n] = [tuple(fp) for fp in json.loads(text)]
    return prints


def input_digest(w) -> str:
    h = hashlib.sha256(sys.version.encode())  # hashes may change between versions
    for src in w.sources:
        h.update(f"{src.label}\0{src.signature}\0{src.patterns}\0".encode())
    for s in w.subjects:
        h.update(f"{s.automaton}\0{s.text}\0".encode())
    return h.hexdigest()[:16]


def expected_fingerprints(w, cache_dir) -> list:
    """Oracle fingerprints, cached on disk by workload, seed and input digest.

    Only the oracle ever writes the cache; the digest keeps a changed
    generator from reading stale results.
    """
    path = os.path.join(cache_dir, "oracle", f"{w.name}-{w.seed}-{input_digest(w)}.json")
    try:
        with open(path) as fh:
            return [tuple(fp) for fp in json.load(fh)]
    except (OSError, ValueError):
        pass
    prints = oracle_fingerprints(w)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(prints, fh)
    os.replace(tmp, path)
    return prints


def check(expected, out: Matches, tally: Tally) -> None:
    """Charge every pass whose match set differs from the oracle's."""
    for k, want in enumerate(expected):
        got = out.found[k]
        if got is not None and got != want:
            tally.fail(f"subject {k}: match set differs from the oracle "
                       f"({got[0]} found, {want[0]} expected)", out.agreeing[k])


# -- one untraced run --------------------------------------------------------

def run(w, seconds: float, cache_dir):
    """Measure ``w`` end to end; returns (metrics, details, tally).

    ``metrics`` maps each end-to-end metric to (value, unit); ``details``
    holds the sample counts and the figures that are printed but not gated.
    """
    tally = Tally()
    gauge = Gauge()
    sigs = signatures(w)
    texts = autos = None
    compile_times = []  # seconds of each round that compiled every pattern set
    load_times = []     # seconds of each round that loaded every automaton

    def compile_once():
        nonlocal texts
        times, compiled = compile_round(w, sigs, tally, gauge)
        compile_times.append(sum(times))
        if texts is None:
            texts = compiled
        elif compiled != texts:
            tally.fail("compile output differs between rounds")

    def load_once():
        nonlocal autos
        autos = None  # never hold two copies of every automaton
        gc.collect()
        times, autos = load_round(texts, tally, gauge)
        load_times.append(sum(times))

    out = Matches.empty(len(w.subjects))
    start = time.perf_counter()
    cycles, cycle_s = 0, 0.0
    while cycles == 0 or time.perf_counter() - start + cycle_s <= seconds:
        t0 = time.perf_counter()
        for step in (compile_once, load_once, lambda: match_pass(w, autos, tally, out, gauge)):
            _slot(step)
        cycle_s = time.perf_counter() - t0
        cycles += 1
    measured_s = time.perf_counter() - start
    rss = peak_rss_mib()

    check(expected_fingerprints(w, cache_dir), out, tally)
    latency = [statistics.median(t) for t in out.times if t] or [0.0]
    matched_nodes = sum(s.nodes for s, t in zip(w.subjects, out.times) if t)
    tail = tail_percentile(len(w.subjects))
    metrics = {
        "setup_s": (statistics.median(load_times), "s"),
        "compile_s": (statistics.median(compile_times), "s"),
        "match_knodes_per_s": (matched_nodes / sum(latency) / 1e3 if sum(latency) else 0.0,
                               "knodes/s"),
        "match_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "match_tail_ms": (percentile(latency, tail) * 1e3, "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    details = {
        "automaton_mib": (sum(len(t) for t in texts if t) / MIB, "MiB"),
        "ops_failed_frac": (tally.failed / tally.attempted, "ratio"),
        "cycles": cycles,
        "measured_s": measured_s,
        "compile_rounds": len(compile_times),
        "load_rounds": len(load_times),
        "passes": max(len(t) for t in out.times),
        "match_tail_percentile": tail,
        "scales": gauge.scales,
    }
    return metrics, details, tally


def sizes(texts, autos) -> dict:
    """Deterministic sizes of compiled automata: JSON bytes and table counts."""
    states = [st for a in autos if a is not None for st in a.states]
    return {
        "automata": sum(a is not None for a in autos),
        "json_bytes": sum(len(t) for t in texts if t is not None),
        "states": len(states),
        "transitions": sum(len(tr.targets) for st in states for tr in st.delta.values()),
        "delta_entries": sum(len(st.delta) for st in states),
        "goals": sum(len(st.goals or ()) for st in states),
    }


def count_record(w) -> dict:
    """``sizes`` of the workload compiled and loaded once, untimed."""
    tally = Tally()
    _, texts = compile_round(w, signatures(w), tally)
    _, autos = load_round(texts, tally)
    return dict(sizes(texts, autos), failed=tally.failed)
