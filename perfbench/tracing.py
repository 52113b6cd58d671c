"""The traced run: per-layer figures from spans around calls into setmatch.

Public functions are wrapped where their callers look them up, and put back
afterwards: the goals helpers and the automaton's own helpers in
``setmatch.automaton``'s globals, the entry points in this benchmark's
``bench`` module.  Each call leaves a span (name, start, end, parent) in
memory; self times are derived from the spans, and the spans are written to
disk when the run ends.

``positions`` is not wrapped: ``goals`` calls it millions of times, so a
wrapper would swamp its cost, which shows in the ``goals`` self times
instead.  ``dot`` is off the compile -> match path.  ``canonical_goals``
sorts with ``goals``' own, unwrapped ``goal_sort_key``, so those calls
count in ``canonical_goals``; only ``build``'s direct calls show as
``goals.goal_sort_key``.

The end-to-end run never traces.  This run repeats one compile, load and
match section untraced and traced; the difference is the tracing overhead.
"""

import array
import contextlib
import functools
import gc
import io
import json
import os
import statistics
import tempfile
import time
from dataclasses import dataclass

import setmatch.automaton
import setmatch.cli
from setmatch import (BreadthFirst, DepthFirst, Parallel, brute_force_matches,
                      evaluate, parse_term)

import bench

SITES = (
    (bench, "from_text", "terms.from_text"),
    (bench, "parse_term", "terms.parse_term"),
    (bench, "build", "automaton.build"),
    (bench, "to_json", "serialization.to_json"),
    (bench, "from_json", "serialization.from_json"),
    (bench, "evaluate", "evaluate.evaluate"),
    (setmatch.automaton, "choose_label", "automaton.choose_label"),
    (setmatch.automaton, "outputs", "automaton.outputs"),
    (setmatch.automaton, "goal_outcome", "goals.goal_outcome"),
    (setmatch.automaton, "fresh_goal", "goals.fresh_goal"),
    (setmatch.automaton, "dependency_partition", "goals.dependency_partition"),
    (setmatch.automaton, "lift_class", "goals.lift_class"),
    (setmatch.automaton, "canonical_goals", "goals.canonical_goals"),
    (setmatch.automaton, "goal_sort_key", "goals.goal_sort_key"),
)

PAR_NODES = 20_000      # Parallel(2) runs on a prefix of the subjects this big ...
PAR_REPEATS = 3         # ... this many times, for its run-to-run spread
ORACLE_NODES = 10_000   # the oracle is timed on a prefix this big
CLI_FILES = 3           # pattern files and subject files run through the CLI


@dataclass
class Layer:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0


class Tracer:
    """Spans in flat arrays: name id, parent index (-1 at top), start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            start.append(0.0)
            end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                open_spans.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, sites):
        """Wrap every (module, attribute, span name) site; restore on exit."""
        saved = []
        try:
            for module, attr, name in sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layers(self) -> dict:
        """Total, self time and calls per span name; self = own minus children."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = array.array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {name: Layer() for name in self.names}
        for i in range(n):
            layer = out[self.names[self.name_of[i]]]
            d = end[i] - start[i]
            layer.seconds += d
            layer.self_seconds += d - covered[i]
            layer.calls += 1
        return out

    def write(self, stem: str) -> None:
        """``<stem>.json`` describes the columns stored in ``<stem>.bin``."""
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        columns = (("name", self.name_of), ("parent", self.parent),
                   ("start", self.start), ("end", self.end))
        with open(stem + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"spans": len(self.start), "names": self.names,
                       "columns": [[c, col.typecode, col.itemsize] for c, col in columns],
                       "byteorder": "native"}, fh, indent=1)


def _section(w, sigs, tally):
    """One compile, load and match of the whole workload."""
    gc.collect()
    t0 = time.perf_counter()
    _, texts = bench.compile_round(w, sigs, tally)
    _, autos = bench.load_round(texts, tally)
    out = bench.Matches.empty(len(w.subjects))
    bench.match_pass(w, autos, tally, out)
    return time.perf_counter() - t0, texts, autos, out


def _prefix(w, limit: int) -> list[int]:
    """Indices of the first subjects, up to ``limit`` nodes (at least one)."""
    picked, nodes = [], 0
    for k, s in enumerate(w.subjects):
        if picked and nodes + s.nodes > limit:
            break
        picked.append(k)
        nodes += s.nodes
    return picked


def _strategy_us_per_node(w, autos, terms, picked, expected, tally, strategy,
                          carry=False) -> float:
    """Evaluate the picked subjects once; checks every result."""
    gc.collect()
    seconds = 0.0
    nodes = 0
    for k in picked:
        s = w.subjects[k]
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            report = evaluate(autos[s.automaton], terms[k], strategy, carry_subterms=carry)
        except Exception as exc:
            tally.fail(f"subject {k}: {strategy}: {bench.describe(exc)}")
            continue
        seconds += time.perf_counter() - t0
        nodes += s.nodes
        if bench.fingerprint(report.matches) != expected[k] or report.node_count != s.nodes:
            tally.fail(f"subject {k}: {strategy} disagrees with the oracle")
    return seconds / nodes * 1e6 if nodes else 0.0


def _cli(w, texts, expected, tally, work_dir):
    """Median ms of in-process ``setmatch compile`` and ``setmatch match``."""
    compile_ms, match_ms = [], []
    os.makedirs(work_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        files = {}
        for k, src in enumerate(w.sources[:CLI_FILES]):
            sig, pats, out = (os.path.join(tmp, f"{k}.{ext}") for ext in ("sig", "patterns", "json"))
            for path, text in ((sig, src.signature), (pats, src.patterns)):
                with open(path, "w") as fh:
                    fh.write(text)
            tally.attempted += 1
            rc, secs, _ = _main(["compile", "--patterns", pats, "--signature", sig,
                                 "--label", src.label, "--out", out])
            compile_ms.append(secs * 1e3)
            if rc != 0 or _read(out) != texts[k]:
                tally.fail(f"cli compile {k}: exit {rc} or output differs from to_json")
            files[k] = out
        picked = [k for k, s in enumerate(w.subjects) if s.automaton in files][:CLI_FILES]
        for k in picked:
            s = w.subjects[k]
            term = os.path.join(tmp, f"subject{k}.term")
            with open(term, "w") as fh:
                fh.write(s.text + "\n")
            tally.attempted += 1
            rc, secs, stdout = _main(["match", "--automaton", files[s.automaton],
                                      "--term", term, "--json"])
            match_ms.append(secs * 1e3)
            got = (frozenset((m["pattern"], tuple(m["pos"])) for m in json.loads(stdout))
                   if rc == 0 else None)
            if got is None or bench.fingerprint(got) != expected[k]:
                tally.fail(f"cli match {k}: exit {rc} or matches differ from the oracle")
    return statistics.median(compile_ms), statistics.median(match_ms)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _main(argv):
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = setmatch.cli.main(argv)
    except Exception as exc:  # reported as a failed operation by the caller
        rc = bench.describe(exc)
    return rc, time.perf_counter() - t0, buf.getvalue()


def run(w, cache_dir):
    """Per-layer metrics of ``w``; returns (metrics, details, tally)."""
    tally = bench.Tally()
    sigs = bench.signatures(w)
    expected = bench.expected_fingerprints(w, cache_dir)

    untraced_s, _, _, out = _section(w, sigs, tally)
    bench.check(expected, out, tally)
    del out
    tracer = Tracer()
    with tracer.installed(SITES):
        traced_s, texts, autos, out = _section(w, sigs, tally)
    bench.check(expected, out, tally)
    layers = tracer.layers()
    stem = os.path.join(cache_dir, "trace", f"{w.name}-{w.seed}")
    tracer.write(stem)
    del tracer

    terms = [parse_term(s.text, autos[s.automaton].signature) for s in w.subjects]
    every = range(len(w.subjects))
    strategy = {
        name: _strategy_us_per_node(w, autos, terms, every, expected, tally, how, carry)
        for name, how, carry in (("df", DepthFirst(), False),
                                 ("df_carry", DepthFirst(), True),
                                 ("bf", BreadthFirst(), False))}
    par_prefix = _prefix(w, PAR_NODES)
    par2 = [_strategy_us_per_node(w, autos, terms, par_prefix, expected, tally, Parallel(2))
            for _ in range(PAR_REPEATS)]

    oracle_prefix = _prefix(w, ORACLE_NODES)
    gc.collect()
    t0 = time.perf_counter()
    for k in oracle_prefix:
        s = w.subjects[k]
        brute_force_matches(autos[s.automaton].patterns, terms[k])
    oracle_s = time.perf_counter() - t0
    oracle_nodes = sum(w.subjects[k].nodes for k in oracle_prefix)
    df_on_prefix = _strategy_us_per_node(w, autos, terms, oracle_prefix, expected, tally,
                                         DepthFirst())
    del terms

    cli_compile_ms, cli_match_ms = _cli(w, texts, expected, tally,
                                        os.path.join(cache_dir, "cli"))

    size = bench.sizes(texts, autos)
    parse = layers["terms.parse_term"]
    from_json_s = layers["serialization.from_json"].seconds

    def secs(name):
        return (layers[name].seconds, "s")

    metrics = {
        "terms.parse_term.us_per_node": (parse.seconds / out.nodes * 1e6, "us"),
        "terms.parse_term.calls": (parse.calls, "count"),
        "terms.from_text.s": secs("terms.from_text"),
        "automaton.build.s": secs("automaton.build"),
        "automaton.build.self_s": (layers["automaton.build"].self_seconds, "s"),
        "automaton.build.states": (size["states"], "count"),
        "automaton.build.transitions": (size["transitions"], "count"),
        "automaton.build.delta_entries": (size["delta_entries"], "count"),
        "automaton.build.goals_per_state": (size["goals"] / size["states"], "goals/state"),
        "automaton.build.new_state_ratio": (
            (size["states"] - size["automata"]) / size["transitions"], "ratio"),
        "automaton.outputs.s": secs("automaton.outputs"),
        "automaton.choose_label.s": secs("automaton.choose_label"),
        "goals.goal_outcome.s": secs("goals.goal_outcome"),
        "goals.goal_outcome.calls": (layers["goals.goal_outcome"].calls, "count"),
        "goals.fresh_goal.s": secs("goals.fresh_goal"),
        "goals.fresh_goal.calls": (layers["goals.fresh_goal"].calls, "count"),
        "goals.dependency_partition.s": secs("goals.dependency_partition"),
        "goals.lift_class.s": secs("goals.lift_class"),
        "goals.canonical_goals.s": secs("goals.canonical_goals"),
        "goals.goal_sort_key.s": secs("goals.goal_sort_key"),
        "serialization.to_json.s": secs("serialization.to_json"),
        "serialization.from_json.s": (from_json_s, "s"),
        "serialization.from_json.mb_per_s": (size["json_bytes"] / from_json_s / 1e6, "MB/s"),
        "serialization.json_bytes": (size["json_bytes"], "bytes"),
        "evaluate.df.us_per_node": (strategy["df"], "us"),
        "evaluate.df_carry.us_per_node": (strategy["df_carry"], "us"),
        "evaluate.bf.us_per_node": (strategy["bf"], "us"),
        "evaluate.par2.us_per_node": (statistics.median(par2), "us"),
        "evaluate.par2.spread": ((max(par2) - min(par2)) / statistics.median(par2), "ratio"),
        "evaluate.items_per_node": (out.items / out.nodes, "ratio"),
        "evaluate.matches": (sum(fp[0] for fp in out.found if fp is not None), "count"),
        "oracle.brute_force_matches.us_per_node": (oracle_s / oracle_nodes * 1e6, "us"),
        "oracle.speedup": (oracle_s / oracle_nodes * 1e6 / df_on_prefix, "ratio"),
        "cli.compile.ms": (cli_compile_ms, "ms"),
        "cli.match.ms": (cli_match_ms, "ms"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    build = layers["automaton.build"]
    details = {
        "spans": stem + ".json",
        "build_accounting": (build.self_seconds, build.seconds),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "par2_runs": par2,
        "par2_nodes": sum(w.subjects[k].nodes for k in par_prefix),
        "oracle_nodes": oracle_nodes,
    }
    return metrics, details, tally
