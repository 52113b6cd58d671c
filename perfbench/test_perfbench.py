"""Self-tests of the benchmark: its inputs, its oracle cache and its tracer.

Run from the repository root with ``python -m pytest perfbench``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import setmatch.automaton  # noqa: E402
from setmatch import (RIGHTMOST, PatternSet, build, evaluate, format_term,  # noqa: E402
                      parse_term, read_signature, term_size)
from setmatch.oracle import profile_signature, random_subject  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import HELD_OUT_SEED  # noqa: E402


def _acceptance():
    spec = importlib.util.spec_from_file_location(
        "acceptance_recipe", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_seed_zero_is_the_acceptance_corpus():
    acc = _acceptance()
    assert workloads.GROUPS == acc.GROUPS
    assert workloads.SUBJECTS_PER_GROUP == acc.SUBJECTS_PER_GROUP
    assert workloads.PROFILES == acc.PROFILES
    n = acc.GROUPS * acc.SUBJECTS_PER_GROUP
    assert all(workloads.corpus_subject_size(i) == acc._subject_size(i) for i in range(n))
    fixture = Path(acc.__file__).read_text()
    assert f"random.Random({workloads.PATTERN_SEED_BASE} + g)" in fixture
    assert f"random.Random({workloads.SUBJECT_SEED_BASE} + i)" in fixture

    w = workloads.corpus(0)
    assert len(w.sources) == 1250
    assert len(w.subjects) == 10_000
    assert w.nodes == 343_275
    record = bench.count_record(w)
    assert record["states"] == 7_329
    assert record["failed"] == 0


def test_deep_subjects_parse_and_match_at_every_seed():
    limit = sys.getrecursionlimit()
    assert workloads.DEEP_MAX_DEPTH + 150 < limit
    sizes = [3 * d + 1 for d in workloads.DEEP_DEPTHS for _ in range(workloads.DEEP_PER_DEPTH)]
    texts = set()
    for seed in (0, 1, HELD_OUT_SEED):
        w = workloads.deep(seed)
        autos = [build(PatternSet.from_text(src.patterns, read_signature(src.signature)),
                       src.label) for src in w.sources]
        assert [s.nodes for s in w.subjects] == sizes
        assert sorted(s.automaton for s in w.subjects) == [0] * 20 + [1] * 20
        for s in w.subjects:
            a = autos[s.automaton]
            report = evaluate(a, parse_term(s.text, a.signature))
            assert report.node_count == s.nodes
        texts.add(tuple(s.text for s in w.subjects))
    assert len(texts) == 3


def test_write_term_agrees_with_format_term():
    import random
    sig = profile_signature(workloads.PROFILES[1])
    for seed in range(20):
        t = random_subject(random.Random(seed), sig, 60)
        text, nodes = workloads.write_term(t)
        assert text == format_term(t)
        assert parse_term(text, sig) == t
        assert nodes == term_size(t)


_COUNTS = """
import json, sys
import bench, workloads
print(json.dumps({name: bench.count_record(make(1)) for name, make in workloads.WORKLOADS.items()},
                 sort_keys=True))
"""


def test_count_metrics_do_not_depend_on_the_hash_seed():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    procs = [subprocess.Popen([sys.executable, "-c", _COUNTS], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path))
             for seed in ("0", "1")]
    outs = []
    for p in procs:
        stdout, stderr = p.communicate(timeout=600)
        assert p.returncode == 0, stderr
        outs.append(stdout)
    assert outs[0] == outs[1]
    counts = json.loads(outs[0])
    assert set(counts) == set(workloads.WORKLOADS)
    assert all(c["failed"] == 0 and c["json_bytes"] > 0 for c in counts.values())


def _tiny():
    sig = "f/2\ng/1\na/0\nb/0\n"
    sources = (workloads.Source(sig, "f(_,g(_))\ng(a)\n", RIGHTMOST),)
    subjects = (workloads.Subject(0, "f(a,g(b))", 4), workloads.Subject(0, "g(a)", 2))
    return workloads.Workload("tiny", 7, sources, subjects)


def test_oracle_cache_is_keyed_by_workload_seed_and_inputs(tmp_path):
    w = _tiny()
    want = [bench.fingerprint({(0, ())}), bench.fingerprint({(1, ())})]
    assert bench.oracle_fingerprints(w) == want
    assert bench.expected_fingerprints(w, str(tmp_path)) == want
    (cached,) = (tmp_path / "oracle").iterdir()
    assert cached.name.startswith("tiny-7-")
    assert bench.expected_fingerprints(w, str(tmp_path)) == want  # read back
    other = workloads.Workload("tiny", 7, w.sources, w.subjects[:1])
    assert bench.expected_fingerprints(other, str(tmp_path)) == want[:1]
    assert len(list((tmp_path / "oracle").iterdir())) == 2


def test_a_wrong_match_set_fails_the_run():
    w = _tiny()
    tally = bench.Tally()
    _, texts = bench.compile_round(w, bench.signatures(w), tally)
    _, autos = bench.load_round(texts, tally)
    out = bench.Matches.empty(len(w.subjects))
    bench.match_pass(w, autos, tally, out)
    bench.match_pass(w, autos, tally, out)
    bench.check([bench.fingerprint(set()), bench.fingerprint({(1, ())})], out, tally)
    assert (tally.attempted, tally.failed) == (5, 2)


def test_the_gauge_reads_when_due_and_scales_what_follows():
    gauge = bench.Gauge()
    scale = gauge.tick()
    assert gauge.tick() == scale and len(gauge.scales) == 1  # not due yet
    gauge.due = 0.0
    gauge.tick()
    assert len(gauge.scales) == 2 and all(v > 0 for v in gauge.scales)

    class Frozen:
        def tick(self):
            return 0.0

    w = _tiny()
    times, texts = bench.compile_round(w, bench.signatures(w), bench.Tally(), Frozen())
    assert times == [0.0] * len(w.sources)
    times, autos = bench.load_round(texts, bench.Tally(), Frozen())
    assert times == [0.0] * len(w.sources)
    out = bench.Matches.empty(len(w.subjects))
    bench.match_pass(w, autos, bench.Tally(), out, Frozen())
    assert out.times == [[0.0]] * len(w.subjects)


def test_tracer_restores_every_site_and_accounts_for_build():
    originals = [getattr(module, attr) for module, attr, _ in tracing.SITES]
    goal_outcome = setmatch.automaton.goal_outcome
    w = workloads.deep(0)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(tracing.SITES):
            assert setmatch.automaton.goal_outcome is not goal_outcome
            bench.compile_round(w, bench.signatures(w), bench.Tally())
            raise RuntimeError("leave early")
    assert [getattr(module, attr) for module, attr, _ in tracing.SITES] == originals

    layers = tracer.layers()
    b = layers["automaton.build"]
    assert b.calls == 2
    assert layers["goals.goal_outcome"].calls > 0
    # the wrapped goals and automaton helpers take most of build's time, so
    # its self time is well below its total
    assert b.self_seconds < 0.6 * b.seconds
    assert all(layer.self_seconds >= -1e-9 for layer in layers.values())


@pytest.mark.parametrize("samples, tail", [(24, 50), (40, 75), (66, 75), (100, 90),
                                           (1000, 99), (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(samples, tail):
    assert bench.tail_percentile(samples) == tail
    values = list(range(samples))
    assert sum(v > bench.percentile(values, tail) for v in values) >= 10
