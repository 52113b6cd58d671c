"""Acceptance suite.

Ten numbered criteria, each with its stated tolerance and time budget;
run with ``pytest -v`` for one pass/fail line per criterion.  The random
corpus is fully seeded, so every run checks the same ten thousand
instances.
"""

import random
import time

import pytest

from setmatch import (LEFTMOST, RIGHTMOST, BreadthFirst, DepthFirst,
                      Parallel, PatternSet, Signature, Term,
                      brute_force_matches, build, comb_pattern_set, domain,
                      evaluate, evaluation_tree, format_term, parse_term,
                      tree_nodes)
from setmatch.automaton import reachable_position_bound
from setmatch.goals import Goal, fresh_goal
from setmatch.positions import gcp, join, prefix_leq
from setmatch.oracle import (profile_signature, random_pattern_set,
                             random_subject)

# -- shared corpus ----------------------------------------------------------

GROUPS = 1250
SUBJECTS_PER_GROUP = 8
PROFILES = ({0: 2, 1: 2, 2: 2},
            {0: 2, 1: 1, 2: 1, 3: 1},
            {0: 3, 2: 2},
            {0: 1, 1: 2, 2: 1})


def _subject_size(i: int) -> int:
    # mostly small subjects, a tenth mid-sized, every hundredth at the cap
    if i % 100 == 53:
        return 200
    if i % 10 == 7:
        return 50 + (i * 13) % 100
    return 8 + (i * 37) % 40


@pytest.fixture(scope="module")
def corpus():
    """10^4 seeded (pattern set, subject) instances with all results.

    Returns a dict with the built automata, the subjects, the match sets
    computed by the brute-force oracle and by every traversal strategy,
    and wall-clock durations per phase.
    """
    times = {}
    t0 = time.perf_counter()
    groups = []
    for g in range(GROUPS):
        sig = profile_signature(PROFILES[g % 4])
        rng = random.Random(11000 + g)
        ps = random_pattern_set(rng, sig, count=1 + g % 8, depth=1 + g % 4,
                                wildcard_density=(0.3, 0.5, 0.7)[g % 3])
        groups.append((ps, build(ps)))
    times["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    instances = []
    for g, (ps, _) in enumerate(groups):
        for j in range(SUBJECTS_PER_GROUP):
            i = g * SUBJECTS_PER_GROUP + j
            rng = random.Random(90000 + i)
            instances.append((g, random_subject(rng, ps.signature,
                                                _subject_size(i))))
    times["subjects"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    brute = [brute_force_matches(groups[g][0], s) for g, s in instances]
    times["oracle"] = time.perf_counter() - t0

    runs = {}
    core = [("df", DepthFirst(), True), ("bf", BreadthFirst(), False),
            ("p2", Parallel(2), False)]
    extra = [("p4", Parallel(4), False), ("p8", Parallel(8), False)]
    for phase, strategies in (("core", core), ("extra", extra)):
        t0 = time.perf_counter()
        for name, strategy, instrument in strategies:
            runs[name] = [evaluate(groups[g][1], s, strategy,
                                   instrument=instrument)
                          for g, s in instances]
        times[phase] = time.perf_counter() - t0

    return {"groups": groups, "instances": instances, "brute": brute,
            "runs": runs, "times": times}


@pytest.fixture(scope="module")
def comb_automata():
    """t_n family automata for n = 1..8 under both label strategies."""
    t0 = time.perf_counter()
    autos = {(n, strategy): build(comb_pattern_set(n), strategy)
             for n in range(1, 9) for strategy in (RIGHTMOST, LEFTMOST)}
    return autos, time.perf_counter() - t0


# -- criteria ---------------------------------------------------------------

def test_criterion_1_rotation_patterns_end_to_end():
    # two overlapping patterns, one small subject, every strategy; < 1 s
    t0 = time.perf_counter()
    sig = Signature()
    sig.declare("f", 2)
    sig.declare("a", 0)
    ps = PatternSet.from_text("f(f(_, _), _)\nf(_, f(_, _))\n", sig)
    a = build(ps)
    subject = parse_term("f(f(a, f(a, a)), a)", sig)
    dom = domain(subject)
    assert len(dom) == 7
    for strategy in (DepthFirst(), BreadthFirst(), Parallel(2)):
        report = evaluate(a, subject, strategy, instrument=True)
        assert report.matches == {(0, ()), (1, (1,))}
        assert len(report.inspected) == 7
        assert sorted(report.inspected) == sorted(dom)
        assert report.node_count == 7
    assert time.perf_counter() - t0 < 1.0


def _expected_nested_states(sig):
    def goal(pairs, announce):
        obligation = frozenset((parse_term(t, sig, allow_wildcard=True), pos)
                               for t, pos in pairs)
        return Goal(obligation, 0, announce)

    l = "f(f(_,g(_)),g(_))"
    return (
        frozenset({goal([(l, ())], ())}),
        frozenset({goal([("f(_,g(_))", (1,)), ("g(_)", (2,))], ()),
                   goal([(l, (1,))], (1,)),
                   goal([(l, (2,))], (2,))}),
        frozenset({goal([("f(_,g(_))", (1,))], ()),
                   goal([(l, (1,))], (1,))}),
        frozenset({goal([("g(_)", (1, 2))], ()),
                   goal([("f(_,g(_))", (1, 1)), ("g(_)", (1, 2))], (1,)),
                   goal([(l, (1, 1))], (1, 1)),
                   goal([(l, (1, 2))], (1, 2))}),
    )


def test_criterion_2_nested_pattern_automaton_reconstruction():
    # the four-state machine for f(f(_,g(_)),g(_)), rightmost labels,
    # compared state by state up to renaming; imported here, as the
    # benchmark reads this module's corpus without the test directory
    from conftest import _shifted
    sig = Signature()
    for name, arity in (("f", 2), ("g", 1), ("a", 0)):
        sig.declare(name, arity)
    ps = PatternSet.from_text("f(f(_, g(_)), g(_))\n", sig)
    a = build(ps, RIGHTMOST)
    assert len(a.states) == 4

    expected = _expected_nested_states(sig)
    by_goals = {frozenset(s.goals): s for s in a.states}
    assert set(by_goals) == set(expected)

    deep = by_goals[expected[3]]
    assert deep.label == (1, 2)
    assert deep.delta["g"].outputs == ((0, 0),)

    two_branch = by_goals[expected[1]]
    assert {shift for _, shift in _shifted(two_branch, two_branch.delta["g"])} \
        == {(), (2, 1)}


def test_criterion_3_evaluation_tree_bijection():
    # node count equals the subject's position count, phi is a bijection,
    # and the match set agrees with the independent oracle
    ps = PatternSet.from_text("f(f(_, g(_)), g(_))\n")
    ps.signature.declare("a", 0)
    a = build(ps)
    subject = parse_term("f(g(a), f(f(a, g(a)), g(a)))", ps.signature)
    dom = domain(subject)
    assert len(dom) == 10

    root = evaluation_tree(a, subject)
    nodes = list(tree_nodes(root))
    assert len(nodes) == len(dom)
    images = [n.pointer + a.states[n.state].label for n in nodes]
    assert len(set(images)) == len(images)
    assert set(images) == dom

    report = evaluate(a, subject)
    assert report.matches == brute_force_matches(ps, subject) == {(0, (2,))}


def test_criterion_4_label_strategy_size_laws(comb_automata):
    # rightmost grows linearly (2n), leftmost quadratically (n^2+n);
    # the state count excludes the implicit final state, which the n=2
    # rightmost machine calibrates to its four named states; < 10 s
    autos, elapsed = comb_automata
    assert len(autos[(2, RIGHTMOST)].states) == 4
    for n in range(1, 9):
        assert len(autos[(n, RIGHTMOST)].states) == 2 * n, n
        assert len(autos[(n, LEFTMOST)].states) == n * n + n, n
    assert elapsed < 10.0


def test_criterion_5_oracle_equivalence_on_random_corpus(corpus):
    # >= 10^4 seeded instances, three strategies, zero mismatches; < 2 min
    instances = corpus["instances"]
    assert len(instances) == 10_000
    mismatches = 0
    for i in range(len(instances)):
        expected = corpus["brute"][i]
        for name in ("df", "bf", "p2"):
            if corpus["runs"][name][i].matches != expected:
                mismatches += 1
    assert mismatches == 0
    times = corpus["times"]
    spent = times["build"] + times["subjects"] + times["oracle"] + times["core"]
    assert spent < 120.0, times


def test_criterion_6_every_position_inspected_exactly_once(corpus):
    for i, (g, subject) in enumerate(corpus["instances"]):
        dom = sorted(domain(subject))
        report = corpus["runs"]["df"][i]
        assert sorted(report.inspected) == dom
        for name in ("df", "bf", "p2", "p4", "p8"):
            assert corpus["runs"][name][i].node_count == len(dom)


def test_criterion_7_strategy_independence(corpus):
    runs = corpus["runs"]
    for i in range(len(corpus["instances"])):
        reference = runs["df"][i].matches
        for name in ("bf", "p2", "p4", "p8"):
            assert runs[name][i].matches == reference, i


def test_parsed_and_built_subjects_agree(corpus):
    # a parsed subject runs on its flat form, a built one is flattened first:
    # the same matches, work items and inspection order under each strategy
    groups = corpus["groups"]
    for g, subject in corpus["instances"]:
        a = groups[g][1]
        parsed = parse_term(format_term(subject), a.signature)
        for strategy in (DepthFirst(), BreadthFirst(), Parallel(2), Parallel(4)):
            want = evaluate(a, subject, strategy, instrument=True)
            got = evaluate(a, parsed, strategy, instrument=True)
            assert (got.matches, got.node_count, got.inspected) \
                == (want.matches, want.node_count, want.inspected)


def _check_state_invariants(a, bound):
    for s in a.states:
        assert any(g.is_root for g in s.goals)
        positions = {p for g in s.goals for p in g.positions()}
        ordered = sorted(positions)
        for i, p in enumerate(ordered):
            for q in ordered[i + 1:]:
                assert not prefix_leq(p, q) and not prefix_leq(q, p)
        for p in positions:
            for pid, pattern in enumerate(a.patterns):
                assert fresh_goal(pid, pattern, p) in set(s.goals)
        assert positions <= bound


def test_criterion_8_state_invariants_everywhere(corpus, comb_automata):
    # root-goal existence, pairwise-incomparable positions, fresh-goal
    # completeness, and the reachable-position bound, over every
    # automaton built in criteria 1-5
    singles = [PatternSet.from_text("f(f(_, _), _)\nf(_, f(_, _))\n"),
               PatternSet.from_text("f(f(_, g(_)), g(_))\n")]
    checked = 0
    for ps in singles:
        a = build(ps)
        _check_state_invariants(a, reachable_position_bound(ps))
        checked += len(a.states)
    for a in comb_automata[0].values():
        _check_state_invariants(a, reachable_position_bound(a.patterns))
        checked += len(a.states)
    for ps, a in corpus["groups"]:
        _check_state_invariants(a, reachable_position_bound(ps))
        checked += len(a.states)
    assert checked > 5000


def test_criterion_9_position_lattice_laws():
    # 10^5 seeded iterations, each checking the full identity list; < 5 s
    rng = random.Random(0x5EED)
    t0 = time.perf_counter()
    for _ in range(100_000):
        n = rng.getrandbits(20)
        p = tuple((n >> (2 * k)) % 4 + 1 for k in range(n % 5))
        q = tuple((n >> (2 * k + 1)) % 4 + 1 for k in range((n >> 3) % 5))
        r = p[:n % (len(p) + 1)]
        assert prefix_leq(p, p)
        assert prefix_leq(p + q, p)
        assert prefix_leq(p, p + q) == (q == ())
        assert prefix_leq(p + q, p + r) == prefix_leq(q, r)
        if prefix_leq(p, q) and prefix_leq(q, p):
            assert p == q
        if prefix_leq(p, q) and prefix_leq(q, r):
            assert prefix_leq(p, r)
        # of two prefixes of one position, the longer lies below the shorter
        assert prefix_leq(r, p[:n % (len(p) + 1) // 2])
        assert join(p, q) == join(q, p)
        assert gcp({p}) == p
        P, Q = {p, p + q}, {q, r}
        assert gcp(P | Q) == join(gcp(P), gcp(Q))
    assert time.perf_counter() - t0 < 5.0


def test_criterion_10_linear_scaling_on_balanced_subjects():
    # one fixed automaton, full binary subjects from ~10^3 to ~10^6 nodes:
    # work items equal the subject size exactly and per-node time stays
    # within a 3x band across three orders of magnitude
    sig = Signature()
    f = sig.declare("f", 2)
    sig.declare("g", 1)
    a_sym = sig.declare("a", 0)
    ps = PatternSet.from_text("f(f(_, g(_)), g(_))\n", sig)
    auto = build(ps)

    per_node = []
    sizes = []
    for depth, repeats in ((9, 5), (13, 3), (16, 2), (19, 1)):
        subject = Term(a_sym)
        for _ in range(depth):
            subject = Term(f, (subject, subject))
        size = 2 ** (depth + 1) - 1
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = evaluate(auto, subject, DepthFirst())
            best = min(best, time.perf_counter() - t0)
        assert report.node_count == size
        assert report.matches == frozenset()
        sizes.append(size)
        per_node.append(best / size)
    assert min(sizes) >= 10 ** 3 and max(sizes) >= 10 ** 6
    assert max(per_node) <= 3.0 * min(per_node), per_node
