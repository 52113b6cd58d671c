"""Evaluator: strategies, instrumentation, the work-item tree."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings

from setmatch import (LEFTMOST, RIGHTMOST, BreadthFirst, DepthFirst,
                      InvariantError, Parallel, PatternSet, Signature,
                      SubjectError, Term, build, brute_force_matches,
                      comb_pattern, domain, evaluate, evaluation_tree,
                      matches, parse_term, subterm_at, tree_nodes)
from setmatch.automaton import Transition
from setmatch.evaluate import MAX_WORKERS

from conftest import subject_terms

ALL_STRATEGIES = (DepthFirst(), BreadthFirst(), Parallel(2), Parallel(4))


def test_rotation_end_to_end(assoc_automaton, assoc_subject):
    for strategy in ALL_STRATEGIES:
        report = evaluate(assoc_automaton, assoc_subject, strategy,
                          instrument=True)
        assert report.matches == {(0, ()), (1, (1,))}
        assert report.node_count == 7
        assert len(report.inspected) == 7
        assert sorted(report.inspected) == sorted(domain(assoc_subject))


def test_nested_pattern_found_once(nested_automaton, nested_subject):
    report = evaluate(nested_automaton, nested_subject, instrument=True)
    assert report.matches == {(0, (2,))}
    assert report.node_count == 10
    assert sorted(report.inspected) == sorted(domain(nested_subject))


def test_non_matching_constant_is_one_inspection(nested_automaton, sig_fga):
    report = evaluate(nested_automaton, parse_term("a", sig_fga),
                      instrument=True)
    assert report.matches == frozenset()
    assert report.node_count == 1
    assert report.inspected == ((),)


def test_count_inspections_requires_instrumentation(nested_automaton,
                                                    nested_subject):
    report = evaluate(nested_automaton, nested_subject)
    assert report.inspected is None


@settings(max_examples=60, deadline=None)
@given(subject_terms(max_depth=5))
def test_strategies_agree_with_brute_force(nested_pattern_set,
                                           nested_automaton, subject):
    expected = brute_force_matches(nested_pattern_set, subject)
    positions = sorted(domain(subject))
    for s in ALL_STRATEGIES:
        report = evaluate(nested_automaton, subject, s, instrument=True)
        assert report.matches == expected
        assert report.node_count == len(positions)
        assert sorted(report.inspected) == positions


@settings(max_examples=60, deadline=None)
@given(subject_terms(max_depth=5))
def test_inspections_cover_domain_exactly_once(nested_automaton, subject):
    report = evaluate(nested_automaton, subject, instrument=True)
    seen = sorted(report.inspected)
    assert seen == sorted(set(seen))
    assert set(seen) == domain(subject)
    assert report.node_count == len(seen)


@settings(max_examples=60, deadline=None)
@given(subject_terms(max_depth=5))
def test_emitted_matches_are_sound(nested_pattern_set, nested_automaton,
                                   subject):
    report = evaluate(nested_automaton, subject)
    for pid, pos in report.matches:
        assert matches(nested_pattern_set[pid], subject, pos)


def test_parallel_needs_a_worker(nested_automaton, nested_subject):
    with pytest.raises(ValueError):
        evaluate(nested_automaton, nested_subject, Parallel(0))


def test_parallel_worker_cap_starts_no_thread():
    before = threading.active_count()
    for workers in (10 ** 9, MAX_WORKERS + 1, -1):
        with pytest.raises(ValueError):
            Parallel(workers)
    assert threading.active_count() == before
    assert Parallel(MAX_WORKERS).workers == MAX_WORKERS


def test_unknown_strategy_object(nested_automaton, nested_subject):
    with pytest.raises(TypeError):
        evaluate(nested_automaton, nested_subject, "depth-first")


def test_foreign_subject_symbol_is_rejected(nested_automaton):
    other = Signature()
    zzz = other.declare("zzz", 0)
    with pytest.raises(SubjectError):
        evaluate(nested_automaton, Term(zzz))


def test_foreign_symbol_is_rejected_under_parallel(nested_automaton, sig_fga):
    other = Signature()
    zzz = other.declare("zzz", 0)
    f = sig_fga.symbol("f")
    subject = Term(f, (Term(zzz), Term(zzz)))
    with pytest.raises(SubjectError):
        evaluate(nested_automaton, subject, Parallel(3))


def test_wildcard_subject_is_rejected(nested_automaton, sig_fga):
    from setmatch.terms import WILDCARD
    f = sig_fga.symbol("f")
    a = sig_fga.symbol("a")
    with pytest.raises(SubjectError):
        evaluate(nested_automaton, Term(f, (Term(a), WILDCARD)))


def test_label_outside_subject_fails_loudly():
    a = build(PatternSet.from_text("a\n"))
    a.states[0].label = (3,)
    with pytest.raises(InvariantError, match="no subject node at 3;"):
        evaluate(a, parse_term("a", a.signature))


def test_shift_outside_subject_fails_loudly(assoc_pattern_set, assoc_subject):
    # every target of the initial state is sent one level below a leaf
    a = build(assoc_pattern_set)
    delta = a.states[a.initial].delta
    tr = delta["f"]
    assert tr.targets
    delta["f"] = Transition(tr.outputs, tuple((tid, (2, 1)) for tid, _ in tr.targets))
    for strategy in ALL_STRATEGIES:
        with pytest.raises(InvariantError, match=r"no subject node at 2\.1;"):
            evaluate(a, assoc_subject, strategy)


def test_duplicate_announcement_raises(assoc_pattern_set, assoc_subject):
    # a hand-edited automaton that announces every match twice
    a = build(assoc_pattern_set)
    for state in a.states:
        for name, tr in state.delta.items():
            state.delta[name] = Transition(tr.outputs * 2, tr.targets)
    for strategy in ALL_STRATEGIES:
        with pytest.raises(InvariantError, match="twice"):
            evaluate(a, assoc_subject, strategy)


def test_parallel_under_fast_thread_switching(assoc_automaton,
                                             assoc_signature):
    # more threads than cores, switching every microsecond: the threads
    # share the pointer cells of the dealt frontier and fill in their
    # positions, so a lost or torn update would change the match set
    f = assoc_signature.symbol("f")
    t = parse_term("a", assoc_signature)
    for _ in range(8):
        t = Term(f, (t, t))
    expected = brute_force_matches(assoc_automaton.patterns, t)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            report = evaluate(assoc_automaton, t, Parallel(8))
            assert report.matches == expected
            assert report.node_count == 2 ** 9 - 1
    finally:
        sys.setswitchinterval(old)
    assert not any(th.name.startswith("setmatch-eval")
                   for th in threading.enumerate())


def test_failure_inside_a_worker_is_reraised(nested_automaton, sig_fga):
    # the foreign leaf sits far below the frontier dealt to the threads
    f, g = sig_fga.symbol("f"), sig_fga.symbol("g")
    zzz = Signature().declare("zzz", 0)
    t = Term(zzz)
    for _ in range(30):
        t = Term(f, (Term(g, (parse_term("a", sig_fga),)), t))
    for strategy in (Parallel(2), Parallel(4)):
        with pytest.raises(SubjectError):
            evaluate(nested_automaton, t, strategy)


def _phi(a, node):
    return node.pointer + a.states[node.state].label


def test_tree_nodes_biject_with_positions(nested_automaton, nested_subject):
    root = evaluation_tree(nested_automaton, nested_subject)
    nodes = list(tree_nodes(root))
    assert len(nodes) == 10
    images = [_phi(nested_automaton, n) for n in nodes]
    assert len(set(images)) == len(images)
    assert set(images) == domain(nested_subject)


@settings(max_examples=60, deadline=None)
@given(subject_terms(max_depth=5))
def test_tree_edges_follow_transitions(nested_automaton, subject):
    # every node's children are its transition's targets, in target order
    for node in tree_nodes(evaluation_tree(nested_automaton, subject)):
        symbol = subterm_at(subject, _phi(nested_automaton, node)).symbol
        tr = nested_automaton.states[node.state].delta[symbol.name]
        assert [(c.state, c.pointer) for c in node.children] \
            == [(tid, node.pointer + shift) for tid, shift in tr.targets]


def test_tree_of_single_constant():
    a = build(PatternSet.from_text("a\n"))
    root = evaluation_tree(a, parse_term("a", a.signature))
    assert root.pointer == () and root.children == []
    assert [_phi(a, n) for n in tree_nodes(root)] == [()]


@settings(max_examples=60, deadline=None)
@given(subject_terms(max_depth=5))
def test_subtree_images_are_disjoint(nested_automaton, subject):
    root = evaluation_tree(nested_automaton, subject)
    assert {_phi(nested_automaton, n) for n in tree_nodes(root)} \
        == domain(subject)
    stack = [root]
    while stack:
        node = stack.pop()
        images = [{_phi(nested_automaton, n) for n in tree_nodes(c)}
                  for c in node.children]
        for i, left in enumerate(images):
            for right in images[i + 1:]:
                assert not (left & right)
        stack.extend(node.children)


def _left_comb(sig, depth):
    """f(f(...f(a, a)..., a), a) with ``depth`` f nodes, built bottom-up."""
    f = sig.symbol("f")
    leaf = parse_term("a", sig)
    t = leaf
    for _ in range(depth):
        t = Term(f, (t, leaf))
    return t


def test_deep_left_spine_matches_brute_force(assoc_automaton, assoc_signature):
    # a 401-node left comb: long pointer chains under every strategy
    t = _left_comb(assoc_signature, 200)
    expected = brute_force_matches(assoc_automaton.patterns, t)
    # only the left-rotation shape occurs on a left comb: f(f(_,_),_)
    # matches at every spine node except the deepest two
    assert len(expected) == 199
    for pid, pos in expected:
        assert matches(assoc_automaton.patterns[pid], subterm_at(t, pos), ())
    for strategy in ALL_STRATEGIES:
        report = evaluate(assoc_automaton, t, strategy)
        assert report.matches == expected
        assert report.node_count == 401


def test_instrumented_deep_comb_inspects_every_position_once(
        assoc_automaton, assoc_signature):
    t = _left_comb(assoc_signature, 2000)
    report = evaluate(assoc_automaton, t, instrument=True)
    assert sorted(report.inspected) == sorted(domain(t))
    assert report.node_count == 4001


def test_deep_unary_chain_is_one_pass():
    # 10^5 g's above one a: the work set holds one item at a time, and the
    # single g(a) match needs the only long position tuple of the run
    a = build(PatternSet.from_text("g(a)\n"))
    g = a.signature.symbol("g")
    depth = 10 ** 5
    t = parse_term("a", a.signature)
    for _ in range(depth):
        t = Term(g, (t,))
    for strategy in (DepthFirst(), BreadthFirst(), Parallel(2)):
        report = evaluate(a, t, strategy)
        assert report.node_count == depth + 1
        assert report.matches == {(0, (1,) * (depth - 1))}


def _spine(sig, depth, comb, rng):
    """A ``depth``-level spine built bottom-up: every level ``f(spine, g(c))``
    in a comb; ``f(g(c), spine)`` with even odds in a mixed spine."""
    f, g = sig.symbol("f"), sig.symbol("g")
    consts = [s for s in sig if s.arity == 0]
    t = Term(rng.choice(consts))
    for _ in range(depth):
        side = Term(g, (Term(rng.choice(consts)),))
        t = Term(f, (t, side) if comb or rng.random() < 0.5 else (side, t))
    return t


@pytest.mark.parametrize("label_strategy", (RIGHTMOST, LEFTMOST))
@pytest.mark.parametrize("comb", (True, False), ids=("comb", "mixed"))
def test_matches_at_one_position_share_its_tuple(label_strategy, comb):
    # t1..t8 all match at most spine nodes of a comb; the positions below
    # a pointer are built once per run, so each position has at most two
    # tuples: the pointer's own and the shared one
    sig = Signature((("f", 2), ("g", 1), ("a", 0), ("b", 0)))
    ps = PatternSet(tuple(comb_pattern(n, sig) for n in range(1, 9)), sig)
    a = build(ps, label_strategy)
    t = _spine(sig, 150, comb, random.Random(14))
    expected = brute_force_matches(ps, t)
    for strategy in (DepthFirst(), BreadthFirst()):
        m = evaluate(a, t, strategy).matches
        assert m == expected
        assert len({id(p) for _, p in m}) <= 2 * len({p for _, p in m})
