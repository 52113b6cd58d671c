"""Evaluator: strategies, instrumentation, the work-item tree."""

import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings

from setmatch import (LEFTMOST, RIGHTMOST, BreadthFirst, DepthFirst,
                      InvariantError, Parallel, PatternSet, Signature,
                      SubjectError, Term, build, brute_force_matches,
                      comb_pattern, domain, evaluate, evaluation_tree,
                      format_position, format_term, matches, parse_term,
                      subterm_at, tree_nodes)
from setmatch.automaton import Transition
from setmatch.evaluate import MAX_WORKERS
from setmatch.oracle import random_subject

from conftest import HANG_REPRODUCERS, _shifted, run_limited, subject_terms

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


def test_uninstrumented_run_records_no_positions(nested_automaton,
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


def test_matches_below_a_deep_chain_agree_with_brute_force(sig_fga):
    # random subjects under 64 unary g's: the comb patterns announce below
    # pointers 64 steps deep or more, on paths that branch, so positions of
    # one length differ and each must be found by its own node
    ps = _combs(sig_fga)
    a = build(ps)
    g = sig_fga.symbol("g")
    rng = random.Random(20)
    for _ in range(40):
        t = random_subject(rng, sig_fga, 40)
        for _ in range(64):
            t = Term(g, (t,))
        expected = brute_force_matches(ps, t)
        for s in ALL_STRATEGIES:
            assert evaluate(a, t, s).matches == expected
    # and one subject with an 8-ary root whose 5th and 8th arguments are
    # comb spines 12 and 21 deep, the others g-chains with no match: the
    # matches under those two, and below them, are found past the
    # sibling subtrees before them
    wide = Signature(COMB_SYMBOLS + (("h", 8),))
    ps = _combs(wide)
    a = build(ps)
    kids = []
    for j in range(8):
        kid = Term(wide.symbol("a"))
        for _ in range(j):
            kid = Term(wide.symbol("g"), (kid,))
        kids.append(_spine(wide, 3 * j, True, rng) if j in (4, 7) else kid)
    t = Term(wide.symbol("h"), tuple(kids))
    expected = brute_force_matches(ps, t)
    assert {p[:1] for _, p in expected} == {(5,), (8,)}
    assert max(len(p) for _, p in expected) > 10
    for s in ALL_STRATEGIES:
        for instrument in (False, True):
            report = evaluate(a, t, s, instrument=instrument)
            assert report.matches == expected
            if instrument:
                assert sorted(report.inspected) == sorted(domain(t))


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
    for workers in (10 ** 9, MAX_WORKERS + 1, -1, 2.5, "2", True):
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


def test_parsed_pattern_as_subject_is_rejected_like_a_built_one(nested_automaton,
                                                                 sig_fga):
    # the parsed form is checked once per run, the built one node by node
    from setmatch.terms import WILDCARD
    f, g = sig_fga.symbol("f"), sig_fga.symbol("g")
    parsed = parse_term("f(g(_),f(a,_))", sig_fga, allow_wildcard=True)
    a = Term(sig_fga.symbol("a"))
    built = Term(f, (Term(g, (WILDCARD,)), Term(f, (a, WILDCARD))))
    errors = []
    for t in (parsed, built):
        for strategy in ALL_STRATEGIES:
            with pytest.raises(SubjectError) as e:
                evaluate(nested_automaton, t, strategy)
            errors.append(str(e.value))
    assert set(errors) == {"subject terms must not contain wildcards"}


def test_subject_parsed_over_an_equal_signature_matches(nested_automaton,
                                                        nested_subject):
    other = Signature((s.name, s.arity) for s in nested_automaton.signature)
    assert other is not nested_automaton.signature
    text = format_term(nested_subject)
    expected = evaluate(nested_automaton, nested_subject, instrument=True)
    for strategy in ALL_STRATEGIES:
        for t in (parse_term(text, nested_automaton.signature), parse_term(text, other)):
            report = evaluate(nested_automaton, t, strategy, instrument=True)
            assert report.matches == expected.matches == {(0, (2,))}
            assert report.node_count == 10
            assert sorted(report.inspected) == sorted(expected.inspected)


def test_symbol_of_another_arity_is_rejected(nested_automaton):
    # 'g' is g/1 in the automaton; parsed or built, g/2 is foreign
    other = Signature((("f", 2), ("g", 2), ("a", 0)))
    parsed = parse_term("f(a,g(a,a))", other)
    g, a = other.symbol("g"), Term(other.symbol("a"))
    built = Term(other.symbol("f"), (a, Term(g, (a, a))))
    message = "subject symbol 'g' (arity 2) is not in the automaton signature"
    for t in (parsed, built):
        for strategy in ALL_STRATEGIES:
            with pytest.raises(SubjectError) as e:
                evaluate(nested_automaton, t, strategy)
            assert str(e.value) == message


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
    delta["f"] = Transition(tr.outputs, tuple((tid, 0, (2, 1)) for tid, _, _ in tr.targets))
    for strategy in ALL_STRATEGIES:
        with pytest.raises(InvariantError, match=r"no subject node at 2\.1;"):
            evaluate(a, assoc_subject, strategy)
    # 72 deep: the one item that inspects the comb's bottom leaf c is sent
    # one level below it, and the message names that deep position
    sig = Signature(COMB_SYMBOLS + (("c", 0),))
    a = build(_combs(sig))
    for state in a.states:
        tr = state.delta["c"]
        state.delta["c"] = Transition(tr.outputs, ((a.initial, len(state.label), (1,)),))
    depth = 72
    t = _spine(sig, depth, True, random.Random(3), bottom="c")
    assert any(state.label for state in a.states)  # so some tails start below the pointer
    at = r"\.".join("1" * (depth + 1))
    for strategy in ALL_STRATEGIES:
        with pytest.raises(InvariantError, match=rf"no subject node at {at};"):
            evaluate(a, t, strategy)


def test_a_tail_off_the_subject_names_the_whole_shift(assoc_pattern_set, assoc_subject):
    # state 1, under label 1, sends its target on f to the shift 1.3: a
    # tail 3 after the label's node, which is binary, so the message names
    # pointer 1 + 1.3 as a shift walked from the pointer would
    a = build(assoc_pattern_set)
    (sid,) = [sid for sid, state in enumerate(a.states) if state.label == (1,)]
    state = a.states[sid]
    tr = state.delta["f"]
    state.delta["f"] = Transition(tr.outputs, ((a.initial, 1, (3,)),))
    subject = parse_term("f(f(f(a,a),a),a)", a.signature)
    for strategy in ALL_STRATEGIES:
        with pytest.raises(InvariantError, match=r"^no subject node at 1\.3;"):
            evaluate(a, subject, strategy)


def test_a_target_off_the_label_raises_only_a_setmatch_error():
    # an automaton edited in Python whose targets start at a depth below the
    # label, past its end, or past the end of an empty label: the run raises
    # InvariantError naming the state, the symbol and the depth when it takes
    # that transition, under every strategy, and never IndexError or TypeError
    sig = Signature((("f", 2), ("g", 1), ("a", 0)))
    flat = PatternSet.from_text("f(_,a)\n", sig)  # state 0 under ε, 1 under 2
    deep = PatternSet.from_text("f(_,g(a))\ng(a)\n", sig)  # state 3 under 2.1
    for ps, text, sid, name, depth in (
            (flat, "f(a,f(a,a))", 1, "a", -1), (flat, "f(a,f(a,a))", 1, "a", 2),
            (flat, "f(a,f(a,a))", 1, "f", -1), (flat, "f(a,f(a,a))", 1, "f", 2),
            (flat, "f(a,f(a,a))", 0, "f", 1), (flat, "f(a,f(a,a))", 0, "a", -1),
            (deep, "f(a,g(a))", 3, "a", -1), (deep, "f(a,g(a))", 3, "a", 3)):
        a = build(ps)
        subject = parse_term(text, sig)
        state = a.states[sid]
        tr = state.delta[name]
        state.delta[name] = Transition(tr.outputs, ((0, depth, ()),) + tr.targets)
        message = (rf"^state {sid}, symbol '{name}': target state 0 starts at "
                   rf"depth {depth}, off the label {format_position(state.label)}$")
        for strategy in ALL_STRATEGIES:
            for instrument in (False, True):
                with pytest.raises(InvariantError, match=message):
                    evaluate(a, subject, strategy, instrument=instrument)
        with pytest.raises(InvariantError, match=message):
            evaluation_tree(a, subject)
    # an output below a label of two steps, whose nodes the run keeps
    a = build(deep)
    tr = a.states[3].delta["a"]
    a.states[3].delta["a"] = Transition(((0, -1),) + tr.outputs, tr.targets)
    message = r"^state 3, symbol 'a': pattern 0 is announced at depth -1, off the label 2\.1$"
    for strategy in ALL_STRATEGIES:
        with pytest.raises(InvariantError, match=message):
            evaluate(a, parse_term("f(a,g(a))", sig), strategy)


def test_an_output_off_the_label_raises_only_a_setmatch_error():
    # an automaton edited in Python whose state under label 2 announces at
    # a depth past the label's end, or below its start: up to the first
    # item that takes that transition, a run is the unedited one, so it
    # raises InvariantError exactly when f(_,a) matches, and otherwise
    # reports no match
    sig = Signature((("f", 2), ("a", 0)))
    ps = PatternSet.from_text("f(_,a)\n", sig)
    rng = random.Random(26)
    subjects = [random_subject(rng, sig, size) for size in range(1, 40)]
    chain = Term(sig.symbol("a"))
    for _ in range(80):
        chain = Term(sig.symbol("f"), (Term(sig.symbol("a")), chain))
    a = build(ps)
    label = a.states[1].label
    assert label == (2,)
    for depth in (len(label) + 1, -1):
        a.states[1].delta["a"] = Transition(outputs=((0, depth),), targets=())
        message = (rf"^state 1, symbol 'a': pattern 0 is announced at depth "
                   rf"{depth}, off the label 2$")
        for t in subjects + [chain]:
            fires = bool(brute_force_matches(ps, t))
            for strategy in ALL_STRATEGIES:
                for instrument in (False, True):
                    if fires:
                        with pytest.raises(InvariantError, match=message):
                            evaluate(a, t, strategy, instrument=instrument)
                    else:
                        report = evaluate(a, t, strategy, instrument=instrument)
                        assert report.matches == frozenset()


def test_duplicate_announcement_raises(assoc_pattern_set, assoc_subject):
    # a hand-edited automaton that announces every match twice, also on a
    # spine 72 deep, where both copies name one node and take one tuple
    sig = Signature(COMB_SYMBOLS)
    deep = _spine(sig, 72, True, random.Random(3))
    for ps, t in ((assoc_pattern_set, assoc_subject), (_combs(sig), deep)):
        a = build(ps)
        for state in a.states:
            for name, tr in state.delta.items():
                state.delta[name] = Transition(tr.outputs * 2, tr.targets)
        for strategy in ALL_STRATEGIES:
            with pytest.raises(InvariantError, match="twice"):
                evaluate(a, t, strategy)


def test_parallel_is_an_order_witness(assoc_automaton, assoc_signature):
    # the dealt shares inspect the nodes in an order of their own, and
    # find the same matches
    f = assoc_signature.symbol("f")
    t = parse_term("a", assoc_signature)
    for _ in range(8):
        t = Term(f, (t, t))
    expected = brute_force_matches(assoc_automaton.patterns, t)
    orders = []
    for strategy in (DepthFirst(), BreadthFirst(), Parallel(2), Parallel(8)):
        report = evaluate(assoc_automaton, t, strategy, instrument=True)
        assert report.matches == expected
        assert report.node_count == 2 ** 9 - 1
        orders.append(report.inspected)
    assert len(set(orders)) == 4
    assert len({tuple(sorted(order)) for order in orders}) == 1


def test_failure_inside_a_share_is_raised(nested_automaton, sig_fga):
    # the foreign leaf sits far below the frontier dealt into shares
    f, g = sig_fga.symbol("f"), sig_fga.symbol("g")
    zzz = Signature().declare("zzz", 0)
    t = Term(zzz)
    for _ in range(30):
        t = Term(f, (Term(g, (parse_term("a", sig_fga),)), t))
    for strategy in (Parallel(2), Parallel(4)):
        with pytest.raises(SubjectError):
            evaluate(nested_automaton, t, strategy)


# Runs every evaluation path on a damaged automaton read from stdin and
# prints, per path, how it ended.
BOUNDED_PATHS = """
import json, sys
from setmatch import (BreadthFirst, DepthFirst, InvariantError, Parallel,
                      evaluate, evaluation_tree, from_json, parse_term)
doc, text = json.load(sys.stdin)
a = from_json(doc)
subject = parse_term(text, a.signature)
for name, run in [
        ("depth-first", lambda: evaluate(a, subject, DepthFirst())),
        ("breadth-first", lambda: evaluate(a, subject, BreadthFirst())),
        ("instrumented", lambda: evaluate(a, subject, instrument=True)),
        ("parallel-2", lambda: evaluate(a, subject, Parallel(2))),
        ("parallel-4", lambda: evaluate(a, subject, Parallel(4))),
        ("tree", lambda: evaluation_tree(a, subject))]:
    try:
        run()
        print(name, "returned")
    except InvariantError as e:
        print(name, e)
"""


@pytest.mark.parametrize("name", sorted(HANG_REPRODUCERS))
def test_damaged_automaton_runs_at_most_one_item_per_node(name, tmp_path):
    # in a child with 256 MiB of address space, so that an unbounded run
    # fails this test instead of hanging it
    r = run_limited(["-c", BOUNDED_PATHS], tmp_path,
                    input=json.dumps(HANG_REPRODUCERS[name]))
    assert r.returncode == 0, r.stderr
    size = {"self_loop": 3, "doubling": 41}[name]
    error = ("the automaton needs more than one work item per subject node "
             f"({size} nodes); it is not a set automaton for this subject")
    assert r.stdout.splitlines() == [
        f"{path} {error}" for path in ("depth-first", "breadth-first", "instrumented",
                                       "parallel-2", "parallel-4", "tree")]


# Runs every strategy of the one drain on a damaged automaton read from
# stdin, over the parsed subject and an equal built one, with term_size made
# to fail.  Prints per run the items its drains were allowed, counted as the
# items done by every drain but the last plus the last one's limit, and the
# error it ended with.
BUDGET_PATHS = """
import json, sys
import setmatch.terms
from setmatch import (BreadthFirst, DepthFirst, InvariantError, Parallel, Term,
                      evaluate, from_json, parse_term)
ev = sys.modules["setmatch.evaluate"]


def no_size(term):
    raise AssertionError("term_size was called")


setmatch.terms.term_size = no_size
drain, budgets = ev._drain, []


def spy(*args):
    done = drain(*args)
    budgets.append((args[-1], done))
    return done


ev._drain = spy


def built(t):
    return Term(t.symbol, [built(c) for c in t.children])


doc, text = json.load(sys.stdin)
a = from_json(doc)
parsed = parse_term(text, a.signature)
for t in (parsed, built(parsed)):
    for strategy in (DepthFirst(), BreadthFirst(), Parallel(2), Parallel(4)):
        budgets.clear()
        try:
            evaluate(a, t, strategy)
        except InvariantError as e:
            *before, (limit, done) = budgets
            print(sum(d for _, d in before) + limit, done == limit, e)
"""


@pytest.mark.parametrize("name", sorted(HANG_REPRODUCERS))
def test_bound_is_the_node_count(name, tmp_path):
    # the bound is one compare per item against the node count the flat
    # subject knows: no strategy measures its subject with term_size
    assert not hasattr(sys.modules["setmatch.evaluate"], "term_size")
    r = run_limited(["-c", BUDGET_PATHS], tmp_path,
                    input=json.dumps(HANG_REPRODUCERS[name]))
    assert r.returncode == 0, r.stderr
    size = {"self_loop": 3, "doubling": 41}[name]
    error = ("the automaton needs more than one work item per subject node "
             f"({size} nodes); it is not a set automaton for this subject")
    assert r.stdout.splitlines() == [f"{size} True {error}"] * 8


# Matches g(a) on h(g(a),...,g(a)) with 40,000 arguments, whose root's
# transition has the 40,000 targets 1 to 40,000.
WIDE_NODE = """
from setmatch import PatternSet, Signature, build, evaluate, parse_term
r = 40000
sig = Signature((("h", r), ("g", 1), ("a", 0)))
a = build(PatternSet.from_text("g(a)\\n", sig))
report = evaluate(a, parse_term("h(" + ",".join(["g(a)"] * r) + ")", sig))
print(len(report.matches), report.node_count)
"""


def test_the_targets_of_one_transition_take_one_sibling_walk(tmp_path):
    # the children of a node are reached in one walk over its arguments,
    # not one walk from the first child per target: the run takes well
    # under a second, where restarting at the first child, r**2 / 2 skips,
    # took tens of seconds
    r = run_limited(["-c", WIDE_NODE], tmp_path, timeout=10)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["40000", "80001"]


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
        state = nested_automaton.states[node.state]
        tr = state.delta[symbol.name]
        assert [(c.state, c.pointer) for c in node.children] \
            == [(tid, node.pointer + shift) for tid, shift in _shifted(state, tr)]


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


COMB_SYMBOLS = (("f", 2), ("g", 1), ("a", 0), ("b", 0))


def _combs(sig):
    """The comb patterns t1..t8 over ``sig``."""
    return PatternSet(tuple(comb_pattern(n, sig) for n in range(1, 9)), sig)


def _spine(sig, depth, comb, rng, bottom=None):
    """A ``depth``-level spine built bottom-up: every level ``f(spine, g(c))``
    in a comb; ``f(g(c), spine)`` with even odds in a mixed spine.  The
    constants are ``a`` and ``b``, the bottom one ``bottom`` if given."""
    f, g = sig.symbol("f"), sig.symbol("g")
    consts = [sig.symbol("a"), sig.symbol("b")]
    t = Term(sig.symbol(bottom) if bottom else rng.choice(consts))
    for _ in range(depth):
        side = Term(g, (Term(rng.choice(consts)),))
        t = Term(f, (t, side) if comb or rng.random() < 0.5 else (side, t))
    return t


@pytest.mark.parametrize("label_strategy", (RIGHTMOST, LEFTMOST))
@pytest.mark.parametrize("comb", (True, False), ids=("comb", "mixed"))
def test_matches_at_one_position_share_its_tuple(label_strategy, comb):
    # t1..t8 all match at most spine nodes of a comb; every position is
    # made once per run from its node, so the matches at one position
    # share exactly one tuple
    sig = Signature(COMB_SYMBOLS)
    ps = _combs(sig)
    a = build(ps, label_strategy)
    runs = ((DepthFirst(), False), (BreadthFirst(), False),
            (Parallel(2), False), (Parallel(MAX_WORKERS), False),
            (DepthFirst(), True), (BreadthFirst(), True))
    for depth in (150, 1400):
        t = _spine(sig, depth, comb, random.Random(14))
        expected = brute_force_matches(ps, t)
        for strategy, instrument in runs:
            m = evaluate(a, t, strategy, instrument=instrument).matches
            assert m == expected
            tuples: dict = {}
            for _, p in m:
                tuples.setdefault(p, set()).add(id(p))
            assert all(len(ids) == 1 for ids in tuples.values())


@pytest.mark.parametrize("label_strategy", (RIGHTMOST, LEFTMOST))
def test_deep_matches_ignore_output_order(label_strategy):
    # with every transition's outputs reversed, the nodes on a spine 104
    # deep are announced in another order and their positions must be the
    # same
    sig = Signature(COMB_SYMBOLS)
    ps = _combs(sig)
    a = build(ps, label_strategy)
    for state in a.states:
        for name, tr in state.delta.items():
            state.delta[name] = Transition(tr.outputs[::-1], tr.targets)
    for comb in (True, False):
        t = _spine(sig, 104, comb, random.Random(21))
        expected = brute_force_matches(ps, t)
        for strategy in ALL_STRATEGIES:
            assert evaluate(a, t, strategy).matches == expected


@pytest.mark.parametrize("label_strategy", (RIGHTMOST, LEFTMOST))
def test_doubled_announcement_at_a_deep_pointer_raises(label_strategy):
    # only the announcements at the pointer itself (an empty relative
    # position) are doubled, and under 64 unary g's every match sits below
    # a pointer 64 steps deep or more: the run must keep both copies
    sig = Signature(COMB_SYMBOLS)
    a = build(_combs(sig), label_strategy)
    doubled = 0
    for state in a.states:
        for name, tr in state.delta.items():
            at = tuple(out for out in tr.outputs if not out[1])
            doubled += len(at)
            state.delta[name] = Transition(at + tr.outputs, tr.targets)
    assert doubled
    t = _spine(sig, 8, True, random.Random(3))
    for _ in range(64):
        t = Term(sig.symbol("g"), (t,))
    for strategy in ALL_STRATEGIES:
        with pytest.raises(InvariantError, match="twice"):
            evaluate(a, t, strategy)
