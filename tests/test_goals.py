"""Match goals: outcomes against a reference reduce, dependency classes,
lifting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setmatch import Goal, InvariantError, Symbol, parse_term, prefix_leq
from setmatch.goals import (Outcome, canonical_goals, dependency_partition,
                            fresh_goal, goal_outcome, goal_sort_key,
                            lift_class)
from setmatch.positions import Position

from conftest import pattern_terms, positions


def reduce(obligation: frozenset, symbol: Symbol, at: Position) -> frozenset:
    """One observation step on an obligation.

    Pairs away from ``at`` are kept; pairs at ``at`` are replaced by their
    non-wildcard children, pushed one level down.  The result may be empty,
    which means the obligation was fulfilled by this observation.

    A reference written apart from :func:`goal_outcome`, which does the same
    step in the same pass that classifies it.
    """
    out = []
    for term, pos in obligation:
        if pos != at:
            out.append((term, pos))
        else:
            for i, child in enumerate(term.children[: symbol.arity], 1):
                if child.symbol is not None:
                    out.append((child, pos + (i,)))
    return frozenset(out)


def _pairs(sig, *items):
    return frozenset((parse_term(text, sig, allow_wildcard=True), pos)
                     for text, pos in items)


def test_reduce_keeps_other_positions_and_expands_children(sig_fga):
    mo = _pairs(sig_fga, ("f(_,g(_))", (1,)), ("g(_)", (2,)))
    out = reduce(mo, sig_fga.symbol("g"), (2,))
    assert out == _pairs(sig_fga, ("f(_,g(_))", (1,)))


def test_reduce_fulfils_constant_obligation(sig_fga):
    mo = _pairs(sig_fga, ("a", ()))
    assert reduce(mo, sig_fga.symbol("a"), ()) == frozenset()


def test_reduce_pushes_non_wildcard_children(sig_fga):
    mo = _pairs(sig_fga, ("g(g(_))", (2,)))
    out = reduce(mo, sig_fga.symbol("g"), (2,))
    assert out == _pairs(sig_fga, ("g(_)", (2, 1)))


def test_reduce_never_keeps_observed_position(sig_fga):
    mo = _pairs(sig_fga, ("f(f(_,_),g(_))", (1,)))
    out = reduce(mo, sig_fga.symbol("f"), (1,))
    assert {pos for _, pos in out} == {(1, 1), (1, 2)}
    for _, pos in out:
        assert pos != (1,)


def test_goal_outcome_completed(sig_fga, nested_pattern_set):
    goal = Goal(_pairs(sig_fga, ("g(_)", (1, 2))), 0, ())
    outcome, new = goal_outcome(goal, sig_fga.symbol("g"), (1, 2))
    assert outcome is Outcome.COMPLETED and new is None


def test_goal_outcome_discarded(sig_fga, nested_pattern_set):
    pat = nested_pattern_set[0]
    goal = fresh_goal(0, pat, (2,))
    outcome, new = goal_outcome(goal, sig_fga.symbol("g"), (2,))
    assert outcome is Outcome.DISCARDED and new is None


def test_goal_outcome_unchanged(sig_fga, nested_pattern_set):
    goal = fresh_goal(0, nested_pattern_set[0], (1,))
    outcome, new = goal_outcome(goal, sig_fga.symbol("g"), (2,))
    assert outcome is Outcome.UNCHANGED and new is None


def test_goal_outcome_reduced_keeps_announcement(sig_fga, nested_pattern_set):
    goal = fresh_goal(0, nested_pattern_set[0], (2,))
    outcome, new = goal_outcome(goal, sig_fga.symbol("f"), (2,))
    assert outcome is Outcome.REDUCED
    assert (new.pattern, new.announce) == (goal.pattern, goal.announce)
    assert new.obligation == _pairs(sig_fga, ("f(_,g(_))", (2, 1)),
                                    ("g(_)", (2, 2)))


def _random_goal(draw):
    pattern = draw(pattern_terms())
    goal = fresh_goal(draw(st.integers(0, 3)), pattern, draw(positions))
    sig_names = {"f": 2, "g": 1, "a": 0}
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(sorted(goal.positions())))
        name = draw(st.sampled_from(sorted(sig_names)))
        from setmatch import Signature
        sig = Signature()
        sym = sig.declare(name, sig_names[name])
        outcome, new = goal_outcome(goal, sym, at)
        if outcome is not Outcome.REDUCED:
            break
        goal = new
    return goal


random_goals = st.composite(lambda draw: _random_goal(draw))()


@given(random_goals, positions)
def test_goal_outcome_cases_are_exclusive_and_total(goal, at):
    from setmatch import Signature
    sig = Signature()
    for name, ar in (("f", 2), ("g", 1), ("a", 0)):
        sym = sig.declare(name, ar)
        outcome, new = goal_outcome(goal, sym, at)
        if at not in goal.positions():
            assert outcome is Outcome.UNCHANGED and new is None
            continue
        term = next(t for t, p in goal.obligation if p == at)
        if term.symbol != sym:
            assert outcome is Outcome.DISCARDED and new is None
        elif reduce(goal.obligation, sym, at):
            assert outcome is Outcome.REDUCED
            assert new.obligation == reduce(goal.obligation, sym, at)
        else:
            assert outcome is Outcome.COMPLETED and new is None


@given(random_goals)
def test_reduced_pairs_sit_at_child_positions(goal):
    from setmatch import Signature
    sig = Signature()
    f = sig.declare("f", 2)
    for at in sorted(goal.positions()):
        out = reduce(goal.obligation, f, at)
        for term, pos in out:
            if pos not in goal.positions():
                assert pos[:-1] == at and 1 <= pos[-1] <= f.arity


def test_dependency_partition_splits_independent_positions(sig_fga,
                                                           nested_pattern_set):
    # the g-derivative of the state reached after one f: two classes
    pat = nested_pattern_set[0]
    reduced = Goal(_pairs(sig_fga, ("f(_,g(_))", (1,))), 0, ())
    unchanged = fresh_goal(0, pat, (1,))
    fresh = fresh_goal(0, pat, (2, 1))
    classes = dependency_partition([reduced, unchanged, fresh])
    as_sets = [set(c) for c in classes]
    assert {reduced, unchanged} in as_sets
    assert {fresh} in as_sets
    assert len(classes) == 2


def test_dependency_partition_closes_transitively(sig_fga):
    a = parse_term("a", sig_fga)
    g1 = Goal(frozenset({(a, (1,))}), 0, ())
    g2 = Goal(frozenset({(a, (1,)), (a, (2,))}), 1, ())
    g3 = Goal(frozenset({(a, (2,))}), 2, ())
    classes = dependency_partition([g1, g2, g3])
    assert len(classes) == 1 and set(classes[0]) == {g1, g2, g3}


def test_dependency_partition_single_class_when_all_overlap(sig_fga,
                                                            nested_pattern_set):
    # the f-derivative at label 1 keeps everything entangled
    pat = nested_pattern_set[0]
    goals = [
        Goal(_pairs(sig_fga, ("g(_)", (1, 2))), 0, ()),
        Goal(_pairs(sig_fga, ("f(_,g(_))", (1, 1)), ("g(_)", (1, 2))), 0, (1,)),
        fresh_goal(0, pat, (1, 1)),
        fresh_goal(0, pat, (1, 2)),
    ]
    assert len(dependency_partition(goals)) == 1


@given(st.lists(random_goals, min_size=1, max_size=6))
def test_dependency_partition_is_a_partition(goals):
    goals = list(dict.fromkeys(goals))
    classes = dependency_partition(goals)
    flat = [g for c in classes for g in c]
    assert sorted(map(goal_sort_key, flat)) == sorted(map(goal_sort_key, goals))
    assert all(c for c in classes)
    # across classes: no shared positions
    seen = []
    for c in classes:
        ours = set().union(*(g.positions() for g in c))
        for theirs in seen:
            assert not (ours & theirs)
        seen.append(ours)
    # within a class: the overlap graph is connected
    for c in classes:
        reached = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(len(c)):
                if j not in reached and c[i].positions() & c[j].positions():
                    reached.add(j)
                    frontier.append(j)
        assert reached == set(range(len(c)))


def test_lift_class_strips_announcement_prefix(sig_fga, nested_pattern_set):
    pat = nested_pattern_set[0]
    lifted, shift = lift_class([fresh_goal(0, pat, (2, 1))])
    assert shift == (2, 1)
    assert lifted == [fresh_goal(0, pat, ())]


def test_lift_class_identity_when_a_root_goal_exists(sig_fga,
                                                     nested_pattern_set):
    pat = nested_pattern_set[0]
    cls = [Goal(_pairs(sig_fga, ("f(_,g(_))", (1,))), 0, ()),
           fresh_goal(0, pat, (1,))]
    lifted, shift = lift_class(cls)
    assert shift == () and lifted == cls


def test_lift_class_rejects_non_extending_positions(sig_fga):
    a = parse_term("a", sig_fga)
    broken = Goal(frozenset({(a, (2,))}), 0, (2, 1))
    with pytest.raises(InvariantError):
        lift_class([broken])


@given(st.lists(random_goals, min_size=1, max_size=6))
def test_lift_then_reprefix_is_identity(goals):
    goals = list(dict.fromkeys(goals))
    for cls in dependency_partition(goals):
        lifted, shift = lift_class(cls)
        back = [Goal(frozenset((t, shift + p) for t, p in g.obligation),
                     g.pattern, shift + g.announce) for g in lifted]
        assert back == cls
        for g in lifted:
            for p in g.positions():
                assert prefix_leq(p, g.announce)


def test_canonical_goals_sorts_deterministically(sig_fga, nested_pattern_set):
    pat = nested_pattern_set[0]
    goals = [fresh_goal(0, pat, (2,)), fresh_goal(0, pat, (1,)),
             Goal(_pairs(sig_fga, ("g(_)", (1, 2))), 0, ())]
    forward = canonical_goals(goals)
    assert forward == canonical_goals(reversed(goals))
    assert [g.announce for g in forward] == [(), (1,), (2,)]


def test_fresh_and_root_flags(nested_pattern_set):
    pat = nested_pattern_set[0]
    root = fresh_goal(0, pat, ())
    assert root.is_root and root.obligation == {(pat, ())}
    deep = fresh_goal(0, pat, (2, 1))
    assert not deep.is_root and deep.obligation == {(pat, (2, 1))}
