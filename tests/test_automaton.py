"""Automaton construction: derivatives, labels, the worklist closure.

The two fully frozen machines below were derived by hand from the
construction rules, one transition at a time, before being compared
against build() output.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings

from setmatch import (LEFTMOST, RIGHTMOST, Goal, InvariantError, Outcome,
                      PatternSet, Signature, build, choose_label,
                      dependency_partition, derivative, evaluate, fresh_goal,
                      goal_outcome, initial_state, lift_class, outputs,
                      parse_term, prefix_leq, random_instance,
                      reachable_position_bound, to_json, transition_count,
                      verify_automaton)
from setmatch.automaton import State, initial_goals
from setmatch.goals import canonical_goals, split_fresh

from conftest import pattern_sets


def _goal(sig, pairs, pattern, announce):
    obligation = frozenset((parse_term(text, sig, allow_wildcard=True), pos)
                           for text, pos in pairs)
    return Goal(obligation, pattern, announce)


def _state_map(a):
    """goal-set -> (state id, state); lets tests compare up to renaming."""
    return {frozenset(s.goals): (i, s) for i, s in enumerate(a.states)}


def _expected_nested_states(sig):
    """The four states for {f(f(_,g(_)),g(_))} under rightmost labels."""
    l = "f(f(_,g(_)),g(_))"
    s0 = frozenset({_goal(sig, [(l, ())], 0, ())})
    s1 = frozenset({
        _goal(sig, [("f(_,g(_))", (1,)), ("g(_)", (2,))], 0, ()),
        _goal(sig, [(l, (1,))], 0, (1,)),
        _goal(sig, [(l, (2,))], 0, (2,)),
    })
    s2 = frozenset({
        _goal(sig, [("f(_,g(_))", (1,))], 0, ()),
        _goal(sig, [(l, (1,))], 0, (1,)),
    })
    s3 = frozenset({
        _goal(sig, [("g(_)", (1, 2))], 0, ()),
        _goal(sig, [("f(_,g(_))", (1, 1)), ("g(_)", (1, 2))], 0, (1,)),
        _goal(sig, [(l, (1, 1))], 0, (1, 1)),
        _goal(sig, [(l, (1, 2))], 0, (1, 2)),
    })
    return s0, s1, s2, s3


def test_initial_state_one_fresh_root_goal_per_pattern(nested_pattern_set,
                                                       assoc_pattern_set):
    s = initial_state(nested_pattern_set)
    assert s.label == ()
    assert set(s.goals) == {fresh_goal(0, nested_pattern_set[0], ())}
    s = initial_state(assoc_pattern_set)
    assert set(s.goals) == {fresh_goal(0, assoc_pattern_set[0], ()),
                            fresh_goal(1, assoc_pattern_set[1], ())}


def test_initial_state_single_constant():
    ps = PatternSet.from_text("a\n")
    s = initial_state(ps)
    assert set(s.goals) == {fresh_goal(0, ps[0], ())} and s.label == ()


def test_choose_label_examples(nested_pattern_set):
    init = initial_goals(nested_pattern_set)
    assert choose_label(init, LEFTMOST) == ()
    assert choose_label(init, RIGHTMOST) == ()
    pat = nested_pattern_set[0]
    goals = [Goal(frozenset({(pat, (1,)), (pat, (2, 1))}), 0, ())]
    assert choose_label(goals, LEFTMOST) == (1,)
    assert choose_label(goals, RIGHTMOST) == (2, 1)
    with pytest.raises(ValueError):
        choose_label(goals, "sideways")
    with pytest.raises(InvariantError):
        choose_label([fresh_goal(0, pat, (1,))], RIGHTMOST)


def test_rightmost_label_of_doubly_nested_state(sig_fga, nested_pattern_set):
    _, _, _, s3 = _expected_nested_states(sig_fga)
    assert choose_label(s3, RIGHTMOST) == (1, 2)


def test_derivative_three_part_example(sig_fga, nested_pattern_set):
    # observing g at label 2: one goal reduces, one is unchanged, one is
    # discarded, and a fresh goal appears at 2.1
    _, s1_goals, _, _ = _expected_nested_states(sig_fga)
    from setmatch.automaton import State
    s1 = State(label=(2,), goals=canonical_goals(s1_goals))
    got = set(derivative(s1, sig_fga.symbol("g"), nested_pattern_set))
    l = "f(f(_,g(_)),g(_))"
    assert got == {
        _goal(sig_fga, [("f(_,g(_))", (1,))], 0, ()),
        _goal(sig_fga, [(l, (1,))], 0, (1,)),
        fresh_goal(0, nested_pattern_set[0], (2, 1)),
    }


def test_derivative_on_constant_can_be_empty():
    ps = PatternSet.from_text("f(f(_,_),_)\n")
    sig = ps.signature
    sig.declare("a", 0)
    s = initial_state(ps)
    assert derivative(s, sig.symbol("a"), ps) == []


def test_derivative_reaches_the_doubly_nested_state(sig_fga,
                                                    nested_pattern_set):
    _, _, s2_goals, s3_goals = _expected_nested_states(sig_fga)
    from setmatch.automaton import State
    s2 = State(label=(1,), goals=canonical_goals(s2_goals))
    got = derivative(s2, sig_fga.symbol("f"), nested_pattern_set)
    assert frozenset(got) == s3_goals


def test_outputs_of_doubly_nested_state(sig_fga, nested_pattern_set):
    from setmatch.automaton import State
    _, _, _, s3_goals = _expected_nested_states(sig_fga)
    s3 = State(label=(1, 2), goals=canonical_goals(s3_goals))
    assert outputs(s3, sig_fga.symbol("g")) == ((0, ()),)
    assert outputs(s3, sig_fga.symbol("f")) == ()


def test_outputs_of_rotation_states(assoc_automaton, assoc_signature):
    f = assoc_signature.symbol("f")
    a = assoc_automaton
    assert outputs(a.states[0], f) == ()
    got = {outputs(s, f) for s in a.states[1:]}
    assert got == {((0, ()),), ((1, ()),)}


def test_transition_outputs_equal_outputs_of_the_state(nested_pattern_set,
                                                       assoc_pattern_set):
    # build takes a transition's outputs from the completions of its own
    # step; outputs() is the independent formulation they must agree with
    for ps in (nested_pattern_set, assoc_pattern_set):
        for strategy in (LEFTMOST, RIGHTMOST):
            a = build(ps, strategy)
            for state in a.states:
                for symbol in a.signature:
                    assert state.delta[symbol.name].outputs \
                        == outputs(state, symbol)


def test_build_nested_pattern_matches_hand_derivation(sig_fga,
                                                      nested_pattern_set):
    a = build(nested_pattern_set, RIGHTMOST)
    assert len(a.states) == 4
    s0, s1, s2, s3 = _expected_nested_states(sig_fga)
    by_goals = _state_map(a)
    assert set(by_goals) == {s0, s1, s2, s3}

    i0, i1, i2, i3 = (by_goals[s][0] for s in (s0, s1, s2, s3))
    assert a.initial == i0
    labels = {i0: (), i1: (2,), i2: (1,), i3: (1, 2)}
    for sid, lbl in labels.items():
        assert a.states[sid].label == lbl

    expected_delta = {
        (i0, "f"): ((), {(i1, ())}),
        (i0, "g"): ((), {(i0, (1,))}),
        (i0, "a"): ((), set()),
        (i1, "f"): ((), {(i0, (1,)), (i1, (2,))}),
        (i1, "g"): ((), {(i2, ()), (i0, (2, 1))}),
        (i1, "a"): ((), {(i0, (1,))}),
        (i2, "f"): ((), {(i3, ())}),
        (i2, "g"): ((), {(i0, (1, 1))}),
        (i2, "a"): ((), set()),
        (i3, "f"): ((), {(i0, (1, 1)), (i1, (1, 2))}),
        (i3, "g"): (((0, ()),), {(i2, (1,)), (i0, (1, 2, 1))}),
        (i3, "a"): ((), {(i0, (1, 1))}),
    }
    for (sid, name), (outs, targets) in expected_delta.items():
        tr = a.states[sid].delta[name]
        assert tr.outputs == outs, (sid, name)
        assert set(tr.targets) == targets, (sid, name)
    assert transition_count(a) == 14


def test_build_rotation_patterns_matches_hand_derivation(assoc_pattern_set,
                                                         assoc_signature):
    a = build(assoc_pattern_set, RIGHTMOST)
    assert len(a.states) == 3
    sig = assoc_signature
    l1, l2 = "f(f(_,_),_)", "f(_,f(_,_))"
    s0 = frozenset({_goal(sig, [(l1, ())], 0, ()),
                    _goal(sig, [(l2, ())], 1, ())})
    s1 = frozenset({_goal(sig, [("f(_,_)", (1,))], 0, ()),
                    _goal(sig, [(l1, (1,))], 0, (1,)),
                    _goal(sig, [(l2, (1,))], 1, (1,))})
    s2 = frozenset({_goal(sig, [("f(_,_)", (2,))], 1, ()),
                    _goal(sig, [(l1, (2,))], 0, (2,)),
                    _goal(sig, [(l2, (2,))], 1, (2,))})
    by_goals = _state_map(a)
    assert set(by_goals) == {s0, s1, s2}
    i0, i1, i2 = (by_goals[s][0] for s in (s0, s1, s2))
    assert (a.states[i1].label, a.states[i2].label) == ((1,), (2,))

    assert set(a.states[i0].delta["f"].targets) == {(i1, ()), (i2, ())}
    assert a.states[i0].delta["f"].outputs == ()
    assert a.states[i0].delta["a"].targets == ()
    assert a.states[i1].delta["f"].outputs == ((0, ()),)
    assert set(a.states[i1].delta["f"].targets) == {(i1, (1,)), (i2, (1,))}
    assert a.states[i2].delta["f"].outputs == ((1, ()),)
    assert set(a.states[i2].delta["f"].targets) == {(i1, (2,)), (i2, (2,))}


def test_build_single_constant_pattern():
    ps = PatternSet.from_text("a\n")
    a = build(ps)
    assert len(a.states) == 1
    tr = a.states[0].delta["a"]
    assert tr.outputs == ((0, ()),) and tr.targets == ()


def test_two_targets_can_share_a_shift():
    ps = PatternSet.from_text("f(a,_)\nf(_,b)\n")
    a = build(ps)
    shifts = [shift for _, shift in a.states[a.initial].delta["f"].targets]
    assert shifts == [(), ()]
    subject = parse_term("f(a,b)", ps.signature)
    assert evaluate(a, subject).matches == {(0, ()), (1, ())}


def test_symbols_outside_the_patterns_still_get_transitions():
    sig = Signature()
    for name, ar in (("f", 2), ("a", 0), ("h", 3)):
        sig.declare(name, ar)
    ps = PatternSet.from_text("f(a,_)\n", sig)
    a = build(ps)
    for s in a.states:
        assert set(s.delta) == {"f", "a", "h"}
    subject = parse_term("h(f(a,a),a,f(f(a,a),a))", sig)
    assert evaluate(a, subject).matches == {(0, (1,)), (0, (3, 1))}


def test_build_is_deterministic_in_process(nested_pattern_set):
    a1 = build(nested_pattern_set)
    a2 = build(nested_pattern_set)
    assert to_json(a1) == to_json(a2)


# SHA-256 of to_json(build(ps, strategy)), recorded when build still stepped
# every fresh goal one by one; interning on compact keys must not move a
# state id, a target or a byte.
PINNED_DOCUMENTS = {
    ("nested", LEFTMOST): "7c272aa5c7da510372ad5791e052efa109a50a21aa673f61ceca4a5e85a97c14",
    ("nested", RIGHTMOST): "2a3a62671942e6ebbad067b3e8119b251653b6933e78f9340350c27e00c43a9b",
    ("assoc", LEFTMOST): "f696fde5009580ab977c0aada8b90288a123456fa6350bc8559cabd34e878694",
    ("assoc", RIGHTMOST): "f696fde5009580ab977c0aada8b90288a123456fa6350bc8559cabd34e878694",
    ("shared shift", LEFTMOST): "2d09bb38e82edd33addeba422a5d3ba9fcdc761533bdf777d3dcd4561954aa00",
    ("shared shift", RIGHTMOST): "2d09bb38e82edd33addeba422a5d3ba9fcdc761533bdf777d3dcd4561954aa00",
    (0, LEFTMOST): "a47ffde9cfb019a22d18b87d8efe65b22a37219a3b467d380759c0921412c106",
    (0, RIGHTMOST): "5872e7d43f75a622e802988fd85b027516e2c70c33ba1a55674aa7f3ea2fd197",
    (1, LEFTMOST): "2342fa4e9e61a253fc48e405993e60b3b14b46a03f4c55e145ba6a0b74fad8ac",
    (1, RIGHTMOST): "2342fa4e9e61a253fc48e405993e60b3b14b46a03f4c55e145ba6a0b74fad8ac",
    (2, LEFTMOST): "1f64850b665558aedc64e3d25f150fe4f4fda64a940ce56237d379ef35b9890c",
    (2, RIGHTMOST): "dd6b864050af9f48c2787c74fe686c2ffb48cca890fecc764ac80671f87c4d21",
    (3, LEFTMOST): "90aeb50228dd12d41e6ce0d5dfb1e92eb1e5e9d36ea46c11925c514eeb89d4b9",
    (3, RIGHTMOST): "fcc368e54c2215b0e5e3ac4aa2fcf51095b1a6878af0f22ba2962bb1d704a3d5",
    (4, LEFTMOST): "2bc9cf13a5cd194ea07a1140f2e6a5bc17ed4395cf1352c6d44db27e9e0e8545",
    (4, RIGHTMOST): "2bc9cf13a5cd194ea07a1140f2e6a5bc17ed4395cf1352c6d44db27e9e0e8545",
    (5, LEFTMOST): "948c7c9f9f8d0ecd97e7d327fdf7e0b0f18162301c7e52e577c0a7fee509994c",
    (5, RIGHTMOST): "6b4d8a633e3a1f086720c561de3e027e080be0d8427ba6c5f75cd03dc46e5e1d",
}


@pytest.mark.parametrize("name, strategy", sorted(PINNED_DOCUMENTS, key=str))
def test_compiled_documents_are_pinned(request, name, strategy):
    if name in ("nested", "assoc"):
        ps = request.getfixturevalue(f"{name}_pattern_set")
    elif name == "shared shift":  # two targets of one transition share a shift
        ps = PatternSet.from_text("f(a,_)\nf(_,b)\n")
    else:
        ps, _ = random_instance(name, pattern_count=6)
    text = to_json(build(ps, strategy))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DOCUMENTS[name, strategy]


def _goal_by_goal(state, symbol, ps):
    """The derivative with every fresh goal stepped on its own."""
    out = []
    for g in state.goals:
        outcome, reduced = goal_outcome(g, symbol, state.label)
        if outcome is Outcome.UNCHANGED:
            out.append(g)
        elif outcome is Outcome.REDUCED:
            out.append(reduced)
    for i in range(1, symbol.arity + 1):
        out.extend(fresh_goal(pid, pat, state.label + (i,))
                   for pid, pat in enumerate(ps.patterns))
    return out


@settings(max_examples=40, deadline=None)
@given(pattern_sets())
def test_compact_step_expands_to_the_goal_by_goal_step(ps):
    for strategy in (LEFTMOST, RIGHTMOST):
        a = build(ps, strategy)
        verify_automaton(a)
        for state in a.states:
            # every obligation position carries the whole fresh family
            _, fresh = split_fresh(state.goals, ps.patterns)
            assert set(fresh) == {p for g in state.goals for p in g.positions()}
            # a partial family is stepped goal by goal
            partial = State(label=state.label, goals=tuple(
                g for g in state.goals if g != fresh_goal(0, ps[0], state.label)))
            for symbol in a.signature:
                assert Counter(derivative(partial, symbol, ps)) \
                    == Counter(_goal_by_goal(partial, symbol, ps))
                full = _goal_by_goal(state, symbol, ps)
                assert Counter(derivative(state, symbol, ps)) == Counter(full)
                # the built transition is the partition and lift of that
                # derivative, target for target
                want = Counter()
                for klass in dependency_partition(full):
                    lifted, shift = lift_class(klass)
                    want[frozenset(lifted), shift] += 1
                tr = state.delta[symbol.name]
                got = Counter((frozenset(a.states[tid].goals), shift)
                              for tid, shift in tr.targets)
                assert got == want
                assert tr.outputs == outputs(state, symbol)


def test_fresh_positions_stand_for_their_families(assoc_pattern_set):
    pats = assoc_pattern_set.patterns
    reduced = Goal(frozenset({(pats[0].children[0], (1,))}), 0, ())
    goals = [reduced] + [fresh_goal(pid, pat, (1,)) for pid, pat in enumerate(pats)]
    goals.append(fresh_goal(0, pats[0], (2,)))  # half a family stays a goal
    assert split_fresh(goals, pats) == ([reduced, goals[-1]], [(1,)])
    classes = dependency_partition([reduced, (1,), (2,)])
    assert classes == [[reduced, (1,)], [(2,)]]
    assert lift_class(classes[1]) == ([()], (2,))
    assert lift_class([(2, 1), (2, 2)]) == ([(1,), (2,)], (2,))


def test_reachable_position_bound_examples():
    ps = PatternSet.from_text("f(a,_)\n")
    # suffixes of q.i for q in {root, 1} and i in {1, 2}
    assert reachable_position_bound(ps) == {
        (), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)}
    ps = PatternSet.from_text("a\n")
    assert reachable_position_bound(ps) == {()}


def test_obligation_positions_stay_within_bound(nested_pattern_set):
    a = build(nested_pattern_set)
    bound = reachable_position_bound(nested_pattern_set)
    for s in a.states:
        for g in s.goals:
            assert g.positions() <= bound


def test_verify_accepts_built_automata(nested_pattern_set, assoc_pattern_set):
    for ps in (nested_pattern_set, assoc_pattern_set):
        for strategy in (LEFTMOST, RIGHTMOST):
            verify_automaton(build(ps, strategy))


def test_verify_rejects_tampered_label(nested_pattern_set):
    a = build(nested_pattern_set)
    a.states[0].label = (9,)
    with pytest.raises(InvariantError):
        verify_automaton(a)


def test_verify_rejects_missing_transition(nested_pattern_set):
    a = build(nested_pattern_set)
    del a.states[1].delta["g"]
    with pytest.raises(InvariantError):
        verify_automaton(a)


def test_verify_rejects_dropped_fresh_goal(nested_pattern_set):
    a = build(nested_pattern_set)
    s = a.states[1]
    s.goals = tuple(g for g in s.goals if not (g.is_fresh and g.announce == (1,)))
    with pytest.raises(InvariantError):
        verify_automaton(a)


def test_every_state_keeps_a_root_goal(nested_pattern_set, assoc_pattern_set):
    for ps in (nested_pattern_set, assoc_pattern_set):
        a = build(ps)
        for s in a.states:
            assert any(g.is_root for g in s.goals)
            assert s.label in {p for g in s.goals if g.is_root
                               for p in g.positions()}


def test_obligation_positions_pairwise_incomparable(nested_pattern_set):
    a = build(nested_pattern_set)
    for s in a.states:
        for g in s.goals:
            ps = sorted(g.positions())
            for i, p in enumerate(ps):
                for q in ps[i + 1:]:
                    assert not prefix_leq(p, q) and not prefix_leq(q, p)


@settings(max_examples=40, deadline=None)
@given(pattern_sets())
def test_random_pattern_sets_build_and_verify(ps):
    for strategy in (LEFTMOST, RIGHTMOST):
        a = build(ps, strategy)
        verify_automaton(a)
        bound = reachable_position_bound(ps)
        for s in a.states:
            for g in s.goals:
                assert g.positions() <= bound
