"""Automaton construction: derivatives, labels, the worklist closure.

The two fully frozen machines below were derived by hand from the
construction rules, one transition at a time, before being compared
against build() output.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings

from setmatch import (LEFTMOST, RIGHTMOST, Goal, InvariantError, PatternSet,
                      Signature, State, Transition, build, domain, evaluate,
                      from_json, parse_term, prefix_leq, random_instance,
                      reachable_position_bound, subterm_at, to_json,
                      verify_automaton)
from setmatch.automaton import (choose_label, derivative, outputs,
                                transition_count)
from setmatch.goals import (Outcome, canonical_goals, dependency_partition,
                            fresh_goal, goal_outcome, goal_sort_key, lift_class)

from conftest import pattern_sets


def initial_goals(ps):
    """The paper's initial goal set: one fresh root goal per pattern."""
    return frozenset(fresh_goal(i, p, ()) for i, p in enumerate(ps.patterns))


def _is_fresh(g):
    """A single obligation at the announcement position itself."""
    return len(g.obligation) == 1 and g.positions() == {g.announce}


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


def _built_initial_state(ps):
    a = build(ps)
    return a.states[a.initial]


def test_initial_state_one_fresh_root_goal_per_pattern(nested_pattern_set,
                                                       assoc_pattern_set):
    s = _built_initial_state(nested_pattern_set)
    assert s.label == ()
    assert set(s.goals) == {fresh_goal(0, nested_pattern_set[0], ())}
    s = _built_initial_state(assoc_pattern_set)
    assert set(s.goals) == {fresh_goal(0, assoc_pattern_set[0], ()),
                            fresh_goal(1, assoc_pattern_set[1], ())}


def test_initial_state_single_constant():
    ps = PatternSet.from_text("a\n")
    s = _built_initial_state(ps)
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
    # a fresh position stands for its family, a root family only at the root
    assert choose_label([goals[0], ()], LEFTMOST) == ()
    assert choose_label([goals[0], ()], RIGHTMOST) == (2, 1)
    with pytest.raises(InvariantError):
        choose_label([(1,)], LEFTMOST)


def test_rightmost_label_of_doubly_nested_state(sig_fga, nested_pattern_set):
    _, _, _, s3 = _expected_nested_states(sig_fga)
    assert choose_label(s3, RIGHTMOST) == (1, 2)


def test_derivative_three_part_example(sig_fga, nested_pattern_set):
    # observing g at label 2: one goal reduces, one is unchanged, one is
    # discarded, and a fresh goal appears at 2.1
    _, s1_goals, _, _ = _expected_nested_states(sig_fga)
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
    s = State(label=(), goals=canonical_goals(initial_goals(ps)))
    assert derivative(s, sig.symbol("a"), ps) == []


def test_derivative_reaches_the_doubly_nested_state(sig_fga,
                                                    nested_pattern_set):
    _, _, s2_goals, s3_goals = _expected_nested_states(sig_fga)
    s2 = State(label=(1,), goals=canonical_goals(s2_goals))
    got = derivative(s2, sig_fga.symbol("f"), nested_pattern_set)
    assert frozenset(got) == s3_goals


def test_outputs_of_doubly_nested_state(sig_fga, nested_pattern_set):
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


# SHA-256 of to_json(build(ps, strategy)) in schema 3.  The document names
# its label strategy, so the two strategies differ here even where they
# build the same automaton; PINNED_STRUCTURES pins the automata themselves.
PINNED_DOCUMENTS = {
    ("nested", LEFTMOST): "976d993c7634dd927f8db0d7f083fe872e909954faec4b85897d86aca1902770",
    ("nested", RIGHTMOST): "a0add4c9387e6e584bf0e6ebc6f7191158899ae8d2f6430a2764570572f01af0",
    ("assoc", LEFTMOST): "cbee89bae54dd2e75c4666e08b77c2071a60c183e4cca0b3c99d4dac35c311f2",
    ("assoc", RIGHTMOST): "79ecfefefe771d4910030f4aa015889bc042b400560abca2db2ddea62db929cf",
    ("shared shift", LEFTMOST): "e5ea0a7022fa15ea142130017402e3635370c6ff50dcfef5007a2e8e098ddb88",
    ("shared shift", RIGHTMOST): "61a1f4fc4730b459998dcaf5215fc0ba2620c9bfd5c6a1f81d9196d2a4e3dd02",
    (0, LEFTMOST): "e6c4807dc21243e45990ce3553d2e1f22973be8944fb764fdef6605eb8dd0107",
    (0, RIGHTMOST): "bd50d046ec9b584bbe904afdeb146cf88cde18b039d41943d28b430164e03295",
    (1, LEFTMOST): "374f85ff028af9ec60fbfb807cb02100f307cbc975c3a6e3010e883f1ae27315",
    (1, RIGHTMOST): "356a5ab5ad94f4df103da665d3eb1740569b52bd8249e365f38ca5785a3b1aa4",
    (2, LEFTMOST): "92be6a62d1acc63f1cd32650842812b4e37565896a68fbabe6327653725cf9bf",
    (2, RIGHTMOST): "b7b1b9f1098c45f61f2449ca20a6ce8dd0ada82fbf642c51acbfb0bfbfc13ca8",
    (3, LEFTMOST): "da407c0659d1078612d64c6ad7b25a29db8c3cdbe78073ad0592e0517b1d3488",
    (3, RIGHTMOST): "f3877a960c50aa6b38cfec7fc8826d0b27e1a9e380f072a9f5a6941e2d2c8e60",
    (4, LEFTMOST): "18496755f45e62471209f2169ab717e35ba84f5e7c76044f7003f3b732f52a23",
    (4, RIGHTMOST): "060c5514abd36ad5dab525f3feedc388bb68dd249962c6b333c6d283ee26ade7",
    (5, LEFTMOST): "373c05b36c25dd8e512c71195817d68dcd604729cab3f12d2cb742d7edde2cf9",
    (5, RIGHTMOST): "25820e8dbe54e84da70e892785bed20b702494119621e086eb9747df8f6a76b8",
}


def _pinned_pattern_set(request, name):
    if name in ("nested", "assoc"):
        return request.getfixturevalue(f"{name}_pattern_set")
    if name == "shared shift":  # two targets of one transition share a shift
        return PatternSet.from_text("f(a,_)\nf(_,b)\n")
    ps, _ = random_instance(name, pattern_count=6)
    return ps


@pytest.mark.parametrize("name, strategy", sorted(PINNED_DOCUMENTS, key=str))
def test_compiled_documents_are_pinned(request, name, strategy):
    text = to_json(build(_pinned_pattern_set(request, name), strategy))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DOCUMENTS[name, strategy]


def _structure_digest(a):
    """SHA-256 over ``initial`` and each state's label, outputs and targets."""
    h = hashlib.sha256(repr(a.initial).encode())
    for st in a.states:
        h.update(repr((st.label, [(name, tr.outputs, tr.targets)
                                  for name, tr in st.delta.items()])).encode())
    return h.hexdigest()


# Digests of the built structure alone, independent of the document format,
# so they hold across schema changes that re-record PINNED_DOCUMENTS.
PINNED_STRUCTURES = {
    ("nested", LEFTMOST): "643015c5d88098f69a4c85073f597e2c4d15dac72028edaa91acac2a0c029e81",
    ("nested", RIGHTMOST): "e0d55c19983da28a8bce16aa95039411d1cc73161d8d5e0e96a481b5725f2ba4",
    ("assoc", LEFTMOST): "4e4e203cadc32658dde000ed8e250c6a626dd241586537e99861b8db58d7dc02",
    ("assoc", RIGHTMOST): "4e4e203cadc32658dde000ed8e250c6a626dd241586537e99861b8db58d7dc02",
    ("shared shift", LEFTMOST): "734cae2d8c201026cea2421ff688a66b83ebcb8bf2d4854253e35cee27ac64fa",
    ("shared shift", RIGHTMOST): "734cae2d8c201026cea2421ff688a66b83ebcb8bf2d4854253e35cee27ac64fa",
    (0, LEFTMOST): "570e6e5c7605f3530739f68987060ac8619e1ae987efcb09f9980896eb918e2a",
    (0, RIGHTMOST): "adb7b0c02f4022e4023c020086f6219c341830e7a2e69df608f47540922e2c6c",
    (1, LEFTMOST): "45bd128d10c059bc14d0f47480303f8d664fc67d507ce8e7e5d5e21592d11300",
    (1, RIGHTMOST): "45bd128d10c059bc14d0f47480303f8d664fc67d507ce8e7e5d5e21592d11300",
    (2, LEFTMOST): "dd1e25a10d0978cc11ac66d40d4ccf651456e2e81cbf5c1bf7b155740e0bcf94",
    (2, RIGHTMOST): "c063ebcd0761152c47c826a3914c4915c0970cf88c8cd7e8b0880cd0ccbaae18",
    (3, LEFTMOST): "2bae405668cc308a79186d9e8a95bc2009adef1023d3e120532168f8147ec932",
    (3, RIGHTMOST): "7bc754b2d769a21affeb1f20023781011f77ae9e2002690c8bfa193fd3b6d5d1",
    (4, LEFTMOST): "eb046befbcfb07651820cd4596ca59ac324d18a2e2144069e2ac215e94bcc81f",
    (4, RIGHTMOST): "eb046befbcfb07651820cd4596ca59ac324d18a2e2144069e2ac215e94bcc81f",
    (5, LEFTMOST): "eb053d2557b1bccf339b86e6136d0e3785d1634e5b2bdc41f7b4e75ef45185a4",
    (5, RIGHTMOST): "61d01f78127844f8e3ce76c19d9a80a8f63cd813ea1b800c7e70fa0891153412",
}


@pytest.mark.parametrize("name, strategy", sorted(PINNED_STRUCTURES, key=str))
def test_compiled_structures_are_pinned(request, name, strategy):
    a = build(_pinned_pattern_set(request, name), strategy)
    assert _structure_digest(a) == PINNED_STRUCTURES[name, strategy]


# Seeded random sets over profiles with a ternary symbol; with few patterns
# some symbols stay unmentioned.  (state count, SHA-256 over every to_json).
COMPILE_PROFILES = ({0: 2, 1: 1, 2: 1, 3: 1}, {0: 2, 1: 2, 2: 2, 3: 2}, {0: 3, 3: 2})
PINNED_COMPILE_DIGEST = (
    2376, "aeeba553e654d0a93cd000e278d915bf606b493a42a5928d351fc96da7a1f688")


def _label_survivors(state, symbol, ps):
    """Non-fresh goals of ``state`` that watch its label and survive ``symbol``."""
    return [g for g in state.goals if not _is_fresh(g)
            and goal_outcome(g, symbol, state.label)[0] is Outcome.REDUCED]


def test_compiled_output_is_pinned():
    h, states, steps = hashlib.sha256(), 0, Counter()
    mentioned = Counter()
    for profile in COMPILE_PROFILES:
        for seed in range(60):
            ps, _ = random_instance(seed, profile=profile,
                                    pattern_count=1 + seed % 6,
                                    pattern_depth=2 + seed % 3)
            used = {subterm_at(p, q).symbol for p in ps for q in domain(p)} - {None}
            mentioned[len(used) < len(ps.signature), 3 in {s.arity for s in used}] += 1
            for strategy in (LEFTMOST, RIGHTMOST):
                a = build(ps, strategy)
                h.update(to_json(a).encode())
                states += len(a.states)
                for state in a.states:
                    for symbol in a.signature:
                        steps[bool(_label_survivors(state, symbol, ps))] += 1
    assert (states, h.hexdigest()) == PINNED_COMPILE_DIGEST
    # both kinds of step and of signature occur
    assert steps[True] and steps[False]
    assert {unmentioned for unmentioned, _ in mentioned} == {True, False}
    assert any(ternary for _, ternary in mentioned)


def test_every_obligation_term_is_the_subterm_its_position_names():
    # goal_sort_key orders goals by positions alone, which is exact only if
    # the term at an obligation position of a goal of pattern p announced at
    # A is always p's subterm at the rest of that position after A
    goals = 0
    for profile in COMPILE_PROFILES:
        for seed in range(60):
            ps, _ = random_instance(seed, profile=profile,
                                    pattern_count=1 + seed % 6,
                                    pattern_depth=2 + seed % 3)
            for strategy in (LEFTMOST, RIGHTMOST):
                for state in build(ps, strategy).states:
                    for g in state.goals:
                        goals += 1
                        for term, pos in g.obligation:
                            assert prefix_leq(pos, g.announce)
                            assert term == subterm_at(ps[g.pattern], pos[len(g.announce):])
    assert goals > 20000


@settings(max_examples=40, deadline=None)
@given(pattern_sets())
def test_compact_step_expands_to_the_goal_by_goal_step(ps):
    for strategy in (LEFTMOST, RIGHTMOST):
        a = build(ps, strategy)
        verify_automaton(a)
        for state in a.states:
            # every obligation position carries the whole fresh family
            positions = {p for g in state.goals for p in g.positions()}
            assert {fresh_goal(pid, pat, p) for p in positions
                    for pid, pat in enumerate(ps.patterns)} <= set(state.goals)
            for symbol in a.signature:
                full = derivative(state, symbol, ps)
                # the built transition is the partition and lift of the
                # goal-by-goal derivative, target for target
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


def test_build_refuses_a_label_without_its_fresh_family(nested_pattern_set,
                                                        monkeypatch):
    monkeypatch.setattr("setmatch.automaton.choose_label", lambda key, strategy: (9,))
    with pytest.raises(InvariantError, match="no fresh family at the label 9"):
        build(nested_pattern_set)


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


def test_verify_compares_a_built_automaton_with_its_rebuild(nested_pattern_set):
    a = build(nested_pattern_set)
    tr = a.states[0].delta["f"]
    a.states[0].delta["f"] = Transition(tr.outputs, tuple(
        ((tid + 1) % len(a.states), shift) for tid, shift in tr.targets))
    with pytest.raises(InvariantError, match="state 0, symbol 'f'"):
        verify_automaton(a)


def _tamper_rebuild(monkeypatch, tamper):
    """Make verify_automaton's rebuild pass through ``tamper`` before use."""
    def build_and_tamper(ps, label_strategy):
        rebuilt = build(ps, label_strategy)
        tamper(rebuilt.states[1])
        return rebuilt
    monkeypatch.setattr("setmatch.automaton.build", build_and_tamper)


def test_verify_rejects_dropped_fresh_goal(nested_pattern_set, monkeypatch):
    a = from_json(to_json(build(nested_pattern_set)))

    def drop(s):
        s.goals = tuple(g for g in s.goals if not (_is_fresh(g) and g.announce == (1,)))
    _tamper_rebuild(monkeypatch, drop)
    with pytest.raises(InvariantError, match="missing fresh goal"):
        verify_automaton(a)


def test_verify_names_comparable_positions_of_the_rebuild(nested_pattern_set,
                                                          monkeypatch):
    a = from_json(to_json(build(nested_pattern_set)))
    pat = nested_pattern_set[0]

    def add_below(s):
        positions = {p for g in s.goals for p in g.positions()}
        deepest = max(positions, key=lambda p: (len(p), p))
        s.goals = canonical_goals([*s.goals, fresh_goal(0, pat, deepest + (1,))])
    _tamper_rebuild(monkeypatch, add_below)
    with pytest.raises(InvariantError) as e:
        verify_automaton(a)
    assert str(e.value) == "state 1: comparable obligation positions 2 and 2.1"


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


VIEW_CASES = ["nested", "assoc", "shared shift", 0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("strategy", [LEFTMOST, RIGHTMOST])
@pytest.mark.parametrize("name", VIEW_CASES, ids=str)
def test_goal_view_is_the_goal_by_goal_construction(request, name, strategy):
    ps = _pinned_pattern_set(request, name)
    a = build(ps, strategy)
    assert a.states[a.initial].goals == canonical_goals(initial_goals(ps))
    for state in a.states:
        assert state.label == choose_label(state.goals, strategy)
        for symbol in a.signature:
            classes = dependency_partition(derivative(state, symbol, ps))
            want = sorted(((shift, canonical_goals(lifted))
                           for lifted, shift in map(lift_class, classes)),
                          key=lambda e: (e[0], [goal_sort_key(g) for g in e[1]]))
            got = [(shift, a.states[tid].goals)
                   for tid, shift in state.delta[symbol.name].targets]
            assert got == want


def test_build_sorts_goal_sets_only_for_shared_shift_ties(request, monkeypatch):
    calls = []
    monkeypatch.setattr("setmatch.automaton.canonical_goals",
                        lambda goals: calls.append(None) or canonical_goals(goals))
    total_ties = 0
    for name in VIEW_CASES:
        for strategy in (LEFTMOST, RIGHTMOST):
            calls.clear()
            a = build(_pinned_pattern_set(request, name), strategy)
            ties = sum(len(tr.targets) for st in a.states for tr in st.delta.values()
                       if len({shift for _, shift in tr.targets}) < len(tr.targets))
            assert len(calls) == ties
            total_ties += ties
            # the goal view sorts once per state, on its first read
            first = [st.goals for st in a.states]
            assert len(calls) == ties + len(a.states)
            assert all(st.goals is goals for st, goals in zip(a.states, first))
            assert len(calls) == ties + len(a.states)
    assert total_ties > 0


def test_build_partitions_once_per_state_symbol_and_surviving_step(request,
                                                                   monkeypatch):
    """Only a goal that survives at the label makes a step re-partition.

    Every other class is partitioned and lifted once per state (the members
    away from the label) or once per symbol (the family table).
    """
    partitions, lifts = [], []

    def partition(members):
        classes = dependency_partition(members)
        partitions.append(len(classes))
        return classes

    monkeypatch.setattr("setmatch.automaton.dependency_partition", partition)
    monkeypatch.setattr("setmatch.automaton.lift_class",
                        lambda klass: lifts.append(None) or lift_class(klass))
    cases = [_pinned_pattern_set(request, name) for name in VIEW_CASES]
    cases += [random_instance(seed, profile=profile, pattern_count=1 + seed % 6)[0]
              for profile in COMPILE_PROFILES for seed in range(8)]
    steps = spared = 0
    for ps in cases:
        for strategy in (LEFTMOST, RIGHTMOST):
            partitions.clear()
            lifts.clear()
            a = build(ps, strategy)
            surviving = sum(bool(_label_survivors(state, symbol, ps))
                            for state in a.states for symbol in a.signature)
            bound = len(a.states) + len(a.signature) + surviving
            assert len(partitions) <= bound
            assert len(lifts) == sum(partitions)  # each class is lifted once
            steps += len(a.states) * len(a.signature)
            spared += len(a.states) * len(a.signature) - bound
    # a partition per step would break the bound by this much
    assert spared > steps // 2
