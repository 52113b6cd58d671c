"""Graphviz export: deterministic text, output labels, sink handling."""

from setmatch import RIGHTMOST, PatternSet, Signature, build, to_dot


def test_dot_is_deterministic(nested_automaton):
    assert to_dot(nested_automaton) == to_dot(nested_automaton)


def test_dot_shows_match_announcements(nested_automaton):
    text = to_dot(nested_automaton)
    assert "f(f(_,g(_)),g(_))@ε" in text


def test_dot_marks_state_labels(nested_automaton):
    text = to_dot(nested_automaton)
    assert 's0  ε' in text
    assert "1.2" in text


def test_dot_single_constant_has_sink():
    a = build(PatternSet.from_text("a\n"))
    text = to_dot(a)
    assert "doublecircle" in text
    assert "a@ε" in text


def test_dot_rotation_automaton_has_two_shift_one_arrows(assoc_automaton):
    text = to_dot(assoc_automaton)
    assert text.count('label="1"') == 2
    assert text.count('label="2"') == 2


def test_dot_without_empty_transitions_has_no_sink():
    # a constant-free signature never discards everything
    a = build(PatternSet.from_text("f(f(_,_),_)\n"))
    assert "doublecircle" not in to_dot(a)


def test_dot_escapes_are_parseable(nested_automaton):
    text = to_dot(nested_automaton)
    assert text.startswith("digraph")
    assert text.count("{") == text.count("}")
    for line in text.splitlines():
        assert line.count('"') % 2 == 0


def test_dot_shows_an_announcement_in_the_middle_of_the_label():
    # under label 2.1, g(a) completes at 2 and f(_,g(a)) at the pointer
    a = build(PatternSet.from_text("f(_,g(a))\ng(a)\n"), RIGHTMOST)
    assert '  s3 -> final [label="a\\nf(_,g(a))@ε\\ng(a)@2"];' \
        in to_dot(a).splitlines()


def test_dot_writes_each_target_as_its_whole_shift():
    # under label 2, f(_,a) keeps its target to state 0 as depth 1 and
    # tail 1; the edge shows the shift from the pointer, 2.1
    a = build(PatternSet.from_text("f(_, a)\n", Signature((("f", 2), ("a", 0)))))
    assert a.states[1].label == (2,)
    assert a.states[1].delta["f"].targets[1] == (0, 1, (1,))
    lines = to_dot(a).splitlines()
    assert '  j1_f -> s0 [label="2.1"];' in lines
    assert '  j1_f -> s1 [label="2"];' in lines
