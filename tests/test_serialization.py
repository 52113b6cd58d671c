"""JSON round trips, schema validation, verification by rebuild, and build
determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import setmatch
from setmatch import (LEFTMOST, RIGHTMOST, FormatError, InvariantError, build,
                      evaluate, from_json, parse_term, random_instance, to_json,
                      verify_automaton)
from setmatch.serialization import SCHEMA_VERSION

from conftest import OFF_LABEL, _off_label


def test_round_trip_is_byte_identical(nested_automaton):
    text = to_json(nested_automaton)
    again = to_json(from_json(text))
    assert text == again
    assert text.endswith("\n")


def test_round_trip_preserves_structure(assoc_automaton):
    b = from_json(to_json(assoc_automaton))
    a = assoc_automaton
    assert (b.initial, b.label_strategy) == (a.initial, a.label_strategy)
    assert [s.label for s in b.states] == [s.label for s in a.states]
    for sa, sb in zip(a.states, b.states):
        assert sa.delta == sb.delta


def test_round_trip_without_goals_still_evaluates(nested_automaton, sig_fga,
                                                  nested_subject):
    b = from_json(to_json(nested_automaton))
    assert b.states[0].goals is None
    assert evaluate(b, nested_subject).matches \
        == evaluate(nested_automaton, nested_subject).matches


def test_a_document_keeps_shifts_and_memory_keeps_depth_and_tail():
    # f(_,a): state 1, under label 2, has on f the shifts 2 and 2.1, held as
    # depth 1 with the tails () and 1; a shift is split at its longest
    # common prefix with the label however it was written
    from setmatch import PatternSet, Signature
    a = build(PatternSet.from_text("f(_, a)\n", Signature((("f", 2), ("a", 0)))))
    doc = json.loads(to_json(a))
    assert doc["states"][1][1] == [[], [1, [2], 0, [2, 1]]]
    assert from_json(json.dumps(doc)).states[1].delta["f"].targets \
        == ((1, 1, ()), (0, 1, (1,)))
    doc["states"][1][1][1] = [0, [], 0, [1, 2], 0, [2, 2, 1], 1, [2]]
    b = from_json(json.dumps(doc))
    assert b.states[1].delta["f"].targets \
        == ((0, 0, ()), (0, 0, (1, 2)), (0, 1, (2, 1)), (1, 1, ()))
    assert json.loads(to_json(b)) == doc


@OFF_LABEL
def test_to_json_rejects_a_target_off_the_label(depth, output):
    # an automaton edited in Python whose state under label 2 starts a
    # target, or announces an output, below the label, past its end or at
    # a float depth is not written as another document
    a, message = _off_label(depth, output)
    with pytest.raises(InvariantError, match=message):
        to_json(a)


def _reload_exactly(a):
    """Load ``a``'s document, verify it, and rebuild it.

    The document holds no goals; rebuilding from its patterns and label
    strategy gives back every goal of ``a`` exactly, and the loaded
    automaton writes every byte of the text back.
    """
    text = to_json(a)
    b = from_json(text)
    verify_automaton(b)
    rebuilt = build(b.patterns, b.label_strategy)
    assert [s.goals for s in rebuilt.states] == [s.goals for s in a.states]
    assert to_json(b) == text
    return b


@pytest.mark.parametrize("name", ["assoc_automaton", "nested_automaton"])
def test_round_trip_keeps_goals_exactly(request, name):
    _reload_exactly(request.getfixturevalue(name))


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_round_trip_keeps_goals_of_random_pattern_sets(seed):
    ps, _ = random_instance(seed, pattern_count=5, pattern_depth=3)
    _reload_exactly(build(ps))


def test_documents_hold_no_goals(assoc_automaton):
    doc = _doc(assoc_automaton)
    assert doc["version"] == SCHEMA_VERSION == 4
    assert list(doc) == ["version", "signature", "patterns", "label_strategy",
                         "initial", "states"]
    # a state is its label, then one [outputs, targets] entry per symbol
    length = 1 + len(doc["signature"])
    assert all(len(entry) == length and all(len(e) == 2 for e in entry[1:])
               for entry in doc["states"])
    assert all(s.goals is None for s in from_json(json.dumps(doc)).states)


def test_text_is_compact():
    ps, _ = random_instance(3, pattern_count=5, pattern_depth=3)
    text = to_json(build(ps))
    assert text.count("\n") == 1 and ", " not in text and ": " not in text


def test_each_distinct_term_text_is_parsed_once(monkeypatch, assoc_automaton):
    texts = []

    def parse(text, *args, **kwargs):
        texts.append(text)
        return parse_term(text, *args, **kwargs)

    monkeypatch.setattr(setmatch.serialization, "parse_term", parse)
    text = to_json(assoc_automaton)
    from_json(text)
    # the patterns are the only term texts a document holds
    assert texts == json.loads(text)["patterns"]


def test_rejects_version_1_and_asks_to_recompile(nested_automaton):
    doc = _doc(nested_automaton)
    for version in (1, 2, 3):
        doc["version"] = version
        _expect_error(doc, "$.version")
        _expect_error(doc, "recompile")


@pytest.mark.parametrize("strategy", [None, "sideways", ["rightmost"]])
def test_rejects_unknown_label_strategy(nested_automaton, strategy):
    doc = _doc(nested_automaton)
    doc["label_strategy"] = strategy
    _expect_error(doc, "$.label_strategy: must be")
    del doc["label_strategy"]
    _expect_error(doc, "missing field 'label_strategy'")


# The nested automaton's states, with the symbols f, g, a at row entries 1 to
# 3: [[], [[], [1, []]], [[], [0, [1]]], [[], []]] is state 0.
@pytest.mark.parametrize("where, value, message", [
    (("states", 3, 2, 0), [0, -1],
     "$.states[3][2][0][1]: symbol 'g': depth -1 must be an integer from 0 to 2, "
     "the length of the state's label"),
    (("states", 1, 1, 1), [0, [], 1],
     "$.states[1][1][1]: symbol 'f': must be an array of state, shift pairs"),
    (("states", 1, 1, 1), [0, [True]],
     "$.states[1][1][1][1]: symbol 'f': must be an array of positive integers"),
    (("states", 2, 3), {},
     "$.states[2][3]: symbol 'a': must be an array of outputs and targets"),
    (("states", 0, 2, 0), {},
     "$.states[0][2][0]: symbol 'g': must be an array of pattern, depth pairs"),
    # a step above the widest arity (2) would walk off every subject
    (("states", 1, 0), [9],
     "$.states[1][0][0]: step 9 is above the signature's widest arity 2"),
    (("states", 1, 2, 1), [2, [], 0, [2, 3]],
     "$.states[1][2][1][3][1]: symbol 'g': step 3 is above the signature's "
     "widest arity 2"),
    (("states", 0, 1, 1), [1, [1, 1, 7]],
     "$.states[0][1][1][1][2]: symbol 'f': step 7 is above the signature's "
     "widest arity 2"),
    # a row without one entry per symbol is reported before a bad entry
    (("states", 1), [[2], [[0], []], [[], []], [[], []], [[], []]],
     "$.states[1]: must be an array of a label and 3 row entries, one per "
     "signature symbol"),
    # a step of 0 makes the whole array bad, before the 9 is range-checked
    (("states", 1, 0), [9, 0],
     "$.states[1][0]: must be an array of positive integers"),
    (("states", 2, 1, 1), [1, [9, 0]],
     "$.states[2][1][1][1]: symbol 'f': must be an array of positive integers"),
    # per pair: the id, then the depth or shift
    (("states", 1, 2, 0), [7, 9],
     "$.states[1][2][0][0]: symbol 'g': unknown pattern id 7"),
    (("states", 1, 2, 0), [True, 0],
     "$.states[1][2][0][0]: symbol 'g': unknown pattern id True"),
    (("states", 1, 2, 0), [0, [0]],
     "$.states[1][2][0][1]: symbol 'g': depth [0] must be an integer from 0 to 1"),
    (("states", 1, 2, 1), [True, [0]],
     "$.states[1][2][1][0]: symbol 'g': unknown state id True"),
    # a depth past the label's end would announce off the path inspected
    (("states", 1, 2, 0), [0, 2],
     "$.states[1][2][0][1]: symbol 'g': depth 2 must be an integer from 0 to 1, "
     "the length of the state's label"),
    # the label first, then each entry in signature order, outputs first
    (("states", 2), [[0], 5, 5, 5],
     "$.states[2][0]: must be an array of positive integers"),
    (("states", 2, 1), [[0, 5], [9, []]],
     "$.states[2][1][0][1]: symbol 'f': depth 5 must be an integer from 0 to 1"),
    (("states", 2, 3), [[], [], []],
     "$.states[2][3]: symbol 'a': must be an array of outputs and targets"),
    (("states", 0), [],
     "$.states[0]: must be an array of a label and 3 row entries"),
])
def test_rejects_nested_entries_with_their_exact_path(nested_automaton, where,
                                                      value, message):
    doc = _doc(nested_automaton)
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(FormatError) as e:
        from_json(json.dumps(doc))
    assert str(e.value).startswith(message), str(e.value)


# Values a broken document may hold in place of any of its own: wrong
# types, True for an id, positions with steps out of range, an empty row
# entry and a target pair.
LOAD_VALUES = (None, True, 0, 1, -1, 2, 9, 1.5, "f", [], [0], [1], [9], [9, 0],
               [1, True], {}, [[], []], [0, []])


def _paths(node, path=()):
    """The path of every value below ``node``, in document order."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _break(doc, paths, rng) -> str:
    """Apply one random edit to ``doc`` in place and say what it did: replace
    a value, delete a key or list entry, or add or drop a row entry.
    ``paths`` holds the unedited document's paths, then its state paths."""
    while True:
        kind = rng.choice(("value", "value", "delete", "row"))
        path = rng.choice(paths[kind == "row"])
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            node = parent[path[-1]]
            break
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit took it away
    if kind == "value":
        parent[path[-1]] = rng.choice(LOAD_VALUES)
    elif kind == "delete" or not isinstance(node, list) or not node:
        kind = "delete"
        del parent[path[-1]]
    elif rng.random() < 0.5 or len(node) == 1:
        kind = "extra row entry"
        node.insert(rng.randint(1, len(node)), [[], []])
    else:
        kind = "dropped row entry"
        del node[rng.randrange(1, len(node))]
    return f"{kind} {path}"


def _pinned_load_documents():
    """Seeded broken documents of small random automata, one or two edits
    each, with the edits that made them."""
    rng = random.Random(10)
    for seed in range(8):
        ps, _ = random_instance(seed, pattern_count=3, pattern_depth=2)
        for strategy in (RIGHTMOST, LEFTMOST):
            base = to_json(build(ps, strategy))
            every = list(_paths(json.loads(base)))
            paths = (every, [p for p in every if len(p) == 2 and p[0] == "states"])
            for _ in range(150):
                doc = json.loads(base)
                edits = [_break(doc, paths, rng) for _ in range(rng.choice((1, 1, 2)))]
                yield ", ".join(edits), json.dumps(doc)


PINNED_LOAD_OUTCOMES = (
    2400, "c6086e9848b2eac4440dac54ccb30aa6115814a604bdad6b9874a35eb928bdd1")


def test_load_outcomes_are_pinned():
    # which error a broken document gives, its text, and its order among
    # the document's faults are all part of the format
    h = hashlib.sha256()
    count = 0
    for edits, text in _pinned_load_documents():
        try:
            from_json(text)
            outcome = "ok"
        except FormatError as e:
            outcome = str(e)
        h.update(f"{edits}\t{outcome}\n".encode())
        count += 1
    assert (count, h.hexdigest()) == PINNED_LOAD_OUTCOMES


def test_rejects_bool_initial(nested_automaton):
    doc = _doc(nested_automaton)
    doc["initial"] = True
    _expect_error(doc, "initial")


def test_rejects_bool_state_id(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][1][1][1][0] = True
    _expect_error(doc, "$.states[1][1][1][0]: symbol 'f': unknown state id True")


def _doc(a):
    return json.loads(to_json(a))


def _expect_error(doc, fragment):
    with pytest.raises(FormatError) as e:
        from_json(json.dumps(doc))
    assert fragment in str(e.value), str(e.value)


def test_rejects_invalid_json():
    with pytest.raises(FormatError):
        from_json("{not json")


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a":' * 100_000,
                                  "[" * 100_000 + "]" * 100_000],
                         ids=["array", "object", "closed-array"])
def test_rejects_json_nested_past_the_decoder_limit(text):
    with pytest.raises(FormatError) as e:
        from_json(text)
    assert e.value.path == "$"
    assert e.value.reason.startswith("invalid JSON: ")


def test_rejects_an_integer_longer_than_the_interpreter_converts(nested_automaton):
    text = to_json(nested_automaton).replace('"initial":0', '"initial":' + "1" * 5000)
    with pytest.raises(FormatError) as e:
        from_json(text)
    # where the interpreter converts any length, the value loads and fails
    # the range check instead
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert e.value.path == ("$" if 0 < limit < 5000 else "$.initial")


def test_rejects_wrong_version(nested_automaton):
    doc = _doc(nested_automaton)
    doc["version"] = 99
    _expect_error(doc, "version")


def test_rejects_unknown_target_state(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][0][1][1][0] = 12
    _expect_error(doc, "unknown state id 12")


def test_rejects_missing_delta_symbol(nested_automaton):
    doc = _doc(nested_automaton)
    del doc["states"][1][2]
    _expect_error(doc, "$.states[1]: must be an array of a label and 3 row entries")


def test_rejects_undeclared_delta_symbol(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][1].append([[], []])
    _expect_error(doc, "$.states[1]: must be an array of a label and 3 row entries")


def test_rejects_bad_label(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][2][0] = [0]
    _expect_error(doc, "$.states[2][0]: must be an array of positive integers")


def test_rejects_out_of_range_output_pattern(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][3][2][0] = [5, 0]
    _expect_error(doc, "$.states[3][2][0][0]: symbol 'g': unknown pattern id 5")


def test_rejects_duplicate_patterns(nested_automaton):
    doc = _doc(nested_automaton)
    doc["patterns"] = doc["patterns"] * 2
    _expect_error(doc, "patterns")


def test_rejects_empty_states(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"] = []
    _expect_error(doc, "states")


def test_rejects_bool_arity(nested_automaton):
    doc = _doc(nested_automaton)
    doc["signature"][0]["arity"] = True
    _expect_error(doc, "arity")


def _relabel(doc):
    doc["states"][1][0] = [1]


def _swap_targets(doc):
    f, g = doc["states"][0][1][1], doc["states"][0][2][1]  # first target ids at 0
    assert f[0] != g[0]
    f[0], g[0] = g[0], f[0]


def _drop_output(doc):
    outputs = next(outs for entry in doc["states"] for outs, _ in entry[1:] if outs)
    del outputs[-2:]


def _flip_strategy(doc):
    # nested compiles to 4 states rightmost and 6 leftmost
    doc["label_strategy"] = "leftmost"


def _move_initial(doc):
    doc["initial"] = 1


def _add_state(doc):
    doc["states"].append(doc["states"][-1])


@pytest.mark.parametrize("edit, message", [
    (_relabel, "state 1: label 1 differs from the rebuilt 2"),
    (_swap_targets, "state 0, symbol 'f': "),
    (_drop_output, r"state \d+, symbol '\w+': Transition\(outputs=\(\)"),
    (_flip_strategy, "state 1: label 2 differs from the rebuilt 1"),
    (_move_initial, "initial state 1 differs from the rebuilt 0"),
    (_add_state, "5 states differ from the rebuilt 4"),
], ids=["label", "target", "output", "strategy", "initial", "state-count"])
def test_verify_catches_a_hand_edit_after_load(nested_automaton, edit, message):
    doc = _doc(nested_automaton)
    verify_automaton(from_json(json.dumps(doc)))
    edit(doc)
    b = from_json(json.dumps(doc))
    with pytest.raises(InvariantError, match=message):
        verify_automaton(b)


def test_signature_symbols_missing_from_patterns_survive():
    ps_text = "f(a,_)\n"
    from setmatch import PatternSet, Signature
    sig = Signature()
    for name, ar in (("f", 2), ("a", 0), ("spare", 1)):
        sig.declare(name, ar)
    a = build(PatternSet.from_text(ps_text, sig))
    b = from_json(to_json(a))
    assert [s.name for s in b.signature] == ["f", "a", "spare"]
    subject = parse_term("spare(f(a,a))", b.signature)
    assert evaluate(b, subject).matches == {(0, (1,))}


_DETERMINISM_SNIPPET = """
import sys
import setmatch
from setmatch import PatternSet, build, to_json
sys.stderr.write(setmatch.__file__)
ps = PatternSet.from_text("f(f(_, g(_)), g(_))\\ng(f(_, a))\\nf(a, _)\\n")
sys.stdout.write(to_json(build(ps)))
"""


def test_build_is_deterministic_across_hash_seeds(tmp_path):
    # The two children differ only in PYTHONHASHSEED. PYTHONPATH names the
    # directory holding the setmatch package this process imported, so they
    # build with the code under test whether or not a copy is installed; the
    # empty working directory keeps anything else off their sys.path.
    package = os.path.realpath(setmatch.__file__)
    package_root = os.path.dirname(os.path.dirname(package))
    outs = []
    for seed in ("1", "17"):
        r = subprocess.run([sys.executable, "-c", _DETERMINISM_SNIPPET],
                           capture_output=True, text=True, cwd=tmp_path,
                           env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                                "PYTHONPATH": package_root})
        assert r.returncode == 0, r.stderr
        assert os.path.realpath(r.stderr) == package, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
