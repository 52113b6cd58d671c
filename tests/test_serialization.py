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
    assert doc["version"] == SCHEMA_VERSION == 3
    assert list(doc) == ["version", "signature", "patterns", "label_strategy",
                         "initial", "states"]
    assert all(list(entry) == ["id", "label", "delta"] for entry in doc["states"])
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
    for version in (1, 2):
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


@pytest.mark.parametrize("where, value, message", [
    (("states", 3, "delta", "g", "outputs"), [{"pattern": 0, "pos": [1, 0]}],
     "$.states[3].delta.g.outputs[0].pos: must be an array of positive integers"),
    (("states", 1, "delta", "f", "targets"), [{"state": 0, "shift": []}, {"shift": []}],
     "$.states[1].delta.f.targets[1]: missing field 'state'"),
    (("states", 1, "delta", "f", "targets"), [{"state": 0, "shift": [True]}],
     "$.states[1].delta.f.targets[0].shift: must be an array of positive integers"),
    (("states", 2, "delta", "a"), [],
     "$.states[2].delta.a: must be an object"),
    (("states", 0, "delta", "g", "outputs"), {},
     "$.states[0].delta.g.outputs: must be an array"),
    # a step above the widest arity (2) would walk off every subject
    (("states", 1, "label"), [9],
     "$.states[1].label[0]: step 9 is above the signature's widest arity 2"),
    (("states", 1, "delta", "g", "outputs"), [{"pattern": 0, "pos": [2, 3]}],
     "$.states[1].delta.g.outputs[0].pos[1]: step 3 is above the signature's "
     "widest arity 2"),
    (("states", 0, "delta", "f", "targets"), [{"state": 1, "shift": [1, 1, 7]}],
     "$.states[0].delta.f.targets[0].shift[2]: step 7 is above the signature's "
     "widest arity 2"),
    # an undeclared symbol is reported before a bad entry or a missing symbol
    (("states", 1, "delta"), {"f": {"outputs": [{"pos": [0]}], "targets": []},
                              "zz": {}},
     "$.states[1].delta.zz: symbol is not in the signature"),
    # a step of 0 makes the whole array bad, before the 9 is range-checked
    (("states", 1, "label"), [9, 0],
     "$.states[1].label: must be an array of positive integers"),
    (("states", 2, "delta", "f", "targets"), [{"state": 1, "shift": [9, 0]}],
     "$.states[2].delta.f.targets[0].shift: must be an array of positive integers"),
    # per entry: the missing id field, then an unknown id, then the position
    (("states", 1, "delta", "g", "outputs"), [{"pos": [0]}],
     "$.states[1].delta.g.outputs[0]: missing field 'pattern'"),
    (("states", 1, "delta", "g", "outputs"), [{"pattern": 7}],
     "$.states[1].delta.g.outputs[0].pattern: unknown pattern id"),
    (("states", 1, "delta", "g", "outputs"), [{"pattern": 0}],
     "$.states[1].delta.g.outputs[0]: missing field 'pos'"),
    (("states", 1, "delta", "g", "targets"), [{"state": True, "shift": [0]}],
     "$.states[1].delta.g.targets[0].state: unknown state id True"),
    # after the range check, a well-formed output position must lie on its
    # state's label
    (("states", 1, "delta", "g", "outputs"), [{"pattern": 0, "pos": [2, 2]}],
     "$.states[1].delta.g.outputs[0].pos: position 2.2 is not a prefix of the "
     "state's label 2"),
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
# types, True for an id, and positions with steps out of range.
LOAD_VALUES = (None, True, 0, 1, -1, 2, 9, 1.5, "f", [], [0], [1], [9], [9, 0],
               [1, True], {}, {"state": 0, "shift": []})


def _paths(node, path=()):
    """The path of every value below ``node``, in document order."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _break(doc, paths, rng) -> str:
    """Apply one random edit to ``doc`` in place and say what it did: replace
    a value, delete a key or list entry, or add or drop a ``delta`` symbol.
    ``paths`` holds the unedited document's paths, then its ``delta`` paths."""
    while True:
        kind = rng.choice(("value", "value", "delete", "delta"))
        path = rng.choice(paths[kind == "delta"])
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
    elif kind == "delete" or not isinstance(node, dict):
        kind = "delete"
        del parent[path[-1]]
    elif rng.random() < 0.5 or not node:
        kind = "extra symbol"
        node[rng.choice(("zz", "a"))] = {"outputs": [], "targets": []}
    else:
        kind = "missing symbol"
        del node[rng.choice(sorted(node))]
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
            paths = (every, [p for p in every if p[-1] == "delta"])
            for _ in range(150):
                doc = json.loads(base)
                edits = [_break(doc, paths, rng) for _ in range(rng.choice((1, 1, 2)))]
                yield ", ".join(edits), json.dumps(doc)


PINNED_LOAD_OUTCOMES = (
    2400, "af903abb81839949c024af75a15b17afce790d415e110871d912c9a638560bd7")


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
    doc["states"][1]["id"] = True
    _expect_error(doc, "id")


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


def test_rejects_wrong_version(nested_automaton):
    doc = _doc(nested_automaton)
    doc["version"] = 99
    _expect_error(doc, "version")


def test_rejects_unknown_target_state(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][0]["delta"]["f"]["targets"][0]["state"] = 12
    _expect_error(doc, "state")


def test_rejects_missing_delta_symbol(nested_automaton):
    doc = _doc(nested_automaton)
    del doc["states"][1]["delta"]["g"]
    _expect_error(doc, "delta")


def test_rejects_undeclared_delta_symbol(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][1]["delta"]["zzz"] = {"outputs": [], "targets": []}
    _expect_error(doc, "delta")


def test_rejects_bad_label(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][2]["label"] = [0]
    _expect_error(doc, "label")


def test_rejects_non_dense_state_ids(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][1]["id"] = 7
    _expect_error(doc, "id")


def test_rejects_out_of_range_output_pattern(nested_automaton):
    doc = _doc(nested_automaton)
    doc["states"][3]["delta"]["g"]["outputs"] = [{"pattern": 5, "pos": []}]
    _expect_error(doc, "pattern")


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
    doc["states"][1]["label"] = [1]


def _swap_targets(doc):
    delta = doc["states"][0]["delta"]
    f, g = delta["f"]["targets"][0], delta["g"]["targets"][0]
    assert f["state"] != g["state"]
    f["state"], g["state"] = g["state"], f["state"]


def _drop_output(doc):
    tr = next(tr for entry in doc["states"] for tr in entry["delta"].values()
              if tr["outputs"])
    tr["outputs"].pop()


def _flip_strategy(doc):
    # nested compiles to 4 states rightmost and 6 leftmost
    doc["label_strategy"] = "leftmost"


@pytest.mark.parametrize("edit, message", [
    (_relabel, "state 1: label 1 differs from the rebuilt 2"),
    (_swap_targets, "state 0, symbol 'f': "),
    (_drop_output, r"state \d+, symbol '\w+': Transition\(outputs=\(\)"),
    (_flip_strategy, "state 1: label 2 differs from the rebuilt 1"),
], ids=["label", "target", "output", "strategy"])
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
