"""Damaged automaton documents against the CLI's exit-code contract."""

import json
import random
import signal

import pytest

from setmatch import (LEFTMOST, RIGHTMOST, FormatError, build, format_term, from_json,
                      to_json)
from setmatch.cli import main
from setmatch.oracle import random_instance

SEED = 2021
SETS = 30       # small random pattern sets, each with one small subject
DAMAGES = 15    # damaged documents per set, each matched with and without --verify
REJECTED = 76   # of the SETS * DAMAGES documents, those that from_json rejects
BUDGET = 1.0    # seconds per CLI call, so that a run without end fails the test


class OverBudget(Exception):
    """A CLI call ran past its budget."""


def _over_budget(signum, frame):
    raise OverBudget


def _position(rng, width) -> list:
    return [rng.randint(1, width) for _ in range(rng.randint(0, 2 if width else 0))]


def _damage(doc, rng) -> None:
    """Change ``doc`` in one way that keeps every value well-formed.

    An added output or a new label may leave an output position that is not
    a prefix of its state's label, which ``from_json`` rejects.
    """
    width = max(s["arity"] for s in doc["signature"])
    states = doc["states"]
    transitions = [tr for st in states for tr in st["delta"].values()]
    tr = rng.choice(transitions)
    kinds = ["swap targets", "add target", "label", "add output"]
    if tr["targets"]:
        kinds += ["drop target", "shift"]
    if tr["outputs"]:
        kinds.append("drop output")
    kind = rng.choice(kinds)
    if kind == "swap targets":
        other = rng.choice(transitions)
        tr["targets"], other["targets"] = other["targets"], tr["targets"]
    elif kind == "add target":
        tr["targets"].insert(rng.randint(0, len(tr["targets"])),
                             {"state": rng.randrange(len(states)),
                              "shift": _position(rng, width)})
    elif kind == "drop target":
        del tr["targets"][rng.randrange(len(tr["targets"]))]
    elif kind == "shift":
        rng.choice(tr["targets"])["shift"] = _position(rng, width)
    elif kind == "label":
        rng.choice(states)["label"] = _position(rng, width)
    elif kind == "add output":
        tr["outputs"].append({"pattern": rng.randrange(len(doc["patterns"])),
                              "pos": _position(rng, width)})
    else:
        del tr["outputs"][rng.randrange(len(tr["outputs"]))]


def _main(argv) -> int:
    """``main(argv)``, raising OverBudget past BUDGET seconds."""
    signal.setitimer(signal.ITIMER_REAL, BUDGET)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_damaged_documents_keep_the_exit_code_contract(tmp_path, capsys):
    # exit 0 or 2 from a plain match, one line on stderr for 2; under
    # --verify, exit 1 exactly when the document differs from its rebuild;
    # a document that does not load exits 2 with one line either way
    rng = random.Random(SEED)
    rejected = 0
    auto, term = tmp_path / "a.json", tmp_path / "t.term"
    previous = signal.signal(signal.SIGALRM, _over_budget)
    try:
        for k in range(SETS):
            ps, subject = random_instance(SEED + k, pattern_count=3, pattern_depth=2,
                                          subject_size=rng.randint(1, 30))
            text = to_json(build(ps, rng.choice((LEFTMOST, RIGHTMOST))))
            term.write_text(format_term(subject) + "\n")
            for _ in range(DAMAGES):
                doc = json.loads(text)
                _damage(doc, rng)
                auto.write_text(json.dumps(doc))
                argv = ["match", "--automaton", str(auto), "--term", str(term)]
                try:
                    changed = to_json(from_json(auto.read_text())) != text
                except FormatError:
                    rejected += 1
                    for extra in ([], ["--verify"]):
                        assert _main(argv + extra) == 2, doc
                        err = capsys.readouterr().err
                        assert err.startswith("error: ") and len(err.splitlines()) == 1
                    continue
                rc = _main(argv)
                err = capsys.readouterr().err
                assert rc in (0, 2), (doc, rc)
                if rc == 2:
                    assert err.startswith("error: ") and len(err.splitlines()) == 1
                assert _main(argv + ["--verify"]) == (1 if changed else 0), doc
                capsys.readouterr()
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rejected == REJECTED
