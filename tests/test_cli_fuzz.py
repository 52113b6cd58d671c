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
REJECTED = 65   # of the SETS * DAMAGES documents, those that from_json rejects
BUDGET = 1.0    # seconds per CLI call, so that a run without end fails the test


class OverBudget(Exception):
    """A CLI call ran past its budget."""


def _over_budget(signum, frame):
    raise OverBudget


def _position(rng, width) -> list:
    return [rng.randint(1, width) for _ in range(rng.randint(0, 2 if width else 0))]


def _damage(doc, rng) -> None:
    """Change ``doc`` in one way that keeps every value well-formed.

    An added output or a new label may leave an output depth past the end
    of its state's label, which ``from_json`` rejects.
    """
    width = max(s["arity"] for s in doc["signature"])
    states = doc["states"]
    transitions = [entry for st in states for entry in st[1:]]  # [outputs, targets]
    tr = rng.choice(transitions)
    outputs, targets = tr  # flat pattern, depth and state, shift pairs
    kinds = ["swap targets", "add target", "label", "add output"]
    if targets:
        kinds += ["drop target", "shift"]
    if outputs:
        kinds.append("drop output")
    kind = rng.choice(kinds)
    if kind == "swap targets":
        other = rng.choice(transitions)
        tr[1], other[1] = other[1], tr[1]
    elif kind == "add target":
        j = 2 * rng.randint(0, len(targets) // 2)
        targets[j:j] = [rng.randrange(len(states)), _position(rng, width)]
    elif kind == "drop target":
        j = 2 * rng.randrange(len(targets) // 2)
        del targets[j:j + 2]
    elif kind == "shift":
        targets[2 * rng.randrange(len(targets) // 2) + 1] = _position(rng, width)
    elif kind == "label":
        rng.choice(states)[0] = _position(rng, width)
    elif kind == "add output":
        outputs += [rng.randrange(len(doc["patterns"])), rng.randint(0, 2)]
    else:
        j = 2 * rng.randrange(len(outputs) // 2)
        del outputs[j:j + 2]


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
