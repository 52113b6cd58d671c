#!/usr/bin/env python3
"""Serialize an automaton to JSON, reload it, and render it as DOT.

Compilation is the expensive step, so the JSON form lets one process
compile and many processes evaluate.  The document holds no goal sets, so
a reloaded automaton is checked by rebuilding it from its patterns and
comparing.  The DOT text pastes straight into Graphviz for inspection.
"""

import tempfile
from pathlib import Path

from setmatch import (PatternSet, build, evaluate, from_json, parse_term,
                      to_dot, to_json, verify_automaton)


def main() -> None:
    ps = PatternSet.from_text("f(f(_, g(_)), g(_))\n")
    ps.signature.declare("a", 0)
    a = build(ps)

    payload = to_json(a)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nested.automaton.json"
        path.write_text(payload, encoding="utf-8")
        reloaded = from_json(path.read_text(encoding="utf-8"))
        print(f"wrote {path.name}: {len(payload)} bytes,",
              f"{len(reloaded.states)} states back")

    subject = parse_term("f(g(a), f(f(a, g(a)), g(a)))", ps.signature)
    assert evaluate(reloaded, subject).matches == evaluate(a, subject).matches
    assert to_json(reloaded) == payload
    print("reloaded automaton matches identically; round trip is byte-stable")
    verify_automaton(reloaded)  # raises InvariantError if it differs from a rebuild
    print("reloaded automaton agrees with a rebuild from its patterns")

    print("\nDOT rendering:")
    print(to_dot(a))


if __name__ == "__main__":
    main()
