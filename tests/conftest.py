"""Shared fixtures and hypothesis strategies for the test suite."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import strategies as st

import setmatch
from setmatch import PatternSet, Signature, Term, build, parse_term, to_json
from setmatch.terms import WILDCARD

positions = st.lists(st.integers(min_value=1, max_value=4),
                     max_size=6).map(tuple)

position_sets = st.frozensets(positions, min_size=1, max_size=6)


def _fga() -> Signature:
    sig = Signature()
    sig.declare("f", 2)
    sig.declare("g", 1)
    sig.declare("a", 0)
    return sig


@pytest.fixture(scope="session")
def sig_fga() -> Signature:
    return _fga()


@pytest.fixture(scope="session")
def nested_pattern_set(sig_fga) -> PatternSet:
    # single pattern with nesting on both branches: f(f(_,g(_)),g(_))
    return PatternSet.from_text("f(f(_, g(_)), g(_))\n", sig_fga)


@pytest.fixture(scope="session")
def nested_automaton(nested_pattern_set):
    return build(nested_pattern_set)


@pytest.fixture(scope="session")
def nested_subject(sig_fga) -> Term:
    # ten positions; the nested pattern occurs exactly once, at 2
    return parse_term("f(g(a), f(f(a, g(a)), g(a)))", sig_fga)


@pytest.fixture(scope="session")
def assoc_signature() -> Signature:
    sig = Signature()
    sig.declare("f", 2)
    sig.declare("a", 0)
    return sig


@pytest.fixture(scope="session")
def assoc_pattern_set(assoc_signature) -> PatternSet:
    # the two rotation shapes of an associativity rule
    return PatternSet.from_text("f(f(_, _), _)\nf(_, f(_, _))\n", assoc_signature)


@pytest.fixture(scope="session")
def assoc_automaton(assoc_pattern_set):
    return build(assoc_pattern_set)


@pytest.fixture(scope="session")
def assoc_subject(assoc_signature) -> Term:
    return parse_term("f(f(a, f(a, a)), a)", assoc_signature)


@st.composite
def subject_terms(draw, max_depth: int = 4) -> Term:
    """Closed terms over f/2, g/1, a/0."""
    sig = _fga()
    f, g, a = sig.symbol("f"), sig.symbol("g"), sig.symbol("a")

    def go(depth):
        if depth == 0:
            return Term(a)
        sym = draw(st.sampled_from([a, g, f]))
        return Term(sym, tuple(go(depth - 1) for _ in range(sym.arity)))

    return go(draw(st.integers(min_value=0, max_value=max_depth)))


@st.composite
def pattern_terms(draw, max_depth: int = 3) -> Term:
    """Linear patterns over f/2, g/1, a/0; the root is never the wildcard."""
    sig = _fga()
    f, g, a = sig.symbol("f"), sig.symbol("g"), sig.symbol("a")

    def go(depth, root):
        if not root and draw(st.booleans()):
            return WILDCARD
        if depth == 0:
            return Term(a)
        sym = draw(st.sampled_from([a, g, f]))
        return Term(sym, tuple(go(depth - 1, False) for _ in range(sym.arity)))

    return go(draw(st.integers(min_value=0, max_value=max_depth)), True)


@st.composite
def pattern_sets(draw, max_count: int = 4) -> PatternSet:
    from setmatch import format_term
    pats = draw(st.lists(pattern_terms(), min_size=1, max_size=max_count))
    # PatternSet rejects duplicates, so dedup by canonical text first
    seen, out = set(), []
    for p in pats:
        text = format_term(p)
        if text not in seen:
            seen.add(text)
            out.append(p)
    return PatternSet(out, _fga())


def _damaged(patterns: str, edit) -> str:
    """The document of ``patterns``, compiled and then changed by ``edit``."""
    doc = json.loads(to_json(build(PatternSet.from_text(patterns))))
    edit(doc["states"])
    return json.dumps(doc)


def _self_loop(states):
    states[1]["delta"]["a"]["targets"] = [{"state": 1, "shift": []}]


def _doubling(states):
    states[0]["delta"]["g"]["targets"] = [{"state": 0, "shift": [1]},
                                          {"state": 1, "shift": [1]}]
    states[1]["label"] = []
    states[1]["delta"]["g"]["targets"] = [{"state": 0, "shift": []}]


# Hand-edited documents whose runs, unbounded, never end: name -> (automaton
# JSON, subject).  The first re-queues one item at the same pointer forever;
# the second has no empty-shift cycle, yet doubles its items at every level.
HANG_REPRODUCERS = {
    "self_loop": (_damaged("f(_,a)\n", _self_loop), "f(a,a)"),
    "doubling": (_damaged("g(a)\n", _doubling), "g(" * 40 + "a" + ")" * 40),
}


def run_limited(args, cwd, memory=256 << 20, timeout=60, **kwargs):
    """Run ``python args`` against this package with at most ``memory`` bytes
    of address space, so that a run without end fails instead of hanging."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    package_root = os.path.dirname(os.path.dirname(os.path.realpath(setmatch.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=dict(os.environ, PYTHONPATH=package_root),
                          preexec_fn=limit, timeout=timeout, **kwargs)
