"""Shared fixtures and hypothesis strategies for the test suite."""

import pytest
from hypothesis import strategies as st

from setmatch import PatternSet, Signature, Term, build, parse_term
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
