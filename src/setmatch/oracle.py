"""Brute-force reference matcher and reproducible instance generators.

The brute-force matcher is the ground truth the automaton is tested and
benchmarked against.  It deliberately re-walks the subject from the root for
every (pattern, position) probe, so timing comparisons against the
single-pass evaluator measure what they claim to measure.  It shares nothing
with the evaluator beyond the basic term operations.
"""

import random

from .positions import Position
from .terms import (PatternSet, Signature, Term, WILDCARD, domain, format_term,
                    matches)

_NAME_POOLS = {
    0: ("a", "b", "c", "d", "e"),
    1: ("g", "h", "u", "v"),
    2: ("f", "q", "r", "s"),
    3: ("k", "m", "w"),
}


def brute_force_matches(ps: PatternSet, subject: Term) -> frozenset:
    """Every (pattern id, position) at which a pattern matches the subject."""
    found = []
    for pos in domain(subject):
        for pid, pattern in enumerate(ps.patterns):
            if matches(pattern, subject, pos):
                found.append((pid, pos))
    return frozenset(found)


DEFAULT_PROFILE: dict[int, int] = {0: 2, 1: 2, 2: 2}


def profile_signature(profile: dict[int, int] | None = None) -> Signature:
    """A signature with ``profile[arity]`` symbols per arity, named from
    fixed pools (constants a, b, ...; unary g, h, ...; binary f, q, ...)."""
    profile = DEFAULT_PROFILE if profile is None else profile
    sig = Signature()
    for arity in sorted(profile):
        count = profile[arity]
        pool = _NAME_POOLS.get(arity, ())
        for i in range(count):
            name = pool[i] if i < len(pool) else f"s{arity}_{i}"
            sig.declare(name, arity)
    return sig


def random_pattern(rng: random.Random, sig: Signature, depth: int,
                   wildcard_density: float = 0.5) -> Term:
    """A random pattern: never the bare wildcard, nesting at most ``depth``.

    Nodes are drawn in preorder, each child one level shallower than its
    parent.  The open nodes wait on a stack, so ``depth`` is limited by
    memory only; the draws come in the order a recursive generator would
    make them, so a seed yields the same term.
    """
    symbols = list(sig)
    constants = [s for s in symbols if s.arity == 0]
    open_nodes = []  # (symbol, its depth, its children so far)
    allow_wildcard = False  # the root is never the wildcard
    while True:
        if allow_wildcard and rng.random() < wildcard_density:
            term = WILDCARD
        elif depth <= 0 and not constants:
            if not allow_wildcard:
                raise ValueError("signature has no constants to bottom out at")
            term = WILDCARD
        else:
            sym = rng.choice(symbols if depth > 0 else constants)
            if sym.arity:
                open_nodes.append((sym, depth, []))
                depth -= 1
                allow_wildcard = True
                continue
            term = Term(sym)
        while open_nodes:
            sym, at_depth, kids = open_nodes[-1]
            kids.append(term)
            if len(kids) < sym.arity:
                depth = at_depth - 1
                break
            open_nodes.pop()
            term = Term(sym, kids)
        else:
            return term


def random_pattern_set(rng: random.Random, sig: Signature, count: int,
                       depth: int, wildcard_density: float = 0.5) -> PatternSet:
    """Up to ``count`` distinct random patterns, at least one (the first
    draw is always kept).  ``count`` must be at least 1; for 0,
    :class:`PatternSet` raises :class:`PatternSetError`."""
    pats: list[Term] = []
    seen: set[str] = set()
    attempts = 0
    while len(pats) < count and attempts < 50 * count:
        attempts += 1
        t = random_pattern(rng, sig, depth, wildcard_density)
        text = format_term(t)
        if text not in seen:
            seen.add(text)
            pats.append(t)
    return PatternSet(pats, sig)


def random_subject(rng: random.Random, sig: Signature, size: int) -> Term:
    """A closed term with at most ``size`` nodes (exactly, when arities allow).

    Each node draws its symbol and how its budget splits over its children,
    then its children follow in preorder, the order a recursive generator
    would draw them in.  The open nodes wait on a stack, so depth is
    limited by memory only.
    """
    constants = [s for s in sig if s.arity == 0]
    if not constants:
        raise ValueError("signature needs at least one constant for closed terms")
    growers = [s for s in sig if s.arity > 0]
    open_nodes = []  # (symbol, its children's budgets, its children so far)
    budget = max(1, size)
    while True:
        usable = [s for s in growers if s.arity < budget]
        if usable:
            sym = rng.choice(usable)
            parts = [1] * sym.arity
            for _ in range(budget - 1 - sym.arity):
                parts[rng.randrange(sym.arity)] += 1
            open_nodes.append((sym, parts, []))
            budget = parts[0]
            continue
        term = Term(rng.choice(constants))
        while open_nodes:
            sym, parts, kids = open_nodes[-1]
            kids.append(term)
            if len(kids) < sym.arity:
                budget = parts[len(kids)]
                break
            open_nodes.pop()
            term = Term(sym, kids)
        else:
            return term


def random_instance(seed: int, *, profile: dict[int, int] | None = None,
                    pattern_count: int = 4, pattern_depth: int = 3,
                    subject_size: int = 50,
                    wildcard_density: float = 0.5) -> tuple[PatternSet, Term]:
    """A reproducible (pattern set, subject) pair for the given seed."""
    rng = random.Random(seed)
    sig = profile_signature(profile)
    ps = random_pattern_set(rng, sig, pattern_count, pattern_depth,
                            wildcard_density)
    subject = random_subject(rng, sig, subject_size)
    return ps, subject


def comb_signature() -> Signature:
    return Signature((("f", 2), ("g", 1)))


def comb_pattern(n: int, signature: Signature | None = None) -> Term:
    """The depth-n comb: _ wrapped n times in ``f(..., g(_))``.

    comb(1) = f(_,g(_)), comb(2) = f(f(_,g(_)),g(_)), and so on.  The family
    is the standard stress test for label placement: one label strategy
    keeps the automaton linear in n, the other makes it quadratic.
    """
    if n < 1:
        raise ValueError("the comb family starts at n=1")
    sig = signature if signature is not None else comb_signature()
    f = sig.symbol("f")
    g = sig.symbol("g")
    t = WILDCARD
    for _ in range(n):
        t = Term(f, (t, Term(g, (WILDCARD,))))
    return t


def comb_pattern_set(n: int, signature: Signature | None = None) -> PatternSet:
    sig = signature if signature is not None else comb_signature()
    return PatternSet((comb_pattern(n, sig),), sig)
