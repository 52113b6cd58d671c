"""Seeded workload generators for the compile -> load -> match benchmark.

A workload is a list of pattern sets to compile (each with its signature
and label strategy) and a list of subject texts, each tied to one of those
automata.  Everything is derived from the workload name and ``--seed``; the
program under test only ever sees the generated texts.

Why each workload exists:

* ``corpus`` -- the acceptance-suite recipe (seed 0 reproduces it exactly):
  many small automata and many small subjects, so ``build``, ``to_json``
  and ``from_json`` dominate.  Every input depends on the seed; 1,250
  pattern sets average out the per-set variation.
* ``scan`` -- one mid-sized automaton against large subjects spread on a
  log scale from 10^3 to 10^5 nodes, so ``parse_term`` and ``evaluate``
  dominate and cyclic GC cost in parsing shows on the big ones.
* ``wide`` -- one large automaton over a signature padded with symbols no
  pattern mentions, so ``build`` and serialization are dominated by
  transitions on unmentioned symbols (the case default transitions would
  compress).
* ``deep`` -- the comb family t1..t8 compiled under both label strategies,
  matched against spines of depth 200..800, where the O(depth) pointer cost
  of ``evaluate`` shows.  Half the subjects run on each automaton.  Every
  level of a spine adds three nodes, so a subject's size is fixed by its
  depth; the seed picks the spine's turns and constants.  Eight subjects
  share each depth: on each automaton three combs and one mixed spine,
  which is cheaper.  So the median falls among the combs of the middle
  depth, not on one seed-dependent subject, nor on the boundary between
  mixed spines and combs, where an even split of the kinds would put it.

BENCHMARK.json gates changes on ``corpus`` and ``deep`` only.  On a shared
2-core machine whose speed drifts by up to 1.8x for minutes at a time, the
ten-run sets of all four workloads came close to the benchmark's total time
budget and gave the drift more metrics to trip; these two between them
cover every layer.  ``scan`` and ``wide`` stay runnable by hand.

A single random automaton varies by a factor of two in states and JSON
bytes from one pattern seed to the next, which would swamp every compile
and load figure.  So ``scan`` and ``wide`` draw their pattern set from a
fixed seed of the workload and take only their subjects from ``--seed``;
``deep`` patterns are fixed by definition.
"""

import random
from dataclasses import dataclass

from setmatch import (LEFTMOST, RIGHTMOST, PatternSet, Signature, Term,
                      comb_pattern, format_term, write_signature)
from setmatch.oracle import (profile_signature, random_pattern_set,
                             random_subject)

# -- the acceptance corpus recipe (tests/test_acceptance.py) ---------------

GROUPS = 1250
SUBJECTS_PER_GROUP = 8
PROFILES = ({0: 2, 1: 2, 2: 2},
            {0: 2, 1: 1, 2: 1, 3: 1},
            {0: 3, 2: 2},
            {0: 1, 1: 2, 2: 1})
PATTERN_SEED_BASE = 11000
SUBJECT_SEED_BASE = 90000
# Seed n shifts every per-instance seed by n * SEED_STRIDE; seed 0 is the
# acceptance corpus itself.
SEED_STRIDE = 1_000_000

SCAN_PATTERN_SEED = 16
SCAN_TIERS = ((1000, 40), (3000, 10), (10_000, 3), (30_000, 1), (100_000, 1))
WIDE_PATTERN_SEED = 64
WIDE_SUBJECTS = 1000
WIDE_SPARE = {0: 16, 1: 4, 2: 4}
DEEP_DEPTHS = (200, 350, 500, 650, 800)
DEEP_PER_DEPTH = 8
DEEP_MAX_DEPTH = max(DEEP_DEPTHS)


@dataclass(frozen=True)
class Source:
    """One pattern set to compile, as the CLI's input files would hold it."""

    signature: str  # name/arity lines
    patterns: str   # one pattern per line
    label: str


@dataclass(frozen=True)
class Subject:
    automaton: int  # index into Workload.sources
    text: str
    nodes: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    sources: tuple
    subjects: tuple

    @property
    def nodes(self) -> int:
        return sum(s.nodes for s in self.subjects)


def write_term(t: Term) -> tuple[str, int]:
    """Canonical text of a closed term and its node count, without recursion.

    ``format_term`` recurses and fails around 500 levels; deep subjects need
    a writer that does not.
    """
    parts: list[str] = []
    nodes = 0
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        nodes += 1
        parts.append(item.symbol.name)
        kids = item.children
        if kids:
            parts.append("(")
            stack.append(")")
            for k in range(len(kids) - 1, -1, -1):
                stack.append(kids[k])
                if k:
                    stack.append(",")
    return "".join(parts), nodes


def _source(ps, label=RIGHTMOST) -> Source:
    return Source(write_signature(ps.signature),
                  "".join(t + "\n" for t in ps.texts()), label)


def _subject(automaton: int, t: Term) -> Subject:
    text, nodes = write_term(t)
    return Subject(automaton, text, nodes)


def corpus_subject_size(i: int) -> int:
    # mostly small subjects, a tenth mid-sized, every hundredth at the cap
    if i % 100 == 53:
        return 200
    if i % 10 == 7:
        return 50 + (i * 13) % 100
    return 8 + (i * 37) % 40


def corpus(seed: int) -> Workload:
    shift = seed * SEED_STRIDE
    sources = []
    sigs = []
    for g in range(GROUPS):
        sig = profile_signature(PROFILES[g % 4])
        rng = random.Random(PATTERN_SEED_BASE + g + shift)
        ps = random_pattern_set(rng, sig, count=1 + g % 8, depth=1 + g % 4,
                                wildcard_density=(0.3, 0.5, 0.7)[g % 3])
        sources.append(_source(ps))
        sigs.append(sig)
    subjects = []
    for g in range(GROUPS):
        for j in range(SUBJECTS_PER_GROUP):
            i = g * SUBJECTS_PER_GROUP + j
            rng = random.Random(SUBJECT_SEED_BASE + i + shift)
            subjects.append(_subject(g, random_subject(rng, sigs[g],
                                                       corpus_subject_size(i))))
    return Workload("corpus", seed, tuple(sources), tuple(subjects))


def scan_sizes() -> list[int]:
    # tiers on a log scale from 10^3 to 10^5 nodes, with more subjects in
    # the smaller tiers, so that the median and the tail percentile fall
    # inside a tier rather than on one subject's random shape
    return [size for size, count in SCAN_TIERS for _ in range(count)]


def scan(seed: int) -> Workload:
    sig = profile_signature()
    ps = random_pattern_set(random.Random(SCAN_PATTERN_SEED), sig, 16, 3)
    rng = random.Random(seed)
    subjects = tuple(_subject(0, random_subject(rng, sig, size)) for size in scan_sizes())
    return Workload("scan", seed, (_source(ps),), subjects)


def wide_signature() -> Signature:
    sig = profile_signature()
    for arity, count in sorted(WIDE_SPARE.items()):
        for k in range(count):
            sig.declare(f"x{arity}_{k}", arity)
    return sig


def wide(seed: int) -> Workload:
    sig = wide_signature()
    base = profile_signature()
    # patterns over the base symbols only; the padding stays unmentioned
    ps = random_pattern_set(random.Random(WIDE_PATTERN_SEED), base, 64, 3)
    ps = PatternSet(ps.patterns, sig)
    rng = random.Random(seed)
    subjects = tuple(_subject(0, random_subject(rng, sig, 20 + (i * 37) % 61))
                     for i in range(WIDE_SUBJECTS))
    return Workload("wide", seed, (_source(ps),), subjects)


def deep_signature() -> Signature:
    return Signature((("f", 2), ("g", 1), ("a", 0), ("b", 0)))


def deep_subject(rng: random.Random, sig: Signature, depth: int, comb: bool) -> Term:
    """A spine of ``depth`` levels, built bottom-up so nothing recurses.

    Every level is ``f(spine, g(c))`` in a comb, so each level starts a
    match of several t_n; a mixed spine turns each level into
    ``f(g(c), spine)`` with even odds, which breaks the comb there.  Either
    way a subject has exactly ``3 * depth + 1`` nodes.
    """
    f, g = sig.symbol("f"), sig.symbol("g")
    consts = [s for s in sig if s.arity == 0]
    t = Term(rng.choice(consts))
    for _ in range(depth):
        side = Term(g, (Term(rng.choice(consts)),))
        t = Term(f, (t, side) if comb or rng.random() < 0.5 else (side, t))
    return t


def deep_kind(j: int) -> tuple[int, bool]:
    """(automaton, comb) of the j-th subject of one depth: eight give each
    automaton one mixed spine and three combs."""
    return j % 2, j >= 2


def deep(seed: int) -> Workload:
    sig = deep_signature()
    text = "".join(format_term(comb_pattern(n, sig)) + "\n" for n in range(1, 9))
    sig_text = write_signature(sig)
    sources = (Source(sig_text, text, RIGHTMOST), Source(sig_text, text, LEFTMOST))
    rng = random.Random(seed)
    subjects = []
    for depth in DEEP_DEPTHS:
        for j in range(DEEP_PER_DEPTH):
            automaton, comb = deep_kind(j)
            subjects.append(_subject(automaton, deep_subject(rng, sig, depth, comb)))
    return Workload("deep", seed, sources, tuple(subjects))


WORKLOADS = {"corpus": corpus, "scan": scan, "wide": wide, "deep": deep}
