"""Ground-truth matcher and the seeded instance generators."""

import hashlib
import random

import pytest

from setmatch import (brute_force_matches, comb_pattern, comb_pattern_set,
                      domain, format_term, random_instance, term_size)
from setmatch.oracle import (DEFAULT_PROFILE, comb_signature,
                             profile_signature, random_pattern,
                             random_pattern_set, random_subject)
from setmatch.terms import contains_wildcard, term_depth


def test_brute_force_on_rotation_instance(assoc_pattern_set, assoc_subject):
    got = brute_force_matches(assoc_pattern_set, assoc_subject)
    assert got == {(0, ()), (1, (1,))}


def test_brute_force_on_nested_instance(nested_pattern_set, nested_subject):
    assert brute_force_matches(nested_pattern_set, nested_subject) \
        == {(0, (2,))}


def test_brute_force_on_non_matching_constant(nested_pattern_set, sig_fga):
    from setmatch import parse_term
    assert brute_force_matches(nested_pattern_set,
                               parse_term("a", sig_fga)) == frozenset()


def test_brute_force_positions_lie_in_the_domain():
    for seed in range(20):
        ps, subject = random_instance(seed, subject_size=30)
        dom = domain(subject)
        for pid, pos in brute_force_matches(ps, subject):
            assert 0 <= pid < len(ps)
            assert pos in dom


def test_random_instance_is_reproducible():
    ps1, t1 = random_instance(42)
    ps2, t2 = random_instance(42)
    assert ps1.texts() == ps2.texts()
    assert format_term(t1) == format_term(t2)


def test_distinct_seeds_rarely_collide():
    seen = {tuple(random_instance(seed)[0].texts() +
                  [format_term(random_instance(seed)[1])])
            for seed in range(200)}
    assert len(seen) >= 195


def test_generated_instances_are_valid():
    for seed in range(50):
        ps, subject = random_instance(seed, pattern_count=5, pattern_depth=3,
                                      subject_size=40)
        assert 1 <= len(ps) <= 5
        for p in ps:
            assert not p.is_wildcard
            assert term_depth(p) <= 3
        assert not contains_wildcard(subject)
        assert term_size(subject) <= 40
        names = {s.name for s in ps.signature}
        for t in list(ps) + [subject]:
            stack = [t]
            while stack:
                node = stack.pop()
                if node.symbol is not None:
                    assert node.symbol.name in names
                stack.extend(node.children)


def test_depth_one_patterns_are_flat():
    rng = random.Random(7)
    sig = profile_signature()
    for _ in range(100):
        p = random_pattern(rng, sig, 1)
        assert term_depth(p) <= 1


def test_wildcard_density_extremes():
    rng = random.Random(3)
    sig = profile_signature()
    solid = [random_pattern(rng, sig, 3, wildcard_density=0.0)
             for _ in range(50)]
    assert not any(contains_wildcard(p) for p in solid)
    airy = [random_pattern(rng, sig, 3, wildcard_density=1.0)
            for _ in range(50)]
    # the root is never a wildcard, all children are
    assert all(all(c.symbol is None for c in p.children) for p in airy)


def test_deep_random_pattern_without_recursion():
    # no wildcards and only g/1 to choose from above the leaves: a chain of
    # the full depth, ending in a wildcard for want of a constant
    sig = profile_signature({1: 1})
    depth = 10 ** 5
    p = random_pattern(random.Random(0), sig, depth, wildcard_density=0.0)
    assert term_depth(p) == depth and term_size(p) == depth + 1
    assert contains_wildcard(p)


def test_random_pattern_needs_a_constant_at_its_root():
    sig = profile_signature({1: 1})
    with pytest.raises(ValueError):
        random_pattern(random.Random(0), sig, 0)


def test_subject_hits_exact_size_with_unary_symbols():
    rng = random.Random(11)
    sig = profile_signature(DEFAULT_PROFILE)
    for size in range(1, 41):
        assert term_size(random_subject(rng, sig, size)) == size


# SHA-256 over subjects drawn for fixed seeds and sizes, then one more draw:
# the benchmark builds its subjects with random_subject, so a rewrite must
# keep every draw in the same order.
PINNED_SUBJECTS = "0c8ca89aebff342b9b3c9b10b89ecd1b7aafc1860ab0b6de48edf63fc0e328fe"


def test_subject_draws_are_pinned():
    h = hashlib.sha256()
    for profile in (None, {0: 1, 1: 1, 3: 1}):
        sig = profile_signature(profile)
        for seed in range(20):
            rng = random.Random(seed)
            for size in (1, 2, 7, 50, 300):
                h.update(format_term(random_subject(rng, sig, size)).encode() + b"\n")
            h.update(repr(rng.random()).encode())
    assert h.hexdigest() == PINNED_SUBJECTS


def test_deep_random_subject_without_recursion():
    # one unary symbol: a chain as deep as the size.  Splitting the budget
    # draws once per node below, so the draws grow with the square of the
    # depth; 2,000 levels are already twice the interpreter's recursion limit
    sig = profile_signature({0: 1, 1: 1})
    t = random_subject(random.Random(0), sig, 2000)
    assert term_depth(t) == 1999 and term_size(t) == 2000


def test_subject_needs_a_constant():
    sig = profile_signature({2: 1})
    with pytest.raises(ValueError):
        random_subject(random.Random(0), sig, 5)


def test_pattern_set_generator_dedups():
    rng = random.Random(5)
    sig = profile_signature()
    ps = random_pattern_set(rng, sig, 12, 2)
    assert len(set(ps.texts())) == len(ps)


def test_comb_family_shapes():
    sig = comb_signature()
    assert {s.name: s.arity for s in sig} == {"f": 2, "g": 1}
    assert format_term(comb_pattern(1)) == "f(_,g(_))"
    assert format_term(comb_pattern(2)) == "f(f(_,g(_)),g(_))"
    assert format_term(comb_pattern(3)) == "f(f(f(_,g(_)),g(_)),g(_))"
    with pytest.raises(ValueError):
        comb_pattern(0)
    ps = comb_pattern_set(2)
    assert len(ps) == 1 and ps.texts() == ["f(f(_,g(_)),g(_))"]
