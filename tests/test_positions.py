"""Position prefix order, joins, and the text form.

The prefix order is oriented so that p <= q means q is a prefix of p:
the root is the top element and longer positions sit below shorter ones.
The join of two positions is their greatest common prefix.
"""

import os.path

import pytest
from hypothesis import given

from setmatch import format_position, gcp, join, prefix_leq

from conftest import position_sets, positions


def test_prefix_examples():
    assert prefix_leq((1, 2), (1,))
    assert not prefix_leq((1,), (1, 2))
    assert prefix_leq((2, 1), (2, 1))
    assert prefix_leq((3, 1, 2), ())
    assert prefix_leq((), ())


def test_join_examples():
    assert join((1,), ()) == ()
    assert join((1, 2, 1), (1, 2, 3)) == (1, 2)
    assert join((2,), (1,)) == ()
    assert join((1, 2), (1, 2)) == (1, 2)


def test_gcp_examples():
    assert gcp({(1,), ()}) == ()
    assert gcp({(2, 1)}) == (2, 1)
    assert gcp({(1, 2, 1), (1, 2, 3), (1, 5)}) == (1,)


def test_gcp_rejects_empty():
    with pytest.raises(ValueError):
        gcp(set())


def test_format():
    assert format_position(()) == "ε"
    assert format_position((1,)) == "1"
    assert format_position((1, 2, 1)) == "1.2.1"


@given(positions)
def test_reflexive(p):
    assert prefix_leq(p, p)


@given(positions, positions)
def test_antisymmetric(p, q):
    if prefix_leq(p, q) and prefix_leq(q, p):
        assert p == q


@given(positions, positions, positions)
def test_transitive(p, q, r):
    if prefix_leq(p, q) and prefix_leq(q, r):
        assert prefix_leq(p, r)


@given(positions, positions, positions)
def test_concatenation_respects_order(p, q, r):
    assert prefix_leq(p + q, p + r) == prefix_leq(q, r)


@given(positions, positions)
def test_extension_is_strictly_lower(p, q):
    # p.q <= p always; p <= p.q only when q is empty
    assert prefix_leq(p + q, p)
    assert prefix_leq(p, p + q) == (q == ())


@given(positions, positions, positions)
def test_prefixes_of_one_position_are_comparable(p, q, r):
    if prefix_leq(p, q) and prefix_leq(p, r):
        assert prefix_leq(q, r) or prefix_leq(r, q)


@given(positions, positions)
def test_join_is_least_upper_bound(p, q):
    j = join(p, q)
    assert prefix_leq(p, j) and prefix_leq(q, j)
    # nothing strictly lower than j bounds both
    for upper in (p[:k] for k in range(len(p) + 1)):
        if prefix_leq(p, upper) and prefix_leq(q, upper):
            assert prefix_leq(j, upper)


@given(positions, positions)
def test_join_commutative(p, q):
    assert join(p, q) == join(q, p)


@given(positions, positions, positions)
def test_join_associative(p, q, r):
    assert join(join(p, q), r) == join(p, join(q, r))


@given(position_sets, position_sets)
def test_gcp_distributes_over_union(P, Q):
    assert gcp(P | Q) == join(gcp(P), gcp(Q))


@given(position_sets)
def test_gcp_against_library_common_prefix(P):
    # os.path.commonprefix is element-wise on any sequences
    assert gcp(P) == tuple(os.path.commonprefix([list(p) for p in P]))
