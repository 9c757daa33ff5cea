"""Partition and diagram bookkeeping: enumeration order, symmetry counts,
double points, duality."""

import math

import pytest
from hypothesis import given, strategies as st

from tangentcount.partitions import (as_diagram, aut_order, multinomial,
                                     partitions_of)

from reference import dual, local_double_points


diagrams = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(
    lambda rows: as_diagram(rows))


def test_canonical_form_sorts_rows():
    assert as_diagram((1, 3, 1)) == (3, 1, 1)
    assert as_diagram([2, 2]) == (2, 2)
    assert as_diagram((5,)) == (5,)


@pytest.mark.parametrize("bad", [(0,), (-1, 2), (1.5,), ("2",), (True,)])
def test_canonical_form_rejects_non_diagrams(bad):
    with pytest.raises((ValueError, TypeError)):
        as_diagram(bad)


def test_empty_diagram_is_allowed():
    assert as_diagram(()) == ()
    assert sum(()) == 0
    assert aut_order(()) == 1
    assert dual(()) == ()


def test_enumeration_order_weight_five():
    assert partitions_of(5) == [
        (1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1),
        (3, 2), (4, 1), (5,),
    ]


def test_enumeration_counts():
    for k, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11),
                     (10, 42)]:
        assert len(partitions_of(k)) == count


def test_enumeration_bounded_part():
    assert partitions_of(4, max_part=2) == [(1, 1, 1, 1), (2, 1, 1), (2, 2)]
    assert partitions_of(0) == [()]


def partition_count_oracle(n):
    """Independent count of partitions of n: DP over largest allowed part."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for m in range(n + 1):
        table[m][0] = 1
    for m in range(1, n + 1):
        for total in range(1, n + 1):
            table[m][total] = table[m - 1][total]
            if total >= m:
                table[m][total] += table[m][total - m]
    return table[n][n]


def test_enumeration_against_dp_oracle():
    for n in range(1, 16):
        assert len(partitions_of(n)) == partition_count_oracle(n)


def test_enumeration_is_sorted_and_exact():
    for n in range(1, 12):
        parts = partitions_of(n)
        assert parts == sorted(parts)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == n for p in parts)


def test_symmetry_orders():
    assert aut_order((3, 2, 1)) == 1
    assert aut_order((2, 2, 1, 1)) == 4
    assert aut_order((1, 1, 1)) == 6
    assert aut_order((2, 2, 2, 2)) == 24


def test_double_point_counts():
    assert local_double_points((8,)) == 0
    assert local_double_points((7, 1)) == 1
    assert local_double_points((6, 2)) == 2
    assert local_double_points((3, 2)) == 2
    assert local_double_points((1, 1, 1, 1, 1)) == 10


def test_dual_examples():
    assert dual((3, 1, 1)) == (3, 1, 1)
    assert dual((4, 1)) == (2, 1, 1, 1)
    assert dual((2, 2)) == (2, 2)
    assert dual((5,)) == (1, 1, 1, 1, 1)


def test_multinomial_examples():
    assert multinomial((3, 2)) == 10
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((8,)) == 1
    assert multinomial((2, 1, 1)) == 12


def test_dual_square_sum_identity_exhaustive():
    # sum of squared column heights = weight + twice the double points,
    # checked over every diagram of weight at most 12
    for n in range(1, 13):
        for p in partitions_of(n):
            assert (sum(c * c for c in dual(p))
                    == sum(p) + 2 * local_double_points(p))


@given(diagrams)
def test_dual_is_an_involution(p):
    assert dual(dual(p)) == p
    assert sum(dual(p)) == sum(p)


@given(diagrams)
def test_aut_divides_row_permutations(p):
    assert math.factorial(len(p)) % aut_order(p) == 0


@given(diagrams)
def test_multinomial_counts_orderings(p):
    # weight! / product of row factorials, always integral
    assert multinomial(p) * math.prod(
        math.factorial(r) for r in p) == math.factorial(sum(p))
