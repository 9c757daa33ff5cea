"""The diagram product: worked expansions, the mass identity, and agreement
with an independent enumeration."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from tangentcount.partitions import as_diagram, partitions_of
from tangentcount.star import WORK_LIMIT, combine_forward, star

from reference import star_oracle


diagrams = st.lists(st.integers(1, 6), min_size=1, max_size=5).map(
    lambda rows: as_diagram(rows))


def test_worked_five_term_expansion():
    assert star((3, 1, 1), (2, 2)) == {
        (3, 2, 2, 1, 1): 1,
        (5, 2, 1, 1): 2,
        (3, 3, 2, 1): 4,
        (5, 3, 1): 4,
        (3, 3, 3): 2,
    }


def test_single_rows_multiply_simply():
    # (a) * (b) = stack + the one possible merge
    assert star((3,), (2,)) == {(3, 2): 1, (5,): 1}
    assert star((1,), (1,)) == {(1, 1): 1, (2,): 1}


def test_repeated_diagram_expansion():
    assert star((2, 1), (2, 1)) == {
        (2, 2, 1, 1): 1,
        (4, 1, 1): 1,
        (3, 2, 1): 2,
        (2, 2, 2): 1,
        (4, 2): 1,
        (3, 3): 1,
    }


def test_deep_merge_coefficient():
    # both rows of each factor merge pairwise in two ways, but only the
    # cross pairing lands on (3,3); independent enumeration gives 1
    assert star((2, 1), (2, 1))[(3, 3)] == 1


def test_coefficient_of_absent_diagram_is_zero():
    assert (3, 1) not in star((2,), (2,))


def test_oracle_agreement_small():
    for w1 in range(1, 5):
        for w2 in range(w1, 9 - w1):
            for p1 in partitions_of(w1):
                for p2 in partitions_of(w2):
                    assert star(p1, p2) == star_oracle(p1, p2), (p1, p2)


def test_mass_identity_examples():
    # total multiplicity only depends on the row counts b, b'
    for p1, p2 in [((3, 1, 1), (2, 2)), ((2, 1), (2, 1)), ((4,), (1, 1, 1))]:
        b1, b2 = len(p1), len(p2)
        expected = sum(comb(b1, ell) * comb(b2, ell) * factorial(ell)
                       for ell in range(min(b1, b2) + 1))
        assert sum(star(p1, p2).values()) == expected


# up to 7 rows of three values: many walks merge
repeating = st.lists(st.sampled_from((1, 2, 5)), max_size=7).map(as_diagram)


# the oracle walks up to 130,922 matchings
@settings(deadline=None, derandomize=True)
@given(repeating, repeating)
def test_merged_walks_agree_with_the_oracle(p1, p2):
    assert star(p1, p2) == star_oracle(p1, p2)


def test_long_rows_count_toward_the_bound():
    # some thousands of live walks of 4 moves each, but each move builds a
    # tuple of over 120 rows: the bound weighs those lengths, and this pair
    # passes it
    with pytest.raises(ValueError, match="star would write over %d rows"
                       % WORK_LIMIT):
        star((3,) * 40 + (2,) * 40 + (1,) * 40, (2,) * 30 + (1,) * 30)


@given(diagrams, diagrams)
def test_mass_identity(p1, p2):
    b1, b2 = len(p1), len(p2)
    expected = sum(comb(b1, ell) * comb(b2, ell) * factorial(ell)
                   for ell in range(min(b1, b2) + 1))
    assert sum(star(p1, p2).values()) == expected


@given(diagrams, diagrams)
def test_commutative(p1, p2):
    assert star(p1, p2) == star(p2, p1)


@given(diagrams, diagrams)
def test_weight_is_conserved(p1, p2):
    total = sum(p1) + sum(p2)
    assert all(sum(q) == total for q in star(p1, p2))


@given(diagrams, diagrams)
def test_row_counts_in_expected_range(p1, p2):
    # merging ell row pairs leaves len(p1)+len(p2)-ell rows
    lo = max(len(p1), len(p2))
    hi = len(p1) + len(p2)
    assert all(lo <= len(q) <= hi for q in star(p1, p2))


def combination_coefficient(p1, p2, q):
    """The reference expansion's weight of N<q> in N<p1, p2>."""
    return {m: c for c, (m,) in combine_forward((p1, p2))}.get(q, 0)


def test_combination_weights():
    # converting ordered-branch coefficients to plain invariants
    assert combination_coefficient((1,), (1,), (1, 1)) == 2
    assert combination_coefficient((1,), (1,), (2,)) == 1
    assert combination_coefficient((2, 1), (2, 1), (3, 3)) == Fraction(2)
    # c = 4 merges, |Aut(3,3,2,1)| = 2, |Aut(3,1,1)| = |Aut(2,2)| = 2
    assert combination_coefficient((3, 1, 1), (2, 2), (3, 3, 2, 1)) == 2
    assert combination_coefficient((1, 1), (2, 2), (2, 2, 1, 1)) == 1


@given(diagrams, diagrams)
def test_combination_weights_are_integral(p1, p2):
    # merge patterns up to symmetry: the aut factors always cancel
    from tangentcount.partitions import aut_order
    norm = aut_order(p1) * aut_order(p2)
    for q, c in star(p1, p2).items():
        assert (c * aut_order(q)) % norm == 0, (q, c)
