"""The blowup Gromov-Witten backend: plane counts, anchors with assigned
multiplicities, the standard quadratic move, and class bookkeeping."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tangentcount import gw


def test_plane_counts():
    assert [gw.kontsevich_count(d) for d in range(1, 8)] == [
        1, 1, 12, 620, 87304, 26312976, 14616808192]


def test_plane_counts_large():
    assert gw.kontsevich_count(8) == 13525751027392
    assert gw.kontsevich_count(9) == 19385778269260800


def test_plane_count_validates():
    with pytest.raises(ValueError):
        gw.kontsevich_count(0)
    with pytest.raises(ValueError):
        gw.kontsevich_count(True)


def test_descendant_averages():
    # (3d-2)! / (d!)^3
    assert gw.descendant_average(1) == 1
    assert gw.descendant_average(2) == 3
    assert gw.descendant_average(3) == Fraction(70, 3)
    assert gw.descendant_average(4) == Fraction(525, 2)
    assert gw.descendant_average(7) == Fraction(6651216, 7)
    assert gw.descendant_average(9) == Fraction(2921454250, 9)


def test_class_bookkeeping():
    assert gw.chern_number("cp2", 3) == 9
    assert gw.chern_number("p1xp1", (2, 1)) == 6
    assert gw.double_point_count("cp2", 3) == 1
    assert gw.double_point_count("cp2", 5) == 6
    assert gw.double_point_count("p1xp1", (2, 2)) == 1
    assert gw.double_point_count("cp2", 3, (2,)) == 0


def test_translate_to_plane():
    # a bidegree (a,b) class matches a plane class of degree a+b with
    # assigned multiplicities b and a at two extra points
    assert gw.translate_to_plane((2, 1), ()) == (3, (1, 2))
    assert gw.translate_to_plane((1, 1), (1, 1, 1)) == (2, (1, 1, 1, 1, 1))


def test_vanishing_filter():
    assert gw.vanishing_filter("cp2", 3, (6, 2))
    assert not gw.vanishing_filter("cp2", 3, (7, 1))
    assert not gw.vanishing_filter("cp2", 3, (8,))
    assert gw.vanishing_filter("p1xp1", (2, 0), (3,))


def test_quadratic_move_examples():
    assert gw.cremona_move(3, (2, 1, 1)) == (2, (1, 0, 0))
    assert gw.cremona_move(1, (1, 1, 0)) == (0, (0, 0, -1))
    assert gw.cremona_move(5, (2, 2, 2)) == (4, (1, 1, 1))


def test_quadratic_move_preserves_intersection_numbers():
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randint(0, 12)
        m = tuple(sorted((rng.randint(-2, d) for _ in range(rng.randint(3, 9))),
                         reverse=True))
        d2, m2 = gw.cremona_move(d, m)
        chern = lambda dd, mm: 3 * dd - sum(mm)
        self_int = lambda dd, mm: dd * dd - sum(x * x for x in mm)
        assert chern(d2, m2) == chern(d, m)
        assert self_int(d2, m2) == self_int(d, m)


def test_exceptional_class_detection():
    assert gw.is_exceptional(0, (-1,))
    assert gw.is_exceptional(1, (1, 1))
    assert gw.is_exceptional(2, (1, 1, 1, 1, 1))
    assert gw.is_exceptional(4, (3, 1, 1, 1, 1, 1, 1, 1, 1))
    assert not gw.is_exceptional(3, (1,) * 8)
    assert not gw.is_exceptional(1, (1,))
    assert not gw.is_exceptional(0, (0,))


def test_anchor_values():
    # the key lists every constraint point, the simple ones included
    assert gw.gw_blowup(3, (1,) * 8) == 12
    assert gw.gw_blowup(3, (2,) + (1,) * 6) == 1
    assert gw.gw_blowup(2, (1,) * 5) == 1
    assert gw.gw_blowup(4, (2, 2, 2) + (1,) * 5) == 1


def test_exceptional_family():
    for d in range(2, 7):
        mults = (d - 1,) + (1,) * (2 * d)
        assert gw.is_exceptional(d, mults)
        assert gw.gw_blowup(d, mults) == 1


def test_all_ones_folds_to_plane_count():
    for d in range(1, 6):
        assert gw.gw_blowup(d, (1,) * (3 * d - 1)) == gw.kontsevich_count(d)


def test_degenerate_and_invalid_queries():
    assert gw.gw_blowup(3, (1,) * 7) == 0      # wrong chern number
    assert gw.gw_blowup(3, (3, 1, 1)) == 0     # wrong chern number
    assert gw.gw_blowup(1, (1, 1)) == 1        # the line through two points
    with pytest.raises(ValueError):
        gw.gw_blowup(-1, ())
    with pytest.raises(ValueError):
        gw.gw_blowup(3, (-2, 1))


def test_multiplicity_order_and_padding_do_not_matter():
    base = gw.gw_blowup(4, (2, 2) + (1,) * 7)
    assert base == gw.gw_blowup(4, (1, 1, 2, 1, 1, 2, 1, 1, 1))
    assert base == gw.gw_blowup(4, (2, 2) + (1,) * 7 + (0, 0))
    assert base > 0


def test_quadratic_move_invariance_of_counts():
    # applying the move to a solvable class must not change its count
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        d = rng.randint(1, 5)
        npts = rng.randint(0, 3)
        # build mults consuming chern 3d-1-npts across a few points
        left = 3 * d - 1 - npts
        mults = []
        while left > 0 and len(mults) < 8:
            m = rng.randint(1, min(d, left, 3))
            mults.append(m)
            left -= m
        if left != 0:
            continue
        mults += [1] * npts
        mults = tuple(sorted(mults, reverse=True))
        if any(m > d for m in mults):
            continue
        d2, m2 = gw.cremona_move(d, mults)
        if d2 < 0 or any(x < 0 for x in m2):
            continue
        assert gw.gw_blowup(d, mults) == gw.gw_blowup(d2, m2), (d, mults)
        checked += 1
