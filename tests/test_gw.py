"""The blowup Gromov-Witten backend: plane counts, anchors with assigned
multiplicities, the standard quadratic move, and class bookkeeping."""

import gc
import itertools
import os
import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from tangentcount import gw
from tangentcount.errors import InconsistencyError

from reference import (column, compared_with_unpruned, double_point_count,
                       point_point_line_line, quadric_pass, unpruned,
                       vanishing_filter)


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
    with pytest.raises(ValueError, match="degree must be >= 1"):
        gw.descendant_average(0)


def test_class_bookkeeping():
    assert gw.chern_number("cp2", 3) == 9
    assert gw.chern_number("p1xp1", (2, 1)) == 6
    with pytest.raises(ValueError, match="space must be 'cp2' or 'p1xp1'"):
        gw.chern_number("p2", 3)
    assert double_point_count("cp2", 3) == 1
    assert double_point_count("cp2", 5) == 6
    assert double_point_count("p1xp1", (2, 2)) == 1
    assert double_point_count("cp2", 3, (2,)) == 0


def test_translate_to_plane():
    # a bidegree (a,b) class matches a plane class of degree a+b with
    # assigned multiplicities b and a at two extra points
    assert gw.translate_to_plane((2, 1), ()) == (3, (1, 2))
    assert gw.translate_to_plane((1, 1), (1, 1, 1)) == (2, (1, 1, 1, 1, 1))


def test_vanishing_filter():
    assert vanishing_filter("cp2", 3, (6, 2))
    assert not vanishing_filter("cp2", 3, (7, 1))
    assert not vanishing_filter("cp2", 3, (8,))
    assert vanishing_filter("p1xp1", (2, 0), (3,))


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
    # exceptional classes count 1; the point-free ones reach a generator E_i
    # by Cremona moves
    assert gw.gw_blowup(1, (1, 1)) == 1
    assert gw.gw_blowup(2, (1, 1, 1, 1, 1)) == 1
    assert gw.gw_blowup(4, (3, 1, 1, 1, 1, 1, 1, 1, 1)) == 1
    assert gw.gw_blowup(6, (3,) + (2,) * 7) == 1
    assert gw.gw_blowup(9, (6, 3, 3) + (2,) * 7) == 1
    # self-intersection -1 alone is not enough: the line through the two
    # 5-fold points meets this class in 9 - 10 < 0
    assert gw.gw_blowup(9, (5, 5) + (2,) * 8) == 0
    assert gw.gw_blowup(3, (1,) * 8) == 12
    assert gw.gw_blowup(1, (1,)) == 0
    assert gw.gw_blowup(0, (0,)) == 0


def test_anchor_values():
    # the key lists every constraint point, the simple ones included
    assert gw.gw_blowup(3, (1,) * 8) == 12
    assert gw.gw_blowup(3, (2,) + (1,) * 6) == 1
    assert gw.gw_blowup(2, (1,) * 5) == 1
    assert gw.gw_blowup(4, (2, 2, 2) + (1,) * 5) == 1


def test_exceptional_family():
    for d in range(2, 7):
        mults = (d - 1,) + (1,) * (2 * d)
        assert gw.gw_blowup(d, mults) == 1


def test_a_deep_exceptional_class_reduces_without_a_solve():
    # the Cremona moves run to the end in one loop; stopping after one move
    # would land on classes with simple points and solve near degree 700
    gw.reset()
    m = (360, 348, 337, 194, 161, 157, 144, 131, 130, 78, 70, 55)
    assert gw.gw_blowup(722, m) == 1
    assert gw.counters["gw_wdvv_solves"] == 0


def _point_free(total, top):
    """Non-increasing tuples of entries in 2..top summing to total."""
    if total == 0:
        yield ()
    for m in range(min(top, total), 1, -1):
        for rest in _point_free(total - m, m):
            yield (m,) + rest


def test_point_free_minus_one_classes():
    # every (d; m) with all m_i in 2..d, sum m = 3d - 1, sum m^2 = d^2 + 1
    gw.reset()
    values = [gw.gw_blowup(d, m) for d in range(2, 17)
              for m in _point_free(3 * d - 1, d)
              if sum(x * x for x in m) == d * d + 1]
    assert len(values) == 232
    assert set(values) == {0, 1}
    assert values.count(1) == 141


def _lowered_route(d, m, j):
    """N(d; m) from a cold memo, solved from the relation of (d; m) with
    slot j lowered by one, in place of the shallowest slot."""
    gw.reset()
    return gw._relation(d, m[:j] + (m[j] - 1,) + m[j + 1:], 0, j,
                        bumped_unknown=True)


def test_point_free_class_past_the_reductions():
    # the Cremona move does not apply and no slot has multiplicity 2, so
    # the point-free solve lowers a slot of multiplicity 3
    for m, value in [((5,) + (3,) * 9, 707328),
                     ((4, 4) + (3,) * 8, 2350228),
                     ((3,) * 10 + (2,), 750237120)]:
        gw.reset()
        start = time.perf_counter()
        assert gw.gw_blowup(11, m) == value
        assert time.perf_counter() - start < 0.35, m
    # a second route: lowering a 4 goes through (11; 5,3^9); lowering the
    # unique deepest slot would not count, as WDVV bumps it straight back
    assert _lowered_route(11, (4, 4) + (3,) * 8, 0) == 2350228
    assert _lowered_route(11, (3,) * 10 + (2,), 0) == 750237120


def test_point_free_classes_up_to_degree_ten_are_pinned():
    # every (d; m) with all m_i in 2..d and sum m = 3d - 1, d <= 10; up to
    # degree 10 every point-free solve lowers a slot of multiplicity 2
    gw.reset()
    values = [gw.gw_blowup(d, m) for d in range(2, 11)
              for m in _point_free(3 * d - 1, d)]
    assert len(values) == 975
    assert sum(1 for v in values if v) == 74
    assert sum(values) == 762639406728


@pytest.mark.parametrize("wrong, asked", [
    ((5, (3, 2)), (5, (2, 2))),        # WDVV solve: a = 21, b = -75
    ((7, (2,) * 9), (7, (2,) * 10))])  # point-free solve: a = 48, b = -98
def test_relation_rejects_a_non_integer_count(wrong, asked):
    # one off in the class the relation is given makes the unknown a
    # fraction, which must raise, not be rounded
    gw.reset()
    true = gw._value(*wrong)
    gw.reset()
    gw._values[wrong] = true + 1
    name = r"\(%d; %s\)$" % (asked[0], ",".join(map(str, asked[1])))
    try:
        with pytest.raises(InconsistencyError, match="non-integer .* " + name):
            gw._value(*asked)
    finally:
        gw.reset()  # no later test may read the wrong count


# The point-free classes of degree 2..13 whose evaluation needs a point-free
# solve at a slot of multiplicity 3 or more, by degree, with x^k for k slots
# of multiplicity x.
_NEW_POINT_FREE = """
11: 5 3^9 | 4^2 3^8 | 3^10 2
12: 6 3^9 2 | 5 4^3 3^6 | 5 4 3^8 2 | 5 3^10 | 4^8 3 | 4^5 3^5 | 4^3 3^7 2
    | 4^2 3^9 | 4 3^9 2^2 | 3^11 2
13: 7 4 3^9 | 7 3^9 2^2 | 6 5 3^9 | 6 4^5 3^4 | 6 4^3 3^6 2 | 6 4^2 3^8
    | 6 4 3^8 2^2 | 6 3^10 2 | 5^4 3^6 | 5^3 4^2 3^5 | 5^3 3^7 2 | 5^2 4^7
    | 5^2 4^4 3^4 | 5^2 4^2 3^6 2 | 5^2 4 3^8 | 5^2 3^8 2^2 | 5 4^7 3 2
    | 5 4^6 3^3 | 5 4^4 3^5 2 | 5 4^3 3^7 | 5 4^2 3^7 2^2 | 5 4 3^9 2
    | 5 3^11 | 5 3^9 2^3 | 4^9 2 | 4^8 3^2 | 4^6 3^4 2 | 4^5 3^6
    | 4^4 3^6 2^2 | 4^3 3^8 2 | 4^2 3^10 | 4^2 3^8 2^3 | 4 3^10 2^2
    | 3^12 2 | 3^10 2^4
"""


def _new_point_free():
    for line in _NEW_POINT_FREE.replace("\n    |", " |").strip().split("\n"):
        d, classes = line.split(":")
        for text in classes.split("|"):
            m = ()
            for run in text.split():
                x, _, k = run.partition("^")
                m += (int(x),) * int(k or 1)
            yield int(d), m


@pytest.mark.skipif(os.environ.get("TANGENTCOUNT_EXTENDED") != "1",
                    reason="extended tier disabled "
                           "(TANGENTCOUNT_EXTENDED != 1)")
def test_extended_point_free_classes_up_to_degree_thirteen():
    # about two minutes: the sweep, then every lowered slot of each class
    # the general point-free solve newly reaches, from a cold memo
    new = dict.fromkeys(_new_point_free())
    assert len(new) == 48
    gw.reset()
    old = []
    for d in range(2, 14):
        for m in _point_free(3 * d - 1, d):
            value = gw.gw_blowup(d, m)
            if (d, m) in new:
                new[d, m] = value
            else:
                old.append(value)
    assert len(old) == 6304
    assert sum(1 for v in old if v) == 702
    assert sum(old) == 13709366100205500948095
    assert all(v > 0 for v in new.values())
    routes, second_routes = 0, 0
    for (d, m), value in new.items():
        for x in set(m):
            j = m.index(x)
            assert _lowered_route(d, m, j) == value, (d, m, x)
            routes += 1
        # a second route besides the shallowest slot that is not the
        # unique deepest one
        second_routes += any(x != m[-1] and (x != m[0] or m.count(x) > 1)
                       for x in set(m))
    assert (routes, second_routes) == (135, 45)


def _cremona_images(memo):
    """(d, value, image) for each class (d; m) of memo with free points,
    the points written as multiplicity-1 slots, and each image (d'; m') of
    the Cremona move on a distinct triple of its slots that has no negative
    entry.  The move on slots a, b, c sends d to 2d - a - b - c and them to
    d - b - c, d - a - c, d - a - b; it keeps c1 and every blowup count
    (Gottsche-Pandharipande 1998), so each image counts value."""
    for (d, deep), value in memo.items():
        slots = deep + (1,) * (3 * d - 1 - sum(deep))
        for a, b, c in sorted(set(itertools.combinations(slots, 3))):
            rest = list(slots)
            for x in (a, b, c):
                rest.remove(x)
            image = (d - b - c, d - a - c, d - a - b, *rest)
            if min(image) >= 0:
                yield d, value, (2 * d - a - b - c, image)


def _memo_with_free_points(memo):
    return {(d, deep): value for (d, deep), value in memo.items()
            if 3 * d - 1 > sum(deep)}


def _cremona_mismatches(memo):
    """The images of _cremona_images(memo) whose count is not their class's
    value, and how many images there were and how many at another degree."""
    images = list(_cremona_images(memo))
    wrong = [(d, image) for d, value, image in images
             if gw.gw_blowup(*image) != value]
    return wrong, len(images), sum(image[0] != d for d, _, image in images)


def test_cremona_images_of_the_column_classes():
    # a second route to every blowup count with free points that a cold
    # T_1..T_7 asks for with the adjunction rule off (the rule leaves most
    # of them unasked): its images under Cremona moves on any three slots,
    # most of them at another degree and reached by another recursion
    memo = _memo_with_free_points(unpruned(column, 7).blowup)
    assert _cremona_mismatches(memo) == ([], 2476, 1981)


@pytest.mark.skipif(os.environ.get("TANGENTCOUNT_EXTENDED") != "1",
                    reason="extended tier disabled "
                           "(TANGENTCOUNT_EXTENDED != 1)")
def test_extended_cremona_images_of_the_quadric_and_degree_ten_classes():
    # about two minutes beside the unpruned cold T_1..T_10 and its
    # comparison with the shared pruned one (about five minutes, unless
    # another extended test ran them): the
    # classes of the five quadric tables and their sum identities (images
    # up to degree 15), then those of the cold T_1..T_10 (images up to
    # degree 17, most of the time), both with the adjunction rule off, so
    # that the classes the rule leaves unasked are checked too
    memo = _memo_with_free_points(unpruned(quadric_pass).blowup)
    assert _cremona_mismatches(memo) == ([], 7090, 5993)
    memo = _memo_with_free_points(compared_with_unpruned(10)[-1].blowup)
    assert _cremona_mismatches(memo) == ([], 44623, 38795)


def _point_point_line_line_mismatches(memo):
    """The classes of a blowup memo snapshot with at least three free
    points whose value the (pt, pt, L, L) relation does not give, and how
    many there were."""
    classes = {(d, deep): value for (d, deep), value in memo.items()
               if 3 * d - 1 - sum(deep) >= 3}
    wrong = [(d, deep) for (d, deep), value in classes.items()
             if point_point_line_line(d, deep) != value]
    return wrong, len(classes)


def test_point_point_line_line_is_kontsevich_without_multiplicities():
    assert [point_point_line_line(d, ()) for d in range(2, 8)] == [
        gw.kontsevich_count(d) for d in range(2, 8)]
    with pytest.raises(ValueError, match="three free points"):
        point_point_line_line(2, (2, 1))


def test_point_point_line_line_on_the_column_classes():
    # a second associativity instantiation for every blowup count with at
    # least three free points that a cold T_1..T_7 asks for with the
    # adjunction rule off
    assert _point_point_line_line_mismatches(
        unpruned(column, 7).blowup) == ([], 344)


@pytest.mark.skipif(os.environ.get("TANGENTCOUNT_EXTENDED") != "1",
                    reason="extended tier disabled "
                           "(TANGENTCOUNT_EXTENDED != 1)")
def test_extended_point_point_line_line_on_the_quadric_classes():
    # about 15 s: the classes of the five quadric tables and their sum
    # identities, with the adjunction rule off
    memo = unpruned(quadric_pass).blowup
    assert _point_point_line_line_mismatches(memo) == ([], 539)


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


def _ordered_terms(d, m, n, slot):
    """_split_sum's terms over every ordered vector a, as
    ((d1, a), (d2, m - a), term)."""
    for d1 in range(1, d):
        d2 = d - d1
        for a in itertools.product(*(range(mi + 1) for mi in m)):
            n1 = 3 * d1 - 1 - sum(a)
            if a[slot] < 1 or not 0 <= n1 <= n:
                continue
            rest = tuple(mi - ai for mi, ai in zip(m, a))
            bracket = (a[slot] * d1 * rest[slot] * d2
                       - a[slot] * a[slot] * d2 * d2)
            pairing = d1 * d2 - sum(ai * ri for ai, ri in zip(a, rest))
            yield (d1, a), (d2, rest), (comb(n, n1) * pairing * bracket
                                        * gw._value(d1, a)
                                        * gw._value(d2, rest))


def _ordered_split_sum(d, m, n, slot):
    """_split_sum's definition, summed over every ordered vector a."""
    return sum(term for _, _, term in _ordered_terms(d, m, n, slot))


def _genus_excess(d, a):
    """sum a(a-1) - (d-1)(d-2): a piece above 0 fails adjunction."""
    return sum(x * (x - 1) for x in a) - (d - 1) * (d - 2)


@st.composite
def split_sum_args(draw):
    """Both call forms of _split_sum on classes with repeated entries: the
    relation for (d; m) with m deep-sorted at slot 0, and the point-free
    form with its last slot lowered to 1."""
    d = draw(st.integers(3, 7))
    runs = draw(st.lists(st.tuples(st.integers(2, (d + 1) // 2),
                                   st.integers(1, 4)),
                         min_size=1, max_size=3))
    m = sorted((mi for mi, count in runs for _ in range(count)),
               reverse=True)[:7]
    # drop slots until the class can hold curves: a point to spare and a
    # nonnegative double-point count
    while (sum(m) > 3 * d - 2
           or double_point_count("cp2", d, m) < 0):
        m.pop()
    if draw(st.booleans()):
        return d, tuple(m), 3 * d - 2 - sum(m), 0
    return d, tuple(m[:-1]) + (1,), 0, len(m) - 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(split_sum_args())
def test_split_sum_matches_ordered_enumeration(args):
    # the orbit walk must equal the sum over every ordered splitting
    assert gw._split_sum(*args) == _ordered_split_sum(*args)


def test_split_sum_never_asks_for_a_piece_past_adjunction(monkeypatch):
    # spy on the pieces the walk asks for, at every depth of a cold run
    asked = []
    value = gw._value

    def spy(d, mults):
        if sys._getframe(1).f_code.co_name == "walk":
            asked.append((d, mults))
        return value(d, mults)

    monkeypatch.setattr(gw, "_value", spy)
    gw.reset()
    for d, m in [(5, (2,) * 4 + (1,) * 6), (6, (3, 2, 2) + (1,) * 10),
                 (6, (2,) * 8 + (1,)), (4, (2, 2, 2) + (1,) * 5)]:
        assert gw.gw_blowup(d, m) > 0
    assert asked
    assert not [p for p in asked if _genus_excess(*p) > 0]
    # pieces exactly on the bound are still asked for
    assert [p for p in asked if max(p[1]) >= 2 and _genus_excess(*p) == 0]


def test_split_sums_leave_no_garbage_for_gc():
    # the recursive walk refers to itself through its closure cell; unless
    # _split_sum lets it go, each call leaves a cycle holding its lists
    # until the next collection, and peak memory moves with gc's timing
    gw.reset()
    gc.collect()
    gc.disable()
    try:
        assert gw.gw_blowup(6, (3, 2, 2) + (1,) * 10) > 0
        assert gw.counters["gw_wdvv_solves"] > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("args", [
    (4, (2, 2, 2), 4, 0), (5, (3, 2, 2), 6, 0), (5, (2, 2, 2, 2), 5, 0),
    (6, (4, 2, 2), 8, 0), (4, (2, 2, 1), 0, 2), (5, (3, 2, 1), 0, 2),
    (5, (3, 2, 2, 1), 0, 3)])
def test_split_sum_keeps_pieces_on_the_adjunction_bound(args):
    # some nonzero term has a deep piece with sum a(a-1) == (d-1)(d-2),
    # so cutting at the bound itself would change the sum
    assert [term for p1, p2, term in _ordered_terms(*args)
            if term and any(max(a) >= 2 and _genus_excess(d, a) == 0
                            for d, a in (p1, p2))]
    assert gw._split_sum(*args) == _ordered_split_sum(*args)
