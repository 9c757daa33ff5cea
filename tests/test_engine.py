"""The tangency recursion end to end: worked low-degree values, published
tables, the point-count identity, the product expansion cross-check, and
the quadric surface cases."""

import random

import pytest

from tangentcount.cache import CountCache
from tangentcount.cli import parse_constraints, parse_degree
from tangentcount.engine import (Engine, canonical_constraints, complexity,
                                 encode_key)
from tangentcount.errors import InconsistencyError
from tangentcount.partitions import partitions_of
from tangentcount import gw


def test_canonical_constraint_order():
    assert canonical_constraints(((1, 1), (3,), (2, 1))) == (
        (3,), (2, 1), (1, 1))
    # heavier first, then larger diagram at equal weight
    assert canonical_constraints((((1, 1, 1)), (2, 1))) == ((2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        canonical_constraints(((), (1,)))


def test_complexity_rank():
    assert complexity(((1, 1), (1,))) == (1, 0)
    assert complexity(((3,), (2, 1), (1, 1))) == (3, 2)
    assert complexity(((8,),)) == (8, 1)
    assert complexity(((2, 1, 1), (1, 1, 1, 1))) == (4, 1)


def test_worked_degree_three_chain():
    e = Engine()
    assert e.hat_invariant("cp2", 3, ((1,),) * 5 + ((3,),)) == 9
    assert e.hat_invariant("cp2", 3, ((1,),) * 6 + ((1, 1),)) == 2
    assert e.invariant("cp2", 3, ((8,),)) == 4
    assert e.invariant("cp2", 3, ((7, 1),)) == 1
    assert e.invariant("cp2", 3, ((6, 2),)) == 0


def test_hat_and_plain_differ_by_symmetry():
    e = Engine()
    hat = e.hat_invariant("cp2", 3, ((1, 1), (3, 3)))
    n = e.invariant("cp2", 3, ((1, 1), (3, 3)))
    assert hat == 4 * n  # |Aut| = 2 for each constraint


def test_off_shell_keys_vanish():
    e = Engine()
    assert e.invariant("cp2", 3, ((5,),)) == 0
    assert e.hat_invariant("cp2", 2, ((1,) * 6,)) == 0
    assert e.invariant("p1xp1", (1, 1), ((2,), (2,))) == 0


def test_single_point_tables_low_degree():
    e = Engine()
    assert e.full_table("cp2", 1) == {(2,): 1}
    assert e.full_table("cp2", 2) == {(5,): 1}
    assert e.full_table("cp2", 3) == {(8,): 4, (7, 1): 1}
    assert e.full_table("cp2", 4) == {
        (11,): 26, (10, 1): 14, (9, 2): 3, (9, 1, 1): 1, (8, 3): 1}


def test_zeros_at_degree_three():
    e = Engine()
    table = e.full_table("cp2", 3, include_zero=True)
    zero_keys = {p for p, n in table.items() if n == 0}
    assert (6, 2) in zero_keys
    assert (8,) not in zero_keys
    # every omitted diagram is a genuine zero
    assert {p for p, n in table.items() if n} == {(8,), (7, 1)}


def test_point_count_identity():
    e = Engine()
    for d in range(1, 5):
        lhs, rhs = e.sum_identity("cp2", d)
        assert lhs == rhs == gw.kontsevich_count(d)


def test_all_point_constraints_reduce_to_plane_count():
    e = Engine()
    for d in (2, 3):
        assert (e.invariant("cp2", d, ((1,),) * (3 * d - 1))
                == gw.kontsevich_count(d))


def test_combine_forward_on_a_line():
    e = Engine()
    expansion = dict()
    for coeff, merged in e.combine_forward("cp2", 1, ((1,), (1,))):
        assert len(merged) == 1
        expansion[merged[0]] = coeff
    assert expansion == {(1, 1): 2, (2,): 1}
    # the merged side reproduces the two-point count on a line
    assert e.combined_value("cp2", 1, ((1,), (1,))) == 1
    assert e.invariant("cp2", 1, ((1,), (1,))) == 1


def test_combine_forward_matches_direct_values():
    e = Engine()
    for constraints in [((5,), (3,)), ((4, 1), (3,)), ((2, 2), (3, 1))]:
        direct = e.invariant("cp2", 3, constraints)
        assert e.combined_value("cp2", 3, constraints) == direct


def test_combine_needs_two_constraints():
    e = Engine()
    with pytest.raises(ValueError):
        e.combine_forward("cp2", 3, ((8,),))


def test_quadric_bidegree_one_one():
    e = Engine()
    # chern number 4, so constraints of total weight 3.  Bidegree (d,1)
    # curves are graphs of self-maps of the line: smooth, one branch per
    # point, so single-row constraints pin down exactly one curve while
    # genuinely multibranched diagrams count nothing
    assert e.invariant("p1xp1", (1, 1), ((3,),)) == 1
    assert e.invariant("p1xp1", (1, 1), ((2,), (1,))) == 1
    assert e.invariant("p1xp1", (1, 1), ((1,), (1,), (1,))) == 1
    assert e.invariant("p1xp1", (1, 1), ((2, 1),)) == 0
    assert e.invariant("p1xp1", (1, 1), ((1, 1, 1),)) == 0


def test_quadric_degenerate_bidegrees():
    e = Engine()
    for p in partitions_of(3):
        assert e.invariant("p1xp1", (2, 0), (p,)) == 0
    # (1,0) covers a ruling line: one curve through one point
    assert e.invariant("p1xp1", (1, 0), ((1,),)) == 1


def test_quadric_symmetric_in_bidegree():
    e = Engine()
    for p in partitions_of(5):
        assert (e.invariant("p1xp1", (2, 1), (p,))
                == e.invariant("p1xp1", (1, 2), (p,)))


def test_memo_determinism_under_evaluation_order():
    # evaluate one degree's table in several random orders with fresh
    # engines; all orders must agree everywhere
    parts = partitions_of(8)
    reference = None
    rng = random.Random(3)
    for _ in range(3):
        order = list(parts)
        rng.shuffle(order)
        e = Engine()
        values = {p: e.invariant("cp2", 3, (p,)) for p in order}
        if reference is None:
            reference = values
        assert values == reference


def test_multi_point_values():
    e = Engine()
    # merging the two constraints: N<(5),(3)> = N<(8)> + N<(5,3)> = 4 + 0
    assert e.invariant("cp2", 3, ((5,), (3,))) == 4
    assert e.hat_invariant("cp2", 3, ((5,), (3,))) == 4
    # all-ones two-branch case folds to an assigned double point
    assert (e.hat_invariant("cp2", 3, ((1, 1),) + ((1,),) * 6)
            == 2 * gw.gw_blowup(3, (2, 1, 1, 1, 1, 1, 1)))


def test_key_text_round_trip():
    # the text a cache file stores for a key reads back, through the CLI's
    # parsers, as the same canonical key
    for key, text in [
            (("cp2", 3, ((8,),)), "cp2;3;(8)"),
            (("cp2", 6, canonical_constraints(((1, 1), (2,), (1, 3)))),
             "cp2;6;(3,1)|(2)|(1,1)"),
            (("p1xp1", (2, 1), ((5,),)), "p1xp1;2,1;(5)")]:
        assert encode_key(*key) == text
        space, dtext, ptext = text.split(";")
        assert (space, parse_degree(dtext, space), canonical_constraints(
            parse_constraints(ptext.replace("|", ";")))) == key


def write_cache(path, lines):
    with open(path, "w") as handle:
        handle.writelines(line + "\n" for line in lines)


def test_absorbed_values_are_used(tmp_path):
    path = str(tmp_path / "counts.txt")
    e = Engine()
    real = e.invariant("cp2", 3, ((8,),))
    with CountCache(path) as cache:
        cache.harvest(e)
    e2 = Engine()
    with CountCache(path) as cache:
        cache.preload(e2)
    assert e2.counters["solves"] == 0
    assert e2.invariant("cp2", 3, ((8,),)) == real
    assert e2.counters["solves"] == 0


def test_inconsistent_preload_is_detected(tmp_path):
    # corrupt a key that the splitting solve will re-derive: the solve at
    # weight 3 recomputes every weight-3 diagram next to (2), compares
    # against the stored value, and must refuse to continue
    path = str(tmp_path / "counts.txt")
    write_cache(path, ["ht:cp2;2;(2,1)|(2)\t777"])
    e = Engine()
    with CountCache(path) as cache:
        cache.preload(e)
        with pytest.raises(InconsistencyError):
            e.hat_invariant("cp2", 2, ((3,), (2,)))


def test_inconsistent_record_read_before_the_solve_is_detected(tmp_path):
    # the same corrupt record, read directly first: it is returned as
    # stored, and the solve that re-derives it later still refuses it
    path = str(tmp_path / "counts.txt")
    write_cache(path, ["ht:cp2;2;(2,1)|(2)\t777"])
    e = Engine()
    with CountCache(path) as cache:
        cache.preload(e)
        assert e.hat_invariant("cp2", 2, ((2, 1), (2,))) == 777
        with pytest.raises(InconsistencyError):
            e.hat_invariant("cp2", 2, ((3,), (2,)))


def test_cold_column_work_is_pinned():
    # the amount of work for cold T_1..T_6 in one Engine: every solve and
    # every stored key is still there, so speed comes from bookkeeping
    e = Engine()
    for d in range(1, 7):
        e.invariant("cp2", d, ((3 * d - 1,),))
    assert e.counters["solves"] == 6992
    assert sum(1 for _ in e.memo_items()) == 66153
