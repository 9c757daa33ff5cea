"""Cross-checks between independent computation routes: the a-priori
vanishing predicate against zeros the recursion computes with the engine's
adjunction rule off, nonnegativity of the curve counts, the exhaustive
merge/split round trip at low total weight, and the push-together formula
on every multi-point key the benchmark's two in-process passes hold."""

import pytest

from tangentcount.engine import Engine
from tangentcount.partitions import partitions_of

from reference import (adjunction_rule_off, cold_run, combined_value,
                       push_together_disagreements, quadric_run,
                       single_point_table, vanishing_filter)


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.fixture(scope="module")
def recursion():
    """invariant(space, degree, constraints) of an engine only ever asked
    with the adjunction rule off: the full recursion's value, also on a key
    the rule would answer with 0."""
    unpruned = Engine()

    def invariant(space, degree, constraints):
        with adjunction_rule_off():
            value = unpruned.invariant(space, degree, constraints)
        assert unpruned.counters["adjunction_zeros"] == 0
        return value
    return invariant


# ------------------------------------------------- forced vanishing vs values


def test_forced_vanishing_matches_computed_zero_plane(engine, recursion):
    # The predicate must never flag a key whose computed value is nonzero,
    # for every single-point key of the plane classes with d <= 5; the
    # engine with its rule on gives the same value.
    flagged = 0
    for d in range(1, 6):
        for p in partitions_of(3 * d - 1):
            if vanishing_filter("cp2", d, p):
                flagged += 1
                assert recursion("cp2", d, (p,)) == 0, (d, p)
                assert engine.invariant("cp2", d, (p,)) == 0, (d, p)
    assert flagged > 0  # the sweep actually exercised the predicate

    # worked instance: two branches of contact 6 and 2 on a cubic
    assert vanishing_filter("cp2", 3, (6, 2))
    assert recursion("cp2", 3, ((6, 2),)) == 0


def test_forced_vanishing_matches_computed_zero_quadric(engine, recursion):
    # bidegree (1,1): only single-branch constraints survive
    for p in partitions_of(3):
        vanishes = vanishing_filter("p1xp1", (1, 1), p)
        value = recursion("p1xp1", (1, 1), (p,))
        assert vanishes == (value == 0), p
        assert engine.invariant("p1xp1", (1, 1), (p,)) == value, p
    # a multiple of one ruling carries no counts at all
    for p in partitions_of(3):
        assert vanishing_filter("p1xp1", (2, 0), p)
        assert recursion("p1xp1", (2, 0), (p,)) == 0, p
        assert engine.invariant("p1xp1", (2, 0), (p,)) == 0, p


def test_predicate_is_not_a_shortcut(recursion):
    # With the adjunction rule off, keys the predicate flags are evaluated
    # through the full recursion, so the agreement above is a genuine
    # consistency statement and not the rule checked against itself.
    # Here: a flagged key participates as input to a solve without damage.
    assert recursion("cp2", 2, ((4, 1),)) == 0
    assert vanishing_filter("cp2", 2, (4, 1))
    assert recursion("cp2", 2, ((5,),)) == 1


# ------------------------------------------------------------- nonnegativity


def test_single_point_tables_are_nonnegative(engine):
    for d in range(1, 6):
        table = single_point_table(engine, "cp2", d)
        assert all(v >= 0 for v in table.values()), d
        # maximal tangency entry is strictly positive
        assert table[(3 * d - 1,)] > 0, d
    for ab in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        table = single_point_table(engine, "p1xp1", ab)
        assert all(v >= 0 for v in table.values()), ab


# ------------------------------------------- merge/split exhaustive round trip


def _pairs_with_total_weight(total):
    seen = set()
    for w1 in range(1, total):
        for p1 in partitions_of(w1):
            for p2 in partitions_of(total - w1):
                pair = tuple(sorted((p1, p2)))
                if pair not in seen:
                    seen.add(pair)
                    yield pair


def test_merge_consistency_all_two_point_keys_weight_eight(engine):
    # Every two-point key of the cubic: merging the two constraints and
    # evaluating term by term must reproduce the direct evaluation.
    checked = 0
    for p1, p2 in _pairs_with_total_weight(8):
        direct = engine.invariant("cp2", 3, (p1, p2))
        assert direct >= 0, (p1, p2)
        assert combined_value(engine, "cp2", 3, (p1, p2)) == direct, (p1, p2)
        checked += 1
    assert checked == 73


def test_merge_consistency_smaller_total_weights(engine):
    assert combined_value(engine, "cp2", 1, ((1,), (1,))) == \
        engine.invariant("cp2", 1, ((1,), (1,))) == 1
    for p1, p2 in _pairs_with_total_weight(5):
        direct = engine.invariant("cp2", 2, (p1, p2))
        assert direct >= 0, (p1, p2)
        assert combined_value(engine, "cp2", 2, (p1, p2)) == direct, (p1, p2)
    for p1, p2 in _pairs_with_total_weight(7):
        direct = engine.invariant("p1xp1", (2, 2), (p1, p2))
        assert direct >= 0, (p1, p2)
        assert combined_value(
            engine, "p1xp1", (2, 2), (p1, p2)) == direct, (p1, p2)


def test_merge_consistency_with_extra_point_constraints(engine):
    # Three-point keys: the merge touches the two heaviest constraints and
    # carries the remaining simple point through unchanged.
    for p1, p2 in _pairs_with_total_weight(7):
        cs = (p1, p2, (1,))
        direct = engine.invariant("cp2", 3, cs)
        assert direct >= 0, cs
        assert combined_value(engine, "cp2", 3, cs) == direct, cs


def test_merge_consistency_off_shell(engine):
    # Off-shell keys: both routes must report zero.
    assert engine.invariant("cp2", 2, ((2, 2), (2, 2))) == 0
    assert combined_value(engine, "cp2", 2, ((2, 2), (2, 2))) == 0


@pytest.mark.parametrize("work", ["column_to_five", "quadric_tables"])
def test_the_push_together_formula_holds_on_every_multi_point_key(work):
    # every key with two or more points that T_1..T_5 of the shared cold
    # column, or the shared quadric pass, holds: N<P1, P2, rest> against
    # the sum over combine_forward, in a fork of the run's engine.  Most
    # are instances the recursion does not solve with, where P1 is not one
    # row split off a diagram
    if work == "column_to_five":
        run, keep, keys = cold_run(7), lambda space, degree: degree <= 5, 3229
    else:
        run, keep, keys = quadric_run(), lambda space, degree: True, 47819
    assert push_together_disagreements(run.engine, keep) == ([], keys)
