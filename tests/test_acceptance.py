"""Acceptance suite: every advertised result, one test per criterion.

Each test prints one PASS line (visible with -s or -rA; the test name
itself carries the verdict under -v).  Timed criteria assert their stated
budget.  The extended tier of criterion 1 (degrees 9 and 10 and the
degree-10 sum identity, a separate one-hour budget, and the same column
with the adjunction rule off) runs only when TANGENTCOUNT_EXTENDED=1 is
set, since its two cold T_1..T_10 add minutes and a gigabyte or more to an
otherwise fast suite; tests/test_gw.py reads the unpruned run's blowup
classes (reference.compared_with_unpruned) in the same process.

The frozen numbers below are deliberately restated literally rather than
imported from the package, so an accidental edit of packaged data cannot
silently satisfy its own regression.
"""

import os
import random
import time
from math import factorial

import pytest

from tangentcount import engine as engine_module, gw
from tangentcount.engine import Engine
from tangentcount.matrices import (move_determinant, move_matrix,
                                   solve_closure)
from tangentcount.partitions import multinomial, nodes, partitions_of
from tangentcount.star import star

from reference import (cold, cold_run, column, compared_with_unpruned,
                       complexity, cross_space_values, determinant, dual,
                       local_double_points, single_point_table, star_oracle)

TANGENCY_MAX = {1: 1, 2: 1, 3: 4, 4: 26, 5: 217, 6: 2110, 7: 22744,
                8: 264057}
TANGENCY_MAX_EXTENDED = {9: 3242395, 10: 41596252}
N_10 = 40739017561997799680  # rational degree-10 curves through 29 points

PLANE_COUNTS = {3: 12, 4: 620, 5: 87304, 6: 26312976, 7: 14616808192}

SINGLE_POINT = {
    1: {(2,): 1},
    2: {(5,): 1},
    3: {(8,): 4, (7, 1): 1},
    4: {(11,): 26, (10, 1): 14, (9, 2): 3, (9, 1, 1): 1, (8, 3): 1},
    5: {(14,): 217, (13, 1): 182, (12, 2): 57, (12, 1, 1): 34, (11, 3): 27,
        (11, 2, 1): 12, (11, 1, 1, 1): 1, (10, 4): 9, (10, 3, 1): 5,
        (9, 5): 3, (9, 4, 1): 1, (8, 6): 1},
    6: {(17,): 2110, (16, 1): 2414, (15, 2): 892, (15, 1, 1): 771,
        (14, 3): 487, (14, 2, 1): 418, (14, 1, 1, 1): 69, (13, 4): 230,
        (13, 3, 1): 210, (13, 2, 2): 32, (13, 2, 1, 1): 31,
        (13, 1, 1, 1, 1): 1, (12, 5): 114, (12, 4, 1): 84, (12, 3, 2): 25,
        (12, 3, 1, 1): 15, (11, 6): 56, (11, 5, 1): 34, (11, 4, 2): 6,
        (11, 4, 1, 1): 5, (11, 3, 3): 4, (10, 7): 22, (10, 6, 1): 14,
        (10, 5, 2): 2, (10, 5, 1, 1): 1, (10, 4, 3): 1, (9, 8): 13,
        (9, 7, 1): 4, (9, 6, 2): 1, (8, 8, 1): 1},
}

MATRIX_FOUR = [[3, 0, 0, 0], [1, 0, 2, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
MATRIX_FIVE = [[4, 0, 0, 0, 0, 0], [1, 0, 3, 0, 0, 0], [0, 1, 0, 1, 1, 0],
               [0, 0, 1, 0, 2, 0], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]]

STAR_EXAMPLE = {(3, 2, 2, 1, 1): 1, (5, 2, 1, 1): 2, (3, 3, 2, 1): 4,
                (5, 3, 1): 4, (3, 3, 3): 2}


def test_criterion_01_full_tangency_counts_cold():
    run = cold(column, max(TANGENCY_MAX))  # a genuinely cold start
    assert run.answers == TANGENCY_MAX
    # the work of the cold column, counted: how a solve resolves its
    # inputs must not change what is solved, evaluated, read or answered by
    # the adjunction rule
    c = run.counters
    assert (c["solves"], c["evaluations"], c["memo_hits"], c["base_cases"],
            c["adjunction_zeros"]) == (99625, 101033, 1197507, 1408, 0)
    elapsed = run.seconds
    assert elapsed < 300, "budget is five minutes, took %.1fs" % elapsed
    print("PASS criterion 1: T_1..T_8 exact, cold cache, %.1fs "
          "(budget 300s)" % elapsed)


def test_criterion_01_extended_degrees_nine_and_ten():
    if os.environ.get("TANGENTCOUNT_EXTENDED") != "1":
        print("SKIP criterion 1 extended: set TANGENTCOUNT_EXTENDED=1 to "
              "run degrees 9 and 10 (two to three minutes, budget one hour)")
        pytest.skip("extended tier disabled (TANGENTCOUNT_EXTENDED != 1)")
    run = cold_run(max(TANGENCY_MAX_EXTENDED))
    start = time.monotonic()
    got = {d: run.answers[d] for d in TANGENCY_MAX_EXTENDED}
    assert got == TANGENCY_MAX_EXTENDED
    # the one new key asked of the shared run: the identity reads the top
    # solve T_10 left, and no test counts this run's memo
    assert run.engine.sum_identity("cp2", 10) == (N_10, N_10)
    elapsed = run.seconds + time.monotonic() - start
    assert elapsed < 3600, "budget is one hour, took %.1fs" % elapsed
    print("PASS criterion 1 extended: T_9, T_10 and the degree-10 sum "
          "identity exact, cold T_1..T_10 and the identity %.1fs "
          "(budget 3600s)" % elapsed)


def test_criterion_01_extended_pruned_against_unpruned():
    if os.environ.get("TANGENTCOUNT_EXTENDED") != "1":
        pytest.skip("extended tier disabled (TANGENTCOUNT_EXTENDED != 1)")
    # the shared cold T_1..T_10 against the same column with the adjunction
    # rule off (about three minutes and 900 MB more while they are compared):
    # every vector agrees, no solve reads an input past the budget, and
    # every all-ones input the rule answered is 0 unpruned
    top = max(TANGENCY_MAX_EXTENDED)
    bad, answered, unsolved, full = compared_with_unpruned(top)
    run = cold_run(top)
    assert bad == [] and answered > 0
    assert run.answers == full.answers
    print("PASS criterion 1 extended: cold T_1..T_10 with the adjunction "
          "rule equals it without, %d inputs answered by the rule, %d rests "
          "solved by the pruned run alone" % (answered, unsolved))


def test_criterion_02_single_point_tables():
    engine = Engine()
    for d, table in SINGLE_POINT.items():
        assert engine.full_table("cp2", d) == table, "degree %d" % d
    # below degree six, everything not in the published table vanishes
    for d in range(1, 6):
        full = single_point_table(engine, "cp2", d)
        assert set(full) == set(partitions_of(3 * d - 1))
        for p, n in full.items():
            assert n == SINGLE_POINT[d].get(p, 0), (d, p)
    print("PASS criterion 2: all 51 published single-point values and all "
          "complementary zeros through degree 5")


def test_criterion_03_plane_counts():
    gw.reset()
    start = time.monotonic()
    got = {d: gw.kontsevich_count(d) for d in PLANE_COUNTS}
    elapsed = time.monotonic() - start
    assert got == PLANE_COUNTS
    assert elapsed < 1, "budget is one second, took %.2fs" % elapsed
    print("PASS criterion 3: plane counts through degree 7, %.3fs "
          "(budget 1s)" % elapsed)


def test_criterion_04_determinant_law():
    start = time.monotonic()
    for k in range(2, 15):
        # elimination on the dense matrix against the solve's closure
        det = determinant(move_matrix(k))
        assert det == move_determinant(k), k
        assert abs(det) == factorial(k - 1), k
    elapsed = time.monotonic() - start
    assert elapsed < 30, "budget is thirty seconds, took %.1fs" % elapsed
    assert move_matrix(4) == MATRIX_FOUR
    assert move_matrix(5) == MATRIX_FIVE
    print("PASS criterion 4: |det| law for weights 2..14, elimination "
          "agreeing with the solve's closure, in %.1fs (budget 30s), "
          "weight-4 and 5 matrices entrywise" % elapsed)


def test_criterion_05_star_product():
    assert star((3, 1, 1), (2, 2)) == STAR_EXAMPLE
    pairs = 0
    for w1 in range(1, 10):
        for w2 in range(w1, 11 - w1):
            for p1 in partitions_of(w1):
                for p2 in partitions_of(w2):
                    assert star(p1, p2) == star_oracle(p1, p2), (p1, p2)
                    pairs += 1
    print("PASS criterion 5: worked expansion and oracle agreement on "
          "%d pairs of total weight at most 10" % pairs)


def test_criterion_06_sum_identity():
    engine = Engine()
    for d in range(1, 7):
        lhs, rhs = engine.sum_identity("cp2", d)
        assert lhs == rhs == gw.kontsevich_count(d), d
    print("PASS criterion 6: weighted single-point sums reproduce the "
          "plane counts for degrees 1..6")


def test_criterion_07_blowup_anchors():
    assert gw.gw_blowup(3, (1,) * 8) == 12
    assert gw.gw_blowup(3, (2,) + (1,) * 6) == 1
    for d in range(2, 7):
        assert gw.gw_blowup(d, (d - 1,) + (1,) * (2 * d)) == 1, d
    print("PASS criterion 7: assigned-multiplicity anchors and the "
          "exceptional family through degree 6")


def test_criterion_08_worked_degree_three_chain():
    engine = Engine()
    assert engine.hat_invariant("cp2", 3, ((1,),) * 5 + ((3,),)) == 9
    assert engine.hat_invariant("cp2", 3, ((1,),) * 6 + ((1, 1),)) == 2
    assert engine.invariant("cp2", 3, ((8,),)) == 4
    assert engine.invariant("cp2", 3, ((7, 1),)) == 1
    print("PASS criterion 8: the worked degree-3 reduction chain")


def test_criterion_09_vanishing():
    engine = Engine()
    assert engine.invariant("cp2", 3, ((6, 2),)) == 0
    for p in partitions_of(3):
        assert engine.invariant("p1xp1", (2, 0), (p,)) == 0, p
    # graphs over the first factor: single-row constraints give exactly
    # one curve when on shell, and nothing otherwise
    for d in range(1, 5):
        for orders in partitions_of(2 * d + 1):
            key = tuple((m,) for m in orders)
            assert engine.invariant("p1xp1", (d, 1), key) == 1, (d, orders)
        assert engine.invariant("p1xp1", (d, 1), ((2 * d,),)) == 0
        assert engine.invariant(
            "p1xp1", (d, 1), ((2 * d + 2,),)) == 0
    print("PASS criterion 9: published vanishing cases and the graph "
          "classes on the quadric")


class RankProbe(Engine):
    """Engine that records every complexity-rank transition it is asked
    to make: each input key a solve reads (its closure's reads), those
    read from the memo included, and each top-level call; and the rank of
    each key that reaches a base case.  Internal keys are coded, so each is
    decoded back to diagrams first."""

    def __init__(self):
        super().__init__()
        self.violations = []
        self.calls = {"top": 0, "inputs": 0}
        self.base_ranks = set()

    def hat_invariant(self, space, degree, constraints):
        self.calls["top"] += 1
        return super().hat_invariant(space, degree, constraints)

    def _base(self, space, degree, cs):
        self.base_ranks.add(complexity(tuple(map(engine_module._diagram,
                                                 cs))))
        return super()._base(space, degree, cs)

    def _solve_at(self, space, degree, rest, rank, pk):
        m, k = engine_module, rank[0]
        left = m._budget(space, degree) - sum(
            nodes(m._diagram(c)) for c in rest)
        for r in solve_closure(k, left).reads:
            codes = m._solve_inputs(k)[r][0]
            self.calls["inputs"] += 1
            diagrams = tuple(map(engine_module._diagram, rest + codes))
            if not complexity(diagrams) < rank:
                self.violations.append((rank, diagrams))
        return super()._solve_at(space, degree, rest, rank, pk)


def test_criterion_10_property_suites():
    # strict complexity descent on every solve input, and integrality
    # of every splitting solve (a fractional solve raises immediately)
    probe = RankProbe()
    probe.full_table("cp2", 4)
    probe.invariant("p1xp1", (2, 1), ((5,),))
    assert probe.violations == []
    assert probe.counters["solves"] > 0
    assert probe.base_ranks == {(1, 0)}  # only all-ones keys reach _base
    # every key evaluated, read or answered by the adjunction rule went
    # through the probe, memo hits included
    assert probe.calls["inputs"] > probe.counters["solves"]
    assert sum(probe.calls.values()) == (probe.counters["evaluations"]
                                         + probe.counters["memo_hits"]
                                         + probe.counters["adjunction_zeros"])
    assert probe.counters["adjunction_zeros"] > 0

    # memo determinism under randomized evaluation order
    rng = random.Random(1)
    reference = None
    for _ in range(3):
        order = list(partitions_of(11))
        rng.shuffle(order)
        engine = Engine()
        values = {p: engine.invariant("cp2", 4, (p,)) for p in order}
        if reference is None:
            reference = values
        assert values == reference

    # the dual-diagram square-sum identity on every diagram of weight <= 12
    for n in range(1, 13):
        for p in partitions_of(n):
            assert (sum(c * c for c in dual(p))
                    == sum(p) + 2 * local_double_points(p))
    print("PASS criterion 10: descent, solve integrality, memo "
          "determinism, and the dual identity")


def test_cross_space_identity_at_degrees_seven_and_eight():
    # the tier-1 check of tests/test_engine.py two degrees on: 1,177
    # diagrams, about 7 s and 45 MB
    e = Engine()
    start = time.monotonic()
    values = [v for d in (7, 8) for v in cross_space_values(e, d)]
    elapsed = time.monotonic() - start
    assert [(p, plane, quadric) for p, plane, quadric in values
            if plane != quadric] == []
    assert (len(values), sum(1 for _, n, _ in values if n)) == (1177, 195)
    print("PASS cross-space identity: N_cp2,d<P,(1),(1)> = "
          "N_p1xp1,(d-1,d-1)<P,(1^(d-2))> for d = 7, 8, %.1fs" % elapsed)


def test_point_constraint_totals_match_multinomials():
    # cross-check used throughout: the all-ones key equals the plane count,
    # distributed over diagrams with multinomial weights (restated here as
    # a final end-to-end identity at degree 4)
    engine = Engine()
    total = sum(multinomial(p) * engine.invariant("cp2", 4, (p,))
                for p in partitions_of(11))
    assert total == 620
