"""The box-moving matrix: frozen small cases, structure, the determinant
law, and exactness of the splitting solve."""

import math
import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from tangentcount import matrices
from tangentcount.errors import InconsistencyError
from tangentcount.matrices import (merge_top_into, move_matrix,
                                   solve_closure, solve_plan,
                                   solve_split_system)
from tangentcount.partitions import nodes, partitions_of
from tangentcount.star import star

from reference import determinant


def test_merge_top_into():
    assert merge_top_into((3, 1, 1), 1) == (4, 1)
    assert merge_top_into((3, 1, 1), 2) == (4, 1)
    assert merge_top_into((2, 2, 1), 2) == (3, 2)
    assert merge_top_into((1, 1), 1) == (2,)


def test_matrix_weight_three():
    assert move_matrix(3) == [[2, 0], [1, 1]]


def test_matrix_weight_four():
    assert move_matrix(4) == [
        [3, 0, 0, 0],
        [1, 0, 2, 0],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
    ]


def test_matrix_weight_five():
    assert move_matrix(5) == [
        [4, 0, 0, 0, 0, 0],
        [1, 0, 3, 0, 0, 0],
        [0, 1, 0, 1, 1, 0],
        [0, 0, 1, 0, 2, 0],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
    ]


def test_signed_determinants():
    assert determinant(move_matrix(4)) == -6
    assert determinant([[2, 0], [1, 1]]) == 2
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    # rank one: the second pivot column is zero below the first row
    assert determinant([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == 0


def test_determinant_law():
    for k in range(2, 11):
        assert abs(determinant(move_matrix(k))) == factorial(k - 1)


def test_hessenberg_structure():
    for k in range(2, 10):
        a = move_matrix(k)
        n = len(a)
        assert n == len(partitions_of(k)) - 1
        assert a[0][0] == k - 1 and all(e == 0 for e in a[0][1:])
        for i in range(1, n):
            assert a[i][i - 1] == 1
            assert all(a[i][j] == 0 for j in range(i - 1))


def test_rows_match_single_row_star_expansion():
    # row y of the matrix must list the coefficients of the product
    # (top row of y) * (remaining rows of y), an independent route
    for k in range(2, 10):
        parts = partitions_of(k)
        a = move_matrix(k)
        for r, y in enumerate(parts[:-1]):
            expansion = star((y[0],), y[1:])
            for j, q in enumerate(parts[1:]):
                assert a[r][j] == expansion.get(q, 0), (y, q)


def matvec(k, w_by_part, w1):
    """Left side of the splitting system for given unknowns: the equation
    for row y reads split(y) = w1*[y all-ones] + sum of row entries * w."""
    parts = partitions_of(k)
    a = move_matrix(k)
    out = []
    for r, y in enumerate(parts[:-1]):
        total = w1 if r == 0 else 0
        for j, q in enumerate(parts[1:]):
            total += a[r][j] * w_by_part[q]
        out.append(total)
    return out


def solve_unpruned(k, split, w1):
    """solve_split_system with no unknown set to 0 (left infinite), given
    the split values and w1 in the order its closure reads them."""
    closure, inputs = solve_closure(k, math.inf), split + [w1]
    return solve_split_system(k, closure, [inputs[r] for r in closure.reads])


@settings(max_examples=60)
@given(st.integers(2, 8), st.data())
def test_solve_round_trip(k, data):
    parts = partitions_of(k)
    w = {q: data.draw(st.integers(-50, 50), label=str(q))
         for q in parts[1:]}
    w1 = data.draw(st.integers(-50, 50), label="all-ones")
    split = matvec(k, w, w1)
    assert solve_unpruned(k, split, w1) == [w[q] for q in parts[1:]]


def test_solve_rejects_non_integral():
    # weight 3: the equations force 2 * w(2,1) = split(1,1,1) - w1,
    # so an odd difference cannot come from integer invariants
    with pytest.raises(InconsistencyError):
        solve_unpruned(3, [1, 0], 0)


def test_a_plan_whose_loop_does_not_close_is_singular(monkeypatch):
    # the first equation closes the loop through b, the multiple of top in
    # it and det A up to sign; a plan that breaks the law |b| = (k-1)! must
    # raise before any solve of its weight
    plan = matrices.solve_plan(4)
    assert plan.merges[0] == (0, 0, 0)
    assert matrices.solve_closure(4, math.inf) == matrices._closure(4, 6)
    for first_row, det in [
            ((), 0),  # merging into no unknown: b = 0, which must not divide
            ((0, 0, 1), 3)]:  # one merge entry changed: b = 3, not 3! = 6
        monkeypatch.setattr(matrices, "solve_plan", lambda k: plan._replace(
            merges=(first_row,) + plan.merges[1:]))
        with pytest.raises(InconsistencyError, match=re.escape(
                "determinant law broken at weight 4: |det A| = %d" % det)):
            matrices._closure.__wrapped__(4, 3)
        # a closure at another left, below or above 3, with none of weight
        # 4 cached, checks the one at 3 first; a raising call caches nothing
        for left in (1, math.inf):
            matrices._closure.cache_clear()
            with pytest.raises(InconsistencyError, match=re.escape(
                    "determinant law broken at weight 4: |det A| = %d"
                    % det)):
                matrices.solve_closure(4, left)


def gauss_solve(matrix, rhs_list):
    """Reference solve of matrix * x = rhs for every rhs in rhs_list by
    Fraction Gauss-Jordan elimination with row pivoting; it knows nothing
    of the Hessenberg shape.  Returns one solution list per rhs."""
    n = len(matrix)
    m = [[Fraction(e) for e in row] + [Fraction(rhs[r]) for rhs in rhs_list]
         for r, row in enumerate(matrix)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [[m[r][n + i] / m[r][r] for r in range(n)]
            for i in range(len(rhs_list))]


def test_plan_merges_reproduce_move_matrix():
    for k in range(1, 15):
        parts, merges = solve_plan(k)
        assert list(parts) == partitions_of(k)
        n = len(parts) - 1
        rebuilt = [[0] * n for _ in range(n)]
        for r, targets in enumerate(merges):
            if r:
                rebuilt[r][r - 1] += 1  # y itself, one place down the order
            for j in targets:
                rebuilt[r][j] += 1
        assert rebuilt == move_matrix(k), k


def test_solve_matches_fraction_oracle():
    # Random integer right-hand sides mostly give non-integral solutions;
    # every third one is built from integer unknowns, so both outcomes
    # come up at every weight up to 14.
    rng = random.Random(20190606)
    for k in range(2, 15):
        parts = partitions_of(k)
        cases = []
        for trial in range(12):
            w1 = rng.randint(-10**6, 10**6)
            if trial % 3 == 0:
                w = {q: rng.randint(-10**6, 10**6) for q in parts[1:]}
                split = matvec(k, w, w1)
            else:
                split = [rng.randint(-10**6, 10**6) for _ in parts[:-1]]
            cases.append((split, w1))
        rhs_list = [[s - (w1 if r == 0 else 0) for r, s in enumerate(split)]
                    for split, w1 in cases]
        outcomes = set()
        for (split, w1), x in zip(cases, gauss_solve(move_matrix(k),
                                                     rhs_list)):
            oracle = dict(zip(parts[1:], x))
            if all(v.denominator == 1 for v in x):
                outcomes.add("integral")
                got = solve_unpruned(k, split, w1)
                assert got == list(oracle.values())
                assert all(type(v) is int for v in got)
            else:
                outcomes.add("non-integral")
                first = next(q for q, v in oracle.items()
                             if v.denominator != 1)
                with pytest.raises(InconsistencyError, match=re.escape(
                        "for constraint %s at" % (first,))):
                    solve_unpruned(k, split, w1)
        # |det A_2| = 1: only from weight 3 on can a solve fail
        assert outcomes == {"integral", "non-integral"} or k == 2, k


@pytest.mark.parametrize("k", range(2, 13))
def test_a_pruned_solve_recovers_every_value_the_rule_allows(k):
    # for every left up to the cap k(k-1)/2, what (1,)*k forces, and past
    # it: integer unknowns drawn at random but 0 where a diagram forces more
    # than left double points, the all-ones value included, come back
    # exactly from the split values of the rows the closure reads, and from
    # only those.  It reads every live unknown's row, last first, then one
    # closing row, row 0 or a vanishing unknown's row, then the all-ones
    # value exactly when (1,)*k forces at most left; live is every unknown
    # inside the budget
    rng = random.Random(k)
    parts = partitions_of(k)
    n, cap = len(parts) - 1, k * (k - 1) // 2
    for left in [*range(cap + 1), math.inf]:
        closure = solve_closure(k, left)
        rows = tuple(r for r in range(n - 1, 0, -1) if nodes(parts[r]) <= left)
        assert closure.rows == rows
        assert closure.reads == rows + (closure.close,) + (
            (n,) if nodes(parts[0]) <= left else ())
        assert closure.live == tuple(j for j in range(n)
                                     if nodes(parts[j + 1]) <= left)
        assert closure.close == 0 or nodes(parts[closure.close]) > left
        for _ in range(3):
            w = {q: rng.randint(-10**6, 10**6) if nodes(q) <= left else 0
                 for q in parts}
            inputs = matvec(k, w, w[parts[0]]) + [w[parts[0]]]
            assert solve_split_system(k, closure, [
                inputs[r] for r in closure.reads]) == [w[q] for q in parts[1:]]
    # from (k-1)(k-2)/2 on, the unpruned closure: its multiples of top are
    # A's inverse applied to e_1, scaled to end in 1, by elimination, and
    # b = +-(k-1)!; it differs from the one at the cap in its reads alone
    full = (k - 1) * (k - 2) // 2
    x, = gauss_solve(move_matrix(k), [[1] + [0] * (n - 1)])
    assert solve_closure(k, cap) == solve_closure(k, math.inf)
    for left in range(full, cap + 1):
        closure = solve_closure(k, left)
        assert closure[1:] == solve_closure(k, cap)[1:]
        assert list(closure.coef) == [v / x[-1] for v in x]
        assert closure.b == 1 / x[-1]
        assert abs(closure.b) == factorial(k - 1)
