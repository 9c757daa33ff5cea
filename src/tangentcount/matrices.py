"""The box-moving matrix that converts split point constraints back into
single-point constraints.

Fix a weight k and list the partitions of k in increasing diagram order,
y_1 < y_2 < ... < y_T, so y_1 is the single column (1,...,1) and y_T the
single row (k).  Splitting the deepest branch off a constraint rewrites the
invariant with constraint y (one point) as the invariant with constraints
(top row of y), (remaining rows of y) at two points, and expanding the
two-point side produces y itself plus every diagram obtained by merging the
top row of y into one of its lower rows.  Collecting these expansions for
all non-horizontal y gives a square integer matrix A of size T-1:

    rows    r = 1..T-1  indexed by y_r      (every diagram except (k)),
    cols    c = 1..T-1  indexed by y_{c+1}  (every diagram except the column),
    entry   [y_{c+1} == y_r]  +  #{ lower rows i of y_r whose merge with the
                                    top row of y_r resorts to y_{c+1} }.

Merging the top row always makes the first row strictly longer, so merge
targets sit strictly later in the order: the matrix is upper Hessenberg with
unit subdiagonal, and |det A| = (k-1)!.  Solving the system recovers all
one-point invariants of weight k from the split two-point values, which have
strictly smaller constraint weights.

The linear solve exploits the Hessenberg shape by expressing every unknown
as an affine function of the last one and closing the loop with the first
equation, which costs only the number of nonzero entries.  The multiples of
the last unknown depend on the weight alone, so they are built once per
weight, and with them the multiple b of the last unknown in the first
equation.  That b is the determinant up to sign, so the determinant comes
from the solve's closure, never from eliminating the dense matrix, and the
closure checks the law |det A| = (k-1)! before any solve of its weight.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import InconsistencyError
from .partitions import partition_list


def merge_top_into(y, i):
    """Merge the top (first, longest) row of y into its i-th row, i >= 1."""
    rows = list(y)
    rows[i] += rows[0]
    return tuple(sorted(rows[1:], reverse=True))


def move_matrix(k):
    """The (p(k)-1) x (p(k)-1) box-moving matrix described above, read off
    solve_plan(k): row r >= 1 holds y_r itself in column r - 1."""
    merges = solve_plan(k).merges
    a = [[0] * len(merges) for _ in merges]
    for r, cols in enumerate(merges):
        for j in cols + ((r - 1,) if r else ()):
            a[r][j] += 1
    return a


SolvePlan = namedtuple("SolvePlan", "parts splits merges")


@lru_cache(maxsize=None)
def solve_plan(k):
    """What the weight-k system needs besides its right-hand side, built
    once: the partitions of k in increasing order, the split pair (top
    row, rest) of every non-horizontal diagram, and per row the unknowns
    of its merge targets, one per lower row (unknown j is parts[j + 1])."""
    parts = partition_list(k)
    pos = {q: j for j, q in enumerate(parts)}
    rows = parts[:-1]
    return SolvePlan(
        parts,
        tuple(((y[0],), y[1:]) for y in rows),
        tuple(tuple(pos[merge_top_into(y, i)] - 1 for i in range(1, len(y)))
              for y in rows))


def solve_split_system(k, split_values, all_ones_value):
    """Recover all one-point invariants of weight k from split values.

    split_values lists, for each non-horizontal y in increasing order, the
    two-point invariant with constraints (top row of y) and (rest of y); the
    separately supplied all_ones_value is the invariant with the fully split
    constraint (1,...,1).  Solves

        split_values = all_ones_value * e_1 + A * unknowns

    exactly and returns the list of invariants of every y except the single
    column, in solve_plan(k).parts[1:] order.  All results must come out
    integral; anything else means the inputs were inconsistent and raises
    InconsistencyError.  Its one caller, Engine._solve_at, solves at k >= 2
    and builds split_values from the same plan, so neither is checked here.
    """
    parts, _, merges = solve_plan(k)
    t = len(parts)
    # Unknown j is const[j] + coef[j] * top, top being the last unknown, the
    # single row (k); merge targets sit later in the order than their row.
    coef, b = _closure(k)
    const = [0] * (t - 1)
    for r in range(t - 2, 0, -1):
        a = split_values[r]
        for j in merges[r]:
            a -= const[j]
        const[r - 1] = a
    # First equation (the single-column diagram) closes the loop.
    a = all_ones_value
    for j in merges[0]:
        a += const[j]
    # Every unknown is an integer exactly when top is, since top is one of
    # them and the others are integer affine functions of it.
    top, remainder = divmod(split_values[0] - a, b)
    if remainder:
        top = Fraction(split_values[0] - a, b)
        for j in range(t - 1):
            value = const[j] + coef[j] * top
            if value.denominator != 1:
                raise InconsistencyError(
                    "non-integral invariant %s for constraint %s at weight %d"
                    % (value, parts[j + 1], k))
    return [c + m * top for c, m in zip(const, coef)]


def move_determinant(k):
    """det A of the weight-k move matrix, k >= 2: (-1)^(p(k)-2) b."""
    return (-1) ** (len(solve_plan(k).parts) - 2) * _closure(k)[1]


@lru_cache(maxsize=None)
def _closure(k):
    """The part of the weight-k solve that no input enters, for k >= 2:
    coef[j], the multiple of top in unknown j, and b, the multiple of top
    in the first equation, which closes the loop.  A times coef is b e_1
    and coef ends in 1, so by Cramer's rule det A is b times the minor
    without the first row and last column, which is unit triangular, and
    the sign (-1)^(p(k)-2).  Raises InconsistencyError unless |b| = (k-1)!,
    the determinant law."""
    merges = solve_plan(k).merges
    coef = [0] * (len(merges) - 1) + [1]
    for r in range(len(merges) - 1, 0, -1):
        coef[r - 1] = -sum(map(coef.__getitem__, merges[r]))
    b = sum(map(coef.__getitem__, merges[0]))
    if abs(b) != factorial(k - 1):
        raise InconsistencyError("determinant law broken at weight %d: "
                                 "|det A| = %d" % (k, abs(b)))
    return tuple(coef), b
