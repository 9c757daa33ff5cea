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
as an affine function of the last one and closing the loop with one more
equation, which costs only the number of nonzero entries.  The multiples of
the last unknown depend on the weight alone, so they are built once per
weight, and with them the multiple b of the last unknown in the first
equation.  That b is the determinant up to sign, so the determinant comes
from the solve's closure, never from eliminating the dense matrix, and the
closure checks the law |det A| = (k-1)! before any solve of its weight.

A solve beside rest knows more.  By adjunction (engine.py) the unknown of
a diagram y with nodes(y) > left is 0, left being what rest leaves of the
class's double points.  The row of a diagram y other than the column only
defines y's unknown from later ones, so the row of a vanishing unknown, and
the input it reads, are not needed for the others: the live unknowns are
again affine in top, with multiples coef built over the live rows alone (0
at a vanishing unknown).  The single row (k) forces no double points, so
top is always live.  The loop closes on any other row, the first or a
vanishing unknown's (whose own term is 0), whose multiple b of top, the sum
of coef over its merge targets, is nonzero.  One always is.  A is
invertible, so its live columns A_L have full column rank; coef restricted
to them ends in 1, so A_L coef is nonzero; and each live row has entry 0 in
A_L coef by the construction of coef, so the nonzero entry sits in a row
that can close.  A row whose input is past the budget never closes: merging
its top row into a lower one lowers no pairwise minimum of rows, so its
merge targets vanish too and its b is 0.  So every closing row is read.
The first row closes only when its one merge target (2,1^(k-2)) is live, at
left >= (k-1)(k-2)/2, the most any unknown forces.  There every unknown is
live and the closure is the unpruned one: the first row, b = +-(k-1)!.  It
reads the all-ones value only at left >= k(k-1)/2, what (1,)*k forces;
below, that value is 0 by the same rule, and no other input a closure reads
can be past left.  Below (k-1)(k-2)/2 the vanishing row with the largest
|b| closes (the latest of equals), which keeps the integrality check as
strong as the closure allows.
Where that |b| is 1 the check cannot fire, as every integer is a multiple
of 1: on cold T_1..T_7, 14 of the 181 closures the solves use close so, and
997 of its 21,671 solves.  solve_closure builds one closure per weight and
left, capped at k(k-1)/2, and solve_split_system solves it.
"""

from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, inf

from .errors import InconsistencyError
from .partitions import nodes, partition_list


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


SolvePlan = namedtuple("SolvePlan", "parts merges")


@lru_cache(maxsize=None)
def solve_plan(k):
    """What the weight-k system needs besides its right-hand side, built
    once: the partitions of k in increasing order and per row the unknowns
    of its merge targets, one per lower row (unknown j is parts[j + 1])."""
    parts = partition_list(k)
    pos = {q: j for j, q in enumerate(parts)}
    return SolvePlan(parts, tuple(
        tuple(pos[merge_top_into(y, i)] - 1 for i in range(1, len(y)))
        for y in parts[:-1]))


# A weight-k solve beside a rest that leaves left double points, row r
# being the equation of parts[r]: reads, the inputs it reads in order
# (input r < p(k) - 1 is row r's split, input p(k) - 1 is (1,)*k), that is
# rows, then close, then (1,)*k if it forces at most left; rows, the rows
# r >= 1 of the live unknowns, last first; live, the live unknowns j (of
# parts[j + 1]) in increasing order; close, the row that closes the loop;
# and coef and b as in _closure.
Closure = namedtuple("Closure", "reads rows live close coef b")


def solve_closure(k, left):
    """The Closure of a weight-k solve whose diagrams with more than left
    double points are 0, for k >= 2; equal for every left at or past
    k(k-1)/2, what (1,)*k forces, so left is capped there.  Raises
    InconsistencyError unless the weight's unpruned closure keeps the
    determinant law."""
    return _closure(k, min(left, k * (k - 1) // 2))


def solve_split_system(k, closure, values):
    """Recover all one-point invariants of weight k from split values.

    The split value of row y, for each non-horizontal y in increasing
    order, is the two-point invariant with constraints (top row of y) and
    (rest of y); the invariant with the fully split constraint (1,...,1)
    is the all-ones value.  Solves

        split_values = all_ones_value * e_1 + A * unknowns

    exactly, given the unknowns that closure (solve_closure) sets to 0 and
    values, the inputs closure.reads lists in its order, and returns the
    list of invariants of every y except the single column, in
    solve_plan(k).parts[1:] order.  All results must come out integral;
    anything else means the inputs were inconsistent and raises
    InconsistencyError.  Its one caller, Engine._solve_at, solves at k >= 2
    and builds values from the same closure, so neither is checked here.
    """
    parts, merges = solve_plan(k)
    _, rows, _, close, coef, b = closure
    # Unknown j is const[j] + coef[j] * top, top being the last unknown, the
    # single row (k); merge targets sit later in the order than their row,
    # and a vanishing unknown keeps const 0 and coef 0.
    const = [0] * len(merges)
    for r, a in zip(rows, values):
        for j in merges[r]:
            a -= const[j]
        const[r - 1] = a
    # The closing row's split, less the all-ones value on row 0 if read.
    n = len(rows)
    a = values[n] - sum(values[n + 1:])
    for j in merges[close]:
        a -= const[j]
    # Every unknown is an integer exactly when top is, since top is one of
    # them and the others are integer affine functions of it.
    top, remainder = divmod(a, b)
    if remainder:
        top = Fraction(a, b)
        for j, (c, m) in enumerate(zip(const, coef)):
            value = c + m * top
            if value.denominator != 1:
                raise InconsistencyError(
                    "non-integral invariant %s for constraint %s at weight %d"
                    % (value, parts[j + 1], k))
    return [c + m * top for c, m in zip(const, coef)]


def move_determinant(k):
    """det A of the weight-k move matrix, k >= 2: (-1)^(p(k)-2) b."""
    return (-1) ** (len(solve_plan(k).parts) - 2) * solve_closure(k, inf).b


@lru_cache(maxsize=None)
def _closure(k, left):
    """The part of the weight-k solve that no input enters, for k >= 2 and
    left at most k(k-1)/2, as a Closure: coef[j], the multiple of top in
    unknown j, and b, the multiple of top in the closing row, chosen as the
    module docstring says.  From full = (k-1)(k-2)/2 on every unknown is
    live and the first row closes, so A times coef is b e_1 and coef ends
    in 1: by Cramer's rule det A is b times the minor without the first row
    and last column, which is unit triangular, and the sign (-1)^(p(k)-2).
    Raises InconsistencyError unless at full |b| = (k-1)!, the determinant
    law; a closure at any other left checks it on full's first."""
    full = (k - 1) * (k - 2) // 2
    if left != full:
        _closure(k, full)
    merges = solve_plan(k).merges
    whole, split = _forced(k)
    rows = tuple(r for r in range(len(merges) - 1, 0, -1) if whole[r] <= left)
    coef = [0] * (len(merges) - 1) + [1]
    for r in rows:
        coef[r - 1] = -sum(map(coef.__getitem__, merges[r]))
    # the rows that can close: row 0 and the vanishing unknowns' rows, less
    # those whose split is past the budget, as their merge targets vanish
    # too; from full on that leaves row 0 alone
    bs = {r: sum(map(coef.__getitem__, merges[r]))
          for r in range(len(merges))
          if split[r] <= left and (not r or left < whole[r])}
    if left == full and abs(bs[0]) != factorial(k - 1):
        raise InconsistencyError("determinant law broken at weight %d: "
                                 "|det A| = %d" % (k, abs(bs[0])))
    close = max((r for r in bs if bs[r]), key=lambda r: (abs(bs[r]), r))
    # (1,)*k forces more than full, so it is read only where row 0 closes
    reads = rows + (close,) + ((len(merges),) if whole[0] <= left else ())
    live = tuple(j for j in range(len(merges)) if whole[j + 1] <= left)
    return Closure(reads, rows, live, close, packed(coef), bs[close])


@lru_cache(maxsize=None)
def _forced(k):
    """The double points of each diagram y of weight k, in increasing
    order, and those of its split (top row of y, rest of y)."""
    parts = partition_list(k)
    return tuple(map(nodes, parts)), tuple(nodes(y[1:]) for y in parts)


def packed(values):
    """Ints as the narrowest int array holding them: typecode 'i', else
    'q', else (past int64) a tuple of the ints."""
    for typecode in "iq":
        try:
            return array(typecode, values)
        except OverflowError:
            pass
    return tuple(values)
