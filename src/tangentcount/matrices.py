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

The linear solve exploits the Hessenberg shape.  Every unknown is an
affine function of the last one, top: row r gives unknown r - 1 from its
split value less the later unknowns it merges into.  Substituting these
into one more equation, the first, leaves b * top equal to an integer
combination of the inputs, where b, the multiple of top there, and the
weights of that combination depend on the weight alone.  So they are built
once per weight, and a solve is one dot product and one division for top,
then one pass down the rows for the other unknowns, which costs only the
number of nonzero entries.  That b is the determinant up to sign, so the
determinant comes from the solve's closure, never from eliminating the
dense matrix, and the closure checks the law |det A| = (k-1)! before any
solve of its weight.

A solve beside rest knows more.  By adjunction (engine.py) the unknown of
a diagram y with nodes(y) > left is 0, left being what rest leaves of the
class's double points.  The row of a diagram y other than the column only
defines y's unknown from later ones, so the row of a vanishing unknown, and
the input it reads, are not needed for the others: the live unknowns are
again affine in top, with multiples coef built over the live rows alone (0
at a vanishing unknown), and the closing row's weights fall on the live
rows' inputs and its own.  The single row (k) forces no double points, so
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
left, capped at k(k-1)/2, from the weight's solve_plan, which also lists
the double points of each diagram; solve_split_system solves it.  A
closure keeps only what a solve reads; coef only chooses the closing row
and gives its b.
"""

from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, inf
from operator import mul

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


SolvePlan = namedtuple("SolvePlan", "parts merges whole")


@lru_cache(maxsize=None)
def solve_plan(k):
    """What the weight-k system needs besides its right-hand side, built
    once: the partitions of k in increasing order, per row the unknowns of
    its merge targets, one per lower row (unknown j is parts[j + 1]), and
    the double points each diagram forces (whole).  Equal lower rows merge
    to the same diagram, and the rows descend, so merge_top_into runs once
    per distinct lower row."""
    parts = partition_list(k)
    pos = {q: j for j, q in enumerate(parts)}
    merges = []
    for y in parts[:-1]:
        targets = []
        for i in range(1, len(y)):
            if i == 1 or y[i] != y[i - 1]:
                j = pos[merge_top_into(y, i)] - 1
            targets.append(j)
        merges.append(tuple(targets))
    return SolvePlan(parts, tuple(merges), tuple(map(nodes, parts)))


# A weight-k solve beside a rest that leaves left double points, row r
# being the equation of parts[r]: reads, the inputs it reads in order
# (input r < p(k) - 1 is row r's split, input p(k) - 1 is (1,)*k), that is
# rows, then the row that closes the loop, reads[len(rows)], then (1,)*k
# if it forces at most left; rows, the rows r >= 1 of the live unknowns,
# last first; live, the live unknowns j (of parts[j + 1]) in increasing
# order; and b and weights as in _closure.
Closure = namedtuple("Closure", "reads rows live b weights")


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
    solve_plan(k).parts[1:] order.  b * top is the closure's weights on
    the inputs, less the all-ones value if read; the rows then give the
    other unknowns from top.  All results must come out integral;
    anything else means the inputs were inconsistent and raises
    InconsistencyError.  Its one caller, Engine._solve_at, solves at k >= 2
    and builds values from the same closure, so neither is checked here.
    """
    parts, merges, _ = solve_plan(k)
    rows, b, weights = closure.rows, closure.b, closure.weights
    a = sum(map(mul, weights, values))
    if len(values) > len(weights):  # the all-ones value, on row 0
        a -= values[-1]
    # Every unknown is an integer exactly when top is, since top is one of
    # them and the others are integer affine functions of it.
    top, remainder = divmod(a, b)
    if remainder:
        x = _substituted(merges, rows, values, Fraction(a, b))
        j = next(j for j, value in enumerate(x) if value.denominator != 1)
        raise InconsistencyError(
            "non-integral invariant %s for constraint %s at weight %d"
            % (x[j], parts[j + 1], k))
    return _substituted(merges, rows, values, top)


def _substituted(merges, rows, values, top):
    """The unknowns from top: row r's split value less the unknowns it
    merges into, which sit later in the order, gives unknown r - 1; a
    vanishing unknown has no row and stays 0."""
    x = [0] * len(merges)
    x[-1] = top
    for r, a in zip(rows, values):
        for j in merges[r]:
            a -= x[j]
        x[r - 1] = a
    return x


def move_determinant(k):
    """det A of the weight-k move matrix, k >= 2: (-1)^(p(k)-2) b."""
    return (-1) ** (len(solve_plan(k).parts) - 2) * solve_closure(k, inf).b


@lru_cache(maxsize=None)
def _closure(k, left):
    """The part of the weight-k solve that no input enters, for k >= 2 and
    left at most k(k-1)/2, as a Closure: b, the multiple of top in the
    closing row, chosen from coef as the module docstring says, and
    weights, the integers w with b * top = sum(w * v) over the inputs v of
    rows and the closing row, less the all-ones value if read; coef[j],
    the multiple of top in unknown j, stays local.  Each unknown's part
    that is not a multiple of top is its row's input less those of the
    unknowns it merges into, so weights come from walking that pass's
    adjoint once, in reverse row order; the closing row's input has weight
    1.  From full = (k-1)(k-2)/2 on every unknown is live and the first row
    closes, so A times coef is b e_1 and coef ends in 1: by Cramer's rule
    det A is b times the minor without the first row and last column,
    which is unit triangular, and the sign (-1)^(p(k)-2); and weights[i]
    is b times entry (top, reads[i]) of A's inverse.
    Raises InconsistencyError unless at full |b| = (k-1)!, the determinant
    law; a closure at any other left checks it on full's first."""
    full = (k - 1) * (k - 2) // 2
    if left != full:
        _closure(k, full)
    _, merges, whole = solve_plan(k)
    rows = tuple(r for r in range(len(merges) - 1, 0, -1) if whole[r] <= left)
    coef = [0] * (len(merges) - 1) + [1]
    for r in rows:
        coef[r - 1] = -sum(map(coef.__getitem__, merges[r]))
    # the rows that can close: row 0 and the vanishing unknowns' rows; from
    # full on that leaves row 0 alone
    bs = {r: sum(map(coef.__getitem__, merges[r]))
          for r in range(len(merges)) if not r or left < whole[r]}
    if left == full and abs(bs[0]) != factorial(k - 1):
        raise InconsistencyError("determinant law broken at weight %d: "
                                 "|det A| = %d" % (k, abs(bs[0])))
    close = max((r for r in bs if bs[r]), key=lambda r: (abs(bs[r]), r))
    # (1,)*k forces more than full, so it is read only where row 0 closes
    reads = rows + (close,) + ((len(merges),) if whole[0] <= left else ())
    live = tuple(j for j in range(len(merges)) if whole[j + 1] <= left)
    # adjoint[j]: the weight in b * top of unknown j's part that is not a
    # multiple of top; row r's input has unknown r - 1's, as r - 1 is final
    # once every earlier row that merges into it is walked
    adjoint = [0] * len(merges)
    for j in merges[close]:
        adjoint[j] -= 1
    for r in reversed(rows):
        for j in merges[r]:
            adjoint[j] -= adjoint[r - 1]
    weights = [adjoint[r - 1] for r in rows] + [1]
    return Closure(reads, rows, live, bs[close], packed(weights))


def packed(values):
    """Ints as the narrowest int array holding them: typecode 'i', else
    'q', else (past int64) a tuple of the ints."""
    for typecode in "iq":
        try:
            return array(typecode, values)
        except OverflowError:
            pass
    return tuple(values)
