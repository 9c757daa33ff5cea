"""The diagram-merging product that pushes two point constraints together.

When two multibranched tangency conditions at distinct points of the divisor
are degenerated to a single point, each branch of the first diagram may either
stay disjoint from the branches of the second or collide with exactly one of
them, adding contact orders.  Summing over all ways of matching rows gives a
product

    P1 * P2  =  sum over diagrams Q of  c(P1, P2; Q) * Q

with nonnegative integer coefficients.  Concretely the sum runs over a number
l >= 0 of collisions, a choice of l row positions in each diagram, and a
bijection between the chosen positions; matched rows are added, unmatched rows
are stacked, and the result is resorted.  Equal rows count as distinct
positions, so for example

    (3,1,1) * (2,2) = (3,2,2,1,1) + 2*(5,2,1,1) + 4*(3,3,2,1)
                      + 4*(5,3,1) + 2*(3,3,3).

The total mass sum_Q c(P1,P2;Q) is sum_l binom(b,l)*binom(b',l)*l! where b, b'
are the row counts.  Weighed by the row-permutation groups of the diagrams,
the product turns into the formula by which invariants arise as two point
constraints are pushed together (combine_forward); `verify` checks the
engine's two-point counts against it.
"""

from bisect import bisect, bisect_left
from collections import defaultdict
from fractions import Fraction

from .engine import canonical_constraints
from .partitions import as_diagram, aut_order

# Most rows star() writes: 12,710,655 for (8,7,...,1) * (8,7,...,1), 3-4 s.
WORK_LIMIT = 14_000_000


def star(p1, p2):
    """Expand p1 * p2 as a dict mapping result diagrams to coefficients.

    Each row r of p2 joins the rows t alone or is added to one unused row v
    of p1, weighted by v's repeats; walks with the same unused rows u and
    rows t (both ascending) merge.  Raises ValueError before a row whose
    moves would take the rows written past WORK_LIMIT.
    """
    t, p2 = as_diagram(p1)[::-1], as_diagram(p2)
    walks, work = {(t, t): 1}, 0
    for k, r in enumerate(p2, 1):
        work += sum((len(set(u)) + 1) * (len(t) + 1) for u, t in walks)
        if work > WORK_LIMIT:
            raise ValueError("star would write over %d rows" % WORK_LIMIT)
        # past the last row u is only part of t: drop it, so walks merge
        after, keep = defaultdict(int), k < len(p2)
        for (u, t), n in walks.items():
            i = bisect(t, r)
            after[u * keep, t[:i] + (r,) + t[i:]] += n
            for v in set(u):
                j, a, b = u.index(v), bisect_left(t, v), bisect(t, v + r)
                after[(u[:j] + u[j + 1:]) * keep,
                      t[:a] + t[a + 1:b] + (v + r,) + t[b:]] += n * u.count(v)
        walks = after
    return {t[::-1]: n for (_, t), n in walks.items()}


def combine_forward(constraints):
    """The push-together formula: the expansion merging the two heaviest
    constraints into one point, the reverse direction of the engine's
    recursion.

    Returns [(coefficient, merged key constraints)] with exact Fraction
    coefficients: N<P1, P2, rest> equals the sum of coefficient *
    N<Q, rest>.  Ordered branch counts combine with the bare star
    coefficients c(P1, P2; Q); converting both sides to unordered counts
    divides by the row-permutation group of each factor and multiplies
    back by that of the result, c * |Aut(Q)| / (|Aut(P1)| * |Aut(P2)|).
    Every coefficient is read from one star walk.  Fewer than two
    constraints raise ValueError.
    """
    p1, p2, *rest = canonical_constraints(constraints)
    return [(Fraction(c * aut_order(q), aut_order(p1) * aut_order(p2)),
             canonical_constraints((q, *rest)))
            for q, c in sorted(star(p1, p2).items())]
