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
are the row counts.
"""

from fractions import Fraction
from itertools import combinations, permutations

from .partitions import as_diagram, aut_order


def star(p1, p2):
    """Expand p1 * p2 as a dict mapping result diagrams to coefficients."""
    out = {}
    b1, b2 = len(p1), len(p2)
    for ell in range(min(b1, b2) + 1):
        for chosen1 in combinations(range(b1), ell):
            rest1 = [p1[i] for i in range(b1) if i not in chosen1]
            for chosen2 in combinations(range(b2), ell):
                rest2 = [p2[j] for j in range(b2) if j not in chosen2]
                for image in permutations(chosen2):
                    merged = [p1[i] + p2[j] for i, j in zip(chosen1, image)]
                    q = as_diagram(merged + rest1 + rest2)
                    out[q] = out.get(q, 0) + 1
    return out


def star_oracle(p1, p2):
    """Independent recomputation of star() by a different enumeration.

    Walks the rows of the second diagram one at a time; each row either
    enters the result on its own or absorbs one not-yet-used row (chosen
    by position) of the first diagram.  Every (matched subset, bijection)
    pair of the closed-form enumeration arises from exactly one sequence
    of choices, so the two routes must agree coefficient by coefficient.
    Kept deliberately naive; used by tests and the verification command.
    """
    p1 = as_diagram(p1)
    p2 = as_diagram(p2)
    out = {}

    def go(i, used, placed):
        if i == len(p2):
            rest = [r for j, r in enumerate(p1) if j not in used]
            q = as_diagram(placed + rest)
            out[q] = out.get(q, 0) + 1
            return
        go(i + 1, used, placed + [p2[i]])
        for j in range(len(p1)):
            if j not in used:
                go(i + 1, used | {j}, placed + [p1[j] + p2[i]])

    go(0, frozenset(), [])
    return out


def combination_coefficient(p1, p2, q):
    """Weight of N<q, ...> when combining N<p1, p2, ...>, branches unordered.

    Ordered branch counts combine with the bare star coefficients; converting
    both sides to unordered counts divides by the row-permutation group of each
    factor and multiplies back by that of the result:

        c(p1, p2; q) * |Aut(q)| / (|Aut(p1)| * |Aut(p2)|).

    Returned as an exact Fraction.  (Empirically these weights come out
    integral — they count merge patterns up to symmetry — but nothing
    downstream relies on that, so no integrality is enforced here.)
    """
    return Fraction(star(p1, p2).get(as_diagram(q), 0) * aut_order(q),
                    aut_order(p1) * aut_order(p2))
