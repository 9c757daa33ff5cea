"""Integer partitions viewed as Young diagrams of tangency orders.

A partition is stored as a tuple of positive integers in weakly decreasing
order, e.g. (3, 1, 1).  Each row records the contact order of one local branch
of a curve with a fixed divisor, so the weight of the diagram is the total
contact order and the number of rows is the number of branches.

Everything here is elementary combinatorics, kept exact over Python ints.
"""

from functools import lru_cache
from math import factorial


def as_diagram(parts):
    """Canonicalize an iterable of row lengths into a diagram tuple.

    Rows are sorted into weakly decreasing order and validated to be positive
    integers.  The empty diagram () is allowed (it is the unit for stacking).
    """
    rows = tuple(sorted(parts, reverse=True))
    for r in rows:
        if not isinstance(r, int) or isinstance(r, bool) or r <= 0:
            raise ValueError("diagram rows must be positive integers, got %r" % (r,))
    return rows


@lru_cache(maxsize=None)
def diagram_text(p):
    """Printed form of a diagram, e.g. "(3,1,1)".  Cached: cache keys
    print the same few thousand diagrams over and over."""
    return "(%s)" % ",".join(map(str, p))


def parse_diagram(text):
    """Inverse of diagram_text, accepting rows in any order and spaces
    around them; raises ValueError unless the text is one parenthesized,
    non-empty list of positive integers."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("diagram %r is not parenthesized" % (text,))
    try:
        return as_diagram(int(x) for x in text[1:-1].split(","))
    except ValueError:
        raise ValueError("%r is not a diagram of positive integers"
                         % (text,)) from None


def weight(p):
    """Total number of boxes (= total contact order) of the diagram."""
    return sum(p)


def partitions_of(k, max_part=None):
    """All partitions of k, listed in increasing diagram order.

    The order compares first rows, then second rows, and so on, so the list
    starts at the all-ones diagram (1,...,1) and ends at the single row (k).
    For k = 5:

        (1,1,1,1,1) < (2,1,1,1) < (2,2,1) < (3,1,1) < (3,2) < (4,1) < (5)

    At fixed weight this row-by-row comparison is plain lexicographic
    comparison of the tuples.
    """
    if max_part is None:
        max_part = k
    if k == 0:
        return [()]
    out = []
    for first in range(1, min(k, max_part) + 1):
        for rest in partitions_of(k - first, max_part=first):
            out.append((first,) + rest)
    return out


def dual(p):
    """The transposed diagram: entry j counts the rows of length >= j.

    For a weakly decreasing p the result is again weakly decreasing, and
    transposing twice gives back p.
    """
    if not p:
        return ()
    return tuple(sum(1 for r in p if r >= j) for j in range(1, p[0] + 1))


def aut_order(p):
    """Order of the group permuting equal rows: product of (multiplicity)!.

    For example (3,2,2,1,1) has row multiplicities 1, 2, 2, giving
    1! * 2! * 2! = 4.
    """
    n = 1
    run = 1
    for i in range(1, len(p)):
        run = run + 1 if p[i] == p[i - 1] else 1
        n *= run  # running product of each run builds up multiplicity!
    return n


def local_double_points(p):
    """Number of nodes forced at a single point carrying all branches of p.

    Two branches with contact orders a and b meeting at the same point of the
    divisor intersect each other at least min(a, b) = b times there (rows
    sorted), and summing the pairwise minima of a sorted diagram gives
    sum_i (i - 1) * p_i.  Requires p weakly decreasing.
    """
    return sum(i * r for i, r in enumerate(p))


def multinomial(p):
    """Number of ways to distribute weight(p) labelled boxes into the rows:
    weight! / (p_1! * p_2! * ...).  Always an integer.
    """
    n = factorial(weight(p))
    for r in p:
        n //= factorial(r)
    return n
