"""Integer partitions viewed as Young diagrams of tangency orders.

A partition is stored as a tuple of positive integers in weakly decreasing
order, e.g. (3, 1, 1).  Each row records the contact order of one local branch
of a curve with a fixed divisor, so the weight of the diagram, sum(p), is the
total contact order and the number of rows is the number of branches.

Everything here is elementary combinatorics, kept exact over Python ints.
"""

from collections import Counter
from functools import lru_cache
from math import factorial, prod


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


def diagram_text(p):
    """Printed form of a diagram, e.g. "(3,1,1)"."""
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


def partitions_of(k, max_part=None):
    """All partitions of k, listed in increasing diagram order.

    The order compares first rows, then second rows, and so on, so the list
    starts at the all-ones diagram (1,...,1) and ends at the single row (k).
    For k = 5:

        (1,1,1,1,1) < (2,1,1,1) < (2,2,1) < (3,1,1) < (3,2) < (4,1) < (5)

    At fixed weight this row-by-row comparison is plain lexicographic
    comparison of the tuples.
    """
    top = k if max_part is None else min(k, max_part)
    if k == 0 or top == 1:  # only () or (1,...,1): no call per row
        return [(1,) * k]
    return [(first,) + rest for first in range(1, top + 1)
            for rest in partitions_of(k - first, max_part=first)]


@lru_cache(maxsize=None)
def partition_list(k):
    """partitions_of(k) as a tuple, listed once per weight and shared by
    the solve plans and the engine's diagram codes."""
    return tuple(partitions_of(k))


@lru_cache(maxsize=None)
def nodes(q):
    """The double points diagram q forces at its point: branches of contact
    orders a >= b meet at least b times, and over the pairs of a descending
    q these minima add up to sum_i i * q_i."""
    return sum(i * r for i, r in enumerate(q))


def aut_order(p):
    """Order of the group permuting equal rows: product of (multiplicity)!.

    For example (3,2,2,1,1) has row multiplicities 1, 2, 2, giving
    1! * 2! * 2! = 4.
    """
    return prod(map(factorial, Counter(p).values()))


def multinomial(p):
    """Number of ways to distribute the sum(p) labelled boxes into the rows:
    sum(p)! / (p_1! * p_2! * ...).  Always an integer.
    """
    return factorial(sum(p)) // prod(map(factorial, p))
