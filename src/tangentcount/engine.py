"""The tangency-count recursion: multibranched point constraints on curves.

An invariant key is a curve class (space "cp2" with integer degree, or
"p1xp1" with a bidegree pair) together with a multiset of branch diagrams,
one per constraint point: N counts rational curves in the class meeting a
fixed local divisor at each point with the branching pattern of the diagram.
The key is on-shell when the diagram weights add up to c1(class) - 1; any
other key has the wrong dimension and its invariant is 0.

Internally everything is computed in the ordered-branch normalization
hat-H = prod |Aut(P_i)| * N, in which the recursion has integer
coefficients throughout:

  * if every constraint is an all-ones diagram (1,...,1), the curves are
    counted by a blowup Gromov-Witten invariant: hat-H = prod b_i! times
    the count for the class minus b_i times an exceptional generator at
    each point;
  * otherwise the constraint of maximal weight among those with a branch
    of order >= 2 is traded, through the box-moving linear system of
    weight k, for pairs of constraints at two points whose weights are
    both smaller.  One exact solve recovers hat-H for every diagram of
    weight k at that point simultaneously, and all of them are memoized.

Termination is governed by the complexity rank (level, count): the maximal
weight of a constraint containing a branch of order >= 2, and how many
constraints realize it.  Every recursive call strictly decreases the rank
lexicographically, which is asserted at runtime.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from . import gw
from .errors import InconsistencyError
from .matrices import solve_plan, solve_split_system
from .partitions import (as_diagram, aut_order, diagram_text, multinomial,
                         partitions_of, weight)
from .star import star


def canonical_constraints(constraints):
    """Sort a collection of diagrams into the canonical key order:
    heaviest first, and within one weight the larger diagram first."""
    cs = tuple(as_diagram(c) for c in constraints)
    if any(not c for c in cs):
        raise ValueError("empty constraint diagram")
    return _in_key_order(cs)


@lru_cache(maxsize=None)
def _key_order(c):
    return weight(c), c


def _in_key_order(cs):
    """canonical_constraints for valid diagrams, without re-validating."""
    return tuple(sorted(cs, key=_key_order, reverse=True))


def complexity(constraints):
    """Complexity rank (level, count) of a constraint multiset.

    The level is the maximal weight among constraints containing a branch
    of order >= 2 (1 when there is none, the all-ones case), and the count
    is how many constraints realize that maximum.  Ranks compare
    lexicographically; the recursion strictly descends in this order.
    """
    level, count = 1, 0
    for c in constraints:
        if c[0] >= 2:
            w = weight(c)
            if w > level:
                level, count = w, 1
            elif w == level:
                count += 1
    return level, count


class Engine:
    """Memoizing evaluator for tangency invariants over one process.

    Separate instances share nothing except the blowup backend memo, which
    holds only values gw computed itself, so results are independent of
    evaluation order.  ``stored`` maps canonical key text (encode_key) to
    hat-H records kept outside the engine, such as a cache file's: a memo
    miss is looked up there, and every solved value is checked against it.
    """

    def __init__(self):
        self._memo = {}
        self.stored = {}
        self.counters = {"evaluations": 0, "solves": 0, "base_cases": 0,
                         "memo_hits": 0}

    # ------------------------------------------------------------- public API

    def hat_invariant(self, space, degree, constraints):
        """The ordered-branch invariant hat-H for the given key (0 off-shell)."""
        cs = canonical_constraints(constraints)
        if sum(map(weight, cs)) != gw.chern_number(space, degree) - 1:
            return 0
        return self._eval(space, degree, cs, None)

    def invariant(self, space, degree, constraints):
        """The curve count N: hat-H divided by the branch-reordering groups."""
        cs = canonical_constraints(constraints)
        hat = self.hat_invariant(space, degree, cs)
        auts = prod(aut_order(c) for c in cs)
        if hat % auts:
            raise InconsistencyError(
                "hat invariant %d not divisible by %d for %s"
                % (hat, auts, (space, degree, cs)))
        return hat // auts

    def combine_forward(self, space, degree, constraints):
        """Expansion merging the two heaviest constraints into one point.

        Returns [(coefficient, merged key constraints)] with exact Fraction
        coefficients: N<P1, P2, rest> equals the sum of coefficient *
        N<Q, rest>.  The reverse direction of the main recursion; used for
        cross-checking, not for computing.
        """
        cs = canonical_constraints(constraints)
        if len(cs) < 2:
            raise ValueError("need at least two constraints to combine")
        p1, p2, rest = cs[0], cs[1], cs[2:]
        norm = aut_order(p1) * aut_order(p2)
        out = []
        for q, coeff in sorted(star(p1, p2).items()):
            out.append((Fraction(coeff * aut_order(q), norm),
                        canonical_constraints((q,) + rest)))
        return out

    def combined_value(self, space, degree, constraints):
        """Evaluate the combine_forward expansion term by term (must be
        an integer and must agree with invariant())."""
        total = Fraction(0)
        for coeff, merged in self.combine_forward(space, degree, constraints):
            total += coeff * self.invariant(space, degree, merged)
        if total.denominator != 1:
            raise InconsistencyError(
                "combined expansion gave non-integer %s" % (total,))
        return int(total)

    def sum_identity(self, space, degree):
        """Both sides of the point-constraint identity: the count through
        c1 - 1 generic points versus sum of P! * N<P> over all diagrams P
        of weight c1 - 1.  Returns (point count, weighted sum)."""
        m = gw.chern_number(space, degree) - 1
        if m < 1:
            raise ValueError("class must have chern number >= 2")
        lhs = self.invariant(space, degree, ((1,),) * m)
        rhs = sum(multinomial(p) * self.invariant(space, degree, (p,))
                  for p in partitions_of(m))
        return lhs, rhs

    def full_table(self, space, degree, include_zero=False):
        """All single-point invariants of the class: {P: N<P>} over diagrams
        P of the on-shell weight, zeros omitted unless requested."""
        m = gw.chern_number(space, degree) - 1
        if m < 1:
            raise ValueError("class must have chern number >= 2")
        out = {}
        for p in partitions_of(m):
            n = self.invariant(space, degree, (p,))
            if n or include_zero:
                out[p] = n
        return out

    # ------------------------------------------------------------- internals

    def _eval(self, space, degree, cs, parent_rank):
        key = _pack_key(space, degree, cs)
        hit = self._memo.get(key)
        if hit is None and self.stored:
            hit = self.stored.get(encode_key(space, degree, cs))
            if hit is not None:
                self._memo[key] = hit
        if hit is not None:
            self.counters["memo_hits"] += 1
            return hit
        self.counters["evaluations"] += 1
        rank = complexity(cs)
        if parent_rank is not None and not rank < parent_rank:
            raise InconsistencyError(
                "complexity failed to decrease: %s -> %s at %s"
                % (parent_rank, rank, (space, degree, cs)))
        level = rank[0]
        if level == 1:
            self._memo[key] = self._base_case(space, degree, cs)
        else:
            target = next(i for i, c in enumerate(cs)
                          if weight(c) == level and c[0] >= 2)
            rest = cs[:target] + cs[target + 1:]
            self._solve_at(space, degree, rest, level, rank)
        return self._memo[key]

    def _base_case(self, space, degree, cs):
        """All-ones constraints: branch orders 1 everywhere, so the count is
        a blowup invariant with one multiplicity-b_i point per constraint,
        times b_i! for the ordered branches."""
        self.counters["base_cases"] += 1
        sizes = tuple(len(c) for c in cs)
        if space == "p1xp1":
            d, mults = gw.translate_to_plane(degree, sizes)
        else:
            d, mults = degree, sizes
        return prod(factorial(b) for b in sizes) * gw.gw_blowup(d, mults)

    def _solve_at(self, space, degree, rest, k, rank):
        """One box-moving solve: fills the memo with hat-H for every diagram
        of weight k at the chosen point, same remaining constraints."""
        split_values = [
            self._eval(space, degree, _in_key_order(rest + pair), rank)
            for pair in solve_plan(k).splits]
        all_ones = self._eval(
            space, degree, _in_key_order(rest + ((1,) * k,)), rank)
        solved = solve_split_system(k, split_values, all_ones)
        self.counters["solves"] += 1
        for q, value in solved.items():
            sub = _in_key_order(rest + (q,))
            old = self._memo.setdefault(_pack_key(space, degree, sub), value)
            if old == value and self.stored:
                old = self.stored.get(encode_key(space, degree, sub), value)
            if old != value:
                raise InconsistencyError(
                    "conflicting values %d and %d for %s"
                    % (old, value, (space, degree, sub)))

    # --------------------------------------------------------- cache plumbing

    def memo_items(self):
        """Snapshot of the memo as (key text, value) pairs."""
        for packed, value in self._memo.items():
            yield encode_key(*_unpack_key(packed)), value


KEY_LIMIT = 255  # a packed key holds the degree and each row in one byte


def key_fits(degree, cs):
    """Whether a key's degree (or bidegree) and every row of its diagrams
    are small enough for the packed memo key."""
    sizes = list(degree) if isinstance(degree, tuple) else [degree]
    return all(n <= KEY_LIMIT for n in sizes + [max(c) for c in cs])


def _pack_key(space, degree, cs):
    """Compact byte form of a memo key.  The memo holds millions of entries
    at high degree, so each key is one small bytes object instead of nested
    tuples: a space tag, the degree byte(s), then each constraint's parts
    terminated by a zero byte (parts are always >= 1).  See key_fits."""
    if space == "p1xp1":
        head = bytes((1, degree[0], degree[1]))
    else:
        head = bytes((0, degree))
    return head + b"".join(map(_chunk, cs))


@lru_cache(maxsize=None)
def _chunk(c):
    """One constraint's part of a packed key, built once per diagram."""
    return bytes(c) + b"\0"


def _unpack_key(packed):
    """Inverse of _pack_key."""
    if packed[0] == 1:
        degree, body = (packed[1], packed[2]), packed[3:]
    else:
        degree, body = packed[1], packed[2:]
    cs = tuple(tuple(chunk) for chunk in body.split(b"\0") if chunk)
    return ("p1xp1" if packed[0] == 1 else "cp2"), degree, cs


def encode_key(space, degree, cs):
    """Textual form of an invariant key: space;degree;(P1)|(P2)|..."""
    if space == "p1xp1":
        dtext = "%d,%d" % degree
    else:
        dtext = "%d" % degree
    return ";".join((space, dtext, "|".join(map(diagram_text, cs))))

