"""Genus-zero Gromov-Witten counts for the plane, its blowups, and P1 x P1.

This is the base layer of the tangency recursion.  A curve class is a degree
together with multiplicities at blown-up points: on CP^2 the class
d*L - sum_i m_i*E_i, on CP^1 x CP^1 the class a*L1 + b*L2 - sum_i m_i*E_i
(which translates to a plane class, see translate_to_plane).  All invariants
here are counts of rational curves in the class through c1 - 1 generic
points, where c1 is the pairing of the class with the anticanonical divisor;
the clients of this module only ever ask for index-zero classes (c1 = 1,
no points at all), and anything of nonzero index is defined to be 0.

The computation runs entirely over exact integers:

  * multiplicity 0 slots are dropped and multiplicity 1 slots are traded for
    one extra point constraint each, so the memo key is (d, multiplicities
    that are at least 2) with an implied point count 3d - 1 - sum(m);
  * classes that cannot contain a somewhere-injective rational curve give 0
    (negative multiplicity with positive degree, multiplicity exceeding the
    degree, or negative virtual double-point count);
  * classes with no deep multiplicities reduce to Kontsevich's recursion;
  * everything else is solved from the associativity (WDVV) relation of the
    quantum product, instantiated on the divisor quadruple (E, L, E, L)
    where E sits over the deepest multiplicity.  The relation expresses
    (d^2 - m_1^2) times the wanted count through counts with either smaller
    degree, fewer implied points, or fewer multiplicity slots;
  * index-zero classes with no points left are handled by the quadratic
    Cremona move while the three deepest multiplicities exceed the degree,
    and once the move no longer applies, by running the same associativity
    relation on the class plus one extra point at a multiplicity-2 slot,
    from which the stuck count is isolated.  The slot bookkeeping
    guarantees each step shrinks (degree, slot count, point count)
    lexicographically, so the recursion terminates.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import InconsistencyError
from .partitions import local_double_points

counters = {}


def _count(event):
    counters[event] = counters.get(event, 0) + 1


# ----------------------------------------------------------- plane curve counts

@lru_cache(maxsize=None, typed=True)
def kontsevich_count(d):
    """Number of rational plane curves of degree d through 3d-1 points.

    Kontsevich's recursion: N_1 = 1 and

        N_d = sum over d1 + d2 = d of N_{d1} N_{d2} d1^2 d2 *
              (d2 * binom(3d-4, 3d1-2) - d1 * binom(3d-4, 3d1-1)).

    A pure function of d, so it is cached here and never persisted.
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError("degree must be a positive integer, got %r" % (d,))
    _count("kontsevich_evals")
    if d == 1:
        return 1
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        total += (kontsevich_count(d1) * kontsevich_count(d2)
                  * d1 * d1 * d2
                  * (d2 * comb(3 * d - 4, 3 * d1 - 2)
                     - d1 * comb(3 * d - 4, 3 * d1 - 1)))
    return total


# ------------------------------------------------------------ class bookkeeping

def _check_space(space):
    if space not in ("cp2", "p1xp1"):
        raise ValueError("space must be 'cp2' or 'p1xp1', got %r" % (space,))


def chern_number(space, degree, mults=()):
    """Pairing of the class with the anticanonical divisor, c1(A)."""
    _check_space(space)
    if space == "cp2":
        return 3 * degree - sum(mults)
    a, b = degree
    return 2 * a + 2 * b - sum(mults)


def self_intersection(space, degree, mults=()):
    """Homological self-intersection number A . A."""
    _check_space(space)
    if space == "cp2":
        base = degree * degree
    else:
        a, b = degree
        base = 2 * a * b
    return base - sum(m * m for m in mults)


def double_point_count(space, degree, mults=()):
    """Nodes of an immersed rational curve in the class:
    (A.A - c1(A)) / 2 + 1 (adjunction)."""
    return (self_intersection(space, degree, mults)
            - chern_number(space, degree, mults)) // 2 + 1


def translate_to_plane(bidegree, mults=()):
    """Plane model of a blown-up P1 x P1 class.

    Blowing up P1 x P1 once gives the plane blown up twice; on homology the
    identification sends L1 to L - E1, L2 to L - E2.  A class of bidegree
    (a, b) with further multiplicities (m_1, ..., m_r) becomes degree a + b
    with multiplicities (b, a, m_1, ..., m_r).  Chern pairing and
    self-intersection are preserved.
    """
    a, b = bidegree
    return a + b, (b, a) + tuple(mults)


def descendant_average(d):
    """The comparison column of the tangency table: (3d-2)!/(d!)^3, exact."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return Fraction(factorial(3 * d - 2), factorial(d) ** 3)


def vanishing_filter(space, degree, diagram):
    """True when a single-point invariant is forced to vanish a priori.

    Two sources: the branch diagram alone forces more double points near its
    point than the whole class supports (delta(P) > delta(A)), or the class
    is a multiple of one ruling of P1 x P1 (bidegree (d, 0) with d > 1, which
    has no somewhere-injective representatives at all).  Never used as a
    shortcut: only the tests (test_consistency, test_gw) call it, to check
    computed values against it.
    """
    _check_space(space)
    if space == "p1xp1":
        a, b = degree
        if (b == 0 and a > 1) or (a == 0 and b > 1):
            return True
    return local_double_points(diagram) > double_point_count(space, degree)


# -------------------------------------------------- Cremona moves, exceptional

def cremona_move(degree, mults=()):
    """Quadratic Cremona move on the three deepest multiplicities.

    (d; m1, m2, m3, rest) maps to
    (2d - m1 - m2 - m3; d - m2 - m3, d - m1 - m3, d - m1 - m2, rest),
    acting on the three largest entries (padded with zeros if fewer are
    given) and re-sorting.  Chern pairing and self-intersection are
    preserved; entries of the result may be negative and are left for the
    caller to interpret.
    """
    m = sorted(mults, reverse=True)
    while len(m) < 3:
        m.append(0)
    m1, m2, m3 = m[:3]
    d = degree
    new = [d - m2 - m3, d - m1 - m3, d - m1 - m2]
    return (2 * d - m1 - m2 - m3,
            tuple(sorted(new + m[3:], reverse=True)))


def is_exceptional(degree, mults=(), max_steps=200):
    """Whether the class is that of an exceptional sphere (count always 1).

    Requires self-intersection -1 and Chern pairing 1, then tries to reduce
    the class to a single blowup generator E_i by repeated Cremona moves.
    The reduction is bounded at max_steps; a class that is still unresolved
    then is reported False (undetermined) rather than guessed at.
    """
    if chern_number("cp2", degree, mults) != 1:
        return False
    if self_intersection("cp2", degree, mults) != -1:
        return False
    d, m = degree, tuple(mults)
    for _ in range(max_steps):
        if d < 0:
            return False
        if d == 0:
            return m.count(-1) == 1 and all(x in (0, -1) for x in m)
        top = sorted(m, reverse=True)[:3]
        while len(top) < 3:
            top.append(0)
        if sum(top) <= d:
            return False
        _count("cremona_steps")
        d, m = cremona_move(d, m)
    return False


# ------------------------------------------------------------ blowup invariants

_values = {}  # canonical (d, deep multiplicities) -> integer invariant


def gw_blowup(degree, mults=()):
    """Genus-zero count for the plane class d*L - sum m_i E_i, index zero.

    Defined (nonzero) only for classes with Chern pairing 1; anything of
    nonzero index returns 0 by convention.  Degree and multiplicities must
    be nonnegative integers.
    """
    mults = tuple(mults)
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise ValueError("degree must be a nonnegative integer, got %r"
                         % (degree,))
    for m in mults:
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise ValueError("multiplicities must be nonnegative integers, "
                             "got %r" % (m,))
    _count("gw_queries")
    if chern_number("cp2", degree, mults) != 1:
        return 0
    return _value(degree, mults)


def _value(d, mults):
    """The count for d*L - sum m_i E_i through c1 - 1 generic points.

    Internal work-horse; accepts arbitrary integer multiplicities (splitting
    terms produce negative ones) and folds the class to its canonical key.
    """
    if d < 0:
        return 0
    if d == 0:
        # Only the blowup generators E_i survive among degree-0 classes.
        return 1 if (mults.count(-1) == 1
                     and all(m in (0, -1) for m in mults)) else 0
    for m in mults:
        if m < 0 or m > d:
            return 0
    if 3 * d - sum(mults) - 1 < 0:  # negative index, no valid point count
        return 0
    deep = tuple(sorted((m for m in mults if m >= 2), reverse=True))
    if not deep:
        return kontsevich_count(d)
    key = (d, deep)
    if key in _values:
        _count("gw_memo_hits")
        return _values[key]
    sq = sum(m * m for m in deep)
    tot = sum(deep)
    if (d * d - sq - (3 * d - tot)) // 2 + 1 < 0:  # adjunction: no curves
        _values[key] = 0
        return 0
    npts = 3 * d - tot - 1
    if npts > 0:
        value = _wdvv_solve(d, deep, npts)
    elif d * d - sq == -1 and is_exceptional(d, deep):
        _count("gw_exceptional")
        value = 1
    elif sum(deep[:3]) > d:
        _count("gw_cremona_reductions")
        nd, nm = cremona_move(d, deep)
        value = _value(nd, nm)
    elif deep[-1] == 2:
        value = _point_free_solve(d, deep)
    else:
        raise InconsistencyError(
            "no reduction applies to the point-free class (%d; %s)"
            % (d, ",".join(map(str, deep))))
    _values[key] = value
    return value


def _wdvv_solve(d, m, npts):
    """Solve the associativity relation for the class (d; m), npts >= 1.

    The relation comes from the four divisors (E, L, E, L) with E over the
    deepest multiplicity m_1 and n = npts - 1 extra point insertions.  Its
    classical part multiplies the wanted count by d^2 - m_1^2 (nonzero:
    m_1 = d dies in the adjunction filter), the only surviving
    degree-preserving boundary term moves one point onto the E-slot, and
    the remaining terms factor over splittings into two lower-degree
    classes.
    """
    _count("gw_wdvv_solves")
    n = npts - 1
    bumped = (m[0] + 1,) + m[1:]
    known = -d * d * (m[0] + 1) * _value(d, bumped)
    known += _split_sum(d, m, n, 0)
    coeff = d * d - m[0] * m[0]
    if coeff <= 0:
        raise InconsistencyError(
            "degenerate relation for class (%d; %s)" % (d, m))
    value = Fraction(-known, coeff)
    if value.denominator != 1:
        raise InconsistencyError(
            "associativity relation gave non-integer %s for (%d; %s)"
            % (value, d, m))
    return int(value)


def _point_free_solve(d, m):
    """Isolate a point-free count from the relation for the class plus a point.

    For an index-zero class X = (d; m) with a multiplicity-2 slot, run the
    same associativity relation for the class X' = X - E at that slot (one
    multiplicity lowered to 1, hence one generic point and n = 0).  In that
    relation the term moving the point back onto the slot is 2 d^2 times
    the count for X, while every other term involves either the class with
    the slot dropped entirely or smaller degrees.
    """
    _count("gw_point_free_solves")
    slot = len(m) - 1  # deepest-sorted, so the trailing slot is the 2
    lowered = m[:-1] + (1,)
    known = (d * d - 1) * _value(d, m[:-1])
    known += _split_sum(d, lowered, 0, slot)
    value = Fraction(known, 2 * d * d)
    if value.denominator != 1:
        raise InconsistencyError(
            "point-free reduction gave non-integer %s for (%d; %s)"
            % (value, d, m))
    return int(value)


def _split_sum(d, m, n, slot):
    """Sum of the two-piece boundary terms of the associativity relation.

    Enumerates splittings (d; m) = (d1; a) + (d2; m - a) with both degrees
    positive, the slot entry of a positive (other boundary terms vanish),
    and the point allocation n1 = 3*d1 - 1 - sum(a) between 0 and n.  Each
    term contributes

        binom(n, n1) * (pairing of the two pieces) * bracket * count1 * count2

    where the bracket collects the four divisor pairings of the relation.
    """
    s = len(m)
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        lo = [max(0, mi - d2) for mi in m]
        hi = [min(mi, d1) for mi in m]
        lo[slot] = max(lo[slot], 1)
        if any(l > h for l, h in zip(lo, hi)):
            continue
        # Required total of a: 3*d1 - 1 - n <= sum(a) <= 3*d1 - 1.
        band_lo = 3 * d1 - 1 - n
        band_hi = 3 * d1 - 1
        suf_lo = [0] * (s + 1)
        suf_hi = [0] * (s + 1)
        for i in range(s - 1, -1, -1):
            suf_lo[i] = suf_lo[i + 1] + lo[i]
            suf_hi[i] = suf_hi[i + 1] + hi[i]
        if suf_hi[0] < band_lo or suf_lo[0] > band_hi:
            continue
        a = [0] * s

        # Depth-first walk over slot values with running-total pruning.
        def walk(idx, acc):
            nonlocal total
            if idx == s:
                n1 = band_hi - acc
                c1 = _value(d1, tuple(a))
                if not c1:
                    return
                c2 = _value(d2, tuple(mi - ai for mi, ai in zip(m, a)))
                if not c2:
                    return
                asl = a[slot]
                bracket = (asl * d1 * (m[slot] - asl) * d2
                           - asl * asl * d2 * d2)
                if not bracket:
                    return
                pairing = d1 * d2 - sum(ai * (mi - ai)
                                        for mi, ai in zip(m, a))
                total += comb(n, n1) * pairing * bracket * c1 * c2
                return
            for ai in range(lo[idx], hi[idx] + 1):
                nxt = acc + ai
                if nxt + suf_hi[idx + 1] < band_lo:
                    continue
                if nxt + suf_lo[idx + 1] > band_hi:
                    break
                a[idx] = ai
                walk(idx + 1, nxt)

        walk(0, 0)
    return total


# --------------------------------------------------------------- cache support

def memo_items():
    """Snapshot of the memoized blowup invariants as (key text, value) pairs.

    Keys read "d;m1,m2,..." with the retained multiplicities (all >= 2).
    Nothing in the package calls this or persists the memo: every value
    here was computed in this process.  It exists so that benchmarks and
    tests can count the memo.
    """
    for (d, deep), value in _values.items():
        yield "%d;%s" % (d, ",".join(map(str, deep))), value


def reset():
    """Drop all memoized invariants and counters (for tests and cold runs)."""
    _values.clear()
    counters.clear()
    kontsevich_count.cache_clear()
