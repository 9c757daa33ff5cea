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
    degree, or the adjunction bound sum m_i(m_i - 1) > (d - 1)(d - 2));
  * classes with no deep multiplicities reduce to Kontsevich's recursion;
  * everything else is solved from the associativity (WDVV) relation of the
    quantum product, instantiated on the divisor quadruple (E, L, E, L)
    where E sits over one slot s (see _relation).  It ties the count for
    (d; m) to the count with m_s one higher, through counts of smaller
    degree.  Its sum over splittings is invariant under permuting equal
    multiplicities, so it visits one splitting per orbit, weighted by the
    orbit's size, and none with a piece past the adjunction bound;
  * a class with free points solves the relation at its deepest slot.  A
    point-free class (index zero, no points left) takes the quadratic
    Cremona move, repeated while the three deepest multiplicities exceed
    the degree (an exceptional class ends at a generator E_i, which counts
    1); otherwise it is the higher count in the relation of the class with
    its shallowest slot lowered by one.  _value says why the recursion
    ends.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial

from .errors import InconsistencyError

counters = Counter()


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

def degree_entries(space, degree):
    """The entries of a degree: (d,) on cp2, (a, b) on p1xp1.

    The one check of a space and a degree: a plain nonnegative int on cp2,
    a tuple of two on p1xp1.  Every public entry point asks for it, through
    chern_number, before any work.
    """
    if space not in ("cp2", "p1xp1"):
        raise ValueError("space must be 'cp2' or 'p1xp1', got %r" % (space,))
    plane = space == "cp2"
    sizes = (degree,) if plane else degree
    if not (type(sizes) is tuple and len(sizes) == (1 if plane else 2)
            and all(type(n) is int and n >= 0 for n in sizes)):
        raise ValueError("degree on %s must be %s, got %r" % (
            space, "a nonnegative integer" if plane
            else "a pair of nonnegative integers", degree))
    return sizes


def chern_number(space, degree, mults=()):
    """Pairing of the class with the anticanonical divisor, c1(A)."""
    sizes = degree_entries(space, degree)
    return (3 if space == "cp2" else 2) * sum(sizes) - sum(mults)


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


def double_points(d, mults=()):
    """The double points of a rational curve in the plane class (d; m),
    (A.A - c1(A))/2 + 1 by adjunction: (d - 1)(d - 2)/2 less
    m_i(m_i - 1)/2 per point.  Negative: no such curve is
    somewhere-injective."""
    return ((d - 1) * (d - 2) - sum(m * (m - 1) for m in mults)) // 2


def descendant_average(d):
    """The comparison column of the tangency table: (3d-2)!/(d!)^3, exact."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return Fraction(factorial(3 * d - 2), factorial(d) ** 3)


# ------------------------------------------------------------- Cremona moves

def cremona_move(degree, mults=()):
    """Quadratic Cremona move on the three deepest multiplicities.

    (d; m1, m2, m3, rest) maps to
    (2d - m1 - m2 - m3; d - m2 - m3, d - m1 - m3, d - m1 - m2, rest),
    acting on the three largest entries (padded with zeros if fewer are
    given) and re-sorting.  Chern pairing and self-intersection are
    preserved; entries of the result may be negative and are left for the
    caller to interpret.
    """
    m = sorted(mults, reverse=True) + [0] * (3 - len(mults))
    m1, m2, m3 = m[:3]
    d = degree
    new = [d - m2 - m3, d - m1 - m3, d - m1 - m2]
    return (2 * d - m1 - m2 - m3,
            tuple(sorted(new + m[3:], reverse=True)))


# ------------------------------------------------------------ blowup invariants

_values = {}  # canonical (d, deep multiplicities) -> integer invariant


def gw_blowup(degree, mults=()):
    """Genus-zero count for the plane class d*L - sum m_i E_i, index zero.

    Defined (nonzero) only for classes with Chern pairing 1; anything of
    nonzero index returns 0 by convention.  Degree and multiplicities must
    be nonnegative integers (degree_entries checks the degree).
    """
    mults = tuple(mults)
    for m in mults:
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise ValueError("multiplicities must be nonnegative integers, "
                             "got %r" % (m,))
    c1 = chern_number("cp2", degree, mults)
    return _value(degree, mults) if c1 == 1 else 0


def _value(d, mults):
    """The count for d*L - sum m_i E_i through c1 - 1 generic points.

    Internal work-horse; accepts arbitrary integer multiplicities (a
    Cremona move can make entries negative) and folds the class to its
    canonical key.  Every caller passes a class of index c1 - 1 >= 0:
    gw_blowup asks for c1 = 1, _relation's given class has index n or 1,
    the split pieces have n1 and n - n1 >= 0 points, and Cremona moves
    keep c1.

    No caller passes d < 0.  gw_blowup refuses one, _relation passes its
    own d >= 1 and the split pieces have d1, d2 >= 1.  A Cremona move from
    (d; m) with d >= 1 gives 2d - (m1 + m2 + m3) >= 0: the move keeps
    d^2 - sum m^2, which the adjunction test run first bounds below by -1
    (sum m = 3d - 1 and sum m(m - 1) <= (d - 1)(d - 2)), at every step.
    If m1 + m2 + m3 were above 2d, Cauchy-Schwarz would give
    sum m^2 > 4d^2/3, so d^2 - sum m^2 < -1 for d >= 2; for d = 1,
    sum m^2 <= 2 already gives m1 + m2 + m3 <= 2.

    A class with npts >= 1 free points solves the relation at its deepest
    slot with n = npts - 1 (m_1 = d died in the adjunction filter, so
    _relation's a > 0).  A point-free class X = (d; m) is solved from the
    relation of X - E_s, s the shallowest slot: that class has one free
    point, so n = 0.

    The recursion ends.  X - E_s is a WDVV solve that bumps its deepest
    slot, giving the point-free class X - E_s + E_1, whose sum m^2 is larger
    by 2(m_1 - m_s) + 2 >= 2; every other class asked for has smaller
    degree.  At one degree sum m = 3d - 1 and adjunction bounds sum m^2 by
    d^2 + 1, so the chain of point-free classes is finite.
    """
    if d == 0:
        # Only the blowup generators E_i survive among degree-0 classes.
        return 1 if (mults.count(-1) == 1
                     and all(m in (0, -1) for m in mults)) else 0
    for m in mults:
        if m < 0 or m > d:
            return 0
    deep = tuple(sorted((m for m in mults if m >= 2), reverse=True))
    if not deep:
        return kontsevich_count(d)
    key = (d, deep)
    if key in _values:
        counters["gw_memo_hits"] += 1
        return _values[key]
    if double_points(d, deep) < 0:  # adjunction
        _values[key] = 0
        return 0
    npts = 3 * d - sum(deep) - 1
    if npts > 0:
        counters["gw_wdvv_solves"] += 1
        value = _relation(d, deep, npts - 1, 0, bumped_unknown=False)
    elif sum(deep[:3]) > d:
        nd, nm = d, deep  # each move lowers the degree, so the loop ends
        while nd > 0 and sum(nm[:3]) > nd:
            counters["gw_cremona_reductions"] += 1
            nd, nm = cremona_move(nd, nm)
        value = _value(nd, nm)
    else:
        counters["gw_point_free_solves"] += 1
        s = len(deep) - 1  # deepest-sorted: the trailing slot is shallowest
        value = _relation(d, deep[:s] + (deep[s] - 1,), 0, s,
                          bumped_unknown=True)
    _values[key] = value
    return value


def _relation(d, m, n, s, bumped_unknown):
    """Solve the (E, L, E, L) relation, E over slot s of (d; m) with n extra
    points, for N(d; m + e_s) if bumped_unknown, else for N(d; m):

        a N(d; m) + b N(d; m + e_s) + known = 0,
        a = d^2 - m_s^2,  b = -d^2 (m_s + 1),  known = _split_sum(d, m, n, s).

    a is the classical part, b the one degree-preserving boundary term
    (a point moved onto the E-slot), known the splittings into two pieces.

    No caller divides by 0.  The WDVV solve divides by a at the deepest
    slot, where m_0 < d: a class with m_0 = d >= 2 has sum m(m - 1) >=
    d(d - 1) > (d - 1)(d - 2), so it fails _value's adjunction filter
    first.  The point-free solve divides by b = -d^2 (m_s + 1) < 0.
    """
    bumped = m[:s] + (m[s] + 1,) + m[s + 1:]
    a, b = d * d - m[s] * m[s], -d * d * (m[s] + 1)
    coeff, unknown, other, given = ((b, bumped, a, m) if bumped_unknown
                                    else (a, m, b, bumped))
    known = other * _value(d, given) + _split_sum(d, m, n, s)
    if known % coeff:
        raise InconsistencyError(
            "associativity relation gave non-integer %s for (%d; %s)"
            % (Fraction(-known, coeff), d, ",".join(map(str, unknown))))
    return -known // coeff


def _split_sum(d, m, n, slot):
    """Sum of the two-piece boundary terms of the associativity relation.

    Enumerates splittings (d; m) = (d1; a) + (d2; m - a) with both degrees
    positive, the slot entry of a positive (other boundary terms vanish),
    and the point allocation n1 = 3*d1 - 1 - sum(a) between 0 and n.  Each
    term contributes

        binom(n, n1) * (pairing of the two pieces) * bracket * count1 * count2

    where the bracket collects the four divisor pairings of the relation.
    A term is unchanged when a is permuted over a run of equal entries of m
    off the slot, so a is walked non-increasing within each run and each
    term weighted by its orbit size, the product over runs of the
    multinomial c! / prod(t!) of the run's length c and value repeats t.

    Terms with a piece past the adjunction bound are 0, and the walk cuts
    them early: each a_i adds a_i(a_i - 1) >= 0 to the first piece's sum,
    more as a_i grows, and (m_i - a_i)(m_i - a_i - 1) >= 0 to the second's,
    less as a_i grows, so a partial sum past its bound stays past it.
    """
    s = len(m)
    # tied[i]: entry i continues a run of equal multiplicities off the slot
    tied = [0 < i and slot not in (i - 1, i) and m[i] == m[i - 1]
            for i in range(s)]
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        lo = [max(0, mi - d2) for mi in m]
        hi = [min(mi, d1) for mi in m]
        lo[slot] = max(lo[slot], 1)
        # Required total of a: 3*d1 - 1 - n <= sum(a) <= 3*d1 - 1.
        band_lo = 3 * d1 - 1 - n
        band_hi = 3 * d1 - 1
        suf_lo = [*accumulate(reversed(lo), initial=0)][::-1]
        suf_hi = [*accumulate(reversed(hi), initial=0)][::-1]
        genus1, genus2 = (d1 - 1) * (d1 - 2), (d2 - 1) * (d2 - 2)
        a = [0] * s

        # Depth-first walk over slot values with running-total pruning; g1
        # and g2 are the adjunction sums of a[:idx] and (m - a)[:idx], orbit
        # is the orbit size of a[:idx], run and tie are the position of
        # a[idx - 1] in its run and how often it repeats at the run's end.
        def walk(idx, acc, g1, g2, orbit, run, tie):
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
                pairing = d1 * d2 - sum(ai * (mi - ai)
                                        for mi, ai in zip(m, a))
                total += orbit * comb(n, n1) * pairing * bracket * c1 * c2
                return
            # inside a run a is non-increasing: a[idx] <= a[idx - 1]
            top, run = (a[idx - 1], run + 1) if tied[idx] else (hi[idx], 1)
            mi = m[idx]
            for ai in range(lo[idx], top + 1):
                nxt = acc + ai
                if nxt + suf_hi[idx + 1] < band_lo:
                    continue
                if nxt + suf_lo[idx + 1] > band_hi:
                    break
                h1 = g1 + ai * (ai - 1)
                if h1 > genus1:
                    break
                h2 = g2 + (mi - ai) * (mi - ai - 1)
                if h2 > genus2:
                    continue
                a[idx] = ai
                t = tie + 1 if tied[idx] and ai == top else 1
                walk(idx + 1, nxt, h1, h2, orbit * run // t, run, t)

        walk(0, 0, 0, 0, 1, 0, 0)
    walk = None  # walk holds itself through its cell: free it now, not at gc
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
