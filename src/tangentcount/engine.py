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
    weight k at that point simultaneously, memoized as one vector.

A third case answers a key without a solve.  By adjunction a
somewhere-injective rational curve in class A has
delta(A) = (A.A - c1(A))/2 + 1 double points, counted with multiplicity:
(d - 1)(d - 2)/2 on cp2 and (a - 1)(b - 1) for bidegree (a, b), the
plane class of degree a + b with points of multiplicity b and a
(translate_to_plane).  Two branches with contact orders p >= q at one
point of the local divisor meet at least q times there, so a diagram P
(rows descending) forces sum_i i * P_i double points at its point, the
(1^b) of a b-fold point b(b - 1)/2.  The points of a key are distinct, so
these local counts add, and a key whose sum exceeds delta(A) is counted by
no curve: its invariant is 0 (McDuff-Siegel's vanishing argument).  On an
all-ones key this is the blowup recursion's own adjunction filter.  A
ruling (a, 0) has delta = 1 - a: negative for a > 1, so every key of such
a multiple fiber class vanishes, as such a class has no somewhere-injective
curve; for (1, 0) it is 0, so the line meets each point in one branch.
hat_invariant answers an asked key past the budget with 0 as it answers an
off-shell one.  A solve beside rest leaves the rule to its closure
(matrices.solve_closure): a diagram forcing more than left, what rest
leaves of the budget, has invariant 0 there, so the solve reads the rows of
the unknowns left nonzero, one row that closes the loop, and (1,)*k only
if it forces at most left.  No input it reads is past left.

Termination is governed by the complexity rank (level, count): the maximal
weight of a constraint containing a branch of order >= 2, and how many
constraints realize it.  Every recursive call strictly decreases the rank
lexicographically.  The engine has one method per case: _base answers an
all-ones key, and _solve_at one solve, which resolves each input key it
reads itself: an all-ones key by _base, any other read from a vector that
holds it, else solved in place beside the key less its top level code,
after a runtime check that its rank is below the solve's.  A public key
is resolved the same way, so every frame between it and a base case is a
_solve_at.  Neither keeps a base case: the blowup memo, shared by all
engines, answers it again.

Inside the engine a diagram of weight w is one int, its code:
w << 21 | j, j its index in partition_list(w), so (1,)*w codes as w << 21
and codes with a branch >= 2 have j > 0.  Descending codes are the
canonical key order, a key is a descending tuple of codes, and code c is
entry (c & _MASK) - 1 of a weight-k solve vector.  A weight's diagrams are
listed (by partition_list, as its solve_plan lists them) once one with a
branch >= 2 is coded; a weight of 2^21 diagrams or more, from 66 on, is
refused with MemoryError before j could reach the weight bits.

The memo holds each solve's vector under the _key of its rest: each code
met has a prime of its own, and a multiset of codes is keyed by the
product of their primes, which by unique factorization names it exactly
and in any order.  Listing weight k gives a prime to each of its codes
with a branch >= 2, in code order, and _code one to an all-ones code the
first time it meets it (_prime), so an all-ones key of any weight gives
out one prime.
An input a solve reads is held beside rest with a code taken out and the
input's codes put in, so its key is one multiplication by a product
_solve_inputs keeps, and a read that hits sorts nothing.  A product
cannot be factored cheaply, so a vector carries its rest: the values at
their slots, then rest's codes, then their count.
"""

from array import array
from collections import defaultdict
from functools import lru_cache
from itertools import compress
from math import factorial, isqrt, prod

from . import gw
from .errors import InconsistencyError
from .matrices import packed, solve_closure, solve_split_system
from .partitions import (as_diagram, aut_order, diagram_text, multinomial,
                         nodes, partition_list, partitions_of)


def canonical_constraints(constraints):
    """Sort a collection of diagrams into the canonical key order:
    heaviest first, and within one weight the larger diagram first."""
    cs = tuple(as_diagram(c) for c in constraints)
    if any(not c for c in cs):
        raise ValueError("empty constraint diagram")
    return tuple(sorted(cs, key=lambda c: (sum(c), c), reverse=True))


def _rank(codes):
    """The complexity rank (level, count) of the codes of a key, from the
    weight c >> 21 of each code c with a branch >= 2 (c & _MASK nonzero).
    The level is the largest such weight (1 when there is none, the
    all-ones case), the count how many codes have it."""
    levels = [c >> 21 for c in codes if c & _MASK]
    top = max(levels, default=1)
    return top, levels.count(top)


_MASK = (1 << 21) - 1  # c & _MASK: code c's index in its weight's list
_prime = {}  # code -> prime, for each code listed or met
_primes = array("Q", [2])  # the primes below a bound, given out in order


def _issue():
    """The next prime of _primes no code has, as they are given out in
    order, one per code in _prime.  Once each prime there is given out,
    _primes is sieved afresh up to twice its largest (Bertrand: one more
    at least), so it stays below twice the largest one given."""
    n = len(_prime)
    if n == len(_primes):
        limit = 2 * _primes[-1]
        sieve = bytearray([1]) * limit
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
        _primes[:] = array("Q", compress(range(2, limit), sieve[2:]))
    return _primes[n]


@lru_cache(maxsize=None)
def _listed(k):
    """{diagram: code} over weight k's diagrams but (1,)*k, each code
    given a prime in code order.  Listing a weight costs far less than
    its solve_plan.  Raises MemoryError for a weight of 2^21 diagrams or
    more, whose indices would spill into the weight bits."""
    parts = partition_list(k)
    if len(parts) > _MASK:
        raise MemoryError("weight %d has too many diagrams to code" % k)
    codes = {q: k << 21 | j for j, q in enumerate(parts) if j}
    for c in codes.values():
        _prime[c] = _issue()
    return codes


def _code(q):
    """The code of a valid diagram."""
    if q[0] != 1:
        return _listed(sum(q))[q]
    c = len(q) << 21
    if c not in _prime:
        _prime[c] = _issue()
    return c


@lru_cache(maxsize=None)
def _diagram(c):
    """The diagram of a code."""
    w, j = c >> 21, c & _MASK
    return partition_list(w)[j] if j else (1,) * w


@lru_cache(maxsize=None)
def _text(c):
    """The printed diagram of a code."""
    return diagram_text(_diagram(c))


def _plane(space, degree, sizes=()):
    """The plane class (d, mults) of the class with points of
    multiplicities sizes: itself on cp2, translate_to_plane's on p1xp1."""
    return (gw.translate_to_plane(degree, sizes) if space == "p1xp1"
            else (degree, sizes))


@lru_cache(maxsize=None)
def _budget(space, degree):
    """The double points of a rational curve in the class: those of its
    plane class, gw.double_points."""
    return gw.double_points(*_plane(space, degree))


@lru_cache(maxsize=None)
def _solve_inputs(k):
    """Per input a weight-k solve may read beside rest, indexed as
    solve_closure reads them (the split (top row, rest) of each row's
    diagram, then (1,)*k): its codes, top level code first (the largest
    with c & _MASK nonzero), that code's slot (None if none), and the _key
    of its codes and of codes[1:]."""
    pairs = [((y[0],), y[1:]) for y in partition_list(k)[:-1]]
    inputs = [tuple(sorted(map(_code, pair), reverse=True,
                           key=lambda c: (c & _MASK > 0, c)))
              for pair in (*pairs, ((1,) * k,))]
    return tuple((codes, (codes[0] & _MASK) - 1
                  if codes[0] & _MASK else None, _key(codes),
                  _key(codes[1:])) for codes in inputs)


@lru_cache(maxsize=None)
def _reads(k, left):
    """The closure of a weight-k solve beside a rest that leaves left
    double points, and the _solve_inputs it reads, in its order."""
    closure, inputs = solve_closure(k, left), _solve_inputs(k)
    return closure, tuple(map(inputs.__getitem__, closure.reads))


@lru_cache(maxsize=None)
def _nodes(c):
    """The double points a code's diagram forces."""
    return nodes(_diagram(c))


def _left(space, degree, rest):
    """What the codes rest leave of the class's _budget, read as one
    cached count per code."""
    return _budget(space, degree) - sum(map(_nodes, rest))


def _key(codes):
    """The memo key of a multiset of codes: the product of their primes,
    which names the multiset in any order (unique factorization).  Every
    code met has one: from its weight's _listed, or from _code if it is
    all-ones."""
    return prod(map(_prime.__getitem__, codes))


def _decoded(key):  # (space, degree, codes) -> (space, degree, diagrams)
    return key[:2] + (tuple(map(_diagram, key[2])),)


class Engine:
    """Memoizing evaluator for tangency invariants over one process.

    The memo keeps one vector per solve; a key of level k is answered by
    the first weight-k vector holding it (_held), and an all-ones key by
    the blowup memo (_base).
    A vector is the solve's list, in solve_plan(k).parts[1:] order, then
    the codes of its rest and their count, packed into the narrowest int
    array that holds it (a tuple past int64), and kept under _key(rest).
    Instances share only the diagram codes and the blowup backend memo,
    both pure functions of their keys, so results are independent of
    evaluation order.  ``stored.get`` answers key text (encode_key) with
    hat-H records kept outside the engine, as the Records of a cache file
    whose digest matches do.  A record answers, as stored and counted as a memo
    hit, a key hat_invariant is asked for, but never a key of the
    recursion, so nothing read from it enters a solve or the memo.
    """

    def __init__(self):
        # {(space, degree): {_key(rest): vector}}
        self._vectors = defaultdict(dict)
        self.stored = {}
        self.counters = {"evaluations": 0, "solves": 0, "base_cases": 0,
                         "memo_hits": 0, "adjunction_zeros": 0}

    # ------------------------------------------------------------- public API

    def hat_invariant(self, space, degree, constraints):
        """The ordered-branch invariant hat-H for the given key (0 off-shell
        or past the adjunction budget): its record in stored if there is
        one, else a base case for an all-ones key, else read from the
        vector _held finds or solved beside the key less its top level
        code."""
        cs = canonical_constraints(constraints)
        if sum(map(sum, cs)) != gw.chern_number(space, degree) - 1:
            return 0
        if sum(map(nodes, cs)) > _budget(space, degree):
            self.counters["adjunction_zeros"] += 1
            return 0
        hit = self.stored.get(encode_key(space, degree, cs))
        if hit is None:
            key = tuple(map(_code, cs))
            k, count = _rank(key)
            if k == 1:
                return self._base(space, degree, key)
            whole = _key(key)
            hit = self._held(space, degree, key, whole, k)
        if hit is not None:
            self.counters["memo_hits"] += 1
            return hit
        self.counters["evaluations"] += 1
        i = next(i for i, c in enumerate(key) if c & _MASK)
        return self._solve_at(space, degree, key[:i] + key[i + 1:], (k, count),
                              whole // _prime[key[i]])[(key[i] & _MASK) - 1]

    def invariant(self, space, degree, constraints):
        """The curve count N: hat-H divided by the branch-reordering groups."""
        cs = tuple(map(tuple, constraints))  # hat_invariant canonicalises
        hat = self.hat_invariant(space, degree, cs)
        auts = prod(aut_order(c) for c in cs)
        if hat % auts:
            raise InconsistencyError(
                "hat invariant %d not divisible by %d for %s"
                % (hat, auts, (space, degree, cs)))
        return hat // auts

    def sum_identity(self, space, degree):
        """Both sides of the point-constraint identity: the count through
        c1 - 1 generic points versus sum of P! * N<P> over all diagrams P
        of weight c1 - 1.  Returns (point count, weighted sum)."""
        lhs = self.invariant(space, degree,
                             ((1,),) * (gw.chern_number(space, degree) - 1))
        return lhs, sum(multinomial(p) * n for p, n in
                        self.full_table(space, degree).items())

    def full_table(self, space, degree):
        """The nonzero single-point invariants of the class: {P: N<P>} over
        diagrams P of the on-shell weight."""
        m = gw.chern_number(space, degree) - 1
        if m < 1:
            raise ValueError("class must have chern number >= 2")
        values = {p: self.invariant(space, degree, (p,))
                  for p in partitions_of(m)}
        return {p: n for p, n in values.items() if n}

    # ------------------------------------------------------------- internals

    def _held(self, space, degree, cs, whole, k):
        """The value from the first weight-k vector, in target order,
        holding the key of level k whose _key is whole, else None; a
        vector's targets are its codes between k << 21, that of (1,)*k,
        and (k + 1) << 21: those of weight k with c & _MASK nonzero.  It
        tries the targets among the descending codes cs, the key's or some
        of them, probing the vector beside the key less c at
        whole // _prime[c].  All holders of a key agree, as _solve_at alone
        stores a vector and first checks each value against the holders
        stored: checking against this one checks all."""
        lo, hi = k << 21, (k + 1) << 21
        vectors = self._vectors[space, degree]
        for c in cs:
            if c <= lo:
                break
            if c < hi:
                vector = vectors.get(whole // _prime[c])
                if vector is not None:
                    return vector[(c & _MASK) - 1]
        return None

    def _base(self, space, degree, cs):
        """hat-H of the all-ones coded key cs: one evaluation and one base
        case, whose count the blowup memo keeps.  Branch orders are 1
        everywhere, so the count is a blowup invariant with one
        multiplicity-b_i point per constraint, times b_i! for the ordered
        branches."""
        self.counters["evaluations"] += 1
        self.counters["base_cases"] += 1
        sizes = tuple(len(_diagram(c)) for c in cs)
        return prod(map(factorial, sizes)) * gw.gw_blowup(
            *_plane(space, degree, sizes))

    def _solve_at(self, space, degree, rest, rank, pk):
        """One box-moving solve at weight k = rank[0]: hat-H for every
        diagram of weight k beside rest, whose _key is pk (the caller has
        it from its own probe), indexed like solve_plan(k).parts[1:], each
        value its closure does not set to 0 checked against the vector
        _held finds for its key among rest's codes, unsorted (rest's own
        vector, probed if rest holds the target, is not stored yet).  It
        reads the inputs _reads lists for _left(rest), what rest leaves of
        the budget, and counts each read that neither _base nor an in-place
        solve answers as one memo hit, all at once after the loop.  An
        input with a level code is read from the vector _held tries first,
        near: beside its key less the top level code (rest's top t, or the
        input's if larger), probed at pk times the product of the input's
        codes after its top, or at pk less t's prime times all of them.
        Only a miss sorts the key.  If near is missing and the key has
        another code of that weight, _held tries the key's holders in turn,
        near again among them.  If none holds it, near is solved here, at
        the key's _rank (top's level once if others has no code of it),
        which must be below rank.  An all-ones input goes to _base."""
        k, vectors, values, own = rank[0], self._vectors[space, degree], [], 0
        t = next(filter(_MASK.__and__, rest), 0)  # 0: none
        if t:
            i = rest.index(t)
            rest_t, slot_t = rest[:i] + rest[i + 1:], (t & _MASK) - 1
            pk_t = pk // _prime[t]
        closure, reads = _reads(k, _left(space, degree, rest))
        for codes, slot, whole, tail in reads:
            if slot is not None and codes[0] > t:
                top, key = codes[0], pk * tail
            elif t:
                top, slot, key = t, slot_t, pk_t * whole
            else:  # an all-ones key
                own += 1
                values.append(self._base(space, degree, tuple(sorted(
                    rest + codes, reverse=True))))
                continue
            vector = vectors.get(key)
            if vector is not None:
                values.append(vector[slot])
                continue
            w = top >> 21  # another level-w code would be in others
            others = ((t, *codes[1:]) if top > t
                      else (*rest_t[i:i + 1], codes[0]))
            lower = w, 1
            lo, hi = w << 21, (w + 1) << 21  # others has one or two codes
            if lo < others[0] < hi or lo < others[-1] < hi:
                cs = tuple(sorted(rest + codes, reverse=True))
                value = self._held(space, degree, cs, pk * whole, w)
                if value is not None:
                    values.append(value)
                    continue
                lower = _rank(cs)
            own += 1
            self.counters["evaluations"] += 1
            if not lower < rank:
                at = space, degree, tuple(sorted(rest + codes, reverse=True))
                raise InconsistencyError(
                    "complexity failed to decrease: %s -> %s at %s"
                    % (rank, lower, _decoded(at)))
            values.append(self._solve_at(space, degree, tuple(sorted(
                rest + codes[1:] if top > t else rest_t + codes,
                reverse=True)), lower, key)[slot])
        self.counters["memo_hits"] += len(values) - own
        solved = solve_split_system(k, closure, values)
        self.counters["solves"] += 1
        if rank[1] > 1:  # else no other vector holds a key
            for j in closure.live:  # a target past left is 0 at every holder
                q, value = k << 21 | (j + 1), solved[j]
                old = self._held(space, degree, rest, pk * _prime[q], k)
                if old not in (None, value):
                    at = tuple(sorted(rest + (q,), reverse=True))
                    raise InconsistencyError(
                        "conflicting values %d and %d for %s"
                        % (old, value, _decoded((space, degree, at))))
        vectors[pk] = packed([*solved, *rest, len(rest)])
        return solved

    # --------------------------------------------------------- cache plumbing

    def memo_items(self):
        """Each memoized key inside the adjunction budget once, as (key
        text, value) pairs: a vector yields only the live unknowns of the
        closure its solve used, as a key past the budget is answered by
        hat_invariant before stored.  A key inside the budget is live in
        every vector holding it, since each holder's rest leaves at least
        what the key's target forces; it is yielded by the vector _held
        finds for it, so only vectors beside rest's own larger targets can
        come first.  A vector's rest is read off its suffix, and its key
        texts share the text of rest around the target's."""
        for (space, degree), vectors in self._vectors.items():
            on_shell = gw.chern_number(space, degree) - 1
            head = encode_key(space, degree, ())
            for pk, vector in vectors.items():
                rest = tuple(vector[-1 - vector[-1]:-1])
                k = on_shell - sum(map(sum, map(_diagram, rest)))
                lo, hi = k << 21, (k + 1) << 21
                # rest (descending) is: codes above every target, its own
                # targets, then codes at or below (1,)*k; target q's text
                # goes after the codes of rest above q
                targets = [c for c in rest if lo < c < hi]
                texts = list(map(_text, rest))
                top = sum(c >= hi for c in rest)
                ends = [(head + "".join(t + "|" for t in texts[:i]),
                         "".join("|" + t for t in texts[i:]))
                        for i in range(top, top + len(targets) + 1)]
                for j in solve_closure(k, _left(space, degree, rest)).live:
                    q, value = lo + 1 + j, vector[j]
                    above = [c for c in targets if c > q] if targets else ()
                    if above and self._held(space, degree, above,
                                            pk * _prime[q], k) is not None:
                        continue
                    pre, post = ends[len(above)]
                    yield pre + _text(q) + post, value


def encode_key(space, degree, cs):
    """Textual form of an invariant key: space;degree;(P1)|(P2)|..."""
    dtext = ",".join(map(str, gw.degree_entries(space, degree)))
    return ";".join((space, dtext, "|".join(map(diagram_text, cs))))

