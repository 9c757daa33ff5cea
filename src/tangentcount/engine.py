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

Inside the engine a diagram of weight w is one int, its code: _first[w]
plus its index in partitions_of(w), the blocks of p(w) codes laid out in
increasing weight.  So (1,)*w codes as _first[w], descending codes are the
canonical key order, a key is a descending tuple of codes, and code c is
entry c - _first[k] - 1 of a weight-k solve vector.  Block offsets come
from partition counts; a weight's other diagrams are listed (by
partition_list, as its solve_plan lists them) once one of them is coded.

The memo holds each solve's vector under the _key of its rest: each code
met has a prime of its own, and a multiset of codes is keyed by the
product of their primes, which by unique factorization names it exactly
and in any order.  Listing weight k gives a prime to each code of weight
k or less, in code order (_prime[c]), and _code one to an all-ones code
past them (_far), so an all-ones key of any weight gives out one prime.
An input a solve reads is held beside rest with a code taken out and the
input's codes put in, so its key is one multiplication by a product
_solve_inputs keeps, and a read that hits sorts nothing.  A product
cannot be factored cheaply, so a vector carries its rest: the values at
their slots, then rest's codes, then their count.
"""

from array import array
from bisect import bisect_right
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


def _rank(levels):
    """The complexity rank (level, count) from each constraint's weight if
    it has a branch >= 2, else 0 or None: _rank(map(_LEVEL.get, codes))
    ranks a coded key.  The level is the largest such weight (1 when there
    is none, the all-ones case), the count how many constraints have it."""
    levels = [w for w in levels if w]
    top = max(levels, default=1)
    return top, levels.count(top)


_first = [0, 0]  # _first[w]: the code of (1,)*w, grown by _offset
_counts = [1]  # p(0), p(1), ...: partition counts, one fewer than _first
_LEVEL = {}  # code -> weight, for each listed diagram with a branch >= 2
_prime = array("Q")  # _prime[c]: c's prime, for c of a listed weight or less
_far = {}  # code -> prime, for each all-ones code _code meets past _prime
_primes = array("Q", [2])  # the primes below a bound, given out in order


def _offset(w):
    """_first[w], growing the blocks from partition counts (Euler's
    pentagonal recurrence) until _first[w + 1] is known too."""
    while len(_first) <= w + 1:
        n = len(_counts)
        _counts.append(sum((-1) ** (j + 1) * _counts[n - g]
                           for j in range(1, isqrt(n) + 1)
                           for g in (j * (3*j - 1) // 2, j * (3*j + 1) // 2)
                           if g <= n))
        _first.append(_first[n] + _counts[n])
    return _first[w]


def _issue():
    """The next prime of _primes no code has.  Once each prime there is
    given out, _primes is sieved afresh up to twice its largest (Bertrand:
    one more at least), so it stays below twice the largest one given."""
    n = len(_prime) + len(_far)
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
    """{diagram: code} over weight k's diagrams but (1,)*k; fills _LEVEL.
    Listing a weight costs far less than its solve_plan.  It extends
    _prime over each code of weight k or less (a code in _far keeps its
    prime), one int per diagram listed or lighter, so the light codes a
    rest is mostly made of have the small primes."""
    lo = _offset(k)
    while len(_prime) < _first[k + 1]:
        _prime.append(_far.pop(len(_prime), None) or _issue())
    codes = {q: lo + j for j, q in enumerate(partition_list(k)) if j}
    _LEVEL.update(dict.fromkeys(codes.values(), k))
    return codes


def _code(q):
    """The code of a valid diagram."""
    if q[0] != 1:
        return _listed(sum(q))[q]
    c = _offset(len(q))
    if c >= len(_prime):
        _far.setdefault(c, _issue())
    return c


@lru_cache(maxsize=None)
def _diagram(c):
    """The diagram of a code."""
    w = bisect_right(_first, c) - 1
    return partition_list(w)[c - _first[w]] if c in _LEVEL else (1,) * w


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
    diagram, then (1,)*k): its codes, top level code first, that code's
    slot (None if none), and the _key of its codes and of codes[1:]."""
    pairs = [((y[0],), y[1:]) for y in partition_list(k)[:-1]]
    inputs = [tuple(sorted(map(_code, pair), reverse=True,
                           key=lambda c: (c in _LEVEL, c)))
              for pair in (*pairs, ((1,) * k,))]
    return tuple((codes, codes[0] - _first[_LEVEL[codes[0]]] - 1
                  if codes[0] in _LEVEL else None, _key(codes),
                  _key(codes[1:])) for codes in inputs)


@lru_cache(maxsize=None)
def _reads(k, left):
    """The closure of a weight-k solve beside a rest that leaves left
    double points, and the _solve_inputs it reads, in its order."""
    closure, inputs = solve_closure(k, left), _solve_inputs(k)
    return closure, tuple(map(inputs.__getitem__, closure.reads))


def _left(space, degree, rest):
    """What the codes rest leave of the class's _budget."""
    return _budget(space, degree) - sum(map(nodes, map(_diagram, rest)))


def _key(codes):
    """The memo key of a multiset of codes: the product of their primes,
    which names the multiset in any order (unique factorization).  Every
    code but an all-ones one has a listed weight, so _prime holds it."""
    return prod(_prime[c] if c < len(_prime) else _far[c] for c in codes)


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
            k, count = _rank(map(_LEVEL.get, key))
            if k == 1:
                return self._base(space, degree, key)
            whole = _key(key)
            hit = self._held(space, degree, key, whole, k)[1]
        if hit is not None:
            self.counters["memo_hits"] += 1
            return hit
        self.counters["evaluations"] += 1
        i = next(i for i, c in enumerate(key) if c in _LEVEL)
        return self._solve_at(space, degree, key[:i] + key[i + 1:], (k, count),
                              whole // _prime[key[i]])[key[i] - _first[k] - 1]

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

    def _held(self, space, degree, cs, whole, k, skip=None):
        """(target, value) from the first weight-k vector, in target order,
        holding the key of level k whose _key is whole, else (None, None);
        a vector's targets are its codes between (1,)*k and (1,)*(k+1).
        It tries the targets among the descending codes cs, the key's or
        some of them, probing the vector beside the key less c at
        whole // _prime[c].  The vector beside the key less skip is not
        probed: the caller knows it is missing.  All holders of a key
        agree, as _solve_at alone stores a vector and first checks each
        value against the holders stored: checking against this one checks
        all."""
        lo, hi = _first[k], _first[k + 1]
        vectors = self._vectors[space, degree]
        for c in cs:
            if c <= lo:
                break
            if c < hi and c != skip:
                vector = vectors.get(whole // _prime[c])
                if vector is not None:
                    return c, vector[c - lo - 1]
        return None, None

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
        _held finds for its key (skipping rest's, which is not stored yet;
        the check walks rest's codes, unsorted).  It reads the inputs
        _reads lists for _left(rest), what rest leaves of the budget.  An
        input with a level code is read from the vector _held tries first,
        near: beside its key less the top level code (rest's top t, or the
        input's if larger), probed at pk times the product of the input's
        codes after its top, or at pk less t's prime times all of them.
        Only a miss sorts the key.  If near is missing and the key has
        another code of that weight, _held tries the key's later holders,
        skipping near.  If none holds it, near is solved here, at the key's
        _rank (top's level once if others has no code of it), which must be
        below rank.  An all-ones input goes to _base."""
        k, vectors, values, hits = rank[0], self._vectors[space, degree], [], 0
        t = next(filter(_LEVEL.__contains__, rest), 0)  # 0: none
        if t:
            i = rest.index(t)
            rest_t, slot_t = rest[:i] + rest[i + 1:], t - _first[_LEVEL[t]] - 1
            pk_t = pk // _prime[t]
        closure, reads = _reads(k, _left(space, degree, rest))
        for codes, slot, whole, tail in reads:
            if slot is not None and codes[0] > t:
                top, key = codes[0], pk * tail
            elif t:
                top, slot, key = t, slot_t, pk_t * whole
            else:  # an all-ones key
                values.append(self._base(space, degree, tuple(sorted(
                    rest + codes, reverse=True))))
                continue
            vector = vectors.get(key)
            if vector is not None:
                hits += 1
                values.append(vector[slot])
                continue
            w = _LEVEL[top]  # another level-w code would be in others
            others = ((t, *codes[1:]) if top > t
                      else (*rest_t[i:i + 1], codes[0]))
            lower = w, 1
            if w in map(_LEVEL.get, others):
                cs = tuple(sorted(rest + codes, reverse=True))
                value = self._held(space, degree, cs, pk * whole, w, top)[1]
                if value is not None:
                    hits += 1
                    values.append(value)
                    continue
                lower = _rank(map(_LEVEL.get, cs))
            self.counters["evaluations"] += 1
            if not lower < rank:
                at = space, degree, tuple(sorted(rest + codes, reverse=True))
                raise InconsistencyError(
                    "complexity failed to decrease: %s -> %s at %s"
                    % (rank, lower, _decoded(at)))
            values.append(self._solve_at(space, degree, tuple(sorted(
                rest + codes[1:] if top > t else rest_t + codes,
                reverse=True)), lower, key)[slot])
        self.counters["memo_hits"] += hits
        solved = solve_split_system(k, closure, values)
        self.counters["solves"] += 1
        if rank[1] > 1:  # else no other vector holds a key
            for j in closure.live:  # a target past left is 0 at every holder
                q, value = _first[k] + 1 + j, solved[j]
                old = self._held(space, degree, rest, pk * _prime[q], k,
                                 q)[1]  # rest: not yet stored
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
                lo, hi = _first[k], _first[k + 1]
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
                                            pk * _prime[q], k)[1] is not None:
                        continue
                    pre, post = ends[len(above)]
                    yield pre + _text(q) + post, value


def encode_key(space, degree, cs):
    """Textual form of an invariant key: space;degree;(P1)|(P2)|..."""
    dtext = ",".join(map(str, gw.degree_entries(space, degree)))
    return ";".join((space, dtext, "|".join(map(diagram_text, cs))))

