"""Reference helpers that only the tests use: the adjunction counts behind
the a-priori vanishing predicate, the dual diagram, the complexity rank on
diagrams, the value of the package's merge expansion term by term, and the
push-together formula on every multi-point key a run holds
(push_together_disagreements), an integer matrix's determinant and a
Fraction solve by elimination, the diagram product one walk at a time,
single-point tables with their zeros, and primality by trial division; and
a cache file's bytes, signed and split.  None of them is a shortcut of the
package; each gives a second route to a value the package computes.

It is also the one owner of the runs the tests share: the benchmark's two
in-process questions (column, quadric_pass), a cold run of either with the
work it did (cold), the one cold T_1..T_top per process (cold_run) and the
one cold quadric pass (quadric_run), the same work with the engine's
adjunction rule off, once per process (unpruned; compared_with_unpruned
for T_1..T_top, kept without its engine), the cache file a command line
writes into a new file, once per process (written_by; cold_d4_file is
table --max-d 4's), and the only read of the blowup memo (blowup_memo).

And it is the one reader of an Engine's solve vectors (vector_stores):
each is kept under vector_key(rest), the product of one prime per code of
rest, and holds its values at their slots, then rest's codes, then their
count (solve_vectors, vector_at); forked copies them into a new Engine.
It is also the one reader of the layout of the engine's diagram codes
(code_of, code_level, code_slot, weight_codes, slot_codes)."""

import io
import math
import os
import tempfile
import time
from collections import namedtuple
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, isqrt, prod

from tangentcount import Engine, engine as engine_module, gw
from tangentcount.cache import header, parse_line
from tangentcount.cli import main, parse_degree
from tangentcount.engine import _rank
from tangentcount.errors import InconsistencyError
from tangentcount.matrices import solve_closure
from tangentcount.partitions import (as_diagram, aut_order, parse_diagram,
                                     partition_list, partitions_of)
from tangentcount.star import combine_forward


# The benchmark's quadric_tables bidegrees.
QUADRIC = ((3, 3), (4, 3), (4, 4), (5, 3), (5, 4))

# A finished cold run: its Engine, what its work returned, the engine's
# counters, gw.counters and the blowup memo as the work finished, and its
# wall seconds.  Shared runs are read, never changed.
Run = namedtuple("Run", "engine answers counters gw_counters blowup seconds")


def vector_stores(engine):
    """The engine's solve vectors, {(space, degree): {key: vector}}: the
    one read of Engine._vectors."""
    return engine._vectors


def code_of(w, j=0):
    """The engine's code of diagram j of partitions_of(w), w << 21 | j:
    (1,)*w's by default."""
    return w << 21 | j


def code_level(c):
    """The weight of code c if its diagram has a branch >= 2 (its index j
    is not 0), else None."""
    return c >> 21 if c & ((1 << 21) - 1) else None


def code_slot(c):
    """Where a solve vector of code c's weight holds its diagram, j - 1,
    or None for an all-ones code, which no vector holds."""
    j = c & ((1 << 21) - 1)
    return j - 1 if j else None


def weight_codes(k):
    """The codes of the diagrams of weight k, in code order: (1,)*k's,
    then one per slot of a weight-k solve vector."""
    return range(code_of(k), code_of(k, len(partition_list(k))))


def slot_codes(k):
    """The codes of a weight-k solve vector's slots, in slot order."""
    return weight_codes(k)[1:]


def prime_of(c):
    """Code c's prime, engine._prime's."""
    return engine_module._prime[c]


def vector_key(codes):
    """The key the solve vector beside the codes is kept under: the
    product of their primes (prime_of), the same in any order."""
    return prod(map(prime_of, codes))


def vector_at(engine, space, degree, rest):
    """The stored vector beside the codes rest, or None."""
    return vector_stores(engine)[space, degree].get(vector_key(rest))


def solve_vectors(engine):
    """(space, degree, rest, values, key) per solve vector the engine holds:
    rest read off the vector's suffix (its codes, then their count), values
    the slots before it, key what the vector is kept under."""
    for (space, degree), vectors in vector_stores(engine).items():
        for key, vector in vectors.items():
            n = vector[-1]
            yield (space, degree, tuple(vector[-1 - n:-1]), vector[:-1 - n],
                   key)


def is_prime(n):
    """Whether n is a prime, by trial division."""
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


def cold_engine():
    """An Engine on a cold blowup memo: gw.reset() first, so the blowup
    classes and counters that follow are this engine's work alone."""
    gw.reset()
    return Engine()


def column(engine, top):
    """{d: T_d} for d = 1..top in order, T_d = N_d<(3d - 1)> the
    full-tangency count: the benchmark's tangency_column question."""
    return {d: engine.invariant("cp2", d, ((3 * d - 1,),))
            for d in range(1, top + 1)}


def quadric_pass(engine):
    """The full table and the point-count identity of every bidegree in
    QUADRIC: the benchmark's quadric_tables question."""
    for bidegree in QUADRIC:
        engine.full_table("p1xp1", bidegree)
        engine.sum_identity("p1xp1", bidegree)


def blowup_memo():
    """A snapshot of the blowup memo, {(d, deep multiplicities): value}."""
    return dict(gw._values)


def cold(work, *args):
    """The Run of work(engine, *args) on a cold_engine()."""
    engine = cold_engine()
    start = time.monotonic()
    answers = work(engine, *args)
    seconds = time.monotonic() - start
    return Run(engine, answers, engine.counters.copy(), gw.counters.copy(),
               blowup_memo(), seconds)


@cache
def cold_run(top):
    """The Run of one cold T_1..T_top per process, shared by every test
    that reads it; a test asks its engine for no key that would change
    what another test counts."""
    return cold(column, top)


@cache
def quadric_run():
    """The Run of one cold quadric_pass per process, shared as cold_run's
    is."""
    return cold(quadric_pass)


def forked(engine):
    """A new Engine holding engine's solve vectors: what it is asked is
    read from them, and solved where they miss, without adding to
    engine's memo."""
    fork = Engine()
    for cls, vectors in vector_stores(engine).items():
        vector_stores(fork)[cls] = dict(vectors)
    return fork


def push_together_disagreements(engine, keep=lambda space, degree: True):
    """The push-together formula on every key with two or more constraints
    that engine's memo_items yields, of each class keep admits: the keys
    whose count N differs from the sum over combine_forward, as (key text,
    N, sum), and how many keys were compared.  A key text lists its points
    heaviest first, so its first two, P1 and P2, are the two that
    combine_forward pushes together.  Each count is asked once of a forked
    engine, and combine_forward once per pair, as the rest of a key rides
    along unchanged; the sum is taken in ints, times |Aut P1| |Aut P2|,
    which makes every coefficient an int."""
    fork, bad, compared = forked(engine), [], 0
    count, diagram = cache(fork.invariant), cache(parse_diagram)

    @cache
    def forward(p1, p2):
        auts = aut_order(p1) * aut_order(p2)
        terms = [(coeff * auts, q) for coeff, (q,) in combine_forward(
            (p1, p2))]
        assert all(m.denominator == 1 for m, _ in terms), (p1, p2)
        return auts, [(m.numerator, q) for m, q in terms]

    for text, _ in engine.memo_items():
        space, dtext, ptext = text.split(";")
        degree = parse_degree(dtext, space)
        if "|" not in ptext or not keep(space, degree):
            continue
        p1, p2, *rest = cs = tuple(map(diagram, ptext.split("|")))
        compared += 1
        auts, terms = forward(p1, p2)
        pushed = Fraction(sum(m * count(space, degree, (q, *rest))
                              for m, q in terms), auts)
        if count(space, degree, cs) != pushed:
            bad.append((text, count(space, degree, cs), pushed))
    return bad, compared


@contextmanager
def adjunction_rule_off():
    """Engines that answer no key by the adjunction rule while this lasts:
    the budget is infinite, so every key is solved or read as it was
    before the rule."""
    budget = engine_module._budget
    engine_module._budget = lambda space, degree: math.inf
    try:
        yield
    finally:
        engine_module._budget = budget


@cache
def unpruned(work, *args):
    """The Run of work(engine, *args) on a cold_engine() with the
    adjunction rule off, once per process: the recursion every pruned run
    must agree with, and the blowup classes it reaches."""
    with adjunction_rule_off():
        return cold(work, *args)


def unpruned_disagreements(run, full):
    """Where the Run run, pruned by the adjunction rule, disagrees with the
    unpruned Run full of the same work, how many solve inputs the rule
    answered in run, and at how many of run's rests full solved nothing.
    Each vector of run must equal full's vector at the same rest, each slot
    the solve set to 0 by the rule included.  No input a solve of run reads
    (solve_closure's reads) may have summed local_double_points above what
    rest leaves of the class's double_point_count.  The all-ones input of
    a solve whose loop closes on the first row without reading it is one
    the rule answered: it must be past that budget, and 0 in full.  A key
    full never reached, such as a slot of a rest full never solved, is
    asked of full's engine with the rule off: the engine grows, its Run's
    snapshots do not."""
    m, bad, answered, unsolved = engine_module, [], 0, 0
    nodes_of = cache(lambda c: local_double_points(m._diagram(c)))
    with adjunction_rule_off():

        def unpruned_value(space, degree, key):
            # an all-ones key, of level 1, is held by no vector
            level = _rank(key)[0]
            value = full.engine._held(space, degree, key, vector_key(key),
                                      level)
            if value is None:
                value = full.engine.hat_invariant(
                    space, degree, tuple(map(m._diagram, key)))
            return value

        for space, degree, rest, vector, _ in solve_vectors(run.engine):
            budget = double_point_count(space, degree)
            on_shell = gw.chern_number(space, degree) - 1
            k = on_shell - sum(map(sum, map(m._diagram, rest)))
            targets = slot_codes(k)
            other = vector_at(full.engine, space, degree, rest)
            if other is None:
                unsolved += 1
                other = [unpruned_value(space, degree, tuple(sorted(
                    rest + (q,), reverse=True))) for q in targets]
            bad += [("slot", (space, degree, rest), q, value)
                    for q, value, expected in zip(targets, vector, other)
                    if value != expected]
            left = budget - sum(map(nodes_of, rest))
            inputs, closure = m._solve_inputs(k), solve_closure(k, left)
            for r in closure.reads:
                codes = inputs[r][0]
                if sum(map(nodes_of, codes)) > left:
                    key = tuple(sorted(rest + codes, reverse=True))
                    bad.append(("read", (space, degree, key)))
            closes = closure.reads[len(closure.rows)]
            if closes == 0 and len(inputs) - 1 not in closure.reads:
                answered += 1
                codes = inputs[-1][0]
                key = tuple(sorted(rest + codes, reverse=True))
                if (sum(map(nodes_of, codes)) <= left
                        or unpruned_value(space, degree, key) != 0):
                    bad.append(("answered", (space, degree, key)))
    return bad, answered, unsolved


@cache
def compared_with_unpruned(top):
    """unpruned_disagreements of cold_run(top) and the same column with the
    adjunction rule off, once per process, and that unpruned Run without
    its engine: later tests read only its answers and snapshots, so the
    engine, larger than the pruned one, is freed once compared."""
    with adjunction_rule_off():
        full = cold(column, top)
    return (*unpruned_disagreements(cold_run(top), full),
            full._replace(engine=None))


def complexity(constraints):
    """Complexity rank (level, count) of a constraint multiset, ranked by
    the engine's own rule, _rank, on a code of each constraint's weight
    with a branch >= 2 (index 1) or not (index 0) as the constraint has.

    The level is the maximal weight among constraints containing a branch
    of order >= 2 (1 when there is none, the all-ones case), and the count
    is how many constraints realize that maximum.  Ranks compare
    lexicographically; the recursion strictly descends in this order.
    """
    return _rank(code_of(sum(c), int(c[0] >= 2)) for c in constraints)


def signed(lines):
    """The bytes of a cache file holding lines (bytes, each ending in its
    newline) with a valid digest, as if the program had written it."""
    return header(lines) + b"".join(lines)


def split_header(data):
    """The header line of a cache file's bytes and its other lines, each
    ending in its newline."""
    head, *lines = data.splitlines(keepends=True)
    return head, lines


def records_in(lines):
    """{key text: value} of the cache lines parse_line reads as records,
    such as a CountCache's entries.lines."""
    return dict(filter(None, map(parse_line, lines)))


@cache
def written_by(*argv):
    """The bytes of the cache file that the command line argv writes into a
    new file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.txt")
        with redirect_stdout(io.StringIO()):
            assert main([*argv, "--cache-file", path]) == 0
        with open(path, "rb") as handle:
            return handle.read()


def cold_d4_file():
    """The bytes of the cache file a table --max-d 4 writes anew."""
    return written_by("table", "--max-d", "4")


def self_intersection(space, degree, mults=()):
    """Homological self-intersection number A . A."""
    base = degree * degree if space == "cp2" else 2 * degree[0] * degree[1]
    return base - sum(m * m for m in mults)


def double_point_count(space, degree, mults=()):
    """Nodes of an immersed rational curve in the class:
    (A.A - c1(A)) / 2 + 1 (adjunction)."""
    c1 = gw.chern_number(space, degree, mults)  # checks the space
    return (self_intersection(space, degree, mults) - c1) // 2 + 1


def local_double_points(p):
    """Number of nodes forced at a single point carrying all branches of p.

    Two branches with contact orders a and b meeting at the same point of the
    divisor intersect each other at least min(a, b) times there: the sum of
    that over the pairs of branches, taken pair by pair (the package sums
    the closed form sum_i (i - 1) * p_i of a sorted p instead).
    """
    return sum(min(a, b) for a, b in combinations(p, 2))


def dual(p):
    """The transposed diagram: entry j counts the rows of length >= j.

    For a weakly decreasing p the result is again weakly decreasing, and
    transposing twice gives back p.
    """
    if not p:
        return ()
    return tuple(sum(1 for r in p if r >= j) for j in range(1, p[0] + 1))


def vanishing_filter(space, degree, diagram):
    """True when a single-point invariant is forced to vanish a priori.

    Two sources: the branch diagram alone forces more double points near its
    point than the whole class supports (delta(P) > delta(A)), or the class
    is a multiple of one ruling of P1 x P1 (bidegree (d, 0) with d > 1, which
    has no somewhere-injective representatives at all).
    """
    if space == "p1xp1":
        a, b = degree
        if (b == 0 and a > 1) or (a == 0 and b > 1):
            return True
    return local_double_points(diagram) > double_point_count(space, degree)


def determinant(matrix):
    """Exact determinant of a square integer matrix by fraction-free
    elimination (Bareiss 1968), a second route to matrices.move_determinant.

    Every intermediate division is exact, so all arithmetic stays in the
    integers no matter how the entries grow.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for p in range(n - 1):
        if m[p][p] == 0:
            for r in range(p + 1, n):  # pivot search
                if m[r][p] != 0:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(p + 1, n):
            for c in range(p + 1, n):
                m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // prev
            m[r][p] = 0
        prev = m[p][p]
    return sign * m[n - 1][n - 1]


def gauss_solve(matrix, rhs_list):
    """Reference solve of matrix * x = rhs for every rhs in rhs_list by
    Fraction Gauss-Jordan elimination with row pivoting; it knows nothing
    of the Hessenberg shape.  Returns one solution list per rhs."""
    n = len(matrix)
    m = [[Fraction(e) for e in row] + [Fraction(rhs[r]) for rhs in rhs_list]
         for r, row in enumerate(matrix)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [[m[r][n + i] / m[r][r] for r in range(n)]
            for i in range(len(rhs_list))]


def star_oracle(p1, p2):
    """Recomputation of star() one walk at a time, by row position.

    Walks the rows of the second diagram one at a time; each row either
    enters the result on its own or absorbs one not-yet-used row (chosen
    by position) of the first diagram.  Every (matched subset, bijection)
    pair of the closed-form enumeration is one walk, where star() merges
    walks, so the two must agree coefficient by coefficient.  Kept
    deliberately naive and unbounded.
    """
    p1, p2, out = as_diagram(p1), as_diagram(p2), {}

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


def combined_value(engine, space, degree, constraints):
    """Evaluate the package's combine_forward expansion term by term (must
    be an integer and must agree with engine.invariant)."""
    total = Fraction(0)
    for coeff, merged in combine_forward(constraints):
        total += coeff * engine.invariant(space, degree, merged)
    if total.denominator != 1:
        raise InconsistencyError(
            "combined expansion gave non-integer %s" % (total,))
    return int(total)


def single_point_table(engine, space, degree):
    """{P: N<P>} over every diagram P of the class's on-shell weight, zeros
    included: engine.full_table keeps only the nonzero ones."""
    m = gw.chern_number(space, degree) - 1
    return {p: engine.invariant(space, degree, (p,)) for p in partitions_of(m)}


def cross_space_values(engine, d):
    """(P, N_cp2,d<P, (1), (1)>, N_p1xp1,(d-1,d-1)<P, (1^(d-2))>) for every
    diagram P of weight 3d - 3; the two counts are equal.

    Both keys are on shell: 3d - 3 + 2 = 3d - 1 and 3d - 3 + d - 2 =
    4(d - 1) - 1.  The plane blown up at two points is P^1 x P^1 blown up at
    one (gw.translate_to_plane): bidegree (a, b) with multiplicities m is the
    plane class of degree a + b with multiplicities (b, a, m).  The engine's
    base case counts an all-ones constraint (1^b) as a multiplicity-b slot,
    times b! for its ordered branches.  So every base case the quadric key
    reaches is a plane class of degree 2d - 2 with slots (d - 1, d - 1,
    d - 2) beside the slots that P's reduction leaves, and the Cremona move
    on those three slots sends (2d - 2; d - 1, d - 1, d - 2) to (d; 1, 1, 0)
    and keeps every blowup count: that is the plane key's base case, with
    two multiplicity-1 slots for (1), (1).  The (d - 2)! of the ordered
    branches cancels against |Aut(1^(d-2))|.  The box-moving systems that
    reduce P depend on the diagrams of P alone and are the same on both
    sides, so the identity checks the base layer, the blowup recursion at
    two different classes, not those systems.  At d = 2 the diagram
    (1^0) is empty and the quadric key is (1, 1)<P>.
    """
    ones = ((1,) * (d - 2),) if d > 2 else ()
    return [(p, engine.invariant("cp2", d, (p, (1,), (1,))),
             engine.invariant("p1xp1", (d - 1, d - 1), (p,) + ones))
            for p in partitions_of(3 * d - 3)]


def point_point_line_line(d, m):
    """N(d; m) from the associativity relation on (pt, pt, L, L), a second
    route to a blowup count with n = 3d - 1 - sum(m) >= 3 free points
    (Kontsevich-Manin 1994; Gottsche-Pandharipande 1998 for blowups):

        N(d; m) = sum over d1 + d2 = d (d1, d2 >= 1) and 0 <= a <= m of
            N(d1; a) N(d2; m - a) (d1 d2 - sum_j a_j (m_j - a_j))
            * (d1 d2 binom(n - 3, n1 - 1) - d1^2 binom(n - 3, n1)),

    where n1 = 3 d1 - 1 - sum(a) and n2 = 3 d2 - 1 - sum(m - a) are the
    pieces' free points, both >= 0, and binom(., -1) = 0.  The package
    solves (E, L, E, L) instead; the counts of the pieces come from
    gw.gw_blowup, each free point a multiplicity-1 slot.  With m = () this
    is Kontsevich's recursion.  With fewer than three free points the
    relation has no such instantiation."""
    n = 3 * d - 1 - sum(m)
    if n < 3:
        raise ValueError("(pt, pt, L, L) needs three free points, got %d" % n)
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        # a piece's multiplicity above its degree counts 0
        ranges = [range(max(0, mj - d2), min(mj, d1) + 1) for mj in m]
        for a in product(*ranges):
            n1 = 3 * d1 - 1 - sum(a)
            n2 = n - 1 - n1
            if n1 < 0 or n2 < 0:
                continue
            bracket = (d1 * d2 * (comb(n - 3, n1 - 1) if n1 else 0)
                       - d1 * d1 * comb(n - 3, n1))
            pairing = d1 * d2 - sum(aj * (mj - aj) for aj, mj in zip(a, m))
            if not (bracket and pairing):
                continue
            c1 = gw.gw_blowup(d1, a + (1,) * n1)
            if c1:
                total += (c1 * pairing * bracket * gw.gw_blowup(
                    d2, tuple(mj - aj for aj, mj in zip(a, m)) + (1,) * n2))
    return total
