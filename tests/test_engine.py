"""The tangency recursion end to end: worked low-degree values, published
tables, the point-count identity, the product expansion cross-check, and
the quadric surface cases."""

import random
import re
from array import array
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from tangentcount.cache import CountCache
from tangentcount.cli import parse_constraints, parse_degree
from tangentcount.engine import Engine, canonical_constraints, encode_key
from tangentcount.errors import InconsistencyError
from tangentcount.matrices import solve_closure, solve_plan
from tangentcount.partitions import nodes, partitions_of
from tangentcount.star import combine_forward
from tangentcount import (engine as engine_module, gw,
                          partitions as partitions_module)

from reference import (QUADRIC, cold, cold_engine, cold_run, column,
                       combined_value, complexity, cross_space_values,
                       double_point_count, is_prime, local_double_points,
                       prime_of, quadric_pass, quadric_run, signed,
                       single_point_table, solve_vectors, unpruned,
                       unpruned_disagreements, vector_at, vector_key,
                       vector_stores)


def test_canonical_constraint_order():
    assert canonical_constraints(((1, 1), (3,), (2, 1))) == (
        (3,), (2, 1), (1, 1))
    # heavier first, then larger diagram at equal weight
    assert canonical_constraints((((1, 1, 1)), (2, 1))) == ((2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        canonical_constraints(((), (1,)))


def test_complexity_rank():
    assert complexity(((1, 1), (1,))) == (1, 0)
    assert complexity(((3,), (2, 1), (1, 1))) == (3, 2)
    assert complexity(((8,),)) == (8, 1)
    assert complexity(((2, 1, 1), (1, 1, 1, 1))) == (4, 1)


def spelled_out_rank(constraints):
    """The complexity rank as the engine module defines it, on diagrams."""
    level, count = 1, 0
    for c in constraints:
        if max(c) >= 2:
            if sum(c) > level:
                level, count = sum(c), 1
            elif sum(c) == level:
                count += 1
    return level, count


diagrams_to_twelve = st.integers(1, 12).flatmap(
    lambda w: st.sampled_from(partitions_of(w)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(diagrams_to_twelve, min_size=1, max_size=6))
def test_diagram_codes_keep_key_order_rank_and_slots(cs):
    e = engine_module
    codes = [e._code(q) for q in cs]
    assert [e._diagram(c) for c in codes] == cs
    key = tuple(sorted(codes, reverse=True))
    assert tuple(map(e._diagram, key)) == canonical_constraints(cs)
    assert (e._rank(map(e._LEVEL.get, key)) == complexity(cs)
            == spelled_out_rank(cs))
    for q, c in zip(cs, codes):
        k = sum(q)
        assert e._first[k + 1] - e._first[k] == len(partitions_of(k))
        if max(q) == 1:
            assert c == e._first[k]
        else:
            assert c - e._first[k] - 1 == solve_plan(k).parts[1:].index(q)


def test_all_ones_keys_list_no_diagrams(monkeypatch):
    # an all-ones diagram codes as its block's offset, which comes from
    # partition counts, so answering these keys lists no diagram of weight
    # 41 (44,583 of them) or 89 (about 5e7); the heavier key runs only
    # once the lighter one has shown that nothing is listed
    listed = []
    real = partitions_module.partitions_of

    def recording(k, max_part=None):
        listed.append(k)
        return real(k, max_part)

    # solve plans and diagram codes list through partitions.partition_list
    for module in (partitions_module, engine_module):
        monkeypatch.setattr(module, "partitions_of", recording)
    assert Engine().invariant("cp2", 14, ((1,) * 41,)) == 0
    assert max(listed, default=0) < 41
    assert Engine().invariant("cp2", 30, ((1,) * 89,)) == 0
    assert max(listed, default=0) < 41


@pytest.mark.parametrize("d", [100, 255])
def test_an_exceptional_all_ones_key_issues_a_prime_per_code_met(d):
    # a (d - 1)-fold point takes the whole budget (d - 1)(d - 2)/2, so the
    # rule passes the key to _base; it gives primes to its two codes
    # alone, not to the 1e9 and more codes of lighter weights, and the
    # primes sieved stay below twice the largest one given out
    m = engine_module
    given = len(m._prime) + len(m._far)
    key = ((1,) * (d - 1),) + ((1,),) * (2 * d)
    assert Engine().invariant("cp2", d, key) == 1
    assert len(m._prime) + len(m._far) - given <= 2
    assert m._first[d - 1] in m._far  # past every listed weight
    assert m._primes[-1] < 2 * max(*m._prime, *m._far.values())


def test_worked_degree_three_chain():
    e = Engine()
    assert e.hat_invariant("cp2", 3, ((1,),) * 5 + ((3,),)) == 9
    assert e.hat_invariant("cp2", 3, ((1,),) * 6 + ((1, 1),)) == 2
    assert e.invariant("cp2", 3, ((8,),)) == 4
    assert e.invariant("cp2", 3, ((7, 1),)) == 1
    assert e.invariant("cp2", 3, ((6, 2),)) == 0


def test_hat_and_plain_differ_by_symmetry():
    e = Engine()
    hat = e.hat_invariant("cp2", 4, ((2, 2), (1, 1), (5,)))
    n = e.invariant("cp2", 4, ((2, 2), (1, 1), (5,)))
    assert (hat, n) == (4, 1)  # |Aut| = 2 for each two-row constraint
    # any iterables, read once: the diagrams and the rows
    assert e.invariant("cp2", 4, (c for c in ([2, 2], iter((1, 1)), (5,)))
                       ) == n


def test_off_shell_keys_vanish():
    e = Engine()
    assert e.invariant("cp2", 3, ((5,),)) == 0
    assert e.hat_invariant("cp2", 2, ((1,) * 6,)) == 0
    assert e.invariant("p1xp1", (1, 1), ((2,), (2,))) == 0


def test_single_point_tables_low_degree():
    e = Engine()
    assert e.full_table("cp2", 1) == {(2,): 1}
    assert e.full_table("cp2", 2) == {(5,): 1}
    assert e.full_table("cp2", 3) == {(8,): 4, (7, 1): 1}
    assert e.full_table("cp2", 4) == {
        (11,): 26, (10, 1): 14, (9, 2): 3, (9, 1, 1): 1, (8, 3): 1}


def test_zeros_at_degree_three():
    e = Engine()
    table = single_point_table(e, "cp2", 3)
    zero_keys = {p for p, n in table.items() if n == 0}
    assert (6, 2) in zero_keys
    assert (8,) not in zero_keys
    # every omitted diagram is a genuine zero
    assert {p for p, n in table.items() if n} == {(8,), (7, 1)}


def test_point_count_identity():
    e = Engine()
    for d in range(1, 5):
        lhs, rhs = e.sum_identity("cp2", d)
        assert lhs == rhs == gw.kontsevich_count(d)


def test_cross_space_identity_up_to_degree_six():
    # N_cp2,d<P, (1), (1)> = N_p1xp1,(d-1,d-1)<P, (1^(d-2))>: the base
    # cases of the two sides are blowup classes a Cremona move apart
    e = Engine()
    values = [v for d in range(2, 7) for v in cross_space_values(e, d)]
    assert [(p, plane, quadric) for p, plane, quadric in values
            if plane != quadric] == []
    assert (len(values), sum(1 for _, n, _ in values if n)) == (297, 48)


def test_all_point_constraints_reduce_to_plane_count():
    e = Engine()
    for d in (2, 3):
        assert (e.invariant("cp2", d, ((1,),) * (3 * d - 1))
                == gw.kontsevich_count(d))


def test_combine_forward_on_a_line():
    e = Engine()
    expansion = dict()
    for coeff, merged in combine_forward(((1,), (1,))):
        assert len(merged) == 1
        expansion[merged[0]] = coeff
    assert expansion == {(1, 1): 2, (2,): 1}
    # the merged side reproduces the two-point count on a line
    assert combined_value(e, "cp2", 1, ((1,), (1,))) == 1
    assert e.invariant("cp2", 1, ((1,), (1,))) == 1


def test_combine_forward_matches_direct_values():
    e = Engine()
    for constraints in [((5,), (3,)), ((4, 1), (3,)), ((2, 2), (3, 1))]:
        direct = e.invariant("cp2", 3, constraints)
        assert combined_value(e, "cp2", 3, constraints) == direct


def test_combine_needs_two_constraints():
    with pytest.raises(ValueError):
        combine_forward(((8,),))


def test_quadric_bidegree_one_one():
    e = Engine()
    # chern number 4, so constraints of total weight 3.  Bidegree (d,1)
    # curves are graphs of self-maps of the line: smooth, one branch per
    # point, so single-row constraints pin down exactly one curve while
    # genuinely multibranched diagrams count nothing
    assert e.invariant("p1xp1", (1, 1), ((3,),)) == 1
    assert e.invariant("p1xp1", (1, 1), ((2,), (1,))) == 1
    assert e.invariant("p1xp1", (1, 1), ((1,), (1,), (1,))) == 1
    assert e.invariant("p1xp1", (1, 1), ((2, 1),)) == 0
    assert e.invariant("p1xp1", (1, 1), ((1, 1, 1),)) == 0


def test_quadric_degenerate_bidegrees():
    e = Engine()
    for p in partitions_of(3):
        assert e.invariant("p1xp1", (2, 0), (p,)) == 0
    # (1,0) covers a ruling line: one curve through one point
    assert e.invariant("p1xp1", (1, 0), ((1,),)) == 1


@pytest.mark.parametrize("space, degree, constraints", [
    ("p1xp1", 3, ((1,),)),
    ("p1xp1", (1.0, 1), ((3,),)),
    ("cp2", 2.5, ((5,),)),
    ("cp2", True, ((2,),)),
    ("p1xp1", (1, 1, 1), ((3,),))])
def test_a_malformed_degree_is_refused_before_any_work(space, degree,
                                                       constraints):
    e = cold_engine()
    for call in (lambda: e.invariant(space, degree, constraints),
                 lambda: e.full_table(space, degree),
                 lambda: e.sum_identity(space, degree),
                 lambda: encode_key(space, degree, constraints)):
        with pytest.raises(ValueError, match="degree on %s must be" % space):
            call()
    assert not any(e.counters.values()) and not gw.counters
    with pytest.raises(ValueError, match="degree on cp2 must be"):
        gw.gw_blowup(2.5, (2,))


def test_quadric_symmetric_in_bidegree():
    e = Engine()
    for p in partitions_of(5):
        assert (e.invariant("p1xp1", (2, 1), (p,))
                == e.invariant("p1xp1", (1, 2), (p,)))


def test_quadric_point_counts():
    # rational curves of bidegree (a, b) through 2a + 2b - 1 points: both
    # sides of the point-count identity, the blowup recursion underneath
    e = Engine()
    for ab, count in [((3, 3), 3510), ((4, 3), 87544), ((4, 4), 6508640)]:
        assert e.sum_identity("p1xp1", ab) == (count, count), ab


def test_memo_determinism_under_evaluation_order():
    # evaluate one degree's table in several random orders with fresh
    # engines; all orders must agree everywhere
    parts = partitions_of(8)
    reference = None
    rng = random.Random(3)
    for _ in range(3):
        order = list(parts)
        rng.shuffle(order)
        e = Engine()
        values = {p: e.invariant("cp2", 3, (p,)) for p in order}
        if reference is None:
            reference = values
        assert values == reference


def test_multi_point_values():
    e = Engine()
    # merging the two constraints: N<(5),(3)> = N<(8)> + N<(5,3)> = 4 + 0
    assert e.invariant("cp2", 3, ((5,), (3,))) == 4
    assert e.hat_invariant("cp2", 3, ((5,), (3,))) == 4
    # all-ones two-branch case folds to an assigned double point
    assert (e.hat_invariant("cp2", 3, ((1, 1),) + ((1,),) * 6)
            == 2 * gw.gw_blowup(3, (2, 1, 1, 1, 1, 1, 1)))


def test_key_text_round_trip():
    # the text a cache file stores for a key reads back, through the CLI's
    # parsers, as the same canonical key
    for key, text in [
            (("cp2", 3, ((8,),)), "cp2;3;(8)"),
            (("cp2", 6, canonical_constraints(((1, 1), (2,), (1, 3)))),
             "cp2;6;(3,1)|(2)|(1,1)"),
            (("p1xp1", (2, 1), ((5,),)), "p1xp1;2,1;(5)")]:
        assert encode_key(*key) == text
        space, dtext, ptext = text.split(";")
        assert (space, parse_degree(dtext, space), canonical_constraints(
            parse_constraints(ptext.replace("|", ";")))) == key


def test_inconsistent_preload_is_detected(tmp_path):
    # corrupt a key that the splitting solve will re-derive: the solve at
    # weight 6 recomputes every weight-6 diagram next to (2) without
    # reading the record, and the harvest, which compares every computed
    # value with the file, must refuse it
    path = tmp_path / "counts.txt"
    path.write_bytes(signed([b"ht:cp2;3;(5,1)|(2)\t777\n"]))
    e = Engine()
    with CountCache(str(path)) as cache:
        cache.preload(e)
        assert e.hat_invariant("cp2", 3, ((6,), (2,))) == \
            Engine().hat_invariant("cp2", 3, ((6,), (2,)))
        with pytest.raises(InconsistencyError, match=r"cp2;3;\(5,1\)\|\(2\)"):
            cache.harvest(e)


def test_inconsistent_record_read_before_the_solve_is_detected(tmp_path):
    # the same corrupt record, read directly first: it is returned as
    # stored, the solve that re-derives it later does not use it, and the
    # harvest still refuses it.  The key is inside the adjunction budget,
    # which a record does not override
    path = tmp_path / "counts.txt"
    path.write_bytes(signed([b"ht:cp2;3;(5,1)|(2)\t777\n"]))
    e = Engine()
    with CountCache(str(path)) as cache:
        cache.preload(e)
        assert e.hat_invariant("cp2", 3, ((5, 1), (2,))) == 777
        assert e.hat_invariant("cp2", 3, ((6,), (2,))) == \
            Engine().hat_invariant("cp2", 3, ((6,), (2,)))
        with pytest.raises(InconsistencyError, match=r"cp2;3;\(5,1\)\|\(2\)"):
            cache.harvest(e)


def test_a_solve_given_a_rank_its_input_does_not_descend_from_raises():
    # the solve beside ((2,), (1,)) is ranked (2, 2); told (2, 1), its input
    # ((2,), (1,), (1,), (1,)), ranked (2, 1) and held nowhere yet, would be
    # solved in place without descending
    rest = tuple(map(engine_module._code, ((2,), (1,))))
    with pytest.raises(InconsistencyError, match=re.escape(
            "complexity failed to decrease: (2, 1) -> (2, 1) at ('cp2', 2, "
            "((2,), (1,), (1,), (1,)))")):
        Engine()._solve_at("cp2", 2, rest, (2, 1), vector_key(rest))
    assert Engine()._solve_at(
        "cp2", 2, rest, (2, 2), vector_key(rest)) == [1]


def test_a_hat_value_its_branch_groups_do_not_divide_is_refused():
    # a vector planted one off at the slot of (2, 2) makes hat-H of
    # ((2, 2), (1,) * 7) at degree 4, 20, odd, which |Aut((2, 2))| = 2
    # cannot divide
    code, e = engine_module._code, Engine()
    key = ((2, 2),) + ((1,),) * 7
    assert e.invariant("cp2", 4, key) == 10
    vector_at(e, "cp2", 4, (code((1,)),) * 7)[
        code((2, 2)) - engine_module._first[4] - 1] += 1
    with pytest.raises(InconsistencyError,
                       match="hat invariant 21 not divisible by 2"):
        e.invariant("cp2", 4, key)


def test_a_table_needs_chern_number_two():
    for space, degree in [("cp2", 0), ("p1xp1", (0, 0))]:
        with pytest.raises(ValueError, match="chern number >= 2"):
            Engine().full_table(space, degree)


def test_cold_column_work_is_pinned():
    # the amount of work for cold T_1..T_6 in one Engine: what is solved
    # and what is stored, and the classes the blowup recursion visits
    run = cold(column, 6)
    assert run.counters["solves"] == 4450
    assert sum(1 for _ in run.engine.memo_items()) == 27100
    assert len(run.blowup) == 73


@pytest.mark.parametrize("work, pins", [
    ("column_to_seven", (21671, 22205, 181045, 534, 0, 190854, 178,
                         118, 1, 10, 2852)),
    ("quadric_tables", (7474, 7898, 43551, 424, 1394, 47928, 402,
                        248, 0, 21, 7923))])
def test_cold_work_is_pinned(work, pins):
    # the work of the benchmark's two in-process passes, counted: how the
    # memo stores its vectors must not change what is solved, answered by
    # the adjunction rule or kept, nor what the blowup recursion solves and
    # reduces
    run = cold_run(7) if work == "column_to_seven" else quadric_run()
    c, g = run.counters, run.gw_counters
    assert (c["solves"], c["evaluations"], c["memo_hits"], c["base_cases"],
            c["adjunction_zeros"], sum(1 for _ in run.engine.memo_items()),
            len(run.blowup), g["gw_wdvv_solves"], g["gw_point_free_solves"],
            g["gw_cremona_reductions"], g["gw_memo_hits"]) == pins


def test_the_adjunction_counts_are_the_reference_ones():
    # the engine's closed form for a diagram's double points against the
    # sum over its pairs of branches, and its budget, from the plane class,
    # against (A.A - c1(A))/2 + 1, the rulings (a, 0) and (0, b) included
    m = engine_module
    assert all(nodes(p) == local_double_points(p)
               for w in range(1, 13) for p in partitions_of(w))
    classes = [("cp2", d) for d in range(12)] + [
        ("p1xp1", (a, b)) for a in range(7) for b in range(7)]
    assert all(m._budget(space, degree) == double_point_count(space, degree)
               for space, degree in classes)


@pytest.mark.parametrize("work", ["column_to_seven", "quadric_tables"])
def test_the_adjunction_rule_answers_only_zeros(work):
    # the same work with the rule off (reference.unpruned): every vector of
    # the pruned run agrees with it, no solve input read is past the budget
    # by the reference adjunction counts, and every all-ones input a solve
    # closing on its first row leaves unread is past it and 0 there.  Those
    # are answered inside the solves; the counter counts quadric_pass's
    # asked table diagrams past the class's budget, each twice: by
    # full_table and by sum_identity's
    if work == "column_to_seven":
        run, full, asked = cold_run(7), unpruned(column, 7), 0
    else:
        run, full = quadric_run(), unpruned(quadric_pass)
        asked = 2 * sum(local_double_points(p) > double_point_count(
            "p1xp1", ab) for ab in QUADRIC for p in partitions_of(
                gw.chern_number("p1xp1", ab) - 1))
    bad, answered, unsolved = unpruned_disagreements(run, full)
    assert bad == []
    # every rest the pruned run solved, the unpruned run solved too, so each
    # of its vectors is compared with a vector
    assert unsolved == 0
    assert run.answers == full.answers
    assert run.counters["adjunction_zeros"] == asked
    # the all-ones inputs the solves leave unread, pinned
    assert answered == (4160 if work == "column_to_seven" else 1571)
    assert full.counters["adjunction_zeros"] == 0


def held_keys(run):
    """The codes each vector of the Run's engine holds, per key: {(space,
    degree, vector_key(key)): {key}} over every vector's rest with each of
    its targets, each key a descending tuple of codes; after checking that
    each vector is kept under vector_key of the rest read off its suffix,
    that rest is descending, and that the values before it are one per
    diagram of the solve's weight but (1,)*k."""
    m, keys = engine_module, {}
    for space, degree, rest, values, pk in solve_vectors(run.engine):
        k = gw.chern_number(space, degree) - 1 - sum(
            map(sum, map(m._diagram, rest)))
        assert pk == vector_key(rest), rest
        assert list(rest) == sorted(rest, reverse=True), rest
        assert len(values) == len(partitions_of(k)) - 1, rest
        for q in range(m._first[k] + 1, m._first[k + 1]):
            key = tuple(sorted(rest + (q,), reverse=True))
            keys.setdefault((space, degree, vector_key(key)), set()).add(key)
    return keys


@pytest.mark.parametrize("work", ["column_to_seven", "quadric_tables"])
def test_each_vector_is_kept_under_the_product_of_its_rest(work):
    # the vectors of the benchmark's two in-process passes: each multiplies
    # back to its key, and distinct keys they hold have distinct products
    # (310,807 and 78,993 keys, those past the adjunction budget included)
    run = cold_run(7) if work == "column_to_seven" else quadric_run()
    keys = held_keys(run)
    assert len(keys) == (310807 if work == "column_to_seven" else 78993)
    assert [key for key in keys.values() if len(key) > 1] == []


@pytest.mark.parametrize("work", ["column_to_seven", "quadric_tables"])
def test_the_codes_a_run_uses_have_distinct_primes(work):
    # every code in a vector's rest, among its targets or among its solve's
    # inputs has a prime of its own, each checked by trial division
    m = engine_module
    run = cold_run(7) if work == "column_to_seven" else quadric_run()
    used = set()
    for space, degree, rest, values, _ in solve_vectors(run.engine):
        k = gw.chern_number(space, degree) - 1 - sum(
            map(sum, map(m._diagram, rest)))
        used.update(rest, range(m._first[k], m._first[k + 1]),
                    *(codes for codes, *_ in m._solve_inputs(k)))
    primes = list(map(prime_of, used))
    assert len(set(primes)) == len(primes)
    assert all(map(is_prime, primes))


def test_vectors_are_the_narrowest_int_arrays(monkeypatch):
    # ((3,), (1,) * m) takes one weight-3 solve, beside all-ones points, on
    # top of a weight-2 one; shifting the top solve's values past int32 and
    # past int64 stores that vector as 'q' and as a tuple, and every value
    # still reads back exactly
    m = {2: 2, 3: 5, 4: 8}
    clean = Engine()
    for d in m:
        clean.hat_invariant("cp2", d, ((3,),) + ((1,),) * m[d])
    shifts = {2: 0, 3: 2**40, 4: 2**70}
    real, shift = engine_module.solve_split_system, [0]

    def shifted(k, closure, values):
        solved = real(k, closure, values)
        return [v + shift[0] for v in solved] if k == 3 else solved

    monkeypatch.setattr(engine_module, "solve_split_system", shifted)
    e = Engine()
    for d in m:
        shift[0] = shifts[d]
        e.hat_invariant("cp2", d, ((3,),) + ((1,),) * m[d])
    kinds = {d: sorted(getattr(v, "typecode", "tuple")
                       for _, degree, _, v, _ in solve_vectors(e)
                       if degree == d)
             for d in m}
    assert kinds == {2: ["i", "i"], 3: ["i", "q"], 4: ["i", "tuple"]}
    for d in m:
        for top in [(3,), (2, 1)]:
            key = (top,) + ((1,),) * m[d]
            assert (e.hat_invariant("cp2", d, key)
                    == clean.hat_invariant("cp2", d, key) + shifts[d])
    expected = dict(clean.memo_items())
    for text, value in e.memo_items():
        d = int(text.split(";")[1])
        top = text.split(";")[2].split("|")[0] in ("(3)", "(2,1)")
        assert value == expected[text] + (shifts[d] if top else 0), text


# three free points beside ((3,), (3,), (2,)) put the keys with (2, 1)
# twice inside degree 4's adjunction budget, 3
POINTS = ((1,),) * 3


def corrupt_top_solve(monkeypatch, by, degree=4,
                      top=((3,), (3,), (2,)) + POINTS, target=(2, 1)):
    """An Engine holding top (by default ((3,), (3,), (2,)) and POINTS at
    degree 4) whose last solve, the one next to top less its first diagram,
    stored its target entry plus by, and the true value of that entry's key
    (by default ((3,), (2, 1), (2,)) and POINTS)."""
    clean = Engine()
    clean.hat_invariant("cp2", degree, top)
    last = clean.counters["solves"]  # the top solve comes after its inputs
    real = engine_module.solve_split_system
    calls = []

    def corrupt_last(k, closure, values):
        solved = real(k, closure, values)
        calls.append(k)
        if len(calls) == last:
            solved[solve_plan(sum(top[0])).parts.index(target) - 1] += by
        return solved

    monkeypatch.setattr(engine_module, "solve_split_system", corrupt_last)
    e = Engine()
    e.hat_invariant("cp2", degree, top)
    return e, clean.hat_invariant("cp2", degree, (target,) + top[1:])


# how an error message prints the key ((3,), (2, 1), (2,)) and POINTS
THREE_TWO_ONE = (r"\('cp2', 4, \(\(3,\), \(2, 1\), \(2,\), \(1,\), \(1,\), "
                 r"\(1,\)\)\)")


def test_overlapping_solve_vectors_are_cross_checked(monkeypatch):
    # ((3,), (2, 1), (2,)) with POINTS is held by two weight-3 solve
    # vectors: the one next to ((3,), (2,)) and the one next to ((2, 1),
    # (2,)), each with POINTS.  Corrupt its entry in the first; the second
    # solve re-derives it and must refuse
    e, _ = corrupt_top_solve(monkeypatch, 1)
    with pytest.raises(InconsistencyError,
                       match=r"conflicting values \d+ and \d+ for "
                             + THREE_TWO_ONE):
        e.hat_invariant("cp2", 4, ((2, 1), (2, 1), (2,)) + POINTS)


def test_a_first_holder_is_cross_checked_from_a_later_one(monkeypatch):
    # the same key the other way round: corrupt its entry in the vector
    # next to ((2, 1), (2,)) and POINTS, the first _held tries.  The solve
    # next to ((3,), (2,)) and POINTS re-derives it as its target (2, 1),
    # which is not the key's top code: its check skips only the vector
    # beside the key less (2, 1) and must refuse
    e, value = corrupt_top_solve(monkeypatch, 1, 4,
                                 ((2, 1), (2, 1), (2,)) + POINTS, (3,))
    with pytest.raises(InconsistencyError,
                       match=r"conflicting values %d and %d for "
                             % (value + 1, value) + THREE_TWO_ONE):
        e.hat_invariant("cp2", 4, ((3,), (3,), (2,)) + POINTS)


def test_a_holder_past_a_missing_one_is_cross_checked(monkeypatch):
    # ((4,), (3, 1), (2, 2), (2,)) at degree 5 has three weight-4 holders,
    # beside the key less (4,), less (3, 1) and less (2, 2).  Corrupt its
    # entry in the last; the second is never solved.  The solve beside the
    # first re-derives the key, skips its own vector, which is not stored
    # yet, finds the second missing and must refuse at the last
    top = ((4,), (4,), (3, 1), (2,))
    e, value = corrupt_top_solve(monkeypatch, 1, 5, top, (2, 2))
    second = tuple(map(engine_module._code, ((4,), (2, 2), (2,))))
    with pytest.raises(InconsistencyError,
                       match=r"conflicting values %d and %d for "
                             r"\('cp2', 5, \(\(4,\), \(3, 1\), \(2, 2\), "
                             r"\(2,\)\)\)" % (value + 1, value)):
        e.hat_invariant("cp2", 5, ((3, 1), (3, 1), (2, 2), (2,)))
    assert vector_at(e, "cp2", 5, second) is None


def test_an_array_and_a_tuple_that_conflict_are_refused(monkeypatch):
    # the same corruption past int64: the corrupt vector is a tuple, the
    # one that re-derives the entry an int array, and both values are exact
    e, value = corrupt_top_solve(monkeypatch, 2**70)
    kinds = [type(v) for *_, v, _ in solve_vectors(e)]
    assert kinds.count(tuple) == 1 and kinds.count(array) == len(kinds) - 1
    with pytest.raises(InconsistencyError, match=r"conflicting values %d and "
                       r"%d for " % (value + 2**70, value) + THREE_TWO_ONE):
        e.hat_invariant("cp2", 4, ((2, 1), (2, 1), (2,)) + POINTS)


def test_memo_items_are_distinct_and_reproducible():
    # each memoized key is yielded once, and its value is what a fresh
    # engine computes for the key read back from its text
    e = Engine()
    column(e, 6)
    items = list(e.memo_items())
    texts = [text for text, _ in items]
    assert len(set(texts)) == len(texts)
    fresh = Engine()
    for text, value in random.Random(6).sample(items, 200):
        space, dtext, ptext = text.split(";")
        cs = parse_constraints(ptext.replace("|", ";"))
        assert fresh.hat_invariant(
            space, parse_degree(dtext, space), cs) == value, text


def per_key_memo_items(e):
    """The memo spelled out slot by slot, as a reference that shares
    neither _held nor the closure: {key text: value} over every vector
    slot's key, sorted and decoded, whose summed local_double_points are
    within double_point_count of its class; slots that hold one key must
    agree."""
    m = engine_module
    out = {}
    for space, degree, rest, vector, _ in solve_vectors(e):
        on_shell = gw.chern_number(space, degree) - 1
        budget = double_point_count(space, degree)
        k = on_shell - sum(map(sum, map(m._diagram, rest)))
        for q, value in enumerate(vector, m._first[k] + 1):
            key = space, degree, tuple(sorted(rest + (q,), reverse=True))
            cs = m._decoded(key)[2]
            if sum(map(local_double_points, cs)) > budget:
                continue
            text = encode_key(space, degree, cs)
            assert out.setdefault(text, value) == value, text
    return out


# T_1..T_6 in the test's engine; the id keeps the tests' names
column_to_six = pytest.param(partial(column, top=6), id="cold_column")


def quadric_table(e):
    e.full_table("p1xp1", (4, 3))


def shared_top_weight(e):
    # two constraints of the top weight with a branch >= 2: the rest of
    # each top solve holds another target, and some keys sit in two vectors
    for degree, cs in [(3, ((3,), (3,), (2,))), (3, ((2, 1), (2, 1), (2,))),
                       (4, ((4,), (4,), (3,))), (4, ((3, 1), (2, 2), (3,)))]:
        e.hat_invariant("cp2", degree, cs)
    held = sum(len(vector) for *_, vector, _ in solve_vectors(e))
    assert held > sum(1 for _ in e.memo_items())


@pytest.mark.parametrize("work", [column_to_six, quadric_table,
                                  shared_top_weight])
def test_memo_items_match_the_per_key_enumeration(work):
    e = Engine()
    work(e)
    items = list(e.memo_items())
    assert len(dict(items)) == len(items)  # each key once
    assert dict(items) == per_key_memo_items(e)


def test_a_key_held_by_three_vectors_is_yielded_once():
    # after these four keys, ((4,), (3, 1), (2, 2), (2,)) sits in the
    # weight-4 vectors beside each of its three targets: memo_items yields
    # it once, and _held reads it from the vector beside its largest, (4,)
    e = Engine()
    top = ((4,), (3, 1), (2, 2), (2,))
    for cs in [((4,), (4,), (3, 1), (2,)), ((4,), (4,), (2, 2), (2,)),
               ((3, 1), (3, 1), (2, 2), (2,)), top]:
        e.hat_invariant("cp2", 5, cs)
    codes = tuple(map(engine_module._code, top))
    assert all(vector_at(e, "cp2", 5, codes[:i] + codes[i + 1:]) is not None
               for i in range(3))
    assert e._held("cp2", 5, codes, vector_key(codes), 4) == (
        codes[0], Engine().hat_invariant("cp2", 5, top))
    texts = [text for text, _ in e.memo_items()]
    assert texts.count(encode_key("cp2", 5, top)) == 1


class Marked:
    """A vector whose entry at each slot is (its rest, slot)."""

    def __init__(self, rest):
        self.rest = rest

    def __getitem__(self, slot):
        return self.rest, slot


class Everywhere(dict):
    """A vector store in which every rest holds a Marked vector, so what a
    read returns says which vector and slot it read."""

    def get(self, rest, default=None):
        return Marked(rest)


class Nowhere(dict):
    """A vector store that holds no vector, so every read misses."""

    def get(self, rest, default=None):
        return None


class Probed(dict):
    """A vector store that keeps each rest it is asked for."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, rest, default=None):
        self.asked.append(rest)
        return super().get(rest, default)


class Inputs(Exception):
    """Raised in place of a solve, with the inputs it was given."""


def read_inputs(k, closure, values):
    """Stop a solve: raise Inputs with the codes of each input it read,
    beside its rest, and the value read."""
    inputs = engine_module._solve_inputs(k)
    raise Inputs([inputs[r][0] for r in closure.reads], values)


class Replay(Engine):
    """An engine with the given vector store, which keeps the keys that
    reach _base.  Below the solve it replays, a solve returns a Marked
    vector naming its (rest, rank) instead of solving."""

    def __init__(self, space, degree, store):
        super().__init__()
        vector_stores(self)[space, degree] = store()
        self.asked, self.depth = [], 0

    def _base(self, space, degree, cs):
        self.asked.append(cs)
        return super()._base(space, degree, cs)

    def _solve_at(self, space, degree, rest, rank, pk):
        if self.depth:
            return Marked((rest, rank))
        self.depth += 1
        try:
            return super()._solve_at(space, degree, rest, rank, pk)
        finally:
            self.depth -= 1


def top_level_code(key):
    """The first code of a coded key whose diagram has a branch >= 2."""
    return next(c for c in key if engine_module._diagram(c)[0] >= 2)


def shortcut_disagreements(e):
    """The inputs of e's solves that _solve_at does not read as it should,
    as (store, space, degree, key, read).  Each solve is replayed twice,
    with solve_split_system swapped for a stop that returns the inputs.
    Where every vector exists ("held"), an input key with a level code is
    read from the vector and slot _held tries first.  Where none does
    ("missing"), such a key is solved in place, beside the key less its top
    level code, ranked by its level and how many codes have it, and read at
    that code's slot.  In both, no key read is past the class's adjunction
    budget (by the reference counts), as the solve's closure leaves those
    out, a key with a level code never reaches _base, and a key with none
    must reach it, which finds a base case."""
    m, bad = engine_module, []
    for space, degree, rest, _, pk in solve_vectors(e):
        on_shell = gw.chern_number(space, degree) - 1
        budget = double_point_count(space, degree)
        k = on_shell - sum(map(sum, map(m._diagram, rest)))
        rank = complexity(tuple(map(m._diagram, rest)) + ((k,),))
        for name, store in [("held", Everywhere), ("missing", Nowhere)]:
            probe = Replay(space, degree, store)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(m, "solve_split_system", read_inputs)
                with pytest.raises(Inputs) as stop:
                    probe._solve_at(space, degree, rest, rank, pk)
            for codes, read in zip(*stop.value.args):
                key = tuple(sorted(rest + codes, reverse=True))
                diagrams = tuple(map(m._diagram, key))
                level, count = complexity(diagrams)
                if sum(map(local_double_points, diagrams)) > budget:
                    ok = False
                elif level == 1:
                    ok = key in probe.asked and type(read) is int
                elif name == "held":
                    ok = key not in probe.asked and read == probe._held(
                        space, degree, key, vector_key(key), level)[1]
                else:
                    top = top_level_code(key)
                    i = key.index(top)
                    ok = key not in probe.asked and read == (
                        (key[:i] + key[i + 1:], (level, count)),
                        top - m._first[level] - 1)
                if not ok:
                    bad.append((name, space, degree, key, read))
    return bad


@pytest.mark.parametrize("work", [column_to_six, quadric_table])
def test_solve_inputs_are_read_where_held_looks_first(work):
    e = Engine()
    work(e)
    assert shortcut_disagreements(e) == []


def test_a_wrong_slot_offset_is_a_disagreement(monkeypatch):
    # _solve_inputs keeps the slots of the inputs' own top codes, and _reads
    # gives a solve those it reads; a slot one off for each is found, both
    # where the input is read from its vector and where it is solved in
    # place
    e = Engine()
    e.invariant("cp2", 3, ((8,),))
    real = engine_module._reads
    monkeypatch.setattr(engine_module, "_reads", lambda k, left: (
        real(k, left)[0], tuple((codes, s if s is None else s + 1, *keys)
                                for codes, s, *keys in real(k, left)[1])))
    assert {bad[0] for bad in shortcut_disagreements(e)} == {"held",
                                                             "missing"}


def test_solve_inputs_are_the_row_splits_then_all_ones():
    # input r < p(k) - 1 of a weight-k solve is partition r split into its
    # top row and the rest, input p(k) - 1 is (1,)*k; a level code comes
    # first, with its slot, then the keys of its codes and of the codes
    # after the first
    m = engine_module
    for k in range(2, 13):
        parts = partitions_of(k)
        inputs = m._solve_inputs(k)
        assert [sorted(map(m._diagram, codes)) for codes, *_ in inputs] == [
            sorted([(y[0],), y[1:]]) for y in parts[:-1]] + [[(1,) * k]]
        for codes, slot, whole, tail in inputs:
            top = codes[0]
            assert all(top in m._LEVEL and top >= c
                       for c in codes[1:] if c in m._LEVEL)
            assert slot == (top - m._first[m._LEVEL[top]] - 1
                            if top in m._LEVEL else None)
            assert (whole, tail) == (vector_key(codes), vector_key(codes[1:]))


class Asked(Engine):
    """An engine that keeps each key that reaches _base, and the rank each
    solve is given."""

    def __init__(self):
        super().__init__()
        self.asked, self.ranks = [], []

    def _base(self, space, degree, cs):
        self.asked.append(tuple(map(engine_module._diagram, cs)))
        return super()._base(space, degree, cs)

    def _solve_at(self, space, degree, rest, rank, pk):
        self.ranks.append((tuple(map(engine_module._diagram, rest)), rank))
        return super()._solve_at(space, degree, rest, rank, pk)


def test_a_sole_holder_miss_never_reaches_base():
    # at degree 5, with POINTS, inside the adjunction budget, 6: the top
    # solve, beside ((3,), (2, 1), (1,)) and POINTS, needs the key lower: it
    # holds (2, 1) below (3,), so a vector beside (3,) may hold it too.  That
    # one is missing as well, so lower is solved in place beside the key less
    # (3,), ranked (3, 2).  Its solve needs the key sole, whose only code of
    # weight 3 is (2, 1): it is solved in place, beside the rest, ranked
    # (3, 1).  Only all-ones keys reach _base
    e = Asked()
    top = ((4,), (3,), (2, 1), (1,)) + POINTS
    assert e.hat_invariant("cp2", 5, top) == Engine().hat_invariant(
        "cp2", 5, top)
    lower = canonical_constraints(((3,), (2, 1), (1, 1, 1), (1,), (1,))
                                  + POINTS)
    sole = canonical_constraints(((2, 1), (2,), (1, 1, 1), (1,), (1,), (1,))
                                 + POINTS)
    assert lower not in e.asked and sole not in e.asked
    assert (lower[1:], (3, 2)) in e.ranks
    assert (canonical_constraints(((2,), (1, 1, 1), (1,), (1,), (1,))
                                  + POINTS), (3, 1)) in e.ranks
    assert e.asked
    for key in e.asked:  # a key reaching _base has no level code
        assert complexity(key) == (1, 0), key
    assert e.counters["evaluations"] > len(set(e.asked))


def test_a_later_holder_answers_a_levelled_input():
    # ((4,), (3, 1), (2, 2), (2,)) has three codes of weight 4.  After
    # ((4,), (4,), (2, 2), (2,)) at degree 5, its second holder, beside
    # ((4,), (2, 2), (2,)), is stored but not its first, beside ((3, 1),
    # (2, 2), (2,)).  As the input ((4,), (2,)) of the weight-6 solve beside
    # ((3, 1), (2, 2)) it is read from the second holder: one memo hit, no
    # evaluation, no solve and no _base.  Every other input it reads
    # misses.  _held told to skip (4,) does not probe the first holder
    code = engine_module._code
    e = Engine()
    e.hat_invariant("cp2", 5, ((4,), (4,), (2, 2), (2,)))
    key = tuple(map(code, ((4,), (3, 1), (2, 2), (2,))))
    second = key[:1] + key[2:]
    assert vector_at(e, "cp2", 5, key[1:]) is None
    probe = Replay("cp2", 5, Probed)
    store = vector_stores(probe)["cp2", 5]
    store[vector_key(second)] = vector_at(e, "cp2", 5, second)
    value = Engine().hat_invariant("cp2", 5, tuple(
        map(engine_module._diagram, key)))
    whole = vector_key(key)
    assert probe._held("cp2", 5, key, whole, 4, key[0]) == (key[1], value)
    assert probe._held("cp2", 5, key, whole, 4) == (key[1], value)
    assert store.asked == list(map(vector_key, [second, key[1:], second]))
    rest = (code((3, 1)), code((2, 2)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "solve_split_system", read_inputs)
        with pytest.raises(Inputs) as stop:
            probe._solve_at("cp2", 5, rest, (6, 1), vector_key(rest))
    inputs, values = stop.value.args
    read = values[inputs.index((code((4,)), code((2,))))]
    assert read == value and probe.asked == []
    # (3, 1) and (2, 2) leave 3 of the class's 6 double points: the solve
    # reads the rows of the 4 unknowns below (6,) that force at most 3, and
    # the row of (3, 1, 1, 1), which forces 6, to close the loop.  Of the 6
    # of its 11 inputs it leaves, 3 are past the budget, and 3 are the rows
    # of other unknowns that force more than 3
    past = [sum(map(local_double_points, ((3, 1), (2, 2)) + tuple(map(
        engine_module._diagram, codes)))) > double_point_count("cp2", 5)
        for codes, *_ in engine_module._solve_inputs(6)]
    assert solve_closure(6, 3).reads == (9, 8, 7, 6, 4)
    assert len(inputs) == 5 and not any(past[r] for r in (9, 8, 7, 6, 4))
    assert past.count(True) == 3
    assert probe.counters == {
        "evaluations": len(inputs) - 1, "solves": 0, "base_cases": 0,
        "memo_hits": 1, "adjunction_zeros": 0}


def test_a_key_with_its_top_level_code_twice_is_ranked_two():
    # (2,) twice: the rank counts both, so the key's sole-holder input
    # ((2,), (1,), (1,), (1,)), ranked (2, 1), descends from it
    e = Asked()
    assert e.hat_invariant("cp2", 2, ((2,), (2,), (1,))) == Engine(
        ).hat_invariant("cp2", 2, ((2,), (2,), (1,)))
    assert e.ranks[0] == (((2,), (1,)), (2, 2))
    assert (((1,), (1,), (1,)), (2, 1)) in e.ranks
