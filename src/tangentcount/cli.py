"""Command-line front end.

Subcommands:

  compute   one invariant N (or hat-H with --hat) for a class and constraints
  table     on the plane, the full-tangency column T_d per degree, or
            every nonzero single-point invariant of one degree
  verify    self-checks against published values and internal identities,
            and with a cache file, a fresh recomputation of its records
  star      the diagram product expansion of two branching diagrams
  matrix    the box-moving matrix of one weight, optionally its determinant

Degrees are plain integers for the plane (``--space cp2 -d 3``) and pairs
for the quadric (``--space p1xp1 -d 2,1``).  Constraints are semicolon-
separated diagrams: ``-c "(1);(1);(3)"``; row order inside a diagram does
not matter.  Exit codes: 0 success, 1 a verification check failed,
2 bad usage, 3 internal inconsistency detected, 4 out of memory, 130
interrupted (SIGINT); each failure is said in one line on stderr.

A cache file (``--cache-file`` or the TANGENTCOUNT_CACHE environment
variable) persists computed tangency invariants between runs; the plane
and blowup Gromov-Witten counts under them are recomputed instead.
``--no-cache`` disables it, ``--stats`` reports work counters on stderr.
"""

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager, nullcontext

from . import gw
from .cache import CountCache
from .engine import Engine, canonical_constraints, encode_key
from .errors import InconsistencyError
from .matrices import move_determinant, move_matrix
from .partitions import diagram_text, parse_diagram, partitions_of
from .star import combine_forward, star

# Largest degree and row `compute` and `table` take in an on-shell key: a
# usage guard at parse time, not a bound on the work.
KEY_LIMIT = 255

# Largest weight `matrix` builds: the dense (p(k)-1)^2 matrix takes about
# 114 MB at k = 24 and grows like p(k)^2, about 1.4 GB at k = 30.
MATRIX_LIMIT = 24

# Published values used by `verify` as regression targets.  T_d is the
# degree-d count with one full-tangency point; the per-degree dicts list
# every nonzero single-point invariant of that degree.
TANGENCY_MAX = {1: 1, 2: 1, 3: 4, 4: 26, 5: 217, 6: 2110, 7: 22744,
                8: 264057, 9: 3242395}

SINGLE_POINT = {
    1: {(2,): 1},
    2: {(5,): 1},
    3: {(8,): 4, (7, 1): 1},
    4: {(11,): 26, (10, 1): 14, (9, 2): 3, (9, 1, 1): 1, (8, 3): 1},
    5: {(14,): 217, (13, 1): 182, (12, 2): 57, (12, 1, 1): 34, (11, 3): 27,
        (11, 2, 1): 12, (11, 1, 1, 1): 1, (10, 4): 9, (10, 3, 1): 5,
        (9, 5): 3, (9, 4, 1): 1, (8, 6): 1},
    6: {(17,): 2110, (16, 1): 2414, (15, 2): 892, (15, 1, 1): 771,
        (14, 3): 487, (14, 2, 1): 418, (14, 1, 1, 1): 69, (13, 4): 230,
        (13, 3, 1): 210, (13, 2, 2): 32, (13, 2, 1, 1): 31,
        (13, 1, 1, 1, 1): 1, (12, 5): 114, (12, 4, 1): 84, (12, 3, 2): 25,
        (12, 3, 1, 1): 15, (11, 6): 56, (11, 5, 1): 34, (11, 4, 2): 6,
        (11, 4, 1, 1): 5, (11, 3, 3): 4, (10, 7): 22, (10, 6, 1): 14,
        (10, 5, 2): 2, (10, 5, 1, 1): 1, (10, 4, 3): 1, (9, 8): 13,
        (9, 7, 1): 4, (9, 6, 2): 1, (8, 8, 1): 1},
}


# ------------------------------------------------------------------ parsing

def parse_degree(text, space):
    """Degree syntax: "3" for the plane, "2,1" for the quadric; the value
    is judged by gw.degree_entries."""
    try:
        degree = tuple(map(int, text.split(",")))
        if space == "cp2" and len(degree) == 1:
            degree = degree[0]
        gw.degree_entries(space, degree)
        return degree
    except ValueError:
        raise ValueError(
            "bad degree %r for space %s (expected %s)"
            % (text, space, "a,b" if space == "p1xp1" else "an integer"))


def parse_constraints(text):
    """Constraint syntax: semicolon-separated diagrams like "(1);(3,1)".

    Rows may come in any order; each diagram is canonicalized to weakly
    decreasing.
    """
    out = tuple(parse_diagram(chunk) for chunk in text.split(";")
                if chunk.strip())
    if not out:
        raise ValueError("no constraints in %r" % (text,))
    return out


# ----------------------------------------------------------------- emitting

def emit_records(records, fields, fmt):
    """Uniform table output on stdout: records are dicts sharing the given
    fields."""
    out = sys.stdout
    if fmt == "json":
        json.dump(records, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    elif fmt == "markdown":
        out.write("| " + " | ".join(fields) + " |\n")
        out.write("|" + "|".join(" --- " for _ in fields) + "|\n")
        for rec in records:
            out.write("| " + " | ".join(str(rec[f]) for f in fields) + " |\n")
    else:
        widths = [max([len(f)] + [len(str(r[f])) for r in records])
                  for f in fields]
        out.write("  ".join(f.ljust(w) for f, w in zip(fields, widths)).rstrip()
                  + "\n")
        for rec in records:
            out.write("  ".join(str(rec[f]).ljust(w)
                                for f, w in zip(fields, widths)).rstrip()
                      + "\n")


# ------------------------------------------------------------------ commands

def cmd_compute(args, parser):
    try:
        degree = parse_degree(args.degree, args.space)
        constraints = parse_constraints(args.constraints)
    except ValueError as exc:
        parser.error(str(exc))
    cs = canonical_constraints(constraints)
    key = encode_key(args.space, degree, cs)
    total = sum(map(sum, constraints))
    needed = gw.chern_number(args.space, degree) - 1
    if total != needed:
        print("constraint weights sum to %d but the class needs %d; "
              "the invariant vanishes" % (total, needed), file=sys.stderr)
    else:
        _check_key_size(parser, args.space, degree, cs)
    with _session(args) as (engine, cache):
        cached = total == needed and cache is not None and key in cache.entries
        if args.hat:
            value = engine.hat_invariant(args.space, degree, constraints)
        else:
            value = engine.invariant(args.space, degree, constraints)
        record = {"key": key, "value": value,
                  "provenance": "cached" if cached else "computed"}
        if args.format == "plain":
            print(value)
        else:
            emit_records([record], ["key", "value", "provenance"],
                         args.format)
    return 0


def cmd_table(args, parser):
    if args.degree is not None:
        low = high = args.degree
    else:
        low, high = 1, args.max_d
    if min(low, high) < 1:
        parser.error("degrees start at 1")
    _check_key_size(parser, "cp2", high, ((3 * high - 1,),))
    with _session(args) as (engine, cache):
        records = []
        if args.mode == "tangency-max":
            fields = ["d", "tangency_max", "point_count", "descendant"]
            for d in range(low, high + 1):
                records.append({
                    "d": d,
                    "tangency_max": engine.invariant(
                        "cp2", d, ((3 * d - 1,),)),
                    "point_count": gw.kontsevich_count(d),
                    "descendant": str(gw.descendant_average(d)),
                })
        else:
            fields = ["key", "value", "provenance"]
            for d in range(low, high + 1):
                for p, n in engine.full_table("cp2", d).items():
                    key = encode_key("cp2", d, (p,))
                    records.append({
                        "key": key,
                        "value": n,
                        "provenance": "cached"
                        if cache is not None and key in cache.entries
                        else "computed",
                    })
        emit_records(records, fields, args.format)
    return 0


def cmd_star(args, parser):
    try:
        p1, p2 = parse_diagram(args.first), parse_diagram(args.second)
        expansion = sorted(star(p1, p2).items())
    except ValueError as exc:  # a bad diagram, or a walk past its bound
        parser.error(str(exc))
    if args.format == "plain":
        terms = " + ".join(
            ("%d %s" % (c, diagram_text(q))) if c != 1 else diagram_text(q)
            for q, c in expansion)
        print("%s * %s = %s" % (diagram_text(p1), diagram_text(p2), terms))
    else:
        emit_records([{"key": diagram_text(q), "value": c,
                       "provenance": "computed"} for q, c in expansion],
                     ["key", "value", "provenance"], args.format)
    return 0


def cmd_matrix(args, parser):
    if not 2 <= args.k <= MATRIX_LIMIT:
        parser.error("the move matrix needs weight 2 <= k <= %d"
                     % MATRIX_LIMIT)
    mat = move_matrix(args.k)
    texts = [diagram_text(p) for p in partitions_of(args.k)]  # (1^k) first
    rows, cols = texts[:-1], texts[1:]
    det = move_determinant(args.k) if args.det else None
    if args.format == "json":  # no indent: the C encoder writes it all
        payload = {"k": args.k, "rows": rows, "cols": cols, "entries": mat}
        if args.det:
            payload["det"] = str(det)
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        records = [{"row": label, **dict(zip(cols, entries))}
                   for label, entries in zip(rows, mat)]
        if args.format != "csv":
            print("A_%d: rows = diagrams of %d except (%d), columns = "
                  "except %s" % (args.k, args.k, args.k, texts[0]))
        elif args.det:  # one last record, its value in the first column
            records.append({"row": "det", cols[0]: det})
        emit_records(records, ["row"] + cols, args.format)
        if args.det and args.format != "csv":
            print("det = %s" % det)
    return 0


def cmd_verify(args, parser):
    max_d = args.max_d
    if max_d < 1:
        parser.error("--max-d must be at least 1")
    failures = []

    def report(name, ok, detail=""):
        line = "%s %s" % ("PASS" if ok else "FAIL", name)
        if detail and not ok:
            line += ": " + detail
        print(line)
        if not ok:
            failures.append(name)

    with _session(args) as (engine, cache):
        if cache and cache.rejected:  # no records to recompute
            report("cache records of degree at most %d" % max_d, False,
                   "file not read (%s)" % cache.rejected)
        elif cache:  # recompute the records of degree <= max_d afresh
            fresh, (n, numbered) = Engine(), cache.entries.audit()
            bad = [] if n is None else [
                "line %d is out of sort order or repeats a key" % n]
            for n, record in numbered:
                if record is None:
                    bad.append("line %d is no record" % n)
                    continue
                key, stored = record
                try:
                    space, dtext, ctext = key.split(";")
                    degree = parse_degree(dtext, space)
                    if sum(gw.degree_entries(space, degree)) > max_d:
                        continue
                    cs = parse_constraints(ctext.replace("|", ";"))
                    if key != encode_key(space, degree,
                                         canonical_constraints(cs)):
                        bad.append("%s is not the canonical text of its key"
                                   % key)
                        continue
                    value = fresh.hat_invariant(space, degree, cs)
                except ValueError:
                    value = "unreadable"
                if value != stored:
                    bad.append("%s stored %d computed %s"
                               % (key, stored, value))
            report("cache records of degree at most %d" % max_d, not bad,
                   "; ".join(bad))
            if bad:  # the other checks go on without the wrong records
                engine = fresh

        hi = min(max_d, max(TANGENCY_MAX))
        bad = [(d, engine.invariant("cp2", d, ((3 * d - 1,),)))
               for d in range(1, hi + 1)]
        bad = [(d, v) for d, v in bad if v != TANGENCY_MAX[d]]
        report("full-tangency counts, degrees 1..%d" % hi, not bad,
               "mismatches %r" % bad)

        hi = min(max_d, max(SINGLE_POINT))
        bad = [d for d in range(1, hi + 1)
               if engine.full_table("cp2", d) != SINGLE_POINT[d]]
        report("single-point tables, degrees 1..%d" % hi, not bad,
               "wrong table at degrees %r" % bad)

        hi = min(max_d, 6)
        bad = []
        for d in range(1, hi + 1):
            lhs, rhs = engine.sum_identity("cp2", d)
            if lhs != rhs or lhs != gw.kontsevich_count(d):
                bad.append((d, lhs, rhs))
        report("point-count identity, degrees 1..%d" % hi, not bad,
               "mismatches %r" % bad)

        bad, weights = [], range(2, MATRIX_LIMIT + 1)
        for k in weights:
            try:
                move_determinant(k)
            except InconsistencyError as exc:
                bad.append(str(exc))
        report("move-matrix determinant law, weights %d..%d"
               % (weights[0], weights[-1]), not bad, "; ".join(bad))

        hi = min(max_d, 5)
        bad = []
        for d in range(1, hi + 1):  # each key (P1, P2) of weight 3d - 1 once
            m, fresh = 3 * d - 1, Engine()  # its own solves, not the memo
            for key in sorted({canonical_constraints((p1, p2))
                               for w in range(1, m) for p1 in partitions_of(w)
                               for p2 in partitions_of(m - w)}):
                n = fresh.invariant("cp2", d, key)
                run = engine.invariant("cp2", d, key)
                pushed = sum(c * engine.invariant("cp2", d, q)
                             for c, q in combine_forward(key))
                if not n == run == pushed:
                    bad.append("%s is %d, %d in the run, pushed together %s"
                               % (encode_key("cp2", d, key), n, run, pushed))
        report("push-together formula, two-point keys of degrees 1..%d" % hi,
               not bad, "; ".join(bad))
    return 1 if failures else 0


# ------------------------------------------------------------------ plumbing

@contextmanager
def _session(args):
    """A fresh Engine that looks each key it is asked for up in the cache
    file's sorted lines, if there is one, and computes the rest.

    Yields (engine, cache), cache None without a file, as with a path
    that cannot be opened as one (said on stderr).  What a run keeps
    is decided here: on a clean exit or an interrupt the run's new results
    are harvested, for the cache to write into the file as it closes (a
    computed value that a record contradicts raises InconsistencyError
    there); every value solved is exact, an interrupted run's too.  Any
    other exception skips the harvest, and the file is left as it was.
    After a clean harvest, --stats sends the work counters to stderr; an
    exception there keeps the harvested records.
    """
    path = None if args.no_cache else (
        args.cache_file or os.environ.get("TANGENTCOUNT_CACHE"))
    engine, cache = Engine(), None
    if path:
        try:
            cache = CountCache(path)
        except OSError as exc:
            print("cache %s unavailable (%s); running without persistence"
                  % (path, exc), file=sys.stderr)
    with cache or nullcontext():
        if cache:
            cache.preload(engine)
        try:
            yield engine, cache
        except KeyboardInterrupt:
            if cache:
                cache.harvest(engine)
            raise
        if cache:
            cache.harvest(engine)
        if args.stats:
            pairs = ["%s=%d" % kv for kv in sorted(engine.counters.items())]
            pairs += ["%s=%d" % kv for kv in sorted(gw.counters.items())]
            if cache:
                pairs.append("cache_entries=%d" % len(cache.entries.lines))
            print("stats: " + " ".join(pairs), file=sys.stderr)


def _check_key_size(parser, space, degree, cs):
    """Usage error, before any work, for a key whose degree (or bidegree)
    or a row is above KEY_LIMIT."""
    sizes = [*gw.degree_entries(space, degree)] + [c[0] for c in cs]
    if max(sizes) > KEY_LIMIT:
        parser.error("key %s is too large: the degree and every row must "
                     "be at most %d" % (encode_key(space, degree, cs),
                                        KEY_LIMIT))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tangentcount",
        description="Counts of rational plane and quadric curves with "
                    "multibranched local tangency constraints.")
    sub = parser.add_subparsers(dest="command", required=True)

    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument("--cache-file", metavar="PATH",
                             help="persistent cache file (default: "
                                  "$TANGENTCOUNT_CACHE)")
    cache_flags.add_argument("--no-cache", action="store_true",
                             help="run without any persistent cache")
    cache_flags.add_argument("--stats", action="store_true",
                             help="print work counters to stderr")

    fmt = dict(choices=("plain", "csv", "json", "markdown"), default="plain")

    p = sub.add_parser("compute", parents=[cache_flags],
                       help="one invariant for a class and constraints")
    p.add_argument("--space", choices=("cp2", "p1xp1"), default="cp2")
    p.add_argument("-d", "--degree", required=True,
                   help="degree, or bidegree a,b for p1xp1")
    p.add_argument("-c", "--constraints", required=True,
                   help='semicolon-separated diagrams, e.g. "(1);(3,1)"')
    p.add_argument("--hat", action="store_true",
                   help="print the ordered-branch normalization hat-H")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("table", parents=[cache_flags],
                       help="tangency-max column or full nonzero table")
    p.add_argument("--mode", choices=("tangency-max", "full"),
                   default="tangency-max")
    degrees = p.add_mutually_exclusive_group(required=True)
    degrees.add_argument("-d", "--degree", type=int, help="single degree")
    degrees.add_argument("--max-d", type=int, help="degrees 1..N")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", parents=[cache_flags],
                       help="self-checks against published values")
    p.add_argument("--max-d", type=int, default=5,
                   help="largest degree checked (default 5)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("star", help="product expansion of two diagrams")
    p.add_argument("first", help='first diagram, e.g. "(3,1,1)"')
    p.add_argument("second", help='second diagram, e.g. "(2,2)"')
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("matrix", help="the box-moving matrix of one weight")
    p.add_argument("-k", type=int, required=True,
                   help="diagram weight, 2..%d" % MATRIX_LIMIT)
    p.add_argument("--det", action="store_true",
                   help="also print the (signed) determinant")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_matrix)

    return parser


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        code = args.func(args, parser)
        sys.stdout.flush()
        return code
    except InconsistencyError as exc:
        print("internal inconsistency: %s" % (exc,), file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, with stdout pointed at
        # devnull so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (MemoryError, SystemError):
        # CPython can report a failed allocation as "SystemError: error
        # return without exception set".  Said below, once the handled
        # error has let go of the run's memory: inside this clause its
        # traceback still holds the engine, and printing can fail again.
        pass
    print("out of memory", file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
