"""The command-line surface: argument handling, output formats, exit codes,
and cache behavior observable through --stats."""

import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tangentcount
from tangentcount import (cli, engine as engine_module, gw, matrices,
                          partitions)
from tangentcount.cache import CountCache, header
from tangentcount.cli import main, parse_constraints, parse_degree
from tangentcount.engine import Engine
from tangentcount.errors import InconsistencyError
from tangentcount.partitions import partitions_of

from reference import cold_d4_file, signed, split_header


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def written_records(path):
    """The record lines of a cache file the program wrote, text without
    newlines; checks its header."""
    head, lines = split_header(path.read_bytes())
    assert head == header(lines)
    return [line.decode().rstrip("\n") for line in lines]


def test_parse_degree():
    assert parse_degree("3", "cp2") == 3
    assert parse_degree("2,1", "p1xp1") == (2, 1)
    assert parse_degree(" 2, 1", "p1xp1") == (2, 1)
    for bad, space in [("2,1", "cp2"), ("x", "cp2"), ("-1", "cp2"),
                       ("3", "p1xp1"), ("1,-2", "p1xp1"), ("2,1,3", "p1xp1"),
                       ("2,", "p1xp1"), ("3,", "cp2")]:
        with pytest.raises(ValueError) as info:
            parse_degree(bad, space)
        assert str(info.value) == ("bad degree %r for space %s (expected %s)"
                                   % (bad, space, "a,b" if space == "p1xp1"
                                      else "an integer"))


def test_parse_constraints():
    assert parse_constraints("(8)") == ((8,),)
    assert parse_constraints("(1);(1);(3)") == ((1,), (1,), (3,))
    assert parse_constraints(" (2,1) ; (1,1) ") == ((2, 1), (1, 1))
    for bad in ["", "8", "(8", "()", "(a)", "(0)", "(1)(2)"]:
        with pytest.raises(ValueError):
            parse_constraints(bad)


def test_compute_plain(capsys):
    code, out, err = run(capsys, "compute", "--space", "cp2", "-d", "3",
                         "-c", "(8)", "--no-cache")
    assert code == 0
    assert out.strip() == "4"


def test_compute_canonicalizes_rows(capsys):
    _, sorted_out, _ = run(capsys, "compute", "-d", "4", "-c", "(9,1,1)",
                           "--no-cache")
    _, shuffled_out, _ = run(capsys, "compute", "-d", "4", "-c", "(1,9,1)",
                             "--no-cache")
    assert sorted_out == shuffled_out
    assert sorted_out.strip() == "1"


def test_compute_hat(capsys):
    code, out, _ = run(capsys, "compute", "-d", "3", "-c", "(1,1);(1);(1);(1);(1);(1);(1)",
                       "--hat", "--no-cache")
    assert code == 0
    assert out.strip() == "2"


def test_compute_off_shell_warns(capsys):
    code, out, err = run(capsys, "compute", "-d", "2", "-c", "(3)",
                         "--no-cache")
    assert code == 0
    assert out.strip() == "0"
    assert "vanishes" in err


def test_off_shell_keys_of_any_size_give_zero(capsys):
    for argv in [["-d", "3", "-c", "(100000)"],
                 ["--space", "p1xp1", "-d", "300,1", "-c", "(1)"]]:
        code, out, err = run(capsys, "compute", *argv, "--no-cache")
        assert (code, out) == (0, "0\n")
        assert "vanishes" in err


def test_on_shell_key_too_large_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "-d", "90", "-c", "(269)", "--no-cache"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "cp2;90;(269) is too large" in err.splitlines()[-1]


def test_the_key_size_guard_admits_255_and_refuses_256(capsys, monkeypatch):
    # an on-shell key at the limit reaches the engine; one past it is a
    # usage error before any engine is built
    calls = []

    class Recorder:
        def __init__(self):
            calls.append("engine")

        def invariant(self, space, degree, constraints):
            calls.append((space, degree, constraints))
            return 0

    monkeypatch.setattr("tangentcount.cli.Engine", Recorder)
    code, out, _ = run(capsys, "compute", "-d", "255", "-c", "(255,255,254)",
                       "--no-cache")
    assert (code, out) == (0, "0\n")
    assert calls == ["engine", ("cp2", 255, ((255, 255, 254),))]
    calls.clear()
    with pytest.raises(SystemExit) as info:
        main(["compute", "-d", "256", "-c", "(256,256,255)", "--no-cache"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "tangentcount: error: key cp2;256;(256,256,255) is too large: the "
        "degree and every row must be at most 255")
    assert calls == []


def test_table_key_too_large_is_usage_error(capsys):
    # checked before any work: the full mode would otherwise first list
    # every partition of 257
    for argv in [["table", "-d", "86"], ["table", "--mode", "full", "-d", "86"],
                 ["table", "--max-d", "86"]]:
        with pytest.raises(SystemExit) as info:
            main(argv + ["--no-cache"])
        assert info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == ("tangentcount: error: key cp2;86;(257) is too "
                           "large: the degree and every row must be at "
                           "most 255")


def cli_env():
    """The environment for a `python -m tangentcount.cli` child process."""
    src = os.path.dirname(os.path.dirname(tangentcount.__file__))
    env = {k: v for k, v in os.environ.items() if k != "TANGENTCOUNT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_module_entry_point_runs_without_warnings():
    def run_module(*argv):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "tangentcount.cli", *argv],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run_module("compute", "-d", "3", "-c", "(8)") == "4\n"
    run_module("verify", "--max-d", "4", "--no-cache")


def test_the_package_imports_only_the_standard_library():
    # in a child without site-packages, since pytest and Hypothesis load
    # modules of their own
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, tangentcount.cli; extra = {m.split('.')[0] for m in "
         "sys.modules} - set(sys.stdlib_module_names) - {'tangentcount', "
         "'__main__'}; sys.exit(sorted(extra) or 0)"],
        env=cli_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_run_without_a_cache_file_does_not_load_openssl():
    # in a child, since pytest and Hypothesis import hashlib themselves
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tangentcount import cli; code = cli.main(["
         "'compute', '-d', '3', '-c', '(8)', '--no-cache']); "
         "sys.exit(code or '_hashlib' in sys.modules)"],
        env=cli_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4\n", "")


def test_closed_stdout_ends_the_run_quietly():
    # about 300 kB of csv, more than a pipe holds, so the writer meets the
    # closed read end
    proc = subprocess.Popen(
        [sys.executable, "-m", "tangentcount.cli", "matrix", "-k", "18",
         "--format", "csv"],
        env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"row,")
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


# A child that runs main on its arguments and says on stderr when main has
# made the run's engine, so that a signal sent after that lands inside main.
MAIN_STARTED = """
import sys
from tangentcount import cli

class Engine(cli.Engine):
    def __init__(self):
        super().__init__()
        print("main started", file=sys.stderr, flush=True)

cli.Engine = Engine
sys.exit(cli.main(sys.argv[1:]))
"""


def test_an_interrupt_ends_in_one_line_and_keeps_what_was_solved(tmp_path):
    # SIGINT a second into a cold T_9, without a cache file and with a new
    # one: one stderr line and exit 130 each time, and the file holds what
    # was solved, signed, each record as a fresh engine computes it
    path = tmp_path / "counts.txt"
    for cache in (["--no-cache"], ["--cache-file", str(path)]):
        proc = subprocess.Popen(
            [sys.executable, "-c", MAIN_STARTED, "compute", "-d", "9", "-c",
             "(26)", *cache],
            env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            assert proc.stderr.readline() == "main started\n"
            time.sleep(1)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.communicate()
        assert (proc.returncode, out, err) == (130, "", "interrupted\n")
    records = written_records(path)
    assert len(records) > 1000
    fresh = Engine()
    for record in records:
        key, value = record[3:].split("\t")
        space, degree, constraints = key.split(";")
        assert fresh.hat_invariant(
            space, parse_degree(degree, space),
            parse_constraints(constraints.replace("|", ";"))) == int(value)


def test_running_out_of_memory_ends_in_one_line():
    # the child's address space is capped 20 MB past what importing the
    # package takes (read from /proc), less than a cold T_8 needs; the
    # limit is set in the child alone
    resource = pytest.importorskip("resource")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status to size the cap")
    peak = subprocess.run(
        [sys.executable, "-c", "import tangentcount.cli; print(next("
         "line.split()[1] for line in open('/proc/self/status') "
         "if line.startswith('VmPeak:')))"],
        env=cli_env(), capture_output=True, text=True, check=True).stdout
    cap = (int(peak) << 10) + (20 << 20)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "tangentcount.cli", "compute", "-d", "8",
         "-c", "(23)", "--no-cache"],
        env=cli_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=limit)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        4, "", "out of memory\n")


def test_an_allocation_failure_said_as_system_error_is_out_of_memory(
        capsys, monkeypatch):
    # CPython can report a failed allocation as "SystemError: error return
    # without exception set"
    def failing():
        raise SystemError("error return without exception set")

    monkeypatch.setattr(cli, "Engine", failing)
    assert run(capsys, "compute", "-d", "3", "-c", "(8)", "--no-cache") == (
        4, "", "out of memory\n")


def test_compute_quadric(capsys):
    code, out, _ = run(capsys, "compute", "--space", "p1xp1", "-d", "2,1",
                       "-c", "(3);(1);(1)", "--no-cache")
    assert code == 0
    assert out.strip() == "1"


def test_compute_json_record(capsys):
    code, out, _ = run(capsys, "compute", "-d", "3", "-c", "(8)",
                       "--format", "json", "--no-cache")
    assert code == 0
    record, = json.loads(out)
    assert record == {"key": "cp2;3;(8)", "value": 4,
                      "provenance": "computed"}


def test_usage_errors_exit_two(capsys):
    for argv in [["compute", "-d", "3", "-c", "bad"],
                 ["compute", "-d", "x", "-c", "(8)"],
                 ["compute", "-d", "3,1", "-c", "(8)"],
                 ["table", "--mode", "full"],
                 ["table", "--space", "p1xp1", "-d", "3"],
                 ["matrix", "-k", "1"],
                 ["star", "(2)", "2"],
                 ["nonsense"]]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        capsys.readouterr()


def test_table_degree_zero_is_usage_error(capsys):
    for argv in [["table", "-d", "0"], ["table", "--max-d", "0"]]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "degrees start at 1" in capsys.readouterr().err


def test_table_takes_one_of_degree_and_max_d(capsys):
    for argv, message in [
            (["table", "-d", "1", "--max-d", "2", "--no-cache"],
             "argument --max-d: not allowed with argument -d/--degree"),
            (["table", "--no-cache"],
             "one of the arguments -d/--degree --max-d is required")]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err


def test_table_tangency_max(capsys):
    code, out, _ = run(capsys, "table", "--mode", "tangency-max",
                       "--max-d", "4", "--no-cache")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [r[:3] for r in rows] == [
        ["1", "1", "1"], ["2", "1", "1"], ["3", "4", "12"],
        ["4", "26", "620"]]
    assert [r[3] for r in rows] == ["1", "3", "70/3", "525/2"]


def test_table_full_degree_one(capsys):
    code, out, _ = run(capsys, "table", "--mode", "full", "-d", "1",
                       "--no-cache")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + the single row
    assert "cp2;1;(2)" in lines[1] and lines[1].split()[1] == "1"


def test_table_full_degree_three_csv(capsys):
    code, out, _ = run(capsys, "table", "--mode", "full", "-d", "3",
                       "--format", "csv", "--no-cache")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["key"]: r["value"] for r in rows} == {
        "cp2;3;(7,1)": "1", "cp2;3;(8)": "4"}


def test_formats_carry_identical_numbers(capsys):
    values = {}
    for fmt in ("plain", "csv", "json", "markdown"):
        code, out, _ = run(capsys, "table", "--mode", "full", "-d", "4",
                           "--format", fmt, "--no-cache")
        assert code == 0
        if fmt == "json":
            values[fmt] = {r["key"]: int(r["value"])
                           for r in json.loads(out)}
        elif fmt == "csv":
            values[fmt] = {r["key"]: int(r["value"])
                           for r in csv.DictReader(io.StringIO(out))}
        elif fmt == "markdown":
            body = [line.split("|")[1:4] for line
                    in out.strip().splitlines()[2:]]
            values[fmt] = {k.strip(): int(v) for k, v, _ in body}
        else:
            body = [line.split() for line in out.strip().splitlines()[1:]]
            values[fmt] = {r[0]: int(r[1]) for r in body}
    assert (values["plain"] == values["csv"] == values["json"]
            == values["markdown"])


def test_star_plain(capsys):
    code, out, _ = run(capsys, "star", "(3,1,1)", "(2,2)")
    assert code == 0
    assert out.startswith("(3,1,1) * (2,2) = ")
    for term in ["(3,2,2,1,1)", "2 (5,2,1,1)", "4 (3,3,2,1)", "4 (5,3,1)",
                 "2 (3,3,3)"]:
        assert term in out


def test_star_json(capsys):
    code, out, _ = run(capsys, "star", "(2)", "(2)", "--format", "json")
    assert code == 0
    assert {r["key"]: r["value"] for r in json.loads(out)} == {
        "(2,2)": 1, "(4)": 1}


def test_matrix_output(capsys):
    code, out, _ = run(capsys, "matrix", "-k", "4", "--det")
    assert code == 0
    assert "det = -6" in out
    assert "(2,1,1)" in out and "(1,1,1,1)" in out
    # csv holds records only: the determinant is the last, its value in
    # the first matrix column
    code, out, _ = run(capsys, "matrix", "-k", "4", "--det", "--format", "csv")
    assert code == 0
    cols = len(partitions_of(4)) - 1  # every diagram but (1,1,1,1)
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == cols + 1 for row in rows)
    assert rows[-1] == ["det", "-6"] + [""] * (cols - 1)
    code, out, _ = run(capsys, "matrix", "-k", "4", "--det",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["entries"] == [[3, 0, 0, 0], [1, 0, 2, 0],
                                  [0, 1, 0, 1], [0, 0, 1, 1]]
    assert payload["det"] == "-6"


@pytest.mark.parametrize("k, det", [(2, True), (7, False), (12, True)])
def test_matrix_json_reads_back_as_its_payload(capsys, k, det):
    # written without indent, the output is still the whole payload
    code, out, _ = run(capsys, "matrix", "-k", str(k), "--format", "json",
                       *["--det"] * det)
    texts = [partitions.diagram_text(p) for p in partitions_of(k)]
    payload = {"k": k, "rows": texts[:-1], "cols": texts[1:],
               "entries": matrices.move_matrix(k)}
    if det:
        payload["det"] = str(matrices.move_determinant(k))
    assert code == 0 and json.loads(out) == payload


def test_star_past_its_bound_is_usage_error(capsys):
    # (15,...,1) * (9,...,1) merges almost no walks: a usage error, exit 2,
    # before the walk's next row would pass the bound
    with pytest.raises(SystemExit) as info:
        main(["star", "(%s)" % ",".join(map(str, range(15, 0, -1))),
              "(%s)" % ",".join(map(str, range(9, 0, -1)))])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "tangentcount: error: star would write over 14000000 rows")


def test_star_of_long_all_ones_diagrams_answers(capsys):
    # 20 rows each: 21 terms, where the old matching walk never ended
    ones = "(%s)" % ",".join(["1"] * 20)
    code, out, _ = run(capsys, "star", ones, ones, "--format", "json")
    assert code == 0
    product = {r["key"]: r["value"] for r in json.loads(out)}
    assert len(product) == 21
    assert product["(%s)" % ",".join(["2"] * 20)] == factorial(20)
    code, out, _ = run(capsys, "star", "(1,1,1,1,1,1,1,1,1)",
                       "(1,1,1,1,1,1,1,1,1)")
    assert code == 0 and out.count(" + ") == 9


def test_matrix_weight_limit(capsys, monkeypatch):
    # past the bound nothing is built: a usage error, exit 2
    monkeypatch.setattr("tangentcount.cli.move_matrix", None)
    with pytest.raises(SystemExit) as info:
        main(["matrix", "-k", "40"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "tangentcount: error: the move matrix needs weight 2 <= k <= 24")
    monkeypatch.undo()
    code, out, _ = run(capsys, "matrix", "-k", "6", "--det")
    assert code == 0
    assert out.splitlines()[-1] == "det = -120"
    code, out, _ = run(capsys, "verify", "--max-d", "1", "--no-cache")
    assert code == 0
    assert "PASS move-matrix determinant law, weights 2..24\n" in out


def test_verify_small(capsys):
    # each line names the range it checked
    code, out, _ = run(capsys, "verify", "--max-d", "6", "--no-cache")
    assert code == 0
    assert out.splitlines() == [
        "PASS full-tangency counts, degrees 1..6",
        "PASS single-point tables, degrees 1..6",
        "PASS point-count identity, degrees 1..6",
        "PASS move-matrix determinant law, weights 2..24",
        "PASS push-together formula, two-point keys of degrees 1..5",
    ]


def test_verify_checks_the_determinant_law_up_to_the_matrix_limit(
        capsys, monkeypatch):
    # the law broken at the largest weight alone fails the line, which
    # names the weights its loop walked
    law = cli.move_determinant

    def broken_at_the_limit(k):
        if k == cli.MATRIX_LIMIT:
            raise InconsistencyError("law broken at weight %d" % k)
        return law(k)

    monkeypatch.setattr(cli, "move_determinant", broken_at_the_limit)
    code, out, _ = run(capsys, "verify", "--max-d", "1", "--no-cache")
    assert code == 1
    assert ("FAIL move-matrix determinant law, weights 2..24: law broken "
            "at weight 24\n") in out


def test_verify_fails_on_a_point_count_mismatch(capsys, monkeypatch):
    # the two sides of the identity, and the plane count, must all agree
    monkeypatch.setattr(Engine, "sum_identity", lambda self, space, d: (
        gw.kontsevich_count(d), gw.kontsevich_count(d) + 1))
    code, out, _ = run(capsys, "verify", "--max-d", "2", "--no-cache")
    assert code == 1
    assert ("FAIL point-count identity, degrees 1..2: mismatches "
            "[(1, 1, 2), (2, 1, 2)]\n") in out


# Table B: signed files, as if with a forged digest, whose records no other
# check re-derives.  Each row, by its id: the lines, and the first line of
# verify's report on them to degree 3, which names what is wrong; the other
# checks still run and pass.  None is the cold d <= 4 file, verified to 4.
FAIL3 = "FAIL cache records of degree at most 3: "
OUT_OF_ORDER = " is out of sort order or repeats a key"
FAULTS = {
    "a-wrong-value": (["ht:cp2;3;(8)\t5"],
                      FAIL3 + "cp2;3;(8) stored 5 computed 4"),
    # no lookup asks for (1)|(7), so its right value passes no check of its
    # own: verify fails it by its text
    "a-key-in-no-canonical-text": (
        ["ht:cp2;1;(2)\t1", "ht:cp2;3;(1)|(7)\t5", "ht:cp2;3;(8)\t4"],
        FAIL3 + "cp2;3;(1)|(7) is not the canonical text of its key"),
    "keys-that-do-not-parse": (
        ["ht:cp2;3;(8)|oops\t4", "ht:nonsense\t1"],
        FAIL3 + "cp2;3;(8)|oops stored 4 computed unreadable; "
        "nonsense stored 1 computed unreadable"),
    # lookups bisect and harvest merges on the assumption that the lines
    # are sorted, one per key: right values out of order or twice are
    # refused at the first such line
    "out-of-order": (
        ["ht:cp2;3;(8)\t4", "ht:cp2;1;(2)\t1", "ht:cp2;2;(5)\t1"],
        FAIL3 + "line 3" + OUT_OF_ORDER),
    "a-line-twice": (
        ["ht:cp2;1;(2)\t1", "ht:cp2;1;(2)\t1", "ht:cp2;2;(5)\t1"],
        FAIL3 + "line 3" + OUT_OF_ORDER),
    "a-key-twice-with-two-values": (
        ["ht:cp2;1;(2)\t1", "ht:cp2;2;(2,2,1)\t0", "ht:cp2;2;(2,2,1)\t1",
         "ht:cp2;2;(5)\t1"],
        FAIL3 + "line 4" + OUT_OF_ORDER
        + "; cp2;2;(2,2,1) stored 1 computed 0"),
    "a-value-too-long-for-int": (["ht:cp2;3;(8)\t" + "9" * 5000],
                                 FAIL3 + "line 2 is no record"),
    "a-line-with-no-tab": (["ht:cp2;3;(8) 4"], FAIL3 + "line 2 is no record"),
    "the-cold-file": (None, "PASS cache records of degree at most 4"),
}


@pytest.mark.parametrize("lines, first", FAULTS.values(), ids=FAULTS)
def test_verify_names_what_is_wrong_in_a_signed_file(tmp_path, capsys,
                                                     lines, first):
    path = tmp_path / "counts.txt"
    if lines is None:  # the cold d <= 4 file, which passes
        data, max_d = cold_d4_file(), "4"
    else:
        data, max_d = signed([(line + "\n").encode() for line in lines]), "3"
    path.write_bytes(data)
    code, out, err = run(capsys, "verify", "--max-d", max_d,
                         "--cache-file", str(path))
    report = out.splitlines()
    assert (code, report[0], err) == (int(first.startswith("FAIL")), first,
                                      "")
    assert report[1:] and all(line.startswith("PASS") for line in report[1:])


def test_verify_skips_records_above_max_d(tmp_path, capsys, monkeypatch):
    # a d <= 4 file verified to degree 3 passes, and no degree-4 key is
    # asked of any engine
    path = tmp_path / "counts.txt"
    path.write_bytes(cold_d4_file())
    assert any(line.startswith("ht:cp2;4;") for line in written_records(path))
    asked, hat = set(), Engine.hat_invariant

    def noted(self, space, degree, constraints):
        asked.add(degree)
        return hat(self, space, degree, constraints)

    monkeypatch.setattr(Engine, "hat_invariant", noted)
    code, out, _ = run(capsys, "verify", "--max-d", "3", "--cache-file",
                       str(path))
    assert code == 0
    assert out.splitlines()[0] == "PASS cache records of degree at most 3"
    assert asked == {1, 2, 3}


def parse_stats(err):
    for line in err.splitlines():
        if line.startswith("stats: "):
            return {k: int(v) for k, v in
                    (pair.split("=") for pair in line[7:].split())}
    raise AssertionError("no stats line in %r" % err)


def test_cache_round_trip_via_stats(tmp_path, capsys):
    path = str(tmp_path / "counts.txt")
    code, out, err = run(capsys, "compute", "-d", "4", "-c", "(11)",
                         "--cache-file", path, "--stats")
    assert code == 0 and out.strip() == "26"
    assert parse_stats(err)["solves"] > 0
    code, out, err = run(capsys, "compute", "-d", "4", "-c", "(11)",
                         "--cache-file", path, "--stats", "--format", "json")
    assert code == 0
    record, = json.loads(out)
    assert record["value"] == 26
    assert record["provenance"] == "cached"
    stats = parse_stats(err)
    assert stats["solves"] == 0
    assert stats["evaluations"] == 0


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "env_cache.txt")
    monkeypatch.setenv("TANGENTCOUNT_CACHE", path)
    code, out, _ = run(capsys, "compute", "-d", "3", "-c", "(8)")
    assert code == 0
    assert out.strip() == "4"
    with open(path) as handle:
        assert "ht:cp2;3;(8)\t4" in handle.read().splitlines()


def test_plane_counts_in_a_cache_file_are_ignored(tmp_path, capsys):
    # a plane count is recomputed, never read back: a poisoned record under
    # a valid digest does not change the answer.  The all-ones key asked is
    # a base case, recomputed like the plane count, so the run has nothing
    # to harvest and the file is not written
    path = tmp_path / "counts.txt"
    data = signed([b"gw:5;\t999\n"])
    path.write_bytes(data)
    code, out, _ = run(capsys, "compute", "-d", "5", "-c", ";".join(
        ["(1)"] * 14), "--cache-file", str(path))
    assert (code, out) == (0, "87304\n")
    assert path.read_bytes() == data


def test_an_all_ones_record_of_an_older_file_still_answers(tmp_path,
                                                           capsys):
    # no harvest writes an all-ones key, but a file that holds one, as
    # files written by earlier versions of the program do, answers it as a
    # record, and the run has nothing to write
    path = tmp_path / "counts.txt"
    data = signed([b"ht:cp2;3;(1,1)|(1)|(1)|(1)|(1)|(1)|(1)\t2\n"])
    path.write_bytes(data)
    code, out, err = run(capsys, "compute", "-d", "3", "-c",
                         "(1,1);(1);(1);(1);(1);(1);(1)", "--hat", "--stats",
                         "--format", "json", "--cache-file", str(path))
    assert code == 0
    record, = json.loads(out)
    assert (record["value"], record["provenance"]) == (2, "cached")
    assert parse_stats(err)["base_cases"] == 0
    assert path.read_bytes() == data


def test_table_provenance_comes_from_the_file(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    path.write_bytes(signed([b"ht:cp2;3;(8)\t4\n"]))
    code, out, _ = run(capsys, "table", "--mode", "full", "-d", "3",
                       "--format", "csv", "--cache-file", str(path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["key"]: r["provenance"] for r in rows} == {
        "cp2;3;(8)": "cached", "cp2;3;(7,1)": "computed"}


def test_cache_file_under_a_regular_file_runs_without_it(tmp_path, capsys,
                                                         monkeypatch):
    # a path that cannot be opened is no cache: the run goes on as with
    # --no-cache, harvesting nothing, and verify checks no cache records
    blocker = tmp_path / "counts.txt"
    blocker.write_text("")
    code, out, err = run(capsys, "compute", "-d", "3", "-c", "(8)",
                         "--cache-file", str(blocker / "sub.txt"))
    assert (code, out) == (0, "4\n")
    assert "running without persistence" in err
    with pytest.raises(OSError):
        CountCache(str(blocker / "sub.txt"))

    def unharvested(self):
        raise AssertionError("memo_items called")

    monkeypatch.setattr(Engine, "memo_items", unharvested)
    code, out, err = run(capsys, "compute", "-d", "3", "-c", "(8)",
                         "--cache-file", str(blocker / "sub.txt"))
    assert (code, out) == (0, "4\n")
    assert "running without persistence" in err
    code, out, err = run(capsys, "verify", "--max-d", "2",
                         "--cache-file", str(blocker / "sub.txt"))
    assert code == 0
    assert "cache records" not in out
    assert all(line.startswith("PASS") for line in out.splitlines())
    assert "running without persistence" in err
    assert blocker.read_text() == ""


def test_a_signed_line_that_does_not_parse_is_no_record(tmp_path, capsys):
    # under a forged digest, a value too long for int() and a line with no
    # tab are never read as records: compute prints the computed value, and
    # exits 3 at harvest where the line holds the asked key, with no
    # traceback
    path = tmp_path / "counts.txt"
    long = "ht:cp2;3;(8)\t" + "9" * 5000
    for line, exit_code in ((long, 3), ("ht:cp2;3;(8) 4", 0)):
        path.write_bytes(signed([(line + "\n").encode()]))
        code, out, err = run(capsys, "compute", "-d", "3", "-c", "(8)",
                             "--cache-file", str(path))
        assert (code, out) == (exit_code, "4\n")
        assert "Traceback" not in err
    # a value that is not UTF-8 is no record, and the conflict it makes at
    # harvest is said without raising on its bytes
    data = b"ht:cp2;3;(8)\t\xff\n"
    path.write_bytes(header([data]) + data)
    code, out, err = run(capsys, "compute", "-d", "3", "-c", "(8)",
                         "--cache-file", str(path))
    assert (code, out) == (3, "4\n")
    assert err == ("internal inconsistency: conflicting values \ufffd "
                   "(cache) and 4 (computed) for cp2;3;(8)\n")


def test_a_heavy_record_is_read_without_its_solve_plan(tmp_path, capsys,
                                                        monkeypatch):
    # a key answered by a record is looked up before it is coded, so
    # neither its p(47) = 124,754 diagrams are listed nor a weight-47
    # merge table is built
    path = tmp_path / "counts.txt"
    path.write_bytes(signed([b"ht:cp2;16;(47)\t5\n"]))
    planned, listed = [], []
    real_plan, real_list = matrices.solve_plan, partitions.partition_list

    def planning(k):
        planned.append(k)
        return real_plan(k)

    def listing(k):
        listed.append(k)
        return real_list(k)

    monkeypatch.setattr(matrices, "solve_plan", planning)
    for module in (matrices, engine_module):
        monkeypatch.setattr(module, "partition_list", listing)
    code, out, _ = run(capsys, "compute", "-d", "16", "-c", "(47)",
                       "--cache-file", str(path))
    assert (code, out) == (0, "5\n")
    assert 47 not in planned
    assert 47 not in listed
    assert path.read_bytes() == signed([b"ht:cp2;16;(47)\t5\n"])


def test_a_wrong_record_is_not_read_into_a_computation(tmp_path, capsys):
    # (7)|(1) is 5, and T_3 = 4 is computed through it: the record, under a
    # forged digest, is not read, the computed value is printed, and the
    # harvest that meets the record refuses it, leaving the file as it was
    path = tmp_path / "counts.txt"
    path.write_bytes(signed([b"ht:cp2;3;(7)|(1)\t999\n"]))
    before = path.read_bytes()
    code, out, err = run(capsys, "compute", "-d", "3", "-c", "(8)",
                         "--cache-file", str(path))
    assert (code, out) == (3, "4\n")
    assert "cp2;3;(7)|(1)" in err
    assert path.read_bytes() == before

# Random command lines from the grammar of parse_degree/parse_constraints,
# with garbage mixed in.  Valid degrees stay at most 5 (bidegrees at most
# 6 in total) so that no case starts a long run, and no --cache-file is
# drawn, so nothing is written.
GARBAGE = ["", " ", "x", "-1", "1e3", "nan", "1,", ",", "2,1,3", "(", ")",
           "()", "(0)", "(a)", "(1)(2)", "(1,-2)", ";", ";;", "(2);;(1)",
           "--bogus", "-d", "-c", "-k", "--max-d", "--format", "-h"]
FORMATS = ["plain", "csv", "json", "markdown"]


def or_garbage(strategy):
    """Mostly the strategy's text, one time in five a garbage token."""
    return st.integers(0, 4).flatmap(
        lambda i: st.sampled_from(GARBAGE) if i == 0 else strategy)


def diagram_texts(max_row=6):
    return st.lists(st.integers(1, max_row), min_size=1, max_size=4).map(
        lambda rows: "(%s)" % ",".join(map(str, rows)))


@st.composite
def on_shell_keys(draw):
    """(degree text, constraints text) of an on-shell plane key."""
    d = draw(st.integers(1, 5))
    rows = draw(st.permutations(draw(st.sampled_from(
        partitions_of(3 * d - 1)))))
    points = draw(st.lists(st.integers(0, 3), min_size=len(rows),
                           max_size=len(rows)))
    groups = [[r for r, p in zip(rows, points) if p == i] for i in range(4)]
    return str(d), ";".join("(%s)" % ",".join(map(str, g))
                            for g in groups if g)


def degree_texts(space):
    if space == "p1xp1":
        return st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
            lambda ab: sum(ab) <= 6).map(lambda ab: "%d,%d" % ab)
    return st.integers(0, 5).map(str)


@st.composite
def cli_argvs(draw):
    space = draw(or_garbage(st.sampled_from(["cp2", "cp2", "p1xp1"])))
    command = draw(st.sampled_from(
        ["compute", "table", "verify", "star", "matrix"]))
    if command == "compute" and draw(st.booleans()):
        d, cs = draw(on_shell_keys())
        argv = ["compute", "-d", d, "-c", cs]
        argv += draw(st.sampled_from([[], ["--hat"]]))
    elif command == "compute":
        argv = ["compute", "--space", space,
                "-d", draw(or_garbage(degree_texts(space))),
                "-c", draw(or_garbage(st.lists(diagram_texts(), min_size=1,
                                               max_size=4).map(";".join)))]
        argv += draw(st.sampled_from([[], ["--hat"]]))
    elif command == "table":
        argv = ["table", draw(st.sampled_from(["-d", "--max-d"])),
                draw(or_garbage(st.integers(1, 5).map(str))),
                "--mode", draw(or_garbage(st.sampled_from(
                    ["tangency-max", "full"])))]
    elif command == "verify":
        argv = ["verify", "--max-d", draw(or_garbage(degree_texts("cp2")))]
    elif command == "star":
        argv = ["star", draw(or_garbage(diagram_texts(4))),
                draw(or_garbage(diagram_texts(4)))]
    else:
        argv = ["matrix", "-k", draw(or_garbage(
            st.integers(-1, 8).map(str)))]
        argv += draw(st.sampled_from([[], ["--det"]]))
    if command != "verify" and draw(st.booleans()):
        argv += ["--format", draw(or_garbage(st.sampled_from(FORMATS)))]
    if command in ("compute", "table", "verify"):
        argv += draw(st.sampled_from([[], ["--no-cache"], ["--stats"]]))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(GARBAGE)))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
def test_any_command_line_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), \
            redirect_stderr(err):
        os.environ.pop("TANGENTCOUNT_CACHE", None)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()
