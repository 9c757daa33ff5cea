"""The command-line surface: argument handling, output formats, exit codes,
and cache behavior observable through --stats."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import tangentcount
from tangentcount import gw
from tangentcount.cli import main, parse_constraints, parse_degree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_degree():
    assert parse_degree("3", "cp2") == 3
    assert parse_degree("2,1", "p1xp1") == (2, 1)
    for bad, space in [("2,1", "cp2"), ("x", "cp2"), ("-1", "cp2"),
                       ("3", "p1xp1"), ("1,-2", "p1xp1")]:
        with pytest.raises(ValueError):
            parse_degree(bad, space)


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


def test_module_entry_point_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(tangentcount.__file__))
    env = {k: v for k, v in os.environ.items() if k != "TANGENTCOUNT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tangentcount.cli", "compute",
         "-d", "3", "-c", "(8)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n"


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
    code, out, _ = run(capsys, "matrix", "-k", "4", "--det",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["entries"] == [[3, 0, 0, 0], [1, 0, 2, 0],
                                  [0, 1, 0, 1], [0, 0, 1, 1]]
    assert payload["det"] == "-6"


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-d", "3", "--no-cache")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def parse_stats(err):
    for line in err.splitlines():
        if line.startswith("stats: "):
            return {k: int(v) for k, v in
                    (pair.split("=") for pair in line[7:].split())}
    raise AssertionError("no stats line in %r" % err)


def test_cache_round_trip_via_stats(tmp_path, capsys):
    gw.reset()
    path = str(tmp_path / "counts.txt")
    code, out, err = run(capsys, "compute", "-d", "4", "-c", "(11)",
                         "--cache-file", path, "--stats")
    assert code == 0 and out.strip() == "26"
    assert parse_stats(err)["solves"] > 0
    gw.reset()
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
    gw.reset()
    path = str(tmp_path / "env_cache.txt")
    monkeypatch.setenv("TANGENTCOUNT_CACHE", path)
    code, out, _ = run(capsys, "compute", "-d", "3", "-c", "(8)")
    assert code == 0
    assert out.strip() == "4"
    with open(path) as handle:
        assert "ht:cp2;3;(8)\t4" in handle.read().splitlines()


def test_plane_counts_in_a_cache_file_are_ignored(tmp_path, capsys):
    # a plane count is recomputed, never read back: a poisoned record
    # neither changes the answer nor gets copied into the ht: section
    gw.reset()
    path = tmp_path / "counts.txt"
    path.write_text("gw:5;\t999\n")
    code, out, _ = run(capsys, "compute", "-d", "5", "-c", ";".join(
        ["(1)"] * 14), "--cache-file", str(path))
    assert (code, out) == (0, "87304\n")
    records = path.read_text().splitlines()
    assert "ht:cp2;5;" + "|".join(["(1)"] * 14) + "\t87304" in records
    assert not any(line.startswith("ht:") and line.endswith("\t999")
                   for line in records)
    gw.reset()


def test_table_provenance_comes_from_the_file(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    path.write_text("ht:cp2;3;(8)\t4\n")
    code, out, _ = run(capsys, "table", "--mode", "full", "-d", "3",
                       "--format", "csv", "--cache-file", str(path))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["key"]: r["provenance"] for r in rows} == {
        "cp2;3;(8)": "cached", "cp2;3;(7,1)": "computed"}


def test_cache_file_under_a_regular_file_runs_without_it(tmp_path, capsys):
    blocker = tmp_path / "counts.txt"
    blocker.write_text("")
    code, out, err = run(capsys, "compute", "-d", "3", "-c", "(8)",
                         "--cache-file", str(blocker / "sub.txt"))
    assert (code, out) == (0, "4\n")
    assert "running without persistence" in err


def test_blowup_records_in_a_cache_file_are_ignored(tmp_path, capsys):
    # blowup counts are recomputed, never read back: a poisoned gw: record
    # neither changes the answer nor gets copied into the ht: section, and
    # the compaction drops it
    gw.reset()
    path = tmp_path / "counts.txt"
    path.write_text("gw:3;2\t7\n")
    code, out, _ = run(capsys, "compute", "-d", "3", "-c",
                       "(1,1);(1);(1);(1);(1);(1);(1)", "--hat",
                       "--cache-file", str(path))
    assert (code, out) == (0, "2\n")
    records = path.read_text().splitlines()
    assert "ht:cp2;3;(1,1)|(1)|(1)|(1)|(1)|(1)|(1)\t2" in records
    assert not any(line.endswith("\t14") for line in records)
    assert all(line.startswith("ht:") for line in records)
    gw.reset()
