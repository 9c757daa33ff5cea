"""The persistent cache: load/harvest/write cycle, the pinned file format,
the digest that keeps a file the program did not write from being read,
and the advisory lock."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tangentcount.cache import CountCache, header
from tangentcount.cli import _session, main, parse_constraints
from tangentcount.engine import Engine, encode_key
from tangentcount.partitions import diagram_text, partitions_of

from reference import (cold_d4_file, cold_engine, column, double_point_count,
                       local_double_points, records_in, signed, split_header,
                       written_by)


def test_round_trip(tmp_path):
    path = str(tmp_path / "counts.txt")
    engine = cold_engine()
    value = engine.invariant("cp2", 3, ((8,),))
    with CountCache(path) as cache:
        added = cache.harvest(engine)
        assert added > 0
    assert os.path.exists(path)

    engine2 = cold_engine()
    with CountCache(path) as cache:
        loaded = cache.preload(engine2)
        assert loaded > 0
    assert engine2.invariant("cp2", 3, ((8,),)) == value
    assert engine2.counters["solves"] == 0


def test_a_write_is_signed_sorted_and_one_line_per_key(tmp_path):
    path = str(tmp_path / "counts.txt")
    engine = cold_engine()
    engine.invariant("cp2", 2, ((5,),))
    with CountCache(path) as cache:
        cache.harvest(engine)
    with open(path, "rb") as handle:
        head, *lines = handle.readlines()
    assert head == header(lines)
    assert lines == sorted(lines)
    assert len({line.partition(b"\t")[0] for line in lines}) == len(lines)
    assert all(line.count(b"\t") == 1 and line.startswith(b"ht:")
               for line in lines)


# Lines in text encode_key never writes, so no lookup asks for them.
NON_CANONICAL = [b"ht:nowhere;3;(2)\t7\n",   # unknown space
                 b"gw:0;\t7\n",              # blowup record
                 b"ht:cp2;3;(1,7)\t5\n",     # rows out of order
                 b"ht:cp2;3;(1)|(7)\t9\n",   # diagrams out of order
                 b"ht:cp2;03;(8)\t9\n",      # leading zero
                 b"ht:cp2;3; (8)\t9\n"]      # space


def test_malformed_entries_do_not_poison_engines(tmp_path):
    # even with a valid digest a record is read only through the canonical
    # text of a key the engine asks for, so text encode_key never writes is
    # never read
    path = tmp_path / "counts.txt"
    path.write_bytes(signed(sorted(NON_CANONICAL)))
    engine = cold_engine()
    with CountCache(str(path)) as cache:
        assert cache.preload(engine) == 6
        assert engine.invariant("cp2", 1, ((2,),)) == 1
        assert engine.invariant("cp2", 3, ((7, 1),)) == 1
        assert engine.hat_invariant("cp2", 3, ((7,), (1,))) == 5
        assert engine.invariant("cp2", 3, ((8,),)) == 4


def test_a_signed_line_that_does_not_parse_is_no_record(tmp_path):
    # even under a valid digest, a line with no tab, a value int() rejects
    # or bytes that are not UTF-8 are not records: no lookup returns them,
    # and the records iterate and count without them
    path = tmp_path / "counts.txt"
    lines = sorted([b"ht:cp2;1;(2)\t1\n", b"ht:cp2;3;(8) 4\n",
                    b"ht:cp2;3;(7,1)\t" + b"9" * 5000 + b"\n",
                    b"ht:cp2;3;(6,2)\t\xff\n", b"ht:cp2;3;(\xff)\t4\n",
                    b"gw:0;\t7\n"])
    path.write_bytes(signed(lines))
    engine = cold_engine()
    with CountCache(str(path)) as cache:
        assert cache.preload(engine) == len(lines)
        assert records_in(cache.entries.lines) == {"cp2;1;(2)": 1}
        assert len(records_in(cache.entries.lines)) == 1
        assert "cp2;3;(7,1)" not in cache.entries
        assert engine.invariant("cp2", 3, ((8,),)) == 4
        assert engine.invariant("cp2", 3, ((7, 1),)) == 1
        assert engine.invariant("cp2", 3, ((6, 2),)) == 0


def test_second_open_is_read_only(tmp_path, capsys):
    path = str(tmp_path / "counts.txt")
    first = CountCache(path)
    second = CountCache(path)
    assert not first.read_only
    assert second.read_only
    assert "read-only" in capsys.readouterr().err
    engine = cold_engine()
    engine.invariant("cp2", 1, ((2,),))
    second.harvest(engine)
    second.close()
    first.close()
    with open(path) as handle:
        assert handle.read() == ""  # the read-only handle never wrote


def test_two_harvests_in_one_session_keep_everything(tmp_path):
    path = str(tmp_path / "counts.txt")
    engine = cold_engine()
    engine.invariant("cp2", 2, ((5,),))
    with CountCache(path) as cache:
        cache.harvest(engine)
        engine.invariant("cp2", 3, ((8,),))
        cache.harvest(engine)
    engine2 = cold_engine()
    with CountCache(path) as cache:
        cache.preload(engine2)
    assert engine2.invariant("cp2", 2, ((5,),)) == 1
    assert engine2.invariant("cp2", 3, ((8,),)) == 4
    assert engine2.counters["solves"] == 0


def test_a_read_copies_only_the_key_it_asks_for(tmp_path):
    # the file's records are the only copy: a cached read answers from the
    # one record it needs, memoises nothing, and so has nothing to append
    path = str(tmp_path / "counts.txt")
    builder = cold_engine()
    column(builder, 4)
    with CountCache(path) as cache:
        cache.harvest(builder)
    engine = Engine()
    with CountCache(path) as cache:
        assert cache.preload(engine) == len(
            records_in(cache.entries.lines)) == 305
        assert engine.hat_invariant("cp2", 4, ((11,),)) == 26
        assert list(engine.memo_items()) == []
        assert cache.harvest(engine) == 0


def test_blowup_records_are_not_read(tmp_path):
    # under a valid digest a gw: line of an older file is an unknown section
    # no key is looked up in, so a wrong blowup count reaches neither the
    # engine that opened the file nor a later engine in the same process
    path = tmp_path / "counts.txt"
    key = ((1, 1),) + ((1,),) * 6
    path.write_bytes(signed([b"gw:3;2\t7\n"]))
    engine = cold_engine()
    with CountCache(str(path)) as cache:
        cache.preload(engine)
        assert engine.hat_invariant("cp2", 3, key) == 2
    assert Engine().hat_invariant("cp2", 3, key) == 2


def test_cold_table_file_is_pinned():
    # the header, then the sorted lines, one record per key inside the
    # adjunction budget, byte for byte
    data = cold_d4_file()
    head, lines = split_header(data)
    body = data[len(head):]
    assert head == header(lines)
    assert body.count(b"\n") == len(lines) == 305
    assert len(body) == 9945
    assert hashlib.sha256(body).hexdigest() == (
        "a724cd155f6a63bd290068a823d3648183599c9ae13c41905625ae1d9a7a871a")


def test_a_harvest_writes_no_key_past_the_adjunction_budget():
    # every record of a cold d <= 5 table is a key the adjunction rule does
    # not answer: its points' local double points fit in its class's budget
    _, lines = split_header(written_by("table", "--max-d", "5"))
    records = records_in(lines)
    for text in records:
        space, dtext, ctext = text.split(";")
        cs = parse_constraints(ctext.replace("|", ";"))
        assert sum(map(local_double_points, cs)) <= double_point_count(
            space, int(dtext)), text
    assert len(records) == len(lines) == 3251


# Two records past the adjunction budget of degree 3, one double point, as
# an older file holds them: (5,3) at a wrong 5, and (6,2) at 0, the value
# harvests wrote for such keys.
PAST_BUDGET = [b"ht:cp2;3;(5,3)\t5\n", b"ht:cp2;3;(6,2)\t0\n"]


def test_an_older_file_keeps_its_records_past_the_budget(tmp_path, capsys):
    # the rule answers both keys before their records are looked up, yet
    # the file holds them, so both are cached; a harvest neither compares
    # nor drops them; verify recomputes each, as 0, and fails the wrong one
    assert all(local_double_points(p) > double_point_count("cp2", 3)
               for p in ((5, 3), (6, 2)))
    path = tmp_path / "counts.txt"
    older = signed(PAST_BUDGET)
    path.write_bytes(older)
    for ctext in ("(5,3)", "(6,2)"):
        assert main(["compute", "-d", "3", "-c", ctext, "--format", "json",
                     "--cache-file", str(path)]) == 0
        record, = json.loads(capsys.readouterr().out)
        assert (record["value"], record["provenance"]) == (0, "cached")
    assert path.read_bytes() == older
    assert main(["compute", "-d", "3", "-c", "(8)",
                 "--cache-file", str(path)]) == 0
    assert capsys.readouterr().out == "4\n"
    _, lines = split_header(path.read_bytes())
    _, added = split_header(written_by("compute", "-d", "3", "-c", "(8)"))
    assert lines == sorted(PAST_BUDGET + added)
    assert path.read_bytes() == signed(lines)
    assert main(["verify", "--max-d", "3", "--cache-file", str(path)]) == 1
    first, *report = capsys.readouterr().out.splitlines()
    assert first == ("FAIL cache records of degree at most 3: "
                     "cp2;3;(5,3) stored 5 computed 0")
    assert report and all(line.startswith("PASS") for line in report)


def test_the_header_is_the_sha256_of_the_joined_lines():
    # hashed in blocks of lines, the digest is still that of all the bytes
    # after the header; repeated, the d <= 4 lines span three blocks
    _, lines = split_header(cold_d4_file())
    for some in (lines, lines * 5, lines[:1], []):
        digest = hashlib.sha256(b"".join(some)).hexdigest()
        assert header(some) == b"tangentcount cache v1 sha256 %s\n" % (
            digest.encode())


def test_a_cached_compute_leaves_the_file_as_it_was(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    before = cold_d4_file()
    path.write_bytes(before)
    inode = os.stat(path).st_ino
    assert main(["compute", "-d", "4", "-c", "(11)",
                 "--cache-file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "26"
    assert path.read_bytes() == before
    assert os.stat(path).st_ino == inode  # not even rewritten


def test_a_session_that_raises_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "counts.txt"
    before = cold_d4_file()
    path.write_bytes(before)
    args = argparse.Namespace(no_cache=False, cache_file=str(path),
                              stats=False)
    with pytest.raises(RuntimeError, match="stop"):
        with _session(args) as (engine, cache):
            engine.invariant("cp2", 5, ((14,),))
            assert any(key not in cache.entries
                       for key, _ in engine.memo_items())
            raise RuntimeError("stop")
    assert path.read_bytes() == before


class ClosedStream(io.StringIO):
    def write(self, text):
        raise OSError("stream closed")


def test_an_error_after_the_harvest_keeps_the_harvested_records(
        tmp_path, monkeypatch):
    # only the --stats print runs after a clean harvest: an error there
    # still writes the harvested records, each exact
    path = tmp_path / "counts.txt"
    args = argparse.Namespace(no_cache=False, cache_file=str(path),
                              stats=True)
    with pytest.raises(OSError, match="stream closed"):
        with _session(args) as (engine, _):
            engine.invariant("cp2", 4, ((11,),))
            monkeypatch.setattr(sys, "stderr", ClosedStream())
    monkeypatch.undo()
    with CountCache(str(path)) as cache:
        assert records_in(cache.entries.lines) == dict(engine.memo_items())


def interrupt(*args):
    raise KeyboardInterrupt


def test_an_interrupted_session_keeps_what_was_solved(tmp_path,
                                                      monkeypatch):
    # an interrupt harvests the engine's values, each exact, into a new
    # file; one that lands in the harvest or in the write leaves the file
    # as it was, with no temp file, and releases it
    path = tmp_path / "counts.txt"
    args = argparse.Namespace(no_cache=False, cache_file=str(path),
                              stats=False)

    def interrupted_session():
        with pytest.raises(KeyboardInterrupt):
            with _session(args) as (engine, _):
                engine.invariant("cp2", 4, ((11,),))
                raise KeyboardInterrupt
        return engine

    solved = dict(interrupted_session().memo_items())
    with CountCache(str(path)) as cache:
        assert records_in(cache.entries.lines) == solved
    before = path.read_bytes()
    path.write_bytes(b"")
    for owner, attr in ((CountCache, "harvest"), (os, "fsync")):
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, interrupt)
            interrupted_session()
        assert path.read_bytes() == b""
        assert os.listdir(tmp_path) == ["counts.txt"]
        with CountCache(str(path)) as cache:
            assert not cache.read_only  # the lock was released
    interrupted_session()
    assert path.read_bytes() == before


# Table A: files this program did not write.  Each row, by its id: the file,
# made from the header and lines of the cold d <= 4 file; why it is not
# read; and a key the file spells, as compute's arguments and true value.
DAMAGED = [b"ht:cp2;1;(2)\t1\n", b"garbage line\n",
           b"ht:cp2;1;(1)|(1)\tnotanumber\n", b"zz:cp2;1;(2)\t9\n",
           b"gw:1;\t1\n"]
NO, BAD = "no header", "digest mismatch"
T1 = (["-d", "1", "-c", "(2)"], 1)  # the full-tangency counts T_1, T_3, T_4
T3 = (["-d", "3", "-c", "(8)"], 4)
T4 = (["-d", "4", "-c", "(11)"], 26)


def file_of(data):
    """A row's file that is data, whatever the cold file holds."""
    return lambda head, lines: data


def unsigned(*values):
    """A row's file of the lines "ht:cp2;3;VALUE" with no header."""
    return file_of(b"".join(b"ht:cp2;3;%s\n" % v for v in values))


UNREAD = {
    "damaged-lines": (file_of(b"".join(DAMAGED)), NO, T1),
    "lines-added-after-the-digest": (
        file_of(header(DAMAGED[:1]) + b"".join(DAMAGED)), BAD, T1),
    "keys-in-no-canonical-text": (file_of(b"".join(NON_CANONICAL)), NO, (
        ["-d", "3", "-c", "(1);(7)", "--hat"], 5)),
    "a-blowup-record-of-an-older-file": (file_of(b"gw:3;2\t7\n"), NO, (
        ["-d", "3", "-c", ";".join(["(2)"] + ["(1)"] * 6), "--hat"], 10)),
    "a-plane-count-of-an-older-file": (file_of(b"gw:5;\t999\n"), NO, (
        ["-d", "5", "-c", ";".join(["(2)"] + ["(1)"] * 12), "--hat"], 51040)),
    "a-line-that-is-not-utf8": (
        file_of(b"ht:cp2;1;(2)\t1\n\xff\xfe garbage\n"), NO, T1),
    "a-value-too-long-for-int": (
        file_of(b"ht:cp2;3;(8)\t" + b"9" * 5000), NO, T3),
    "a-wrong-value": (unsigned(b"(8)\t5"), NO, T3),
    "a-padded-wrong-later-line": (unsigned(b"(8)\t4", b"(8)\t+5\r"), NO, T3),
    "a-padded-right-earlier-line": (unsigned(b"(8)\t+4\r", b"(8)\t5"), NO,
                                    T3),
    "leading-zeros": (unsigned(b"(8)\t005", b"(8)\t4"), NO, T3),
    "a-wrong-record-T3-is-computed-through": (unsigned(b"(7)|(1)\t999"), NO,
                                              T3),
    "a-value-changed-after-the-digest": (file_of(
        signed([b"ht:cp2;3;(8)\t4\n"])[:-2] + b"5\n"), BAD, T3),
    "shuffled": (lambda head, lines: head + b"".join(
        random.Random(4).sample(lines, len(lines))), BAD, T4),
    "a-line-with-no-tab-between-records": (lambda head, lines: head + lines[0]
        + lines[1].replace(b"\t", b" ") + b"".join(lines[2:]), BAD, T4),
    "cut-short-by-its-last-newline": (
        lambda head, lines: (head + b"".join(lines))[:-1], BAD, T4),
    "part-of-a-record-appended": (lambda head, lines: head + b"".join(lines)
        + lines[len(lines) // 2].partition(b"\t")[0], BAD, T4),
}


@pytest.mark.parametrize("damage, reason, key", UNREAD.values(), ids=UNREAD)
def test_a_file_this_program_did_not_write_is_not_read(
        tmp_path, capsys, damage, reason, key):
    # whatever its lines, the file opens with no records, said in one line;
    # verify fails on it and runs its other checks; compute prints the
    # computed value; and the next write replaces the file, with what the
    # same run writes into a new file
    cold = cold_d4_file()
    head, lines = split_header(cold)
    data = damage(head, lines)
    path = tmp_path / "counts.txt"
    said = "cache %s not read (%s); replaced at the next write\n" % (
        path, reason)

    def run(*argv):
        path.write_bytes(data)
        code = main([*argv, "--cache-file", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    path.write_bytes(data)
    with CountCache(str(path)) as cache:
        assert (cache.rejected, cache.entries.lines) == (reason, [])
    assert capsys.readouterr().err == said
    assert path.read_bytes() == data  # nothing added, nothing written
    code, out, err = run("verify", "--max-d", "4")
    first, *rest = out.splitlines()
    assert (code, first, err) == (1, "FAIL cache records of degree at most "
                                     "4: file not read (%s)" % reason, said)
    assert rest and all(line.startswith("PASS") for line in rest)
    assert path.read_bytes() == written_by("verify", "--max-d", "4")
    argv, value = key
    assert run("compute", *argv) == (0, "%d\n" % value, said)
    assert path.read_bytes() == written_by("compute", *argv)
    code, out, err = run("compute", *argv, "--format", "json", "--stats")
    record, = json.loads(out)
    assert (code, record["value"], record["provenance"]) == (
        0, value, "computed")
    assert err.startswith(said)
    assert int(err.split(" solves=")[1].split()[0]) > 0
    code, out, err = run("table", "--max-d", "4")
    assert (code, out.splitlines()[-1].split()[:2], err) == (
        0, ["4", "26"], said)
    assert path.read_bytes() == cold


# values: two lines of the key (8) in a file the program did not write;
# right: whether the later line is the true one
@pytest.mark.parametrize("values, right", [
    ((b"(8)\t5", b"(8)\t4"), True), ((b"(8)\t4", b"(8)\t5"), False)])
def test_the_later_line_of_a_key_wins(tmp_path, capsys, values, right):
    # the file is not read whichever line comes later, and compute's write
    # replaces both with the one true line
    path = tmp_path / "counts.txt"
    path.write_bytes(unsigned(*values)(None, None))
    argv, value = T3
    assert main(["compute", *argv, "--cache-file", str(path)]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("%d\n" % value, "cache %s not read (%s); replaced "
                          "at the next write\n" % (path, NO))
    assert path.read_bytes() == written_by("compute", *argv)
    assert split_header(path.read_bytes())[1].count(
        b"ht:cp2;3;(8)\t4\n") == 1


def test_a_write_merges_into_the_file_like_one_session(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    path.write_bytes(cold_d4_file())
    assert main(["compute", "-d", "5", "-c", "(14)",
                 "--cache-file", str(path)]) == 0
    assert capsys.readouterr().out == "217\n"
    one = tmp_path / "one.txt"
    args = argparse.Namespace(no_cache=False, cache_file=str(one),
                              stats=False)
    with _session(args) as (engine, _):
        column(engine, 5)
    assert path.read_bytes() == one.read_bytes()


def test_only_asked_keys_are_looked_up(tmp_path, monkeypatch):
    # the engine looks up the key it is asked for, once, and no key of its
    # recursion: a key the file lacks is computed without reading it, and
    # a key it holds is answered with no solve, also by an engine that
    # computed before the file was handed to it
    path = str(tmp_path / "counts.txt")
    builder = cold_engine()
    builder.invariant("cp2", 3, ((8,),))
    with CountCache(path) as cache:
        cache.harvest(builder)
    engine = Engine()
    assert engine.hat_invariant("cp2", 3, ((1,),) * 8) == 12
    with CountCache(path) as cache:
        asked, get = [], cache.entries.get
        monkeypatch.setattr(cache.entries, "get", lambda key:
                            asked.append(key) or get(key))
        cache.preload(engine)
        assert engine.invariant("cp2", 4, ((11,),)) == 26
        assert asked == ["cp2;4;(11)"]
        del asked[:]
        solves = engine.counters["solves"]
        assert engine.invariant("cp2", 3, ((8,),)) == 4
        assert asked == ["cp2;3;(8)"]
        assert engine.counters["solves"] == solves


def test_a_failed_write_at_close_is_reported_and_releases_the_lock(
        tmp_path, capsys, monkeypatch):
    # in process, so that os.getpid() names the temp file close writes
    path = tmp_path / "counts.txt"
    blocker = tmp_path / ("counts.txt.%d.tmp" % os.getpid())
    blocker.mkdir()
    assert main(["compute", "-d", "3", "-c", "(8)",
                 "--cache-file", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out == "4\n"
    assert err.count("\n") == 1 and "not written" in err
    assert "Traceback" not in err
    assert path.read_bytes() == b""
    assert blocker.is_dir()  # not this run's to remove
    with CountCache(str(path)) as cache:
        assert not cache.read_only  # the lock was released
    assert sorted(os.listdir(tmp_path)) == ["counts.txt", blocker.name]
    # a temp file this run wrote is removed when the rename fails
    blocker.rmdir()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["compute", "-d", "3", "-c", "(8)",
                 "--cache-file", str(path)]) == 0
    assert "rename refused" in capsys.readouterr().err
    assert path.read_bytes() == b""
    assert os.listdir(tmp_path) == ["counts.txt"]


def on_shell_keys(d):
    """Every on-shell plane key of degree d, as canonical constraints."""
    diagrams = sorted(((w, p) for w in range(1, 3 * d)
                       for p in partitions_of(w)), reverse=True)

    def keys(left, start):
        if not left:
            yield ()
        for j in range(start, len(diagrams)):
            w, p = diagrams[j]
            if w <= left:
                yield from ((p,) + rest for rest in keys(left - w, j))
    return list(keys(3 * d - 1, 0))


def test_a_wrong_record_never_spreads(tmp_path, capsys):
    # one record of a cold d <= 4 file is made wrong, then a key is asked
    # for, most often one the file lacks, whose computation meets the
    # wrong record.  Edited by hand, the file is not read: the run prints
    # the true value and its write holds only true lines, or, when the
    # adjunction rule answered the key and nothing was computed, the file
    # is left as it was.  With a forged digest the run prints the true
    # value unless it asked for the wrong record itself, and it writes no
    # line but true ones, refusing with exit 3 where a value it computed
    # contradicts the record.  The keys the file lacks are drawn from those
    # inside the adjunction budget: the file lacks every key past it, and
    # those the rule answers without a computation (drawn here among all
    # keys)
    path = tmp_path / "counts.txt"
    head, lines = split_header(cold_d4_file())
    lines = [line.decode().rstrip("\n") for line in lines]
    held = {line[3:line.index("\t")] for line in lines}
    everything = [(d, cs) for d in range(1, 5) for cs in on_shell_keys(d)]
    absent = [(d, cs) for d, cs in everything
              if encode_key("cp2", d, cs) not in held
              and sum(map(local_double_points, cs)) <= double_point_count(
                  "cp2", d)]
    truth, known = Engine(), {}

    def true_value(text):
        if text not in known:
            space, dtext, ctext = text.split(";")
            known[text] = truth.hat_invariant(
                space, int(dtext), parse_constraints(ctext.replace("|", ";")))
        return known[text]

    def written_lines():
        return [line.decode().rstrip("\n")
                for line in split_header(path.read_bytes())[1]]

    rng = random.Random(12)
    refused = answered = 0
    for _ in range(25):
        d, cs = rng.choice(absent if rng.random() < 0.7 else everything)
        fresh = Engine()
        fresh.hat_invariant("cp2", d, cs)
        met = {text for text, _ in fresh.memo_items()}
        near = [i for i, line in enumerate(lines)
                if line[3:line.index("\t")] in met]
        i = rng.choice(near if near and rng.random() < 0.8
                       else range(len(lines)))
        text, value = lines[i].split("\t")
        wrong = "%s\t%d" % (text, int(value) + rng.choice((-7, -1, 1, 999)))
        body = [(line + "\n").encode()
                for line in lines[:i] + [wrong] + lines[i + 1:]]
        key = encode_key("cp2", d, cs)
        argv = ["compute", "-d", str(d), "-c", ";".join(map(diagram_text, cs)),
                "--hat", "--cache-file", str(path)]
        path.write_bytes(head + b"".join(body))
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == "%d\n" % true_value(key)
        assert "not read (digest mismatch)" in err
        if not met:  # the adjunction rule answered: nothing to write
            assert path.read_bytes() == head + b"".join(body)
            answered += 1
        for line in written_lines() if met else ():
            text, value = line[3:].split("\t")
            assert int(value) == true_value(text), line
        path.write_bytes(signed(body))
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 3)
        refused += code == 3
        if key != wrong[3:wrong.index("\t")]:
            assert out == "%d\n" % true_value(key)
        for line in written_lines():
            if line != wrong:
                text, value = line[3:].split("\t")
                assert int(value) == true_value(text), line
    assert refused and answered  # some runs met the wrong record


@settings(max_examples=150, deadline=None)
@given(edit=st.sampled_from(["flip", "insert", "delete"]),
       where=st.floats(0, 1, exclude_max=True), byte=st.integers(0, 255),
       pick=st.floats(0, 1, exclude_max=True))
def test_a_changed_byte_rejects_the_file(edit, where, byte, pick):
    # one byte flipped, inserted or deleted anywhere in a cold d <= 4 file,
    # header included: the file is not read, and compute prints the true
    # value of a key the file held
    data = cold_d4_file()
    records = records_in(split_header(data)[1])
    i = int(where * len(data))
    if edit == "flip":
        changed = data[:i] + bytes([data[i] ^ (byte or 1)]) + data[i + 1:]
    elif edit == "insert":
        changed = data[:i] + bytes([byte]) + data[i:]
    else:
        changed = data[:i] + data[i + 1:]
    key = sorted(records)[int(pick * len(records))]
    space, degree, diagrams = key.split(";")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        path = os.path.join(tmp, "counts.txt")
        with open(path, "wb") as handle:
            handle.write(changed)
        with CountCache(path) as cache:
            assert cache.rejected in ("no header", "digest mismatch")
            assert len(records_in(cache.entries.lines)) == 0
        code = main(["compute", "--space", space, "-d", degree, "-c",
                     diagrams.replace("|", ";"), "--hat",
                     "--cache-file", path])
    assert code == 0
    assert out.getvalue() == "%d\n" % records[key]
    assert err.getvalue().count("not read") == 2


def test_a_symlinked_path_stays_a_link(tmp_path, capsys):
    # the rewrite lands beside the link's target and replaces only it
    store = tmp_path / "store"
    store.mkdir()
    target, link = store / "counts.txt", tmp_path / "link.txt"
    link.symlink_to(target)  # dangling until the first write
    assert main(["compute", "-d", "3", "-c", "(8)",
                 "--cache-file", str(link)]) == 0
    assert main(["compute", "-d", "3", "-c", "(7,1)",
                 "--cache-file", str(link)]) == 0
    assert capsys.readouterr() == ("4\n1\n", "")
    assert link.is_symlink() and link.resolve() == target
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "store"]
    assert os.listdir(store) == ["counts.txt"]
    with CountCache(str(target)) as cache:
        assert cache.rejected is None
        assert records_in(cache.entries.lines)["cp2;3;(8)"] == 4
        assert records_in(cache.entries.lines)["cp2;3;(7,1)"] == 1
    assert main(["compute", "-d", "3", "-c", "(8)", "--format", "json",
                 "--cache-file", str(link)]) == 0
    assert json.loads(capsys.readouterr().out)[0]["provenance"] == "cached"


def test_a_path_that_is_no_regular_file_is_not_used(
        tmp_path, capsys, monkeypatch):
    # a device or a pipe, simulated on a regular file: never replaced
    path = tmp_path / "counts.txt"
    path.write_bytes(b"not a cache file\n")
    monkeypatch.setattr("tangentcount.cache.stat.S_ISREG", lambda mode: False)
    assert main(["compute", "-d", "3", "-c", "(8)",
                 "--cache-file", str(path)]) == 0
    assert capsys.readouterr() == (
        "4\n", "cache %s unavailable (not a regular file); running without "
               "persistence\n" % path)
    assert path.read_bytes() == b"not a cache file\n"
    assert os.listdir(tmp_path) == ["counts.txt"]
