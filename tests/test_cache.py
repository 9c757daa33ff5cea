"""The persistent cache: load/harvest/write cycle, the pinned file format,
the digest that keeps a file the program did not write from being read,
and the advisory lock."""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tangentcount import gw
from tangentcount.cache import CountCache, header
from tangentcount.cli import _session, main, parse_constraints
from tangentcount.engine import Engine, encode_key
from tangentcount.partitions import diagram_text, partitions_of

from reference import cold_engine, column, records_in, signed, split_header


def rejected(path, reason, capsys):
    """Open the cache file at path and check that it is not read, and said
    so in one line on stderr."""
    with CountCache(str(path)) as cache:
        assert cache.rejected == reason
        assert len(records_in(cache.entries.lines)) == 0
    assert capsys.readouterr().err == (
        "cache %s not read (%s); replaced at the next write\n"
        % (path, reason))


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


def test_file_is_compacted_sorted_and_unique(tmp_path):
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


def test_damaged_lines_are_skipped(tmp_path, capsys):
    # with the whole file: damaged lines without a header, or damaged since
    # the digest was taken, and the file is said on stderr in one line
    path = tmp_path / "counts.txt"
    good = [b"ht:cp2;1;(2)\t1\n"]
    lines = good + [b"garbage line\n", b"ht:cp2;1;(1)|(1)\tnotanumber\n",
                    b"zz:cp2;1;(2)\t9\n", b"gw:1;\t1\n"]
    for data, reason in ((b"".join(lines), "no header"),
                         (header(good) + b"".join(lines), "digest mismatch")):
        path.write_bytes(data)
        rejected(path, reason, capsys)
        assert path.read_bytes() == data  # nothing added, nothing written
    path.write_bytes(signed(good))
    with CountCache(str(path)) as cache:
        assert records_in(cache.entries.lines) == {"cp2;1;(2)": 1}
    assert capsys.readouterr().err == ""


def test_malformed_entries_do_not_poison_engines(tmp_path):
    # a file the program did not write is not read; and even with a valid
    # digest a record is read only through the canonical text of a key the
    # engine asks for, so text encode_key never writes is never read
    path = tmp_path / "counts.txt"
    lines = [b"ht:nowhere;3;(2)\t7\n",   # unknown space
             b"gw:0;\t7\n",              # blowup record
             b"ht:cp2;3;(1,7)\t5\n",     # rows out of order
             b"ht:cp2;3;(1)|(7)\t9\n",   # diagrams out of order
             b"ht:cp2;03;(8)\t9\n",      # leading zero
             b"ht:cp2;3; (8)\t9\n"]      # space
    for data, held in ((b"".join(lines), 0), (signed(sorted(lines)), 6)):
        path.write_bytes(data)
        engine = cold_engine()
        with CountCache(str(path)) as cache:
            assert cache.preload(engine) == held
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


def test_append_then_compact_keeps_everything(tmp_path):
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
            records_in(cache.entries.lines)) > 1000
        assert engine.hat_invariant("cp2", 4, ((11,),)) == 26
        assert list(engine.memo_items()) == []
        assert cache.harvest(engine) == 0


def test_blowup_records_are_not_read(tmp_path):
    # a gw: line of an older file is not read, and under a valid digest it
    # is an unknown section no key is looked up in, so a wrong blowup count
    # reaches neither the engine that opened the file nor a later engine in
    # the same process
    path = tmp_path / "counts.txt"
    key = ((1, 1),) + ((1,),) * 6
    for data in (b"gw:3;2\t7\n", signed([b"gw:3;2\t7\n"])):
        path.write_bytes(data)
        engine = cold_engine()
        with CountCache(str(path)) as cache:
            cache.preload(engine)
            assert engine.hat_invariant("cp2", 3, key) == 2
        assert Engine().hat_invariant("cp2", 3, key) == 2
    gw.reset()


def build_d4_file(path, capsys):
    assert main(["table", "--max-d", "4", "--cache-file", str(path)]) == 0
    capsys.readouterr()
    return path.read_bytes()


def test_cold_table_file_is_pinned(tmp_path, capsys):
    # the header, then the sorted one-record-per-key lines, byte for byte
    data = build_d4_file(tmp_path / "counts.txt", capsys)
    head, lines = split_header(data)
    body = data[len(head):]
    assert head == header(lines)
    assert body.count(b"\n") == len(lines) == 1737
    assert len(body) == 54343
    assert hashlib.sha256(body).hexdigest() == (
        "82b905db6d08d46a1a1051b44e21fc02f0094a16e8e9dbe908d67fd3b8a99886")


def test_the_header_is_the_sha256_of_the_joined_lines(tmp_path, capsys):
    # hashed in blocks of lines, the digest is still that of all the bytes
    # after the header; repeated, the d <= 4 lines span three blocks
    _, lines = split_header(build_d4_file(tmp_path / "counts.txt", capsys))
    for some in (lines, lines * 5, lines[:1], []):
        digest = hashlib.sha256(b"".join(some)).hexdigest()
        assert header(some) == b"tangentcount cache v1 sha256 %s\n" % (
            digest.encode())


def test_a_cached_compute_leaves_the_file_as_it_was(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    before = build_d4_file(path, capsys)
    inode = os.stat(path).st_ino
    assert main(["compute", "-d", "4", "-c", "(11)",
                 "--cache-file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "26"
    assert path.read_bytes() == before
    assert os.stat(path).st_ino == inode  # not even rewritten


def test_a_session_that_raises_leaves_the_file_as_it_was(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    before = build_d4_file(path, capsys)
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


def test_a_shuffled_file_is_not_read(tmp_path, capsys):
    # the lines of a written file in another order no longer match its
    # digest: the key is computed, and the write puts back sorted lines
    path = tmp_path / "counts.txt"
    head, lines = split_header(build_d4_file(path, capsys))
    shuffled = lines[:]
    random.Random(4).shuffle(shuffled)
    path.write_bytes(head + b"".join(shuffled))
    rejected(path, "digest mismatch", capsys)
    assert main(["compute", "-d", "4", "-c", "(11)", "--cache-file",
                 str(path), "--format", "json", "--stats"]) == 0
    out, err = capsys.readouterr()
    record, = json.loads(out)
    assert (record["value"], record["provenance"]) == (26, "computed")
    assert " solves=0 " not in err
    assert "not read (digest mismatch)" in err
    head, written = split_header(path.read_bytes())
    assert head == header(written)
    assert written == sorted(written) and set(written) < set(lines)


def test_a_damaged_line_between_records_is_skipped(tmp_path, capsys):
    # with the whole file, which the next run that adds records replaces:
    # a cold table of the same degrees writes the file anew
    path = tmp_path / "counts.txt"
    data = build_d4_file(path, capsys)
    head, lines = split_header(data)
    m = len(lines) // 2
    lines[m] = lines[m].replace(b"\t", b" ")  # no tab: damaged
    path.write_bytes(head + b"".join(lines))
    rejected(path, "digest mismatch", capsys)
    assert main(["table", "--max-d", "4", "--cache-file", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].split()[:2] == ["4", "26"]
    assert err.count("\n") == 1 and "not read" in err
    assert path.read_bytes() == data


def test_a_file_cut_short_is_not_read(tmp_path, capsys):
    # a file that lost its last newline, or gained part of a record after
    # it, is not read; verify says so and fails, and its write is a valid
    # file that agrees with the cold one
    path = tmp_path / "counts.txt"
    data = build_d4_file(path, capsys)
    _, lines = split_header(data)
    cut = lines[len(lines) // 2].partition(b"\t")[0]
    for damaged in (data[:-1], data + cut):
        path.write_bytes(damaged)
        rejected(path, "digest mismatch", capsys)
        assert main(["verify", "--max-d", "4",
                     "--cache-file", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == ("FAIL cache records of degree at "
                                       "most 4: file not read (digest "
                                       "mismatch)")
        assert all(line.startswith("PASS") for line in out.splitlines()[1:])
        assert err.count("\n") == 1
        head, written = split_header(path.read_bytes())
        assert head == header(written)
        cold = {line.partition(b"\t")[0]: line for line in lines}
        assert all(cold.get(line.partition(b"\t")[0], line) == line
                   for line in written)


def test_a_write_merges_into_the_file_like_one_session(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    build_d4_file(path, capsys)
    assert main(["compute", "-d", "5", "-c", "(14)",
                 "--cache-file", str(path)]) == 0
    assert capsys.readouterr().out == "217\n"
    one = tmp_path / "one.txt"
    args = argparse.Namespace(no_cache=False, cache_file=str(one),
                              stats=False)
    with _session(args) as (engine, _):
        column(engine, 5)
    assert path.read_bytes() == one.read_bytes()


# values: the lines of a file the program did not write, each after
# "ht:cp2;3;"; right: whether the later readable line of the key is true
@pytest.mark.parametrize("values, right", [
    (["(8)\t5", "(8)\t4"], True), (["(8)\t4", "(8)\t5"], False),
    (["(8)\t4", "(8)\t+5\r"], True), (["(8)\t+4\r", "(8)\t5"], False),
    (["(8)\t005", "(8)\t4"], True), (["(7)|(1)\t999"], False)])
def test_the_later_line_of_a_key_wins(tmp_path, capsys, values, right):
    # where a file holds two lines of a key, or one wrong line of a key
    # that (8) is computed through, the line the next write makes wins: a
    # file the program did not write is not read, whether or not its later
    # readable line was the true one (right); verify fails on the file,
    # compute prints the computed value, and its write holds the one true
    # line of the key
    true = {"(8)": 4, "(7)|(1)": 5}
    path = tmp_path / "counts.txt"
    data = "".join("ht:cp2;3;%s\n" % v for v in values).encode()
    path.write_bytes(data)
    rejected(path, "no header", capsys)
    assert main(["verify", "--max-d", "3", "--cache-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == ("FAIL cache records of degree at most 3: "
                                   "file not read (no header)")
    assert "not read (no header)" in err
    path.write_bytes(data)
    assert main(["compute", "-d", "3", "-c", "(8)",
                 "--cache-file", str(path)]) == 0
    out, err = capsys.readouterr()
    assert out == "4\n"
    assert "not read (no header)" in err
    _, written = split_header(path.read_bytes())
    for key in {v.split("\t")[0] for v in values}:
        text = b"ht:cp2;3;%s\t" % key.encode()
        assert [line for line in written if line.startswith(text)] == [
            b"%s%d\n" % (text, true[key])]


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
    # the true value and its write holds only true lines.  With a forged
    # digest the run prints the true value unless it asked for the wrong
    # record itself, and it writes no line but true ones, refusing with
    # exit 3 where a value it computed contradicts the record
    path = tmp_path / "counts.txt"
    head, lines = split_header(build_d4_file(path, capsys))
    lines = [line.decode().rstrip("\n") for line in lines]
    held = {line[3:line.index("\t")] for line in lines}
    everything = [(d, cs) for d in range(1, 5) for cs in on_shell_keys(d)]
    absent = [(d, cs) for d, cs in everything
              if encode_key("cp2", d, cs) not in held]
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
    refused = 0
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
        for line in written_lines():
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
    assert refused  # some runs met the wrong record


@functools.lru_cache(maxsize=None)
def cold_d4_file():
    """The bytes of a cold table --max-d 4 cache file and its records."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.txt")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["table", "--max-d", "4", "--cache-file", path]) == 0
        with open(path, "rb") as handle:
            data = handle.read()
    return data, dict(line.decode()[3:].rstrip("\n").split("\t")
                      for line in split_header(data)[1])


@settings(max_examples=150, deadline=None)
@given(edit=st.sampled_from(["flip", "insert", "delete"]),
       where=st.floats(0, 1, exclude_max=True), byte=st.integers(0, 255),
       pick=st.integers(0, 1736))
def test_a_changed_byte_rejects_the_file(edit, where, byte, pick):
    # one byte flipped, inserted or deleted anywhere in a cold d <= 4 file,
    # header included: the file is not read, and compute prints the true
    # value of a key the file held
    data, records = cold_d4_file()
    i = int(where * len(data))
    if edit == "flip":
        changed = data[:i] + bytes([data[i] ^ (byte or 1)]) + data[i + 1:]
    elif edit == "insert":
        changed = data[:i] + bytes([byte]) + data[i:]
    else:
        changed = data[:i] + data[i + 1:]
    key = sorted(records)[pick]
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
    assert out.getvalue() == records[key] + "\n"
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
