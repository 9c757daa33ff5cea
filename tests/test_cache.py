"""The persistent cache: load/harvest/write cycle, the pinned file format,
damage tolerance, and the advisory lock."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tangentcount import gw
from tangentcount.cache import CountCache
from tangentcount.cli import _session, main, parse_constraints
from tangentcount.engine import Engine, encode_key
from tangentcount.partitions import diagram_text, partitions_of


def fresh_state():
    gw.reset()
    return Engine()


def test_round_trip(tmp_path):
    path = str(tmp_path / "counts.txt")
    engine = fresh_state()
    value = engine.invariant("cp2", 3, ((8,),))
    with CountCache(path) as cache:
        added = cache.harvest(engine)
        assert added > 0
    assert os.path.exists(path)

    engine2 = fresh_state()
    with CountCache(path) as cache:
        loaded = cache.preload(engine2)
        assert loaded > 0
    assert engine2.invariant("cp2", 3, ((8,),)) == value
    assert engine2.counters["solves"] == 0


def test_file_is_compacted_sorted_and_unique(tmp_path):
    path = str(tmp_path / "counts.txt")
    engine = fresh_state()
    engine.invariant("cp2", 2, ((5,),))
    with CountCache(path) as cache:
        cache.harvest(engine)
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    assert lines == sorted(lines)
    assert len(lines) == len(set(lines))
    assert all("\t" in line and line.startswith("ht:") for line in lines)


def test_damaged_lines_are_skipped(tmp_path, capsys):
    path = str(tmp_path / "counts.txt")
    with open(path, "w") as handle:
        handle.write("ht:cp2;1;(2)\t1\n")
        handle.write("garbage line\n")
        handle.write("ht:cp2;1;(1)|(1)\tnotanumber\n")
        handle.write("zz:cp2;1;(2)\t9\n")
        handle.write("gw:1;\t1\n")
    cache = CountCache(path)
    assert cache.entries == {"cp2;1;(2)": 1}
    cache.close()
    assert "skipped 4 unreadable" in capsys.readouterr().err


def test_malformed_entries_do_not_poison_engines(tmp_path):
    # a record is read only through the canonical text of a key the engine
    # asks for, so text encode_key never writes is never read
    path = str(tmp_path / "counts.txt")
    with open(path, "w") as handle:
        handle.write("ht:nowhere;3;(2)\t7\n")   # unknown space
        handle.write("gw:0;\t7\n")              # blowup record
        handle.write("ht:cp2;3;(1,7)\t5\n")     # rows out of order
        handle.write("ht:cp2;3;(1)|(7)\t9\n")   # diagrams out of order
        handle.write("ht:cp2;03;(8)\t9\n")      # leading zero
        handle.write("ht:cp2;3; (8)\t9\n")      # space
    engine = fresh_state()
    with CountCache(path) as cache:
        assert cache.preload(engine) == 5
        assert engine.invariant("cp2", 1, ((2,),)) == 1
        assert engine.invariant("cp2", 3, ((7, 1),)) == 1
        assert engine.hat_invariant("cp2", 3, ((7,), (1,))) == 5
        assert engine.invariant("cp2", 3, ((8,),)) == 4


def test_second_open_is_read_only(tmp_path, capsys):
    path = str(tmp_path / "counts.txt")
    first = CountCache(path)
    second = CountCache(path)
    assert not first.read_only
    assert second.read_only
    assert "read-only" in capsys.readouterr().err
    engine = fresh_state()
    engine.invariant("cp2", 1, ((2,),))
    second.harvest(engine)
    second.close()
    first.close()
    with open(path) as handle:
        assert handle.read() == ""  # the read-only handle never wrote


def test_append_then_compact_keeps_everything(tmp_path):
    path = str(tmp_path / "counts.txt")
    engine = fresh_state()
    engine.invariant("cp2", 2, ((5,),))
    with CountCache(path) as cache:
        cache.harvest(engine)
        engine.invariant("cp2", 3, ((8,),))
        cache.harvest(engine)
    engine2 = fresh_state()
    with CountCache(path) as cache:
        cache.preload(engine2)
    assert engine2.invariant("cp2", 2, ((5,),)) == 1
    assert engine2.invariant("cp2", 3, ((8,),)) == 4
    assert engine2.counters["solves"] == 0


def test_a_read_copies_only_the_key_it_asks_for(tmp_path):
    # the file's records are the only copy: a cached read answers from the
    # one record it needs, memoises nothing, and so has nothing to append
    path = str(tmp_path / "counts.txt")
    builder = fresh_state()
    for d in range(1, 5):
        builder.invariant("cp2", d, ((3 * d - 1,),))
    with CountCache(path) as cache:
        cache.harvest(builder)
    engine = Engine()
    with CountCache(path) as cache:
        assert cache.preload(engine) == len(cache.entries) > 1000
        assert engine.hat_invariant("cp2", 4, ((11,),)) == 26
        assert list(engine.memo_items()) == []
        assert cache.harvest(engine) == 0


def test_blowup_records_are_not_read(tmp_path):
    # a gw: line is skipped like any unknown section, so a wrong blowup
    # count reaches neither the engine that opened the file nor a later
    # engine in the same process
    path = str(tmp_path / "counts.txt")
    with open(path, "w") as handle:
        handle.write("gw:3;2\t7\n")
    key = ((1, 1),) + ((1,),) * 6
    engine = fresh_state()
    with CountCache(path) as cache:
        cache.preload(engine)
        assert engine.hat_invariant("cp2", 3, key) == 2
    assert Engine().hat_invariant("cp2", 3, key) == 2
    gw.reset()


def build_d4_file(path, capsys):
    assert main(["table", "--max-d", "4", "--cache-file", str(path)]) == 0
    capsys.readouterr()
    return path.read_bytes()


def test_cold_table_file_is_pinned(tmp_path, capsys):
    # the sorted one-record-per-key format, byte for byte
    data = build_d4_file(tmp_path / "counts.txt", capsys)
    assert data.count(b"\n") == 1737
    assert len(data) == 54343
    assert hashlib.sha256(data).hexdigest() == (
        "82b905db6d08d46a1a1051b44e21fc02f0094a16e8e9dbe908d67fd3b8a99886")


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


def test_a_shuffled_file_is_read_like_the_sorted_one(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    lines = build_d4_file(path, capsys).splitlines(keepends=True)
    with CountCache(str(path)) as cache:
        built = dict(cache.entries)
    random.Random(4).shuffle(lines)
    path.write_bytes(b"".join(lines))
    with CountCache(str(path)) as cache:
        assert cache.entries == built
        assert cache.entries.lines == sorted(lines)
    assert main(["compute", "-d", "4", "-c", "(11)", "--cache-file",
                 str(path), "--format", "json", "--stats"]) == 0
    out, err = capsys.readouterr()
    record, = json.loads(out)
    assert (record["value"], record["provenance"]) == (26, "cached")
    assert " solves=0 " in err
    assert "unreadable" not in err


def test_a_damaged_line_between_records_is_skipped(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    lines = build_d4_file(path, capsys).splitlines(keepends=True)
    m = len(lines) // 2
    before, after = (line.decode().rstrip("\n").partition("\t")
                     for line in (lines[m - 1], lines[m + 1]))
    lines[m] = lines[m].replace(b"\t", b" ")  # no tab: damaged
    path.write_bytes(b"".join(lines))
    with CountCache(str(path)) as cache:
        assert len(cache.entries) == len(lines) - 1
        for head, _, value in (before, after):
            assert cache.entries[head[3:]] == int(value)
    assert "skipped 1 unreadable" in capsys.readouterr().err


def test_a_last_line_without_its_newline_is_one_line(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    data = build_d4_file(path, capsys)
    lines = data.splitlines(keepends=True)
    path.write_bytes(data[:-1])  # the last record is whole
    with CountCache(str(path)) as cache:
        assert cache.entries.lines == lines
    assert "unreadable" not in capsys.readouterr().err
    # a record cut off before its tab as it was appended, sorting in front
    # of the whole record of its key
    head = lines[len(lines) // 2].partition(b"\t")[0]
    path.write_bytes(data + head)
    with CountCache(str(path)) as cache:
        assert cache.entries.lines == lines
    assert "skipped 1 unreadable" in capsys.readouterr().err
    assert main(["verify", "--max-d", "4", "--cache-file", str(path)]) == 0
    assert main(["compute", "-d", "5", "-c", "(14)",
                 "--cache-file", str(path)]) == 0
    assert "skipped 1 unreadable" in capsys.readouterr().err
    written = path.read_bytes().splitlines(keepends=True)
    assert set(lines) < set(written)
    assert all(line.count(b"ht:") == 1 and line.count(b"\t") == 1
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
        for d in range(1, 5):
            engine.invariant("cp2", d, ((3 * d - 1,),))
        engine.invariant("cp2", 5, ((14,),))
    assert path.read_bytes() == one.read_bytes()


@pytest.mark.parametrize("values, right", [
    (["5", "4"], True), (["4", "5"], False),
    # a line not in the written form is unreadable, wherever it stands
    (["4", "+5\r"], True), (["+4\r", "5"], False), (["005", "4"], True)])
def test_the_later_line_of_a_key_wins(tmp_path, capsys, values, right):
    path = tmp_path / "counts.txt"
    path.write_text("".join("ht:cp2;3;(8)\t%s\n" % v for v in values),
                    newline="")
    readable = [v for v in values if v == str(int(v))]
    with CountCache(str(path)) as cache:
        assert cache.entries == {"cp2;3;(8)": int(readable[-1])}
        assert cache.entries.lines == [b"ht:cp2;3;(8)\t%s\n"
                                       % readable[-1].encode()]
    assert main(["verify", "--max-d", "3", "--cache-file", str(path)]) \
        == (0 if right else 1)
    out, err = capsys.readouterr()
    assert ("cp2;3;(8) stored 5 computed 4" in out) != right
    skipped = len(values) - len(readable)
    assert ("skipped %d unreadable" % skipped in err if skipped
            else "unreadable" not in err)


def test_only_asked_keys_are_looked_up(tmp_path, monkeypatch):
    # the engine looks up the key it is asked for, once, and no key of its
    # recursion: a key the file lacks is computed without reading it, and
    # a key it holds is answered with no solve, also by an engine that
    # computed before the file was handed to it
    path = str(tmp_path / "counts.txt")
    builder = fresh_state()
    builder.invariant("cp2", 3, ((8,),))
    with CountCache(path) as cache:
        cache.harvest(builder)
    engine = Engine()
    assert engine.hat_invariant("cp2", 3, ((1,),) * 8) == 12
    with CountCache(path) as cache:
        asked, get = [], cache.entries.get
        monkeypatch.setattr(cache.entries, "get", lambda key, default=None:
                            asked.append(key) or get(key, default))
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
    # wrong record: the run prints the true value unless it asked for the
    # wrong record itself, and it writes no line but true ones, refusing
    # with exit 3 where a value it computed contradicts the record
    path = tmp_path / "counts.txt"
    lines = build_d4_file(path, capsys).decode().splitlines()
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
        head, value = lines[i].split("\t")
        wrong = "%s\t%d" % (head, int(value) + rng.choice((-7, -1, 1, 999)))
        path.write_text("\n".join(lines[:i] + [wrong] + lines[i + 1:]) + "\n")
        code = main(["compute", "-d", str(d), "-c",
                     ";".join(map(diagram_text, cs)), "--hat",
                     "--cache-file", str(path)])
        out = capsys.readouterr().out
        assert code in (0, 3)
        refused += code == 3
        key = encode_key("cp2", d, cs)
        if key != head[3:]:
            assert out == "%d\n" % true_value(key)
        for line in path.read_text().splitlines():
            if line != wrong:
                text, value = line[3:].split("\t")
                assert int(value) == true_value(text), line
    assert refused  # some runs met the wrong record


def read_by_hand(data):
    """{key: value} and the number of unreadable lines of a cache file, by
    plain bytes operations: a record is ht:, printable ASCII, a tab, and a
    value of at most 640 digits with no leading zero or plus; the later
    line of a key wins."""
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the file, or an empty file
    entries, bad = {}, 0
    for line in lines:
        head, tab, value = line.partition(b"\t")
        digits = value[1:] if value.startswith(b"-") else value
        if (head.startswith(b"ht:") and tab
                and all(32 <= c < 127 for c in head)
                and digits.isdigit() and len(digits) <= 640
                and (value == b"0" or not digits.startswith(b"0"))):
            entries[head[3:].decode()] = int(value)
        else:
            bad += 1
    return entries, bad


def computed_d2():
    engine = Engine()
    engine.invariant("cp2", 2, ((5,),))
    return engine


TRUE_LINES = [b"ht:%s\t%d" % (key.encode(), value)
              for key, value in computed_d2().memo_items()]
KEYS = st.sampled_from([b"cp2;3;(8)", b"cp2;3;(7,1)", b"cp2;1;(2)", b"a",
                        b""])
NUMBERS = st.integers(-10 ** 20, 10 ** 20)
LINES = st.one_of(
    st.builds(b"ht:%s\t%d".__mod__, st.tuples(KEYS, NUMBERS)),
    st.sampled_from(TRUE_LINES),
    st.builds(b"ht:%s\t%s".__mod__, st.tuples(KEYS, st.sampled_from(
        [b"007", b"+4", b"-0", b"4\r", b"", b"9" * 640, b"9" * 641,
         b"9" * 5000]))),
    st.builds(b"ht:%s %d".__mod__, st.tuples(KEYS, NUMBERS)),  # no tab
    st.just(b"ht:cp2;\xff\t1"),  # not UTF-8
    st.just(b"gw:3;2\t7"))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(LINES, max_size=12), chunk=st.sampled_from([2, 3]),
       cut=st.one_of(st.none(), st.integers(0, 40)))
def test_the_load_reads_what_a_plain_reader_reads(lines, chunk, cut):
    # shuffled, repeated, damaged and cut-off lines, with tiny chunks so
    # that lines of every kind fall on chunk edges; one harvest then
    # writes the sorted records, one line per key
    data = b"".join(line + b"\n" for line in lines)
    if cut is not None and lines:
        data = data[:len(data) - len(lines[-1]) - 1 + cut]
    entries, bad = read_by_hand(data)
    engine = computed_d2()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("tangentcount.cache._CHUNK", chunk), \
            contextlib.redirect_stderr(err):
        path = os.path.join(tmp, "counts.txt")
        with open(path, "wb") as handle:
            handle.write(data)
        with CountCache(path) as cache:
            assert cache.entries == entries
            cache.harvest(engine)
        with open(path, "rb") as handle:
            written = handle.read()
    assert (("skipped %d unreadable" % bad) in err.getvalue() if bad
            else "unreadable" not in err.getvalue())
    entries.update(engine.memo_items())
    assert written == b"".join(sorted(b"ht:%s\t%d\n" % (key.encode(), value)
                                      for key, value in entries.items()))
