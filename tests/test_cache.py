"""The persistent cache: load/append/compact cycle, damage tolerance, and
the advisory lock."""

import os

from tangentcount import gw
from tangentcount.cache import CountCache
from tangentcount.engine import Engine


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
    # the file's records are the only copy: a cached read memoises the one
    # record it needs, and so has nothing to append
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
        assert list(engine.memo_items()) == [("cp2;4;(11)", 26)]
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
