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
    assert all("\t" in line and line.split(":", 1)[0] in ("gw", "ht")
               for line in lines)


def test_damaged_lines_are_skipped(tmp_path, capsys):
    path = str(tmp_path / "counts.txt")
    with open(path, "w") as handle:
        handle.write("ht:cp2;1;(2)\t1\n")
        handle.write("garbage line\n")
        handle.write("ht:cp2;1;(1)|(1)\tnotanumber\n")
        handle.write("zz:cp2;1;(2)\t9\n")
        handle.write("gw:1;\t1\n")
    cache = CountCache(path)
    assert ("ht", "cp2;1;(2)") in cache.entries
    assert ("gw", "1;") in cache.entries
    assert len(cache.entries) == 2
    cache.close()
    assert "unreadable" in capsys.readouterr().err


def test_malformed_entries_do_not_poison_engines(tmp_path):
    path = str(tmp_path / "counts.txt")
    with open(path, "w") as handle:
        handle.write("ht:nowhere;3;(2)\t7\n")   # unknown space
        handle.write("gw:0;\t7\n")              # impossible degree
        handle.write("ht:cp2;3;(1,7)\t5\n")     # rows out of order
    engine = fresh_state()
    with CountCache(path) as cache:
        assert cache.preload(engine) == 0
    assert engine.invariant("cp2", 1, ((2,),)) == 1
    assert engine.invariant("cp2", 3, ((7, 1),)) == 1


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