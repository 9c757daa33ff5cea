"""Persistent cache of computed counts.

File format: one record per line, ``ht:key<TAB>value``: a tangency
invariant in the ordered-branch normalization, keyed by the canonical text
of its arguments (engine.encode_key), with a decimal integer value.
Damaged or unrecognized lines, including the ``gw:`` blowup records of
older files, are skipped on load and dropped at the next write, so a
damaged line never poisons a cache file.  The loaded records are the only
copy: the engine looks a key's text up in them on a memo miss.

Harvesting merges a run's new results into the loaded records; the file is
written once, at a clean close, atomically (temp file in the same
directory, fsync, then rename) with one sorted record per key, so a run
that raises leaves it as it was.  Concurrent runs are serialized by an
advisory lock on the cache file itself; when the lock cannot be taken the
cache opens read-only and says so on stderr.
"""

import fcntl
import os
import sys


class CountCache:
    """One cache file: load at open, merge results as they are harvested,
    write at close.  Usable as a context manager."""

    def __init__(self, path):
        self.path = path
        self.entries = {}
        self.read_only = False
        self._handle = None
        self._dirty = False
        try:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._handle = open(path, "a+")
        except OSError as exc:
            print("cache %s unavailable (%s); running without persistence"
                  % (path, exc), file=sys.stderr)
            self.read_only = True
            return
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            print("cache %s is locked by another run; opening read-only"
                  % (path,), file=sys.stderr)
            self.read_only = True
        self._load()

    def _load(self):
        bad = 0
        self._handle.seek(0)
        for line in self._handle:
            line = line.rstrip("\n")
            if not line:
                continue
            head, sep, tail = line.partition("\t")
            if not sep or not head.startswith("ht:"):
                bad += 1
                continue
            try:
                self.entries[head[3:]] = int(tail)
            except ValueError:
                bad += 1
        if bad:
            print("cache %s: skipped %d unreadable line(s)"
                  % (self.path, bad), file=sys.stderr)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(compact=exc_type is None)
        return False

    def preload(self, engine):
        """Hand the engine the stored records, which it reads by key text
        on a memo miss; returns how many there are."""
        engine.stored = self.entries
        return len(self.entries)

    def harvest(self, engine):
        """Merge the run's results that the records lack into entries, for
        close to write; returns how many there were."""
        size = len(self.entries)
        for key, value in engine.memo_items():
            self.entries.setdefault(key, value)
        added = len(self.entries) - size
        self._dirty = self._dirty or added > 0
        return added

    def close(self, compact=True):
        """Release the file, rewriting it deduplicated and sorted if this
        run added anything and exited cleanly."""
        if self._handle is None:
            return
        if compact and self._dirty and not self.read_only:
            tmp = "%s.%d.tmp" % (self.path, os.getpid())
            with open(tmp, "w") as out:
                out.writelines("ht:%s\t%d\n" % (key, self.entries[key])
                               for key in sorted(self.entries))
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.path)
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        self._handle.close()
        self._handle = None
