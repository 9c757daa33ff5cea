"""Persistent cache of computed counts.

File format: one record per line, ``ht:key<TAB>value``: a tangency
invariant in the ordered-branch normalization, keyed by the canonical text
of its arguments (engine.encode_key), with a decimal integer value.
Damaged or unrecognized lines, including the ``gw:`` blowup records of
older files, are skipped on load and dropped at the next compaction, so a
truncated append never poisons a cache file.  The loaded records are the
only copy: the engine looks a key's text up in them on a memo miss.

New results are appended as they are harvested; a clean close rewrites the
whole file atomically (temp file in the same directory, then rename) with
one sorted record per key.  Concurrent runs are serialized by an advisory
lock on the cache file itself; when the lock cannot be taken the cache
opens read-only and says so on stderr.
"""

import fcntl
import os
import sys


class CountCache:
    """One cache file: load at open, append as results arrive, compact at
    close.  Usable as a context manager."""

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
        """Append any results the run produced that the file lacks."""
        fresh = []
        for key, value in engine.memo_items():
            if key not in self.entries:
                self.entries[key] = value
                fresh.append((key, value))
        if not fresh or self.read_only:
            return len(fresh)
        self._handle.seek(0, os.SEEK_END)
        for key, value in fresh:
            self._handle.write("ht:%s\t%d\n" % (key, value))
        self._handle.flush()
        self._dirty = True
        return len(fresh)

    def close(self, compact=True):
        """Release the file, rewriting it deduplicated and sorted if this
        run added anything and exited cleanly."""
        if self._handle is None:
            return
        if compact and self._dirty and not self.read_only:
            tmp = "%s.%d.tmp" % (self.path, os.getpid())
            with open(tmp, "w") as out:
                for key, value in sorted(self.entries.items()):
                    out.write("ht:%s\t%d\n" % (key, value))
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.path)
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        self._handle.close()
        self._handle = None
