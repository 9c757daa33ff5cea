"""Persistent cache of computed counts.

File format: one record per line, ``ht:key<TAB>value``: a tangency
invariant in the ordered-branch normalization, keyed by the canonical text
of its arguments (engine.encode_key), with a decimal integer value.  The
cache writes the file sorted, one line per key, and that order is its read
index.  A load reads the lines as bytes and sorts them (linear on a sorted
file); a lookup bisects them for ``ht:key<TAB>`` and parses the value of
the one line it finds.  The engine looks up only the keys its callers ask
for, never a key of its recursion, so no record enters a solve.

A line is a record only in the exact form the cache writes: ``ht:``, a
printable ASCII key, a tab, a value of at most 640 digits with no leading
zero or ``+`` (640 is the least limit int() can be set to, so a record
always parses), and a newline.  Any other line (``007``, a CRLF ending, no
tab, bytes that are not UTF-8, the ``gw:`` blowup records of older files)
is counted and skipped on load and dropped at the next write, so a damaged
line never poisons a cache file; a last line without its newline is still
a line.  Where a key has several lines, the later one in the file wins;
only then is a dict of the lines built, to pick them.

Harvesting merges into the sorted records the run's results whose key no
record holds; a record holding the key must be the same line, or the
harvest raises InconsistencyError.  A clean close after a harvest that
added records writes them all, atomically (temp file in the same
directory, fsync, then rename), so a run that raises, or a write that
fails (said on stderr), leaves the file as it was.  Concurrent runs are
serialized by an advisory lock on the cache file itself; when the lock
cannot be taken the cache opens read-only and says so on stderr.
"""

import fcntl
import os
import re
import sys
from bisect import bisect_left
from collections.abc import Mapping
from contextlib import suppress

from .errors import InconsistencyError

# Canonical lines, no two neighbours of one key; and lines with that second
# property alone.  Matched on _CHUNK lines at a time joined, with one line
# of overlap, which is sound because every line ends in its only newline;
# the file is never held as one bytes object beside its lines.  A chunk of
# the file that fails is matched again one line at a time.
_CANONICAL = re.compile(
    rb"(?:(ht:[ -~]*+\t)(?:0|-?[1-9][0-9]{0,639}+)\n(?!\1))*+")
_KEYS_ONCE = re.compile(rb"(?:([^\t]*+)\t[^\n]*+\n(?!\1\t))*+")
_CHUNK = 1024


class Records(Mapping):
    """Read-only {key text: value} over one sorted list of canonical lines,
    one per key."""

    def __init__(self):
        self.lines = []

    def __getitem__(self, key):
        head = b"ht:%s\t" % key.encode()
        i = bisect_left(self.lines, head)
        if i < len(self.lines) and self.lines[i].startswith(head):
            return int(self.lines[i][len(head):])
        raise KeyError(key)

    def __len__(self):
        return len(self.lines)

    def __iter__(self):
        for line in self.lines:
            yield line[3:line.index(b"\t")].decode()


def _unheld(lines, held):
    """The sorted lines whose key no line of sorted held has, in one pass
    over both; a line whose key held has must be held's line."""
    if not held:
        return lines
    out, i = [], 0
    for line in lines:
        head = line[:line.index(b"\t") + 1]
        i = bisect_left(held, head, i)
        if i == len(held) or not held[i].startswith(head):
            out.append(line)
        elif held[i] != line:
            raise InconsistencyError(
                "conflicting values %s (cache) and %s (computed) for %s"
                % (held[i][len(head):-1].decode(),
                   line[len(head):-1].decode(), head[3:-1].decode()))
    return out


class CountCache:
    """One cache file: its records read and sorted at open, for entries to
    bisect by key; the run's new records merged into them as they are
    harvested; all of them written at close.  Usable as a context
    manager."""

    def __init__(self, path):
        self.path = path
        self.entries = Records()
        self.read_only = False
        self._added = False
        self._handle = None
        try:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._handle = open(path, "a+b")
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
        self._handle.seek(0)
        lines = self._handle.readlines()
        if lines and not lines[-1].endswith(b"\n"):
            lines[-1] += b"\n"
        kept, clean = [], True
        for i in range(0, len(lines), _CHUNK):
            part = lines[i:i + _CHUNK]
            if _CANONICAL.fullmatch(b"".join(lines[i:i + _CHUNK + 1])):
                kept += part
            else:
                clean = False
                kept += filter(_CANONICAL.fullmatch, part)
        if len(kept) < len(lines):
            print("cache %s: skipped %d unreadable line(s)"
                  % (self.path, len(lines) - len(kept)), file=sys.stderr)
        lines = sorted(kept)
        # a clean file in sorted order has no two lines of a key
        if not (clean and lines == kept) and not all(
                _KEYS_ONCE.fullmatch(b"".join(lines[i:i + _CHUNK + 1]))
                for i in range(0, len(lines), _CHUNK)):
            # the last line of each key in file order
            lines = sorted({line[:line.index(b"\t")]: line
                            for line in kept}.values())
        self.entries.lines = lines

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(compact=exc_type is None)
        return False

    def preload(self, engine):
        """Hand the engine the stored records, which answer the keys it is
        asked for by their text; returns how many there are."""
        engine.stored = self.entries
        return len(self.entries)

    def harvest(self, engine):
        """Merge into the records, for close to write, the run's results
        whose key no record holds; returns how many.  Raises
        InconsistencyError where a record holds a key with another value."""
        lines = _unheld(sorted(b"ht:%s\t%d\n" % (key.encode(), value)
                               for key, value in engine.memo_items()),
                        self.entries.lines)
        added = len(lines)
        if added:
            lines += self.entries.lines
            lines.sort()  # two sorted runs: one linear merge
            self.entries.lines, self._added = lines, True
        return added

    def close(self, compact=True):
        """Release the file, rewriting it as the sorted records if this run
        added any and exited cleanly.  A write that fails leaves the file
        as it was and is reported on stderr."""
        if self._handle is None:
            return
        if compact and self._added and not self.read_only:
            tmp, out = "%s.%d.tmp" % (self.path, os.getpid()), None
            try:
                with open(tmp, "wb") as out:
                    out.writelines(self.entries.lines)
                    out.flush()
                    os.fsync(out.fileno())
                os.replace(tmp, self.path)
            except OSError as exc:
                print("cache %s not written (%s)" % (self.path, exc),
                      file=sys.stderr)
                if out is not None:  # this run made tmp
                    with suppress(OSError):
                        os.remove(tmp)
        try:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
        except OSError:
            pass
        self._handle.close()
        self._handle = None
