"""Persistent cache of computed counts.

A cache file is a header line, naming the format version and the sha256 of
every byte after it, then the records ``ht:key<TAB>value``: tangency
invariants in the ordered-branch normalization, keyed by the canonical text
of their arguments (engine.encode_key), sorted, one line per key.  That
order is the read index: Records answers get and in, and nothing else,
each bisecting for ``ht:key<TAB>`` and parsing the one value it finds.
The engine looks up only the keys its callers ask for, never a key of its
recursion, so no record enters a solve.  A harvest writes no key whose
constraints are all ones: the engine keeps none, as the blowup memo
recomputes it, but an older file's record of one still answers it.  Nor
does it write a key past the adjunction budget (Engine.memo_items), which
the engine answers with 0 before it looks in the records; an older
file's record of one is kept, never read by a lookup and never compared
by a harvest.

A file is read only if this program wrote it: one with no header or a wrong
digest (damaged, edited by hand, or older than the header) opens with no
records, said in one line on stderr, and is replaced at the next close
after a harvest that adds records.  An empty file is a new one.  The
digest guards against damage, not against someone who recomputes it;
``verify --cache-file`` recomputes every record and checks the line order
and that each key is in its canonical text.

Harvesting merges in the run's results whose key no record holds; a record
holding the key must be the same line, or the harvest raises
InconsistencyError.  Close rewrites the file atomically (temp file in the
same directory, fsync, rename) exactly when a harvest added records and
the file is not read-only.  So the caller decides what a run keeps, by
harvesting or not (the command line harvests on a clean exit or an
interrupt): records harvested are kept even if an exception follows, each
value being exact, and a run not harvested, or a write that fails (said
on stderr), leaves the file as it was.  A symlinked path is followed
once, so the rewrite replaces the link's target and the link stays.  A
path that cannot be opened as a regular file (a device, a pipe, a path
under a regular file) is no cache: CountCache raises OSError, and the
command line runs as --no-cache does.  An advisory lock on the file
serializes runs; a run that cannot take it opens the file read-only and
says so on stderr.
"""

import fcntl
import os
import stat
import sys
from bisect import bisect_left
from contextlib import suppress
from itertools import pairwise

from .errors import InconsistencyError

_MAGIC = b"tangentcount cache v1 sha256 "


def _header(digest):
    return _MAGIC + digest.hexdigest().encode() + b"\n"


def header(lines):
    """The header line of a cache file whose other lines are lines (a sequence
    of bytes, each ending in its newline): format version and sha256."""
    import hashlib  # here, not at the top: only a cache file needs OpenSSL
    digest = hashlib.sha256()
    for i in range(0, len(lines), 4096):
        digest.update(b"".join(lines[i:i + 4096]))
    return _header(digest)


def parse_line(line):
    """(key text, value) of a record line, or None for a line that is no
    record: no ``ht:`` or tab, a value int() rejects, or bytes that are not
    UTF-8.  A line is read as a record through this alone."""
    head, tab, value = line.partition(b"\t")
    if not (tab and head.startswith(b"ht:")):
        return None
    try:
        return head[3:].decode(), int(value)
    except ValueError:  # UnicodeDecodeError is one too
        return None


class Records:
    """The records of one sorted list of canonical lines, one per key,
    answering get and in by key text; a line parse_line rejects is no
    record."""

    def __init__(self):
        self.lines = []

    def get(self, key):
        """The value of key's record, found by bisection, else None."""
        head = b"ht:%s\t" % key.encode()
        i = bisect_left(self.lines, head)
        if i < len(self.lines) and self.lines[i].startswith(head):
            record = parse_line(self.lines[i])
            if record is not None:
                return record[1]
        return None

    def __contains__(self, key):
        return self.get(key) is not None

    def audit(self):
        """For verify: the number in the file of the first line that is not
        above the line before or repeats its key (None if none), and (n,
        parse_line of line n) for each line n; the header is line 1."""
        lines = self.lines
        first = next((n for n, (prev, line) in enumerate(pairwise(lines), 3)
                      if line <= prev or prev.startswith(
                          line.partition(b"\t")[0] + b"\t")), None)
        return first, enumerate(map(parse_line, lines), 2)


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
                % (held[i][len(head):-1].decode(errors="replace"),
                   line[len(head):-1].decode(), head[3:-1].decode()))
    return out


class CountCache:
    """One cache file: its records read at open, for entries to bisect by
    key; the run's new records merged into them as they are harvested; all
    of them written at close.  Usable as a context manager."""

    def __init__(self, path):
        """Open and read the file at path; raises OSError, holding nothing
        open, where path cannot be opened as a regular file."""
        self.path = path  # as given, for messages
        self._target = os.path.realpath(path)  # a link's target is rewritten
        self.entries = Records()
        self.read_only = False  # another run holds the lock
        self.rejected = None  # why the file was not read, if it was not
        self._added = False
        os.makedirs(os.path.dirname(self._target), exist_ok=True)
        self._handle = open(self._target, "a+b")
        try:
            if not stat.S_ISREG(os.fstat(self._handle.fileno()).st_mode):
                raise OSError("not a regular file")
            try:
                fcntl.flock(self._handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                print("cache %s is locked by another run; opening read-only"
                      % (path,), file=sys.stderr)
                self.read_only = True
            self._load()
        except BaseException:
            self._handle.close()
            raise

    def _load(self):
        import hashlib
        self._handle.seek(0)
        head = self._handle.readline(len(_MAGIC) + 65)  # 64 hex digits, \n
        if not head:
            return  # a new file
        if not head.startswith(_MAGIC):
            self.rejected = "no header"
        elif head != _header(hashlib.file_digest(self._handle, "sha256")):
            self.rejected = "digest mismatch"
        else:
            self._handle.seek(len(head))
            self.entries.lines = self._handle.readlines()
            return
        print("cache %s not read (%s); replaced at the next write"
              % (self.path, self.rejected), file=sys.stderr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def preload(self, engine):
        """Hand the engine the stored records, which answer the keys it is
        asked for by their text; returns how many lines hold them."""
        engine.stored = self.entries
        return len(self.entries.lines)

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

    def close(self):
        """Release the file, rewriting it as the header and the sorted
        records exactly when a harvest added records and the file is not
        read-only.  A write that fails leaves the file as it was and is
        reported on stderr; one that is interrupted leaves it as it was
        too, and releases it."""
        if self._handle is None:
            return
        tmp, out = "%s.%d.tmp" % (self._target, os.getpid()), None
        try:
            if self._added and not self.read_only:
                with open(tmp, "wb") as out:
                    out.write(header(self.entries.lines))
                    out.writelines(self.entries.lines)
                    out.flush()
                    os.fsync(out.fileno())
                os.replace(tmp, self._target)
        except OSError as exc:
            print("cache %s not written (%s)" % (self.path, exc),
                  file=sys.stderr)
        finally:  # also when the write is interrupted
            if out is not None:  # this run made tmp; once replaced it is gone
                with suppress(OSError):
                    os.remove(tmp)
            with suppress(OSError):
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            self._handle.close()
            self._handle = None
