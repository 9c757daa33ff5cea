"""Spans and call counts recorded from outside tangentcount.

The traced run replaces layer entry points of the tangentcount modules with
wrappers defined here, so the package itself carries no instrumentation.
Clocked wrappers record one span per call (name, start, end, enclosing
span) in flat arrays kept in memory; the enclosing run is the process, and
its identifier is written out with the spans' summary once the run ends.
The hot leaves (``as_diagram``, ``merge_top_into``, ``kontsevich_count``)
get count-only wrappers without a clock, because they run millions of
times.

Entry points that a later version of the package drops or renames are
reported as absent instead of failing the run, and the package's own
counters (``Engine.counters``, ``gw.counters``) are read only if present.
"""

import functools
import inspect
import os
import time
from array import array


class Tracer:
    """In-memory span table plus per-name call counters for one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = []
        self.counts = {}
        self.results = {}
        self.absent = []
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def clocked(self, name, fn):
        """Wrap fn so that every call records a span named name."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, open_spans = self.span_start, self.span_end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
        return wrapper

    def counted(self, name, fn):
        """Wrap fn with a call counter and no clock."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def keep_results(self, name, fn):
        """Wrap fn so that its return values are kept under name."""
        kept = self.results.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            kept.append(out)
            return out
        return wrapper

    def patch(self, owner, attr, *wraps):
        """Replace owner.attr by the original passed through each wrap in
        turn; a missing attribute is noted as absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.absent.append("%s.%s" % (owner.__name__, attr))
            return
        fn = original
        for wrap in wraps:
            fn = wrap(fn)
        setattr(owner, attr, fn)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, summed duration, and summed self time
        (duration minus the time covered by the span's direct children)."""
        starts, ends = self.span_start, self.span_end
        parents = self.span_parent
        n = len(starts)
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += dur
            self_time[nid] += dur - covered[i]
        return {name: {"calls": calls[i], "total_s": total[i],
                       "self_s": self_time[i]}
                for i, name in enumerate(self.names)}


def install(tracer):
    """Wrap the layer entry points of tangentcount; returns the list that
    collects every Engine constructed while the wrappers are in place."""
    from tangentcount import cache, cli, engine, gw, matrices

    for module in (engine, matrices, cli):
        if hasattr(module, "as_diagram"):
            tracer.patch(module, "as_diagram",
                         lambda f: tracer.counted("as_diagram", f))
    tracer.patch(matrices, "merge_top_into",
                 lambda f: tracer.counted("merge_top_into", f))
    tracer.patch(gw, "kontsevich_count",
                 lambda f: tracer.counted("kontsevich_count", f))
    tracer.patch(gw, "gw_blowup", lambda f: tracer.clocked("gw_blowup", f))
    tracer.patch(engine, "canonical_constraints",
                 lambda f: tracer.clocked("canonical_constraints", f))
    tracer.patch(engine, "partitions_of",
                 lambda f: tracer.clocked("partitions_of", f))
    tracer.patch(engine, "solve_split_system",
                 lambda f: tracer.clocked("solve_split_system", f),
                 lambda f: _note_weight(tracer, f))
    tracer.patch(cli, "main", lambda f: tracer.clocked("cli.main", f))

    engines = []
    for cls, label in ((engine.Engine, "Engine"),
                       (cache.CountCache, "CountCache")):
        for attr, fn in list(vars(cls).items()):
            if not callable(fn) or (attr.startswith("_")
                                    and attr != "__init__"):
                continue
            name = "%s.%s" % (label, attr)
            # A generator's work happens after the call returns, so only
            # its calls are counted.
            wrap = tracer.counted if inspect.isgeneratorfunction(fn) \
                else tracer.clocked
            tracer.patch(cls, attr, lambda f, n=name, w=wrap: w(n, f))
    for attr in ("preload", "harvest"):
        name = "CountCache." + attr
        tracer.patch(cache.CountCache, attr,
                     lambda f, n=name: tracer.keep_results(n, f))
    tracer.patch(engine.Engine, "__init__",
                 lambda f: _collect_instances(engines, f))
    tracer.patch(cache.CountCache, "close",
                 lambda f: _note_compaction(tracer, f))
    return engines


def _note_weight(tracer, fn):
    """Track the largest weight k passed to the solver."""
    top = tracer.counts.setdefault("solve_split_system.max_k", [0])

    @functools.wraps(fn)
    def wrapper(k, *args, **kwargs):
        if k > top[0]:
            top[0] = k
        return fn(k, *args, **kwargs)
    return wrapper


def _collect_instances(instances, init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        instances.append(self)
        return init(self, *args, **kwargs)
    return wrapper


def _note_compaction(tracer, close):
    """A compaction rewrites the cache file through a rename, so the file
    seen under the cache's path is a new inode after close."""
    compactions = tracer.counts.setdefault("CountCache.compactions", [0])

    @functools.wraps(close)
    def wrapper(self, *args, **kwargs):
        before = _inode(self.path)
        try:
            return close(self, *args, **kwargs)
        finally:
            if _inode(self.path) != before:
                compactions[0] += 1
    return wrapper


def _inode(path):
    try:
        return os.stat(path).st_ino
    except OSError:
        return None


def memo_entries(engines):
    """Engine and gw memo sizes, counted through the public memo_items();
    None where the package no longer offers it."""
    from tangentcount import gw
    out = {"engine": None, "gw": None}
    if engines and all(hasattr(e, "memo_items") for e in engines):
        out["engine"] = sum(sum(1 for _ in e.memo_items()) for e in engines)
    if hasattr(gw, "memo_items"):
        out["gw"] = sum(1 for _ in gw.memo_items())
    return out


def package_counters(engines):
    """The package's own counters, summed over engines, where they exist."""
    from tangentcount import gw
    out = {"engine": None, "gw": None}
    if engines and all(isinstance(getattr(e, "counters", None), dict)
                       for e in engines):
        total = {}
        for e in engines:
            for key, value in e.counters.items():
                total[key] = total.get(key, 0) + value
        out["engine"] = total
    if isinstance(getattr(gw, "counters", None), dict):
        out["gw"] = dict(gw.counters)
    return out


def report(tracer, engines):
    """Everything the parent process needs from one traced process."""
    return {
        "run_id": tracer.run_id,
        "spans": len(tracer.span_start),
        "names": tracer.summary(),
        "counts": {name: cell[0] for name, cell in tracer.counts.items()},
        "results": tracer.results,
        "absent": tracer.absent,
        "memo_entries": memo_entries(engines),
        "package_counters": package_counters(engines),
    }
