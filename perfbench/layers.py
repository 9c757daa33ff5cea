"""Per-layer metrics from the reports of traced processes (tracer.report).

Times are self times: a span's duration minus the time its clocked child
spans cover, so that layers add up without double counting.  The cache and
cli phases are whole durations, because they are what a query waits for.
A metric whose source no longer exists in the package is None (absent).
"""

import statistics


def _span(report, name, field):
    entry = report["names"].get(name)
    return None if entry is None else entry[field]


def _counter(counters, key):
    return None if counters is None else counters.get(key, 0)


def values(report):
    """Per-layer metrics of one traced process."""
    names, counts = report["names"], report["counts"]
    engine_counters = report["package_counters"]["engine"]
    gw_counters = report["package_counters"]["gw"]
    solves = _span(report, "solve_split_system", "calls")
    solve_s = _span(report, "solve_split_system", "self_s")
    evaluations = _counter(engine_counters, "evaluations")
    memo_hits = _counter(engine_counters, "memo_hits")
    lookups = None if evaluations is None else evaluations + memo_hits
    results = report["results"]
    loaded = results.get("CountCache.preload")
    appended = results.get("CountCache.harvest")
    return {
        "partitions.as_diagram_calls": counts.get("as_diagram"),
        "partitions.partitions_of_calls": _span(report, "partitions_of",
                                                "calls"),
        "partitions.partitions_of_s": _span(report, "partitions_of",
                                            "self_s"),
        "matrices.solves": solves,
        "matrices.solve_s": solve_s,
        "matrices.solve_mean_us": (None if solves is None else
                                   1e6 * solve_s / solves if solves else 0.0),
        "matrices.merge_calls": counts.get("merge_top_into"),
        "matrices.max_weight": counts.get("solve_split_system.max_k"),
        "engine.canonical_calls": _span(report, "canonical_constraints",
                                        "calls"),
        "engine.canonical_s": _span(report, "canonical_constraints",
                                    "self_s"),
        "engine.self_s": sum(entry["self_s"] for name, entry in names.items()
                             if name.startswith("Engine.")),
        "engine.evaluations": evaluations,
        "engine.solves": _counter(engine_counters, "solves"),
        "engine.base_cases": _counter(engine_counters, "base_cases"),
        "engine.memo_hits": memo_hits,
        "engine.memo_hit_ratio": (None if lookups is None else
                                  memo_hits / lookups if lookups else 0.0),
        "engine.memo_entries": report["memo_entries"]["engine"],
        "gw.blowup_calls": _span(report, "gw_blowup", "calls"),
        "gw.blowup_s": _span(report, "gw_blowup", "self_s"),
        "gw.kontsevich_calls": counts.get("kontsevich_count"),
        "gw.memo_entries": report["memo_entries"]["gw"],
        "gw.memo_hits": _counter(gw_counters, "gw_memo_hits"),
        "gw.wdvv_solves": _counter(gw_counters, "gw_wdvv_solves"),
        "gw.point_free_solves": _counter(gw_counters,
                                         "gw_point_free_solves"),
        "gw.cremona_reductions": _counter(gw_counters,
                                          "gw_cremona_reductions"),
        "cache.load_s": _span(report, "CountCache.__init__", "total_s"),
        "cache.preload_s": _span(report, "CountCache.preload", "total_s"),
        "cache.harvest_s": _span(report, "CountCache.harvest", "total_s"),
        "cache.close_s": _span(report, "CountCache.close", "total_s"),
        "cache.records_loaded": None if loaded is None else sum(loaded),
        "cache.records_appended": None if appended is None else sum(appended),
        "cache.compactions": counts.get("CountCache.compactions"),
        "cache.file_bytes": 0,
        "cli.startup_s": report.get("startup_s", 0.0),
        "cli.main_s": _span(report, "cli.main", "total_s"),
    }


def median_of(per_run):
    """Metric by metric median over runs; None stays None."""
    out = {}
    for name in per_run[0]:
        got = [run[name] for run in per_run if run[name] is not None]
        out[name] = statistics.median(got) if got else None
    return out


# Metrics of the write side of the cache, taken over the write queries;
# every other metric of cache_queries is taken over the read queries.
WRITE_SIDE = ("cache.close_s", "cache.records_appended", "cache.compactions")


def cache_query_values(queries, file_bytes):
    """cache_queries: per-query medians, reads for most metrics and writes
    for the write side, plus the cache file's size at the end."""
    reads = [values(q["trace"]) for q in queries if q["kind"] == "read"]
    writes = [values(q["trace"]) for q in queries if q["kind"] == "write"]
    out = median_of(reads)
    if writes:
        write_side = median_of(writes)
        for name in WRITE_SIDE:
            out[name] = write_side[name]
    out["cache.file_bytes"] = file_bytes
    return out
