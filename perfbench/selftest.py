"""Fast self-test of the benchmark harness at tiny sizes.

  python3 perfbench/selftest.py      (from the root of the source tree)

Runs every workload untraced and traced at d <= 4, bidegree (3,3) and two
queries on a d <= 3 cache, and checks that every metric BENCHMARK.json
declares is emitted with no failed operation.  Then runs each workload
with one reference value deliberately wrong and checks that the
correctness gate trips.  Exits 0 when every check holds.
"""

import argparse
import os
import sys

import run

TINY = {"max_d": 4, "bidegrees": [[3, 3]], "cache_max_d": 3,
        "reads_per_block": 1}

RIGHT = {"column": run.TANGENCY_COLUMN, "quadric": run.QUADRIC_POINT_COUNTS}

# Deliberately wrong references: T_4 of the column, the (3,3) point count,
# T_3 as printed by the cache build, and every query's expected value.
WRONG = [
    ("tangency_column", {**RIGHT, "column": {**run.TANGENCY_COLUMN, 4: 27}}),
    ("quadric_tables", {**RIGHT, "quadric": {**run.QUADRIC_POINT_COUNTS,
                                             (3, 3): 3511}}),
    ("cache_queries", {**RIGHT, "column": {**run.TANGENCY_COLUMN, 3: 5}}),
    ("cache_queries", "queries"),
]


def shift_query_references(query_blocks):
    """query_blocks with every expected count one too high."""
    def shifted(ctx, plan, refs, cache_path, trace):
        wrong = {key: [n + 1, hat] for key, (n, hat) in refs.items()}
        return query_blocks(ctx, plan, wrong, cache_path, trace)
    return shifted


def main():
    root = os.getcwd()
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1,
                                      seconds=0.01, trace=trace)
            gate, metrics, _, _ = run.run_workload(root, args, TINY)
            if metrics is None or gate.failures:
                problems.append("%s trace=%d failed: %s"
                                % (workload, trace, gate.failures))
                continue
            result, absent = run.final_result(gate, metrics, trace)
            if absent:
                problems.append("%s trace=%d lacks %s"
                                % (workload, trace, absent))
            print("ok   %-16s trace=%d  %d metrics, %d checks"
                  % (workload, trace, len(result["metrics"]),
                     result["attempted"]))
    for workload, refs in WRONG:
        args = argparse.Namespace(workload=workload, seed=1, seconds=0.01,
                                  trace=0)
        if refs == "queries":
            original = run.query_blocks
            run.query_blocks = shift_query_references(original)
            try:
                gate, _, _, _ = run.run_workload(root, args, TINY, RIGHT)
            finally:
                run.query_blocks = original
        else:
            gate, _, _, _ = run.run_workload(root, args, TINY, refs)
        if gate.failures:
            print("ok   %-16s gate trips: %s"
                  % (workload, gate.failures[0][:70]))
        else:
            problems.append("%s: gate did not trip on a wrong reference"
                            % workload)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
