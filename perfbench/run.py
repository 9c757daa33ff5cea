"""Benchmark of tangentcount: end-to-end metrics, or per-layer metrics
from a traced run, for one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree of the package (the directory that
holds src/tangentcount); it needs nothing but the Python standard library.
The workloads, the metrics and the layer each metric belongs to are
described in perfbench/README.md.

Every workload process is a fresh interpreter started from here, one at a
time, with PYTHONPATH pointing at src/ and PYTHONHASHSEED=0; its times are
calibrated against a benchmark-owned kernel (calibrate.py).  Temporary
files (cache files, child output) live in a directory under the source
tree that is removed at the end.  Every answer is compared exactly with a
published value, a value frozen from an earlier version, or an independent
computation; any mismatch, traceback or non-zero exit counts as a failed
operation, and a run with a failed operation exits with code 1.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the same
metrics as a table, the sample counts, and the environment of the run.
"""

import argparse
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("tangency_column", "quadric_tables", "cache_queries")

# T_d, the degree-d count with one full-tangency point (published values).
TANGENCY_COLUMN = {1: 1, 2: 1, 3: 4, 4: 26, 5: 217, 6: 2110, 7: 22744}

# Curves of bidegree (a, b) on P1 x P1 through 2a + 2b - 1 points, frozen
# from the package at the commit that introduced this benchmark; the sum
# identity checks each one against the tangency table independently.
QUADRIC_POINT_COUNTS = {(3, 3): 3510, (4, 3): 87544, (4, 4): 6508640,
                        (5, 3): 1763415, (5, 4): 348005120}

# Workload sizes.  cache_max_d is the largest degree in the cache file the
# queries run against; writes ask for degree cache_max_d + 1, and each
# block of queries holds reads_per_block reads and one write.
FULL = {"max_d": 7, "bidegrees": [[3, 3], [4, 3], [4, 4], [5, 3], [5, 4]],
        "cache_max_d": 6, "reads_per_block": 3}

PROBE_REPS = 5        # set-up probes per run of an in-process workload
BUILD_REPS = 3        # cache-file builds per untraced run of cache_queries
MAX_PASSES = 20
MAX_BLOCKS = 6        # writes use diagram weights 2..7
RUN_BUDGET_S = 170.0  # every child is killed once the run is this old

WORKER = os.path.join(HERE, "worker.py")


# ----------------------------------------------------------------- plumbing

class Child:
    def __init__(self, code, wall, rusage, stdout, stderr):
        self.code = code
        self.wall = wall
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.stdout = stdout
        self.stderr = stderr


class Runner:
    """Starts workload processes one at a time and reaps each with its own
    resource usage; all files go to one temporary directory."""

    def __init__(self, root, tmp, deadline):
        self.root = root
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("TANGENTCOUNT_CACHE", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        self._serial = 0

    def path(self, name):
        return os.path.join(self.tmp, name)

    def run(self, argv):
        """Run sys.executable with argv to completion; returns a Child."""
        self._serial += 1
        out_path = self.path("child%d.out" % self._serial)
        err_path = self.path("child%d.err" % self._serial)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=self.root,
                                    env=self.env, stdout=out, stderr=err)
            try:
                rusage = self._reap(proc)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
            wall = time.perf_counter() - start
        with open(out_path) as out, open(err_path) as err:
            return Child(proc.returncode, wall, rusage, out.read(), err.read())

    def _reap(self, proc):
        fd = os.pidfd_open(proc.pid)
        try:
            remaining = self.deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(remaining, 0))
            if not ready:
                raise TimeoutError("run exceeded %.0f s" % RUN_BUDGET_S)
        finally:
            os.close(fd)
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return rusage


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def calibrated(ctx, child, speed):
    """Wall, CPU and peak RSS of an untraced child, less the kernel's time
    and memory, with the times at reference speed."""
    f = calibrate.factor(speed)
    ctx["factors"].append(f)
    return ((child.wall - speed["spent_s"]) * f,
            (child.cpu - speed["spent_s"]) * f,
            child.rss_mb - speed["kernel_mb"])


def cli_argv(report_path, trace, run_id, args):
    """A worker running tangentcount.cli.main(args)."""
    return [WORKER, "cli", report_path, "1" if trace else "0",
            repr(time.monotonic()), run_id] + args


class Gate:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def median(values):
    return statistics.median(values) if values else None


def mean(values):
    return statistics.fmean(values) if values else None


def repeat(seconds, limit, one_pass):
    """Run passes until another one would end after `seconds` (judged by
    the mean pass so far), at least one and at most `limit`."""
    results = []
    start = time.perf_counter()
    while len(results) < limit:
        results.append(one_pass(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            break
    return results


def tail(text, lines=5):
    return " | ".join(text.strip().splitlines()[-lines:])


def multinomial(p):
    n = math.factorial(sum(p))
    for r in p:
        n //= math.factorial(r)
    return n


# ----------------------------------------------------- in-process workloads

def check_answers(gate, workload, answers, refs):
    if workload == "tangency_column":
        for d, value in answers:
            gate.check(value == refs["column"].get(d),
                       "T_%d = %s, expected %s"
                       % (d, value, refs["column"].get(d)))
        return
    for bidegree, lhs, rhs, table in answers:
        expected = refs["quadric"].get(tuple(bidegree))
        gate.check(lhs == expected, "point count %s = %s, expected %s"
                   % (bidegree, lhs, expected))
        gate.check(rhs == lhs, "sum identity %s: %s != %s"
                   % (bidegree, rhs, lhs))
        total = sum(multinomial(p) * n for p, n in table)
        gate.check(total == lhs, "table %s sums to %s, point count %s"
                   % (bidegree, total, lhs))


def questions(workload, sizes):
    if workload == "tangency_column":
        return sizes["max_d"]
    return 3 * len(sizes["bidegrees"])


def in_process_passes(ctx, workload, trace):
    """Cold passes, one fresh worker each; returns the successful ones."""
    sizes, runner, gate = ctx["sizes"], ctx["runner"], ctx["gate"]

    def one_pass(index):
        out_path = runner.path("pass-%d-%d.json" % (trace, index))
        spec = {"workload": workload, "sizes": sizes, "trace": trace,
                "run_id": "%s/%s/pass%d" % (workload, "traced" if trace
                                            else "untraced", index)}
        child = runner.run([WORKER, "pass", json.dumps(spec), out_path])
        if child.code != 0 or not os.path.exists(out_path):
            for _ in range(questions(workload, sizes)):
                gate.check(False, "pass %d exited %d: %s"
                           % (index, child.code, tail(child.stderr)))
            return None
        result = read_json(out_path)
        check_answers(gate, workload, result["answers"], ctx["refs"])
        f = calibrate.factor(result["speed"])
        ctx["factors"].append(f)
        result["wall_s"] *= f
        result["cpu_s"] *= f
        result["rss_mb"] = child.rss_mb - result["speed"]["kernel_mb"]
        return result

    return [r for r in repeat(ctx["seconds"], MAX_PASSES, one_pass) if r]


def run_in_process(ctx, workload):
    runner, gate = ctx["runner"], ctx["gate"]
    if ctx["trace"]:
        plain = in_process_passes(ctx, workload, False)
        traced = in_process_passes(ctx, workload, True)
        if not plain or not traced:
            return None
        per_pass = [layers.values(p["trace"]) for p in traced]
        out = layers.median_of(per_pass)
        out["trace.overhead_frac"] = (
            mean([p["wall_s"] for p in traced])
            / mean([p["wall_s"] for p in plain]) - 1)
        ctx["samples"]["traced passes"] = len(traced)
        return out
    setups = []
    for i in range(PROBE_REPS):
        out_path = runner.path("probe%d.json" % i)
        child = runner.run([WORKER, "probe", out_path])
        if gate.check(child.code == 0, "set-up probe exited %d: %s"
                      % (child.code, tail(child.stderr))):
            setups.append(calibrated(ctx, child,
                                     read_json(out_path)["speed"])[0])
    passes = in_process_passes(ctx, workload, False)
    if not passes or not setups:
        return None
    ctx["samples"].update({"setup_s": len(setups), "passes": len(passes)})
    return {
        "setup_s": median(setups),
        "wall_s": mean([p["wall_s"] for p in passes]),
        "cpu_s": mean([p["cpu_s"] for p in passes]),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


# ----------------------------------------------------------- cache_queries

def read_records(path, section):
    """{key text: value} of one section of a cache file."""
    out = {}
    prefix = section + ":"
    with open(path) as fh:
        for line in fh:
            head, _, value = line.rstrip("\n").partition("\t")
            if head.startswith(prefix):
                out[head[len(prefix):]] = int(value)
    return out


def key_args(text):
    """A cache key "cp2;D;(a,b)|(c)" as compute arguments."""
    space, degree, diagrams = text.split(";")
    return ["--space", space, "-d", degree, "-c", diagrams.replace("|", ";")]


def parse_key(text):
    _, degree, diagrams = text.split(";")
    return int(degree), [[int(x) for x in chunk.strip("()").split(",")]
                         for chunk in diagrams.split("|")]


def partitions(k, top=None):
    top = k if top is None else top
    if k == 0:
        return [[]]
    return [[first] + rest for first in range(min(k, top), 0, -1)
            for rest in partitions(k - first, first)]


def make_plan(seed, stored_keys, sizes, blocks):
    """Seeded queries, block by block: reads of keys stored in the cache
    file and one write of a new low-tangency key one degree up.

    The write of block b puts one diagram of weight b + 2 (not all ones)
    beside single points.  A solve fills in only keys with the same other
    constraints and no heavier diagram, so no earlier write can have stored
    a later one: every write is a real miss.
    """
    rng = random.Random(seed)
    degree = sizes["cache_max_d"] + 1
    per_block = sizes["reads_per_block"]
    reads = rng.sample(sorted(stored_keys), per_block * blocks)
    plan = []
    for b in range(blocks):
        weight = b + 2
        diagram = rng.choice([p for p in partitions(weight) if p[0] >= 2])
        diagrams = [diagram] + [[1]] * (3 * degree - 1 - weight)
        write = "cp2;%d;%s" % (degree, "|".join(
            "(%s)" % ",".join(map(str, p)) for p in diagrams))
        block = [("read", key)
                 for key in reads[b * per_block:(b + 1) * per_block]]
        block.insert(rng.randrange(len(block) + 1), ("write", write))
        plan.append(block)
    return plan


def build_cache(ctx, path):
    """Cold `table --max-d N --cache-file path`; checks the printed column."""
    max_d = ctx["sizes"]["cache_max_d"]
    report_path = path + ".json"
    child = ctx["runner"].run(cli_argv(report_path, False, "build", [
        "table", "--max-d", str(max_d), "--cache-file", path]))
    column = {}
    for line in child.stdout.splitlines()[1:]:
        fields = line.split()
        if len(fields) >= 2 and fields[0].isdigit():
            column[int(fields[0])] = int(fields[1])
    expected = {d: ctx["refs"]["column"][d] for d in range(1, max_d + 1)}
    ok = ctx["gate"].check(child.code == 0 and column == expected,
                           "cache build exited %d, column %s: %s"
                           % (child.code, column, tail(child.stderr)))
    return calibrated(ctx, child, read_json(report_path)["speed"])[0] \
        if ok else None


def query_blocks(ctx, plan, refs, cache_path, trace):
    """The closed loop: one client, each call after the previous returns."""
    runner, gate = ctx["runner"], ctx["gate"]
    records = []

    def one_block(b):
        block = []
        for q, (kind, key) in enumerate(plan[b]):
            args = ["compute"] + key_args(key) + [
                "--cache-file", cache_path, "--format", "json"]
            report_path = runner.path("q-%d-%d-%d.json" % (trace, b, q))
            child = runner.run(cli_argv(report_path, trace,
                                        "query%d.%d" % (b, q), args))
            n_ref, hat_ref = refs[key]
            expected = "cached" if kind == "read" else "computed"
            try:
                record = json.loads(child.stdout)[0]
                ok = (child.code == 0 and record["value"] == n_ref
                      and record["provenance"] == expected)
            except (ValueError, LookupError, TypeError):
                record, ok = {}, False
            gate.check(ok, "%s %s: exit %d, got %s, expected %s (%s): %s"
                       % (kind, key, child.code, record, n_ref, expected,
                          tail(child.stderr)))
            entry = {"kind": kind, "key": record.get("key", key),
                     "hat": hat_ref, "ok": ok}
            if ok:
                report = read_json(report_path)
                if trace:
                    # Summarising the trace is not part of the query.
                    child.wall -= report["report_s"]
                    entry["trace"] = report
                entry["wall"], entry["cpu"], entry["rss_mb"] = calibrated(
                    ctx, child, report["speed"])
            block.append(entry)
        records.extend(block)
        return block

    blocks = repeat(ctx["seconds"], len(plan), one_block)
    stored = read_records(cache_path, "ht")
    for entry in records:
        if entry["kind"] == "write" and entry["ok"]:
            gate.check(stored.get(entry["key"]) == entry["hat"],
                       "written key %s stored as %s, expected hat %s"
                       % (entry["key"], stored.get(entry["key"]),
                          entry["hat"]))
    return blocks


def run_cache_queries(ctx):
    runner, gate, sizes = ctx["runner"], ctx["gate"], ctx["sizes"]
    builds = []
    for i in range(1 if ctx["trace"] else BUILD_REPS):
        path = runner.path("built%d.cache" % i)
        builds.append((build_cache(ctx, path), path))
    if any(wall is None for wall, _ in builds):
        return None
    with open(builds[0][1], "rb") as fh:
        first = fh.read()
    for _, path in builds[1:]:
        with open(path, "rb") as fh:
            gate.check(fh.read() == first,
                       "two cold builds wrote different cache files")

    plan = make_plan(ctx["seed"], read_records(builds[0][1], "ht"), sizes,
                     MAX_BLOCKS)
    keys = [(key,) + parse_key(key) for block in plan for _, key in block]
    refs_path = runner.path("refs.json")
    child = runner.run([WORKER, "refs", json.dumps({"keys": keys}),
                        refs_path])
    if not gate.check(child.code == 0, "reference worker exited %d: %s"
                      % (child.code, tail(child.stderr))):
        return None
    refs = read_json(refs_path)

    def loop(trace):
        path = runner.path("queries-%d.cache" % trace)
        shutil.copyfile(builds[0][1], path)
        blocks_run = query_blocks(ctx, plan, refs, path, trace)
        return blocks_run, os.path.getsize(path)

    plain, _ = loop(False)
    queries = [q for b in plain for q in b]
    if not all(q["ok"] for q in queries):
        return None
    if ctx["trace"]:
        traced, file_bytes = loop(True)
        tq = [q for b in traced for q in b if "trace" in q]
        if not any(q["kind"] == "read" for q in tq):
            return None
        out = layers.cache_query_values(tq, file_bytes)
        out["trace.overhead_frac"] = (
            mean([q["wall"] for q in tq])
            / mean([q["wall"] for q in queries]) - 1)
        ctx["samples"]["traced queries"] = len(tq)
        return out
    hits = [q["wall"] for q in queries if q["kind"] == "read"]
    misses = [q["wall"] for q in queries if q["kind"] == "write"]
    ctx["samples"].update({"setup_s": len(builds), "blocks": len(plain),
                           "hit_p50_s": len(hits),
                           "miss_p50_s": len(misses)})
    ctx["info"].update({"hit_p50_s": median(hits),
                        "miss_p50_s": median(misses)})
    return {
        "setup_s": median([wall for wall, _ in builds]),
        "wall_s": sum(q["wall"] for q in queries) / len(plain),
        "cpu_s": sum(q["cpu"] for q in queries) / len(plain),
        "peak_rss_mb": max(q["rss_mb"] for q in queries),
    }


# --------------------------------------------------------------- reporting

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    """HEAD of the source tree when it is a git checkout, read directly."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root, args):
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "hash_seed": "PYTHONHASHSEED=0 in every workload process",
            "commit": git_commit(root), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def run_workload(root, args, sizes=FULL, refs=None):
    """Run one workload; returns the gate, the metrics (None when nothing
    was measured), the sample counts, and unbounded figures to print."""
    refs = refs or {"column": TANGENCY_COLUMN,
                    "quadric": QUADRIC_POINT_COUNTS}
    tmp_parent = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_parent)
    ctx = {"runner": Runner(root, tmp, time.monotonic() + RUN_BUDGET_S),
           "gate": Gate(), "sizes": sizes, "refs": refs, "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace),
           "samples": {}, "info": {}, "factors": []}
    try:
        if args.workload == "cache_queries":
            metrics = run_cache_queries(ctx)
        else:
            metrics = run_in_process(ctx, args.workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass
    if ctx["factors"]:
        ctx["samples"]["speed_factor_median"] = median(ctx["factors"])
    return ctx["gate"], metrics, ctx["samples"], ctx["info"]


def final_result(gate, metrics, trace):
    """The result object of the last output line, with the metrics that
    BENCHMARK.json declares for this mode; also the names found absent."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    out, absent = {}, []
    for m in declared:
        value = metrics.get(m["name"])
        if value is None:
            absent.append(m["name"])
        else:
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = len(gate.failures)
    return ({"correct": failed == 0, "attempted": gate.attempted,
             "failed": failed, "metrics": out}, absent)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tangentcount",
                                       "__init__.py")):
        print("no src/tangentcount under %s: run from the root of the "
              "source tree" % root, file=sys.stderr)
        return 2
    try:
        gate, metrics, samples, info = run_workload(root, args)
    except TimeoutError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    for what in gate.failures:
        print("FAILED: %s" % what, file=sys.stderr)
    if metrics is None:
        print("benchmark failed: no successful measurement",
              file=sys.stderr)
        return 1

    result, absent = final_result(gate, metrics, args.trace)
    print("%-32s %14s  %s" % ("metric", "value", "unit"))
    for name, entry in result["metrics"].items():
        print("%-32s %14.6g  %s" % (name, entry["value"], entry["unit"]))
    for name in absent:
        print("%-32s %14s" % (name, "absent"))
    for name, value in info.items():
        print("%-32s %14.6g  s  (printed, not bounded)" % (name, value))
    print("%-32s %14.6g  ratio" % ("failed_frac", result["failed"]
                                   / max(result["attempted"], 1)))
    print("samples " + json.dumps(samples, sort_keys=True))
    print("environment " + json.dumps(environment(root, args),
                                      sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1

if __name__ == "__main__":
    sys.exit(main())
