"""Child process of the benchmark: one timed piece of work in a fresh
interpreter, because the blowup backend keeps its memo in module globals.

  worker.py pass SPEC_JSON OUT_JSON   one cold pass of an in-process workload
  worker.py probe OUT_JSON            set-up: import the package, make an Engine
  worker.py refs SPEC_JSON OUT_JSON   reference values from a fresh Engine
  worker.py cli OUT_JSON TRACE SPAWNED_AT RUN_ID ARG...
                                      tangentcount.cli.main(ARG...); the exit
                                      code of main is the process's

Untraced work runs beside a calibrate.Speedometer; traced work runs with
the layer wrappers of tracer.py, and its Speedometer samples only before
and after it.  The result goes to OUT_JSON, apart from the package's own
output.
"""

import json
import resource
import sys
import time

import calibrate
import tracer as tracing


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def ask(engine, workload, sizes):
    """The workload's question, asked of engine; returns the answers."""
    if workload == "tangency_column":
        return [[d, engine.invariant("cp2", d, ((3 * d - 1,),))]
                for d in range(1, sizes["max_d"] + 1)]
    out = []
    for bidegree in sizes["bidegrees"]:
        bidegree = tuple(bidegree)
        table = engine.full_table("p1xp1", bidegree)
        lhs, rhs = engine.sum_identity("p1xp1", bidegree)
        out.append([list(bidegree), lhs, rhs,
                    [[list(p), n] for p, n in sorted(table.items())]])
    return out


def run_pass(spec):
    """One cold pass; wall_s and cpu_s leave out the kernel's own time."""
    from tangentcount import Engine
    tracer = engines = None
    speed = calibrate.Speedometer()
    if spec["trace"]:
        tracer = tracing.Tracer(spec["run_id"])
        engines = tracing.install(tracer)
    else:
        speed.start()
    engine = Engine()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    answers = ask(engine, spec["workload"], spec["sizes"])
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    speed.stop()
    out = {"answers": answers, "wall_s": wall - speed.in_timer_s,
           "cpu_s": cpu - speed.in_timer_s, "speed": speed.report()}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracing.report(tracer, engines)
    return out


def run_probe():
    speed = calibrate.Speedometer()
    speed.start()
    from tangentcount import Engine
    Engine()
    speed.stop()
    return {"speed": speed.report()}


def run_refs(spec):
    """N and hat-H for every query key, from one Engine with no cache."""
    from tangentcount import Engine
    engine = Engine()
    out = {}
    for key, degree, constraints in spec["keys"]:
        cs = [tuple(c) for c in constraints]
        out[key] = [engine.invariant("cp2", degree, cs),
                    engine.hat_invariant("cp2", degree, cs)]
    return out


def run_cli(out_path, trace, spawned_at, run_id, argv):
    """tangentcount.cli.main(argv), traced or beside a Speedometer."""
    speed = calibrate.Speedometer()
    if trace:
        from tangentcount import cli
        tracer = tracing.Tracer(run_id)
        engines = tracing.install(tracer)
    else:
        speed.start()
        from tangentcount import cli
    entered = time.monotonic()
    try:
        return cli.main(argv)
    finally:
        speed.stop()
        returned = time.perf_counter()
        report = {}
        if trace:
            tracer.uninstall()
            report = tracing.report(tracer, engines)
            report["startup_s"] = entered - float(spawned_at)
            report["report_s"] = time.perf_counter() - returned
        report["speed"] = speed.report()
        with open(out_path, "w") as fh:
            json.dump(report, fh)


def main(argv):
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], argv[2] == "1", argv[3], argv[4], argv[5:])
    if mode == "probe":
        result, out_path = run_probe(), argv[1]
    else:
        spec, out_path = json.loads(argv[1]), argv[2]
        result = run_pass(spec) if mode == "pass" else run_refs(spec)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
