"""crispedge benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` next to
this directory; nothing needs installing. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``. Results, the environment and (when
tracing) every span go to ``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Put the checkout's src/ and tests/ (for the scalar oracles) on the path
    and make sure crispedge comes from there, not from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "crispedge", "__init__.py")):
        sys.exit(f"perfbench: no crispedge sources under {src}")
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        sys.exit("perfbench: tests/oracles.py is missing")
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    import crispedge

    if not os.path.abspath(crispedge.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: crispedge was imported from {crispedge.__file__}, not {src}")


def environment():
    import networkx
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "cores": os.cpu_count(), "machine": platform.machine()}


def peak_rss_mb(worker_kb):
    """Peak resident set of this process plus the largest the eval worker
    reported; Linux reports ru_maxrss in KiB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker_kb) / 1024.0


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    load_program()
    import checks
    import workloads
    from spans import NullTracer, Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    outdir = os.path.join(HERE, "out")
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(outdir, "work-" + label)
    os.makedirs(outdir, exist_ok=True)
    tracer = Tracer() if args.trace else None

    setup_s = []
    for i in range(SETUP_REPEATS):
        # each set-up starts from a fresh workload; the previous one's inputs
        # are freed before the clock starts
        wl = None
        gc.collect()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        t0 = time.perf_counter()
        wl.setup(tracer if tracer and i == SETUP_REPEATS - 1 else NullTracer())
        setup_s.append(time.perf_counter() - t0)

    rounds, traced, error, peak_mb = [], None, None, None
    try:
        wl.start()
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(wl.round())
        # the peak so far is the program's: the checks and the traced round
        # below run oracles and replays that can use more memory than it does
        peak_mb = peak_rss_mb(wl.worker_peak_kb())
        wl.check(rounds)
        if tracer:
            traced = wl.traced_round(tracer, rounds)
    except checks.CheckFailed as exc:
        error = str(exc)
        if not rounds:
            sys.exit(f"perfbench: check failed: {error}")
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    done = rounds + ([traced] if traced else [])
    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    round_s = statistics.median(r.seconds for r in rounds)
    if tracer and traced:
        values = wl.layer_metrics(tracer.spans, rounds)
        values["trace.overhead_ms"] = 1e3 * (traced.seconds - round_s)
        declared = spec["per_layer"]
        tracer.write(os.path.join(outdir, f"spans-{label}.jsonl"))
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_mb if peak_mb is not None else peak_rss_mb(wl.worker_peak_kb()),
            "items_per_s": statistics.median(r.completed_items / r.seconds for r in rounds),
        }
        declared = spec["per_layer"] if tracer else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    result = {"correct": error is None, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, error=error, environment=environment(),
                  setup_s=setup_s, rounds=[{"seconds": r.seconds, "phases": r.phases,
                                            "attempted": r.attempted, "failed": r.failed}
                                           for r in rounds])
    with open(os.path.join(outdir, f"result-{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
