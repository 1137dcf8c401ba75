"""periodpoly benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload sym3-cold-batch --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  A run sets the workload up, then runs the ops of its fixed pass in
order, over and over, for about --seconds (every op at least once); each op
starts when the previous one has finished.  Every op is
checked (see workloads.py) and a failed check counts the op as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run alternates whole
untraced and traced passes and the metrics are the per-layer ones (see
spans.py).
Earlier lines describe the environment and, when traced, a per-layer
table.  Exit status is 0 when the run completed (even with failed ops) and
nonzero when it could not run at all.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, OpResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                    "peak_rss_mb": "MB"}
PROGRAM_START_REPS = 5


def program_start_s():
    """Wall time of a fresh interpreter importing the CLI and its layers."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import periodpoly.cli"],
                   cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def environment(args):
    import mpmath
    import numpy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        lines = top.stdout.split()
        if Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_op(op):
    """(seconds, OpResult) of one op; an op that raises is a failed op."""
    t0 = time.perf_counter()
    try:
        res = op()
    except Exception:
        res = OpResult([traceback.format_exc(limit=3)])
    return time.perf_counter() - t0, res


def run_pass(ops, tracer=None):
    """Run every op once; return the pass record."""
    if tracer is not None:
        tracer.install()
    records = []
    t_pass = time.perf_counter()
    try:
        for op in ops:
            span = tracer.begin("op") if tracer is not None else None
            records.append(run_op(op))
            if span is not None:
                tracer.end(span)
    finally:
        wall = time.perf_counter() - t_pass
        if tracer is not None:
            tracer.uninstall()
    return {"wall": wall, "ops": records}


def run_cycling(ops, seconds):
    """Run the ops in order, starting over after the last, until about
    ``seconds`` have passed: stop after the op whose end is nearest to it,
    and not before each op has run once.  Returns the (seconds, OpResult)
    records of each op, in pass order."""
    per_op = [[] for _ in ops]
    t_start = time.perf_counter()
    i = 0
    while True:
        per_op[i % len(ops)].append(run_op(ops[i % len(ops)]))
        i += 1
        elapsed = time.perf_counter() - t_start
        if i >= len(ops) and elapsed + elapsed / i / 2 >= seconds:
            return per_op


def highest_percentile(times):
    """(q, value) for the highest of a few nearest-rank percentiles that
    leave at least ten samples above them, or None."""
    ranked = sorted(times)
    for q in (99.9, 99, 95, 90, 75):
        k = math.ceil(q / 100 * len(ranked))
        if len(ranked) - k >= 10:
            return q, ranked[k - 1]
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "periodpoly" / "cli.py").is_file() \
            or not (ROOT / "data" / "curves.txt").is_file():
        print("no periodpoly source tree at %s (need src/periodpoly and "
              "data/)" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print("unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root))
    try:
        return measure(args, work, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, work, make_workload):
    starts = [program_start_s() for _ in range(PROGRAM_START_REPS)]
    # Import in this process too, so the first op does not pay for it:
    # program start above already counts the import cost in setup_s.
    import periodpoly.cli  # noqa: F401
    wl = make_workload(work, args.seed)
    prepare = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.prepare()
        prepare.append(time.perf_counter() - t0)
    setup_s = statistics.median(starts) + statistics.median(prepare)

    ops = wl.ops()
    if args.trace:
        plain, traced = run_traced(ops, args.seconds)
        op_records = [rec for p in plain for rec in p["ops"]]
        results = [res for p in plain + traced for _, res in p["ops"]]
        wall_s = statistics.median(p["wall"] for p in plain)
        passes = len(plain)
    else:
        per_op = run_cycling(ops, args.seconds)
        op_records = [rec for recs in per_op for rec in recs]
        results = [res for _, res in op_records]
        # one pass: each op at the mean of its runs, so that the whole
        # run is averaged, not the few passes that happen to be complete
        wall_s = sum(statistics.fmean(t for t, _ in recs) for recs in per_op)
        passes = len(op_records) / len(ops)

    failed = sum(1 for r in results if r.failures)
    for r in results:
        for f in r.failures[:3]:
            print("FAILED " + f.strip().replace("\n", " | "), file=sys.stderr)
    ratios = [r.bound_ratio for r in results if r.bound_ratio is not None]
    bound_over_target = max(ratios) if ratios else 0.0

    op_times = [t for t, _ in op_records]
    summary = {
        "passes": passes,
        "ops": len(op_times),
        "fail_share": failed / len(results),
        "bound_over_target": bound_over_target,
    }
    high = highest_percentile(op_times)
    if high is not None:
        summary["op_p%g_s" % high[0]] = high[1]
    print("summary " + json.dumps(summary, sort_keys=True))

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "op_p50_s": statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = traced_metrics(traced, wall_s, bound_over_target)
        print_layer_table(args.workload, metrics, traced, plain)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_traced(ops, seconds):
    """Alternate an untraced and a traced pass until about ``seconds``
    have passed: stop after the pair whose end is nearest to it, and after
    one pair at least.  Returns (untraced passes, traced passes), the
    traced ones with their spans and per-layer figures."""
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        plain.append(run_pass(ops))
        tracer = Tracer()
        rec = run_pass(ops, tracer)
        rec["layers"] = layer_metrics(tracer.spans, tracer.counts)
        rec["spans"] = tracer.spans
        traced.append(rec)
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / len(plain) / 2 >= seconds:
            return plain, traced


def traced_metrics(traced, untraced_wall, bound_over_target):
    """Per-layer metrics: the median over traced passes of each figure."""
    names = list(traced[0]["layers"])
    metrics = {n: statistics.median(p["layers"][n] for p in traced)
               for n in names}
    metrics["lfunc.bound_over_target"] = bound_over_target
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall"] for p in traced) - untraced_wall)
    units = {n: ("s" if n.endswith("_s") else "count") for n in metrics}
    units["lfunc.bound_over_target"] = "ratio"
    return metrics, units


def print_layer_table(workload, metrics, traced, plain):
    n_ops = len(traced[0]["ops"])
    lookups = metrics["files.cache_lookups"]
    top = statistics.median(
        sum(s.duration for s in p["spans"]
            if s.parent is not None and s.parent.name == "op")
        for p in traced)
    untraced_ops = statistics.median(sum(t for t, _ in p["ops"])
                                     for p in plain)
    print("per-layer, %s: median of %d traced passes of %d ops"
          % (workload, len(traced), n_ops))
    for name, value in metrics.items():
        print("  %-28s %14.6g" % (name, value))
    print("  %-28s %14s" % ("cache hits / lookups",
                            "%.3f" % (metrics["files.cache_hits"] / lookups)
                            if lookups else "n/a"))
    print("  %-28s %14.6g" % ("loggamma calls / op",
                              metrics["lfunc.loggamma_calls"] / n_ops))
    print("  top-level spans %.4f s vs untraced ops %.4f s: difference "
          "%.4f s, trace overhead %.4f s"
          % (top, untraced_ops, top - untraced_ops,
             metrics["trace.overhead_s"]))


if __name__ == "__main__":
    sys.exit(main())
