"""hessianlab solver benchmark: one workload per invocation.

    python3 perfbench/run.py --workload mms-n3 --seed 0 --seconds 5 --trace 0

Runs from the root of a checkout and imports hessianlab from its src/.
Each workload runs in its own worker process (worker.py) as a closed loop;
set-up is measured from process start until the inputs are built, in
SETUP_SAMPLES separate processes, and reported as their median.  The
set-up-only processes are split between before and after the timed one,
so that the median spans the run and not one moment of the machine.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the worker alternates untraced and traced calls and the line
carries the per-layer metrics of the traced calls plus the tracing overhead:
the traced median call time minus the untraced one, leaving out the
process's first call, which pays one-off warm-up costs.  Earlier lines give
machine facts and a readable summary.  Every call's outputs are checked; a call with a
failed check, or one that raises, is a failed operation.

Exit codes: 0 with a result line, 1 when a worker fails or times out,
2 when the checkout holds no hessianlab sources or an argument is invalid.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("mms-n3", "conformal-n2", "envelope-n2", "sweep-n2")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 10.0
RUN_TIMEOUT_S = 140.0  # worker.py starts no call that could end past 110 s
TOTAL_TIMEOUT_S = 170.0  # all workers of one run together


def _worker(args, extra, timeout, deadline):
    """Run one worker; return (seconds from spawn to ready, parsed lines)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=min(timeout, deadline - time.monotonic()),
                          check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    return lines[0]["ready_wall"] - spawned, lines


def _facts(run, workload):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hessianlab", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "grid_points": run["grid_points"],
        "src_lines": src_lines,
        "calls": len(run["calls"]),
    }


def _layer_unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_newton")):
        return "1"
    return "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "hessianlab", "__init__.py")):
        print(f"error: no hessianlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    before = (SETUP_SAMPLES - 1) // 2
    try:
        setups = [_worker(args, ["--setup-only"], SETUP_TIMEOUT_S, deadline)[0]
                  for _ in range(before)]
        setup, lines = _worker(args, [], RUN_TIMEOUT_S, deadline)
        setups.append(setup)
        setups += [_worker(args, ["--setup-only"], SETUP_TIMEOUT_S, deadline)[0]
                   for _ in range(SETUP_SAMPLES - 1 - before)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    run = lines[-1]
    calls = run["calls"]
    failed = [c for c in calls if c["failures"]]
    plain = [c["seconds"] for c in calls if not c["traced"]]
    accuracy = _median([c["accuracy"] for c in calls if "accuracy" in c])

    print("facts " + json.dumps(_facts(run, args.workload), sort_keys=True))
    for c in failed:
        print(f"FAILED call: {'; '.join(c['failures'])}")
    summary = {
        "time_to_solution_s": (_median(plain), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024.0, "MB"),
        run["accuracy_name"]: (accuracy, "1"),
    }
    if args.trace:
        traced = [c for c in calls if c["traced"] and "layers" in c]
        names = traced[0]["layers"] if traced else {}
        metrics = {name: (_median([c["layers"][name] for c in traced]),
                          _layer_unit(name)) for name in names}
        warm = _median(plain[1:] or plain)  # calls[0] is the untraced first call
        overhead = _median([c["seconds"] for c in traced]) - warm
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (100.0 * overhead / warm if warm else 0.0, "%")
        metrics["trace.spans"] = (traced[0]["spans"] if traced else 0, "count")
        if traced and traced[0]["absent"]:
            print("absent entry points: " + ", ".join(traced[0]["absent"]))
        for layer in ("geometry.stencil", "hessop.evaluate",
                      "hessop.linearization", "hessop.matvec"):
            count = metrics.get(layer + "_calls", (0,))[0]
            ms = 1e3 * metrics[layer + "_s"][0] / count if count else 0.0
            print(f"{layer}: {ms:.3f} ms per call over {count} calls")
    else:
        metrics = {name: summary[name] for name in
                   ("time_to_solution_s", "setup_s", "peak_rss_mb")}
        metrics["solution_error"] = (accuracy, "1")
    for name, (value, unit) in summary.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
