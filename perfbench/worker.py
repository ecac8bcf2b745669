"""One workload process: build the inputs, then make timed calls in a loop.

Started by run.py, never by hand.  The process prints one JSON line with
the wall clock at which its inputs were ready, and, unless --setup-only,
one JSON line with the per-call results.  The loop is closed: one caller,
one library call at a time, each on freshly built inputs (untimed), until
--seconds have passed and at least one call has completed.  In trace mode
the calls alternate untraced and traced, at least three of them, so that
a traced call can be compared with an untraced call that was not the
process's first.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CALL_BUDGET_S = 110.0  # no new call starts once it could end past this


def _import_package():
    """Import hessianlab from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    import hessianlab

    where = os.path.dirname(os.path.abspath(hessianlab.__file__))
    if where != os.path.join(SRC, "hessianlab"):
        raise ImportError(f"hessianlab imported from {where}, not from {SRC}")


def _timed_calls(wl, inputs, seconds, trace):
    tracer = Tracer() if trace else None
    calls = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(calls) % 2 == 1
        if calls:
            inputs = wl.build()
        if traced:
            tracer.reset()
            tracer.attach()
        record = {"traced": traced}
        try:
            t0 = time.perf_counter()
            outcome = wl.solve(inputs)
            record["seconds"] = time.perf_counter() - t0
        except Exception:  # a raising call is a failed operation; keep going
            record["seconds"] = time.perf_counter() - t0
            record["failures"] = ["call raised: " + traceback.format_exc(limit=3)]
            outcome = None
        finally:
            if traced:
                tracer.detach()
        if outcome is not None:
            record["accuracy"], record["failures"] = wl.check(inputs, outcome)
            if traced:
                newton_steps = sum(it for rep in wl.reports(outcome)
                                   for _, it, _ in rep.t_path)
                record["layers"] = tracer.layer_metrics(
                    newton_steps, **wl.layer_counts(outcome))
                record["spans"] = len(tracer.spans)
                record["absent"] = tracer.absent
        calls.append(record)
        if len(calls) == 1:  # later calls can only add heap fragmentation
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        longest = max(longest, record["seconds"])
        elapsed = time.perf_counter() - start
        if elapsed + longest > CALL_BUDGET_S:
            break
        if elapsed >= seconds and len(calls) >= (3 if trace else 1):
            break
    return calls, maxrss_kb


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    inputs = wl.build()
    print(json.dumps({"ready_wall": time.time()}), flush=True)
    if args.setup_only:
        return 0
    calls, maxrss_kb = _timed_calls(wl, inputs, args.seconds, bool(args.trace))
    print(json.dumps({
        "calls": calls,
        "maxrss_kb": maxrss_kb,
        "grid_points": inputs["grid"].points,
        "accuracy_name": wl.accuracy,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
