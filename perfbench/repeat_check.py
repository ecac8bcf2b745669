"""Check that two traced runs of the same seed give identical layer counts.

    python3 perfbench/repeat_check.py [--seed 0] [--seconds 1] [workload ...]

Runs ``run.py --trace 1`` twice per workload (all four by default) and
compares every count metric of the two runs: call counts, Newton, Krylov
and psolve counts, eps steps and span totals.  Prints one line per workload
and exits 1 if any count differs or any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOAD_NAMES

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _counts(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOAD_NAMES))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        first = _counts(workload, args.seed, args.seconds)
        second = _counts(workload, args.seed, args.seconds)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        ok = ok and not diff and first.keys() == second.keys()
        print(f"{workload} seed {args.seed}: {len(first)} counts "
              + ("identical" if not diff else f"DIFFER {diff}"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
