"""Every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per workload, each in its own fresh interpreter
and one after another, and prints one line per metric after that run's
correctness gate.  Exits 1 if any run is incorrect or does not finish.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for name in run.WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=run.ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        status |= not result["correct"]
        for metric, m in result["metrics"].items():
            print(f"  {metric:56s} {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
