"""Rewrite perfbench/reference/<workload>.json: the row digests of the
guaranteed batches at the default seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Only run this when a change is meant to alter output rows; the benchmark
counts every row that differs from the reference as wrong.
"""

import json
import sys

import run


def main(names):
    error = run.import_monotri()
    if error:
        sys.exit(f"error: {error}")
    import workloads

    for name in names or run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        batches = [
            wl.run_batch(i, wl.inputs(workloads.DEFAULT_SEED, i))
            for i in range(workloads.GUARANTEED_BATCHES)
        ]
        wrong = sum(b.statuses.get("wrong", 0) for b in batches)
        if wrong:
            sys.exit(f"error: {name}: {wrong} rows fail their checks")
        ref = {"seed": workloads.DEFAULT_SEED,
               "batches": [b.digests for b in batches]}
        run.REFERENCE.mkdir(exist_ok=True)
        (run.REFERENCE / f"{name}.json").write_text(json.dumps(ref) + "\n")
        print(f"{name}: {[workloads.batch_digest(b.digests) for b in batches]}")


if __name__ == "__main__":
    main(sys.argv[1:])
