"""Benchmark entry point: one workload, one fresh interpreter, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  monotri is imported from the checkout's
own `src/`; without it the benchmark exits 2 and prints no result.

The load is a closed loop with a single client: each item starts when the
previous one has finished, in this one thread.  Batches run until --seconds
is used up, and always at least GUARANTEED_BATCHES of them.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced pass over the guaranteed batches,
measured after an untraced pass over the same batches.  Row digests,
percentile bases and ratio bases go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
REFERENCE = Path(__file__).resolve().parent / "reference"

WORKLOAD_NAMES = ("corollary_scan", "family_grid", "engine_crosscheck",
                  "frobenius_sample")
END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)
# Fresh interpreters per run for the import timings; the median is reported.
SETUP_REPEATS = 5
# Tail: the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

# Run in a fresh interpreter: probes around one `import monotri.cli`.
IMPORT_SNIPPET = """
import time, probe
p = [probe.probe_s() for _ in range(20)]
t = time.perf_counter()
import monotri.cli
dt = time.perf_counter() - t
p += [probe.probe_s() for _ in range(20)]
print(dt, sum(p) / len(p) / probe.REFERENCE_S)
"""


def fresh_import(importtime=False):
    """(import seconds, top-level `import sympy` seconds or None, probe
    slowness) of one fresh interpreter importing monotri.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(Path(__file__).resolve().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, *(["-X", "importtime"] if importtime else []),
         "-c", IMPORT_SNIPPET],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True)
    import_s, slowness = map(float, proc.stdout.split())
    sympy_s = None
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "sympy":
            sympy_s = int(fields[1]) / 1e6
    return import_s, sympy_s, slowness


def measure_setup(importtime=False):
    """Medians over SETUP_REPEATS fresh interpreters, after one discarded
    warm-up that writes bytecode caches on a new checkout, of the import
    time and the sympy import time, each divided by the probe slowness."""
    fresh_import()
    runs = [fresh_import(importtime) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(i / k for i, _, k in runs)
    if not importtime:
        return setup_s, None
    if any(s is None for _, s, _ in runs):
        raise RuntimeError("no top-level sympy import in -X importtime output")
    return setup_s, statistics.median(s / k for _, s, k in runs)


def weighted_quantile(pairs, q):
    """Nearest-rank q-quantile of (value, weight) samples."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value, w in pairs:
        seen += w
        if seen >= rank:
            return value
    return pairs[-1][0]


def import_monotri():
    """Import monotri from the checkout's src/; an error message if not."""
    if not (SRC / "monotri" / "__init__.py").is_file():
        return f"no monotri sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import monotri
    if Path(monotri.__file__).resolve().parent != SRC / "monotri":
        return f"monotri imported from {monotri.__file__}, not {SRC}"
    return None


def load_reference(name, seed):
    import workloads
    if seed != workloads.DEFAULT_SEED:
        return []
    with open(REFERENCE / f"{name}.json") as fh:
        return json.load(fh)["batches"]


def run_loop(wl, seed, seconds, reference):
    import workloads
    batches = []
    start = time.perf_counter()
    while len(batches) < workloads.GUARANTEED_BATCHES or (
        time.perf_counter() - start + batches[-1].wall_s <= seconds
    ):
        i = len(batches)
        spec = wl.inputs(seed, i)
        ref = reference[i] if i < len(reference) else None
        batches.append(wl.run_batch(i, spec, reference=ref))
    return batches


def timings(wl, batches, normalise):
    """wall_s, items_per_s, item_p50_ms and item_tail_ms, raw or with each
    batch's times divided by that batch's probe slowness."""
    import workloads
    scale = [b.slowness if normalise else 1.0 for b in batches]
    walls = [b.wall_s / k for b, k in zip(batches, scale)]
    samples = [(ms / k, n) for b, k in zip(batches, scale) for ms, n in b.item_ms]
    q_tail = 1 - TAIL_BEYOND / (workloads.GUARANTEED_BATCHES * wl.units_per_batch)
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(
            b.attempted / w for b, w in zip(batches, walls)),
        "item_p50_ms": weighted_quantile(samples, 0.5),
        "item_tail_ms": weighted_quantile(samples, q_tail),
    }, {"tail_percentile": 100 * q_tail,
        "item_samples": sum(n for _, n in samples),
        "batches": len(batches)}


def traced_pass(wl, seed, tracer_mod):
    """Re-run the guaranteed batches under the tracer; return the tracer and
    the batches it produced."""
    import workloads
    tracer = tracer_mod.Tracer()
    traced = []
    with tracer.installed():
        for i in range(workloads.GUARANTEED_BATCHES):
            with tracer.span(tracer_mod.BATCH_SPAN):
                traced.append(wl.run_batch(i, wl.inputs(seed, i), tracer=tracer))
    return tracer, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    error = import_monotri()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    reference = load_reference(wl.name, args.seed)
    setup_s, import_sympy_s = measure_setup(importtime=bool(args.trace))

    loop_seconds = args.seconds / 2 if args.trace else args.seconds
    batches = run_loop(wl, args.seed, loop_seconds, reference)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    unknown = sum(b.statuses.get("unknown", 0) for b in batches)
    correct = not any(b.statuses.get("wrong") or b.reference_misses
                      for b in batches)
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "statuses": {s: sum(b.statuses.get(s, 0) for b in batches)
                     for s in ("ok", "unknown", "raised", "rejected", "wrong")},
        "reference_checked": bool(reference),
        "reference_misses": sum(b.reference_misses for b in batches),
        "batch_digests": [workloads.batch_digest(b.digests) for b in batches],
        "batch_wall_s": [b.wall_s for b in batches],
    }

    if args.trace:
        tracer, traced = traced_pass(wl, args.seed, tracer_mod)
        same_rows = all(t.digests == b.digests for t, b in zip(traced, batches))
        correct = correct and same_rows
        # overhead from probe-normalised walls; self-time share from raw ones
        untraced_s = statistics.median(b.wall_s / b.slowness for b in batches)
        traced_s = statistics.median(t.wall_s / t.slowness for t in traced)
        metrics, bases = tracer.metrics()
        metrics.update({
            "setup.import_sympy_s": import_sympy_s,
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
            "trace.layer_self_frac": (
                tracer.layer_self_s() / sum(t.wall_s for t in traced)),
            "fail_frac": failed / attempted,
            "unknown_frac": unknown / attempted,
        })
        names = [n for n, _, _ in tracer_mod.per_layer_metrics()]
        units = {n: u for n, u, _ in tracer_mod.per_layer_metrics()}
        bases.update(traced_batches=len(traced), traced_wall_s=traced_s,
                     untraced_wall_s=untraced_s, traced_rows_match=same_rows,
                     attempted=attempted)
        report["bases"] = bases
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"{wl.name}-seed{args.seed}-spans.jsonl.gz")
    else:
        metrics, basis = timings(wl, batches, normalise=True)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        names = [n for n, _, _, _ in END_TO_END]
        units = {n: u for n, u, _, _ in END_TO_END}
        report["bases"] = basis
        report["raw"] = timings(wl, batches, normalise=False)[0]
        report["batch_slowness"] = [b.slowness for b in batches]

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    report["result"] = result
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for n in names:
        print(f"{wl.name:18s} {n:56s} {metrics[n]:.6g} {units[n]}",
              file=sys.stderr)
    print(f"{wl.name}: correct={correct} attempted={attempted} failed={failed} "
          f"digests={report['batch_digests'][:2]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
