"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.import_monotri() is None
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from monotri import classify as cls  # noqa: E402
from monotri import galois_verify  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(name):
    """A workload instance and batch-0 spec cut down to test size."""
    wl = type(workloads.WORKLOADS[name])()
    spec = wl.inputs(workloads.DEFAULT_SEED, 0)
    if name == "corollary_scan":
        spec = 13
    elif name == "family_grid":
        large = [f for f in spec if f[0] > 100][:1]
        spec = spec[:30] + large
    elif name == "engine_crosscheck":
        wl.SIZE = 15
    else:
        wl.PRIME_BUDGET = 100
        spec = spec[:2]
    return wl, spec


def test_metric_names_are_plain_and_match_the_code():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in e2e + layer:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert e2e == [n for n, _, _, _ in run.END_TO_END]
    assert layer == [n for n, _, _ in tracer_mod.per_layer_metrics()]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_leaves_rows_unchanged(name):
    wl, spec = small(name)
    plain = wl.run_batch(0, spec)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        # galois_verify imported the name itself; it is patched too
        assert galois_verify.family_is_irreducible is cls.family_is_irreducible
        assert hasattr(cls.family_is_irreducible, "__wrapped__")
        with tracer.span(tracer_mod.BATCH_SPAN):
            traced = wl.run_batch(0, spec, tracer=tracer)
    assert galois_verify.family_is_irreducible is cls.family_is_irreducible
    assert not hasattr(cls.family_is_irreducible, "__wrapped__")
    assert traced.digests == plain.digests
    assert traced.statuses == plain.statuses
    batch_s = tracer.stats[tracer_mod.BATCH_SPAN].total_ns / 1e9
    assert 0 < tracer.layer_self_s() <= batch_s
    assert {s[1] for s in tracer.spans} & set(tracer_mod.LAYER_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_regenerates_the_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(7, 0) == wl.inputs(7, 0)
    assert wl.inputs(7, 3) == wl.inputs(7, 3)
    if name in ("family_grid", "engine_crosscheck"):
        assert wl.inputs(7, 0) != wl.inputs(8, 0)
        assert wl.inputs(7, 0) != wl.inputs(7, 1)


def test_forced_exception_is_a_failed_item_not_an_abort(monkeypatch):
    wl, spec = small("family_grid")
    victim = spec[3]
    real = cls.classify

    def flaky(fam, **budget):
        if (fam.p, fam.a, fam.b) == victim:
            raise RuntimeError("forced")
        return real(fam, **budget)

    monkeypatch.setattr(cls, "classify", flaky)
    batch = wl.run_batch(0, spec)
    monkeypatch.setattr(cls, "classify", real)
    clean = wl.run_batch(0, spec)
    assert batch.attempted == clean.attempted == len(spec)
    assert batch.failed == clean.failed + spec.count(victim)


def test_reference_mismatch_counts_as_wrong():
    wl, spec = small("corollary_scan")
    ref = list(wl.run_batch(0, spec).digests)
    ref[4] = "0" * 16
    batch = wl.run_batch(0, spec, reference=ref)
    assert batch.reference_misses == 1
    assert batch.statuses["wrong"] == 1


def test_large_p_row_fails_to_print_but_is_still_checked():
    wl, _ = small("family_grid")
    batch = wl.run_batch(0, [(1009, 3, -1)])
    assert batch.statuses == {"raised": 1}
    assert batch.digests[0] != workloads.row_digest(("raised", "ValueError"))


def test_row_digest_takes_huge_integers_without_str():
    limit = sys.get_int_max_str_digits()
    big = 7 ** 20000
    assert workloads.row_digest([big]) != workloads.row_digest([big + 1])
    assert workloads.row_digest([-big]) != workloads.row_digest([big])
    assert workloads.row_digest([True]) != workloads.row_digest([1])
    assert sys.get_int_max_str_digits() == limit


def test_weighted_quantile():
    pairs = [(1.0, 1), (2.0, 1), (3.0, 8)]
    assert run.weighted_quantile(pairs, 0.1) == 1.0
    assert run.weighted_quantile(pairs, 0.2) == 2.0
    assert run.weighted_quantile(pairs, 0.5) == 3.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corollary_scan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
