"""Outside-in tracing of monotri's public functions.

`Tracer.installed()` replaces each traced function with a wrapper, both on
its owner and under every other name a monotri module bound it to (for
example `galois_verify` imports `family_is_irreducible` by name).  Each call
becomes a span: name, start, end, parent span and the current item id.
Spans stay in memory until `write_spans`.  A span's self time is its
duration minus the time its child spans cover; calls are synchronous and
single-threaded, so children never overlap and that cover is their sum.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function.
TARGETS = (
    ("arith", "factorize"),
    ("arith", "is_prime"),
    ("arith", "is_squarefree"),
    ("poly", "factor_mod"),
    ("poly", "degree_pattern"),
    ("poly", "is_irreducible_over_Q"),
    ("poly", "discriminant"),
    ("indexcheck", "swan_general_discriminant"),
    ("indexcheck", "jks_index_free"),
    ("indexcheck", "dedekind_divides_index"),
    ("indexcheck", "trinomial_is_monogenic"),
    ("classify", "classify"),
    ("classify", "family_is_irreducible"),
    ("classify", "galois_group"),
    ("classify", "kkr_monogenic"),
    ("classify", "swan_disc_f"),
    ("galois_verify", "frobenius_sample"),
    ("galois_verify", "consistency_check"),
    ("cli", "classification_row"),
    ("cli", "RowWriter.write"),
    ("cli", "corollary_scan_rows"),
    ("cli", "crosscheck_corpus"),
    ("cli", "run_crosscheck"),
)
LAYER_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)
JKS_BRANCHES = ("i", "ii", "iii", "iv", "v")
# Root span the benchmark opens around each batch; not a layer.
BATCH_SPAN = "bench.batch"

RATIO_METRICS = (
    ("classify.family_is_irreducible.calls_per_family", "calls/family", "lower"),
    ("arith.factorize.input_bits_mean", "bits", "lower"),
    ("arith.factorize.input_bits_max", "bits", "lower"),
    *((f"indexcheck.jks_index_free.branch_{b}", "fraction", "lower")
      for b in JKS_BRANCHES),
    ("indexcheck.swan_general_discriminant.resultant_frac", "fraction", "lower"),
    ("poly.is_irreducible_over_Q.accept_frac", "fraction", "higher"),
    ("galois_verify.frobenius_sample.primes", "count", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for layer in LAYER_NAMES:
        out += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.total_s", "s", "lower"),
            (f"{layer}.fail", "count", "lower"),
        ]
    out += list(RATIO_METRICS)
    out += [
        ("setup.import_sympy_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
        ("trace.layer_self_frac", "fraction", "higher"),
        ("fail_frac", "fraction", "lower"),
        ("unknown_frac", "fraction", "lower"),
    ]
    return out


class _Stats:
    __slots__ = ("calls", "self_ns", "total_ns", "fail", "depth")

    def __init__(self):
        self.calls = self.self_ns = self.total_ns = self.fail = self.depth = 0


class Tracer:
    """Span recorder plus the argument/return-value counters behind the
    ratio metrics."""

    def __init__(self):
        self.item = None
        self._ids = itertools.count()
        self.spans = []  # (span id, name, start ns, end ns, parent id, item)
        self._stack = []  # [span id, name, start ns, child ns, parent id]
        self.stats = defaultdict(_Stats)
        self.families = set()
        self.factor_bits = []
        self.branches = defaultdict(int)
        self.irreducible_accepts = 0
        self.resultant_fallbacks = 0
        self.primes_sampled = 0

    # -- spans ---------------------------------------------------------
    def open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        sid = next(self._ids)
        st = self.stats[name]
        st.depth += 1
        if name == "poly.discriminant" and self._stack and (
            self._stack[-1][1] == "indexcheck.swan_general_discriminant"
        ):
            self.resultant_fallbacks += 1
        self._stack.append([sid, name, time.perf_counter_ns(), 0, parent])

    def close(self, failed=False):
        end = time.perf_counter_ns()
        sid, name, start, child, parent = self._stack.pop()
        dur = end - start
        st = self.stats[name]
        st.calls += 1
        st.self_ns += dur - child
        st.depth -= 1
        if st.depth == 0:
            st.total_ns += dur
        if failed:
            st.fail += 1
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, name, start, end, parent, self.item))

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        except BaseException:
            self.close(failed=True)
            raise
        self.close()

    # -- counters from arguments and return values ---------------------
    def observe(self, name, args, result):
        if name == "classify.family_is_irreducible":
            self.families.add(args[0])
        elif name == "arith.factorize":
            self.factor_bits.append(abs(args[0]).bit_length())
        elif name == "indexcheck.jks_index_free":
            self.branches[result.condition_used] += 1
        elif name == "poly.is_irreducible_over_Q":
            self.irreducible_accepts += bool(result)
        elif name == "galois_verify.frobenius_sample":
            self.primes_sampled += result.primes_used

    # -- patching ------------------------------------------------------
    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    # one span per resumption, closed before the consumer runs
                    self.open(name)
                    try:
                        value = next(gen)
                    except StopIteration:
                        self.close()
                        return
                    except BaseException:
                        self.close(failed=True)
                        raise
                    self.close()
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(failed=True)
                raise
            self.close()
            self.observe(name, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        modules = [m for k, m in sys.modules.items()
                   if k == "monotri" or k.startswith("monotri.")]
        undo = []
        try:
            for mod_name, path in TARGETS:
                owner = importlib.import_module(f"monotri.{mod_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapper = self._wrap(f"{mod_name}.{path}", orig)
                undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig and mod is not owner:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- results -------------------------------------------------------
    def metrics(self):
        """Per-layer stats and ratios, plus the bases behind the ratios."""
        out = {}
        for layer in LAYER_NAMES:
            st = self.stats[layer]
            out[f"{layer}.calls"] = st.calls
            out[f"{layer}.self_s"] = st.self_ns / 1e9
            out[f"{layer}.total_s"] = st.total_ns / 1e9
            out[f"{layer}.fail"] = st.fail

        def frac(num, den):
            return num / den if den else 0.0

        fi = self.stats["classify.family_is_irreducible"].calls
        out["classify.family_is_irreducible.calls_per_family"] = frac(
            fi, len(self.families))
        bits = self.factor_bits
        out["arith.factorize.input_bits_mean"] = frac(sum(bits), len(bits))
        out["arith.factorize.input_bits_max"] = max(bits, default=0)
        jks = self.stats["indexcheck.jks_index_free"].calls
        for b in JKS_BRANCHES:
            out[f"indexcheck.jks_index_free.branch_{b}"] = frac(
                self.branches[b], jks)
        swan = self.stats["indexcheck.swan_general_discriminant"].calls
        out["indexcheck.swan_general_discriminant.resultant_frac"] = frac(
            self.resultant_fallbacks, swan)
        irr = self.stats["poly.is_irreducible_over_Q"].calls
        out["poly.is_irreducible_over_Q.accept_frac"] = frac(
            self.irreducible_accepts, irr)
        out["galois_verify.frobenius_sample.primes"] = self.primes_sampled
        bases = {
            "distinct_families": len(self.families),
            "factorize_calls": len(bits),
            "jks_index_free_calls": jks,
            "swan_general_discriminant_calls": swan,
            "is_irreducible_over_Q_calls": irr,
            "frobenius_sample_calls": self.stats[
                "galois_verify.frobenius_sample"].calls,
        }
        return out, bases

    def layer_self_s(self):
        return sum(self.stats[layer].self_ns for layer in LAYER_NAMES) / 1e9

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "item": item,
                }) + "\n")
