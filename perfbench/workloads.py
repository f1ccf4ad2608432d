"""The four benchmark workloads: seeded inputs, the calls into monotri, and
the check of every output row.

A run is a sequence of batches.  Batch `index` of a run with seed `seed`
gets its own inputs, derived from (workload, seed, index) alone, so two
commits given the same seed see the same inputs batch by batch, and no
batch repeats an earlier one's inputs (which would hand later batches
warm library caches that a CLI call never has).

Every item ends with a status: "ok", "unknown" (a budget ran out and the
program said so), "raised" (an exception escaped), "rejected" (a
statistical verdict came out wrong for the true class) or "wrong" (a row
contradicts an exact check or the committed reference).  Failed items are
raised + rejected + wrong; only "wrong" makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import probe
from monotri import classify as cls
from monotri import cli, galois_verify

DEFAULT_SEED = 0
# Batches every run executes whatever --seconds says: they carry the
# committed reference, the cross-commit digests and the traced pass.
GUARANTEED_BATCHES = 3
BUDGET = cli.Config().factor_budget()


def batch_rng(name, seed, index):
    return random.Random(f"{name}/{seed}/{index}")


# -- row digests --------------------------------------------------------
def _encode(v, out):
    """Canonical bytes of a row value.  Integers go through int.to_bytes:
    decimal str() is limited to 4300 digits on Python >= 3.11."""
    if v is None:
        out.append(b"N")
    elif isinstance(v, bool):
        out.append(b"T" if v else b"F")
    elif isinstance(v, int):
        mag = abs(v)
        n = (mag.bit_length() + 7) // 8
        out.append(b"I-" if v < 0 else b"I+")
        out.append(n.to_bytes(8, "big"))
        out.append(mag.to_bytes(n, "big"))
    elif isinstance(v, str):
        b = v.encode()
        out.append(b"S" + len(b).to_bytes(8, "big") + b)
    elif isinstance(v, (list, tuple)):
        out.append(b"L" + len(v).to_bytes(8, "big"))
        for x in v:
            _encode(x, out)
    else:
        raise TypeError(f"cannot digest {type(v).__name__}")


def row_digest(values) -> str:
    parts = []
    _encode(values, parts)
    return hashlib.blake2b(b"".join(parts), digest_size=8).hexdigest()


def batch_digest(row_digests) -> str:
    return hashlib.blake2b(
        "".join(row_digests).encode(), digest_size=16).hexdigest()


# -- batch execution -----------------------------------------------------
@dataclass
class Batch:
    index: int
    wall_s: float = 0.0  # raw, excluding the probes
    item_ms: list = field(default_factory=list)  # raw (ms per unit, units)
    probes: list = field(default_factory=list)  # probe.probe_s() results
    attempted: int = 0
    statuses: dict = field(default_factory=dict)  # status -> units
    digests: list = field(default_factory=list)
    reference_misses: int = 0

    def add(self, status, units):
        self.attempted += units
        self.statuses[status] = self.statuses.get(status, 0) + units

    @property
    def slowness(self):
        """Mean probe time over the reference: divide raw times by this."""
        return sum(self.probes) / len(self.probes) / probe.REFERENCE_S

    @property
    def failed(self):
        return sum(self.statuses.get(s, 0) for s in ("raised", "rejected", "wrong"))


class Workload:
    """Subclasses define inputs(), steps() and check()."""

    name = ""
    why = ""
    # Nominal units per batch; fixes the tail percentile (see run.py).
    units_per_batch = 0

    def inputs(self, seed, index):
        raise NotImplementedError

    def steps(self, spec):
        """Yield (key, thunk, units); calling the thunk runs one item.
        Work done between thunks (e.g. building a corpus) is part of the
        batch but of no item."""
        raise NotImplementedError

    def check(self, key, out):
        """(row values for the digest, status) of one item's output."""
        raise NotImplementedError

    def run_batch(self, index, spec, reference=None, tracer=None):
        batch = Batch(index)
        t0 = time.perf_counter()
        batch.probes.append(probe.probe_s())
        last_probe = time.perf_counter()
        for i, (key, thunk, units) in enumerate(self.steps(spec)):
            if tracer is not None:
                tracer.item = [index, i]
            s = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # counted as a failed item
                out, raised = None, exc
            else:
                raised = None
            dt = time.perf_counter() - s
            if raised is not None:
                row, status = ("raised", type(raised).__name__), "raised"
            else:
                row, status = self.check(key, out)
            digest = row_digest(row)
            if reference is not None and (
                i >= len(reference) or reference[i] != digest
            ):
                batch.reference_misses += 1
                status = "wrong"
            batch.digests.append(digest)
            batch.item_ms.append((dt * 1e3 / units, units))
            batch.add(status, units)
            if time.perf_counter() - last_probe >= probe.PROBE_EVERY_S:
                batch.probes.append(probe.probe_s())
                last_probe = time.perf_counter()
        if reference is not None:
            batch.reference_misses += max(0, len(reference) - len(batch.digests))
        batch.wall_s = time.perf_counter() - t0 - sum(batch.probes)
        return batch


def _is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class CorollaryScan(Workload):
    """`monotri corollary-scan Z`.  One item is one verified prime
    p = z^2 + 4: the rows from just after the previous prime up to and
    including its own (the last item also takes the trailing rows)."""

    name = "corollary_scan"
    why = ("Dickson-bound: family_is_irreducible dominates with p up to ~1600; "
           "O(log p) Lucas doubling must show here, factoring must not")
    Z = 40
    units_per_batch = sum(_is_prime_trial(z * z + 4) for z in range(1, Z + 1))

    def inputs(self, seed, index):
        # The scan's input is its range; it has nothing to draw at random.
        return self.Z

    def steps(self, z_max):
        rows = cli.corollary_scan_rows(z_max, BUDGET)
        ends = [z for z in range(1, z_max + 1) if _is_prime_trial(z * z + 4)]
        ends[-1] = z_max
        start = 1
        for end in ends:
            n = end - start + 1
            yield start, lambda n=n: [next(rows) for _ in range(n)], 1
            start = end + 1

    def check(self, start, rows):
        values, status = [], "ok"
        for z, row in enumerate(rows, start):
            p = z * z + 4
            values.append([row.get(k) for k in cli.SCAN_FIELDS])
            ok = row["z"] == z and row["p"] == p and (
                row["p_is_prime"] == _is_prime_trial(p))
            if ok and row["p_is_prime"]:
                if row["monogenic"] is None:
                    status = "unknown"
                    continue
                # The corollary: (p, z, -1) is monogenic with group
                # C_p:C_{p-1}, and no other a in [1, sqrt p] gives such a
                # family.
                ok = row["consistent"] is True and (
                    row["galois_order"] == p * (p - 1))
            if not ok:
                return values, "wrong"
        return values, status


class FamilyGrid(Workload):
    """`monotri enumerate`-style grid: classify, build the row, write JSONL."""

    name = "family_grid"
    why = ("factoring-bound: arith.factorize dominates; discriminant-factoring "
           "changes must show here; a p~1000-2000 tail exercises large p")
    SMALL_P = (3, 5, 7, 11, 13)
    B_VALUES = (-2, -1, 1, 2, 3)
    PER_CELL = 60
    A_MAX = 1000
    LARGE_P_RANGE = (1000, 2000)
    # |a| and b of the large-p families, at the first prime of each 1/8 of
    # the range.  They set item_tail_ms, so only the sign of a is drawn
    # (the verdict is symmetric in it) to keep the tail steady across seeds.
    LARGE_P_AB = ((3, -1), (3, 1), (5, -1), (5, 1), (7, -1), (7, 1), (9, -1), (9, 1))
    LARGE_P_ITEMS = len(LARGE_P_AB)
    units_per_batch = len(SMALL_P) * len(B_VALUES) * PER_CELL + LARGE_P_ITEMS

    def inputs(self, seed, index):
        rng = batch_rng(self.name, seed, index)
        fams = []
        # Stratified over (p, b) so every batch has the same mix; only a is
        # drawn, which keeps batch cost steady across seeds.
        for p in self.SMALL_P:
            for b in self.B_VALUES:
                for _ in range(self.PER_CELL):
                    a = rng.choice((-1, 1)) * rng.randint(1, self.A_MAX)
                    fams.append((p, a, b))
        lo, hi = self.LARGE_P_RANGE
        width = (hi - lo) // self.LARGE_P_ITEMS
        for i, (a, b) in enumerate(self.LARGE_P_AB):
            p = lo + i * width
            while not _is_prime_trial(p):
                p += 1
            fams.append((p, rng.choice((-1, 1)) * a, b))
        rng.shuffle(fams)
        return fams

    def steps(self, fams):
        for fam in fams:
            yield fam, lambda fam=fam: self._one(fam), 1

    @staticmethod
    def _one(fam):
        c = cls.classify(cls.TrinomialFamily(*fam), **BUDGET)
        row = cli.classification_row(c)
        buf = io.StringIO()
        try:
            cli.RowWriter("jsonl", cli.ROW_FIELDS, buf).write(row)
        except ValueError as exc:
            # Rows too large to print still get their values checked.
            return row, exc
        return row, buf.getvalue()

    def check(self, fam, out):
        row, line = out
        values = [row[k] for k in cli.ROW_FIELDS]
        p, a, b = fam
        d = a * a - 4 * b**p
        ok = (row["p"], row["a"], row["b"]) == fam and row["delta"] == d and (
            row["disc_f"] == b ** (p * (p - 1)) * p ** (2 * p) * d**p)
        if row["irreducible"]:
            ok = ok and row["galois_order"] in (p * (p - 1), 2 * p * (p - 1))
            ok = ok and (row["field_discriminant"] == (
                row["disc_f"] if row["monogenic"] else None))
        else:
            ok = ok and row["galois"] is None and row["monogenic"] is None
        if isinstance(line, Exception):
            return values, "wrong" if not ok else "raised"
        # Every integer must survive the JSONL round trip exactly.
        ok = ok and json.loads(line) == {k: row[k] for k in cli.ROW_FIELDS}
        if not ok:
            return values, "wrong"
        if row["irreducible"] and row["monogenic"] is None:
            return values, "unknown"
        return values, "ok"


class EngineCrosscheck(Workload):
    """`monotri crosscheck`: random corpus, then engine vs Dedekind oracle
    on every prime of every discriminant, one trinomial per item."""

    name = "engine_crosscheck"
    why = ("general trinomials through all five index branches, the Dedekind "
           "oracle and sympy irreducibility; the only workload with sympy hot")
    # Small corpora, many batches: the median over batches then shrugs off
    # the odd trinomial whose discriminant is slow to factor.
    SIZE = 100
    units_per_batch = SIZE

    def inputs(self, seed, index):
        return batch_rng(self.name, seed, index).randrange(2**32)

    def steps(self, corpus_seed):
        corpus = cli.crosscheck_corpus(self.SIZE, corpus_seed)
        for t in corpus:
            yield t, lambda t=t: cli.run_crosscheck([t], BUDGET, seed=corpus_seed), 1

    def check(self, t, report):
        values = [t.n, t.m, t.A, t.B] + [
            report[k] for k in ("total", "agreements", "disagreements", "skipped")]
        if report["disagreements"] or report["total"] != report["agreements"]:
            return values, "wrong"
        return values, "unknown" if report["skipped"] else "ok"


class FrobeniusSample(Workload):
    """`monotri galois-sample` on one family per Galois class; one unit is
    one sampled prime."""

    name = "frobenius_sample"
    why = ("Frobenius sampling: poly.degree_pattern is nearly all the time and "
           "no other workload calls it; the g(x^p) fast path must show here")
    PRIME_BUDGET = 400
    # Galois class by the sign pattern of delta = a^2 - 4b^p:
    # delta = +p y^2 with p = 1 mod 4 gives C_p:C_{p-1}; delta = -p y^2 with
    # p = 3 mod 4 gives (C_p:C_{(p-1)/2})xC2; anything else (C_p:C_{p-1})xC2.
    FAMILIES = (
        ((3, 1, 1), cls.GaloisKind.HALF_TIMES_C2),  # delta = -3
        ((3, 1, 2), cls.GaloisKind.FULL_TIMES_C2),  # delta = -31
        ((5, 3, 1), cls.GaloisKind.FROBENIUS_P_PMINUS1),  # delta = 5
        ((7, 8, 2), cls.GaloisKind.HALF_TIMES_C2),  # delta = -7 * 8^2
        ((13, 3, -1), cls.GaloisKind.FROBENIUS_P_PMINUS1),  # delta = 13
    )
    units_per_batch = PRIME_BUDGET * len(FAMILIES)

    def inputs(self, seed, index):
        fams = list(self.FAMILIES)
        batch_rng(self.name, seed, index).shuffle(fams)
        return fams

    def steps(self, fams):
        for fam, kind in fams:
            yield (fam, kind), lambda fam=fam: self._one(fam), self.PRIME_BUDGET

    def _one(self, fam):
        fam = cls.TrinomialFamily(*fam)
        report = galois_verify.frobenius_sample(fam, self.PRIME_BUDGET)
        claimed = cls.galois_group(fam)
        verdict = galois_verify.consistency_check(fam, claimed, report)
        return report, claimed, verdict

    def check(self, key, out):
        (p, a, b), kind = key
        report, claimed, verdict = out
        frac = Fraction(report.split_fraction)
        values = [p, a, b, report.primes_used,
                  sorted(report.observed_orders.items()),
                  frac.numerator, frac.denominator,
                  claimed.kind.value, claimed.order, verdict]
        spectrum = galois_verify.element_order_spectrum(kind, p).orders
        if (claimed.kind is not kind or report.primes_used != self.PRIME_BUDGET
                or not set(report.observed_orders) <= spectrum):
            return values, "wrong"
        # The split-density test is statistical: a miss is a failed item,
        # not a wrong one.
        return values, "ok" if verdict == "consistent" else "rejected"


WORKLOADS = {w.name: w for w in (
    CorollaryScan(), FamilyGrid(), EngineCrosscheck(), FrobeniusSample())}
