"""Command-line front end.

Subcommands: classify, enumerate, corollary-scan, crosscheck, galois-sample.
Data rows go to stdout in a human table, JSON lines or CSV; progress and
diagnostics go to stderr.  Exit codes: 0 success, 1 usage error or
reducible input, 2 an Unknown verdict was encountered, 3 an internal error
(a one-line message on stderr, no traceback) or a contradiction found by
corollary-scan or crosscheck.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import dataclass, fields

from . import arith, classify as cls, galois_verify, indexcheck, poly
from .arith import FactorizationBudgetExceeded
from .classify import Classification, TrinomialFamily
from .indexcheck import GeneralTrinomial, Reducible

CONFIG_ENV_VAR = "MONOTRI_CONFIG"

ROW_FIELDS = [
    "p",
    "a",
    "b",
    "delta",
    "disc_f",
    "irreducible",
    "case",
    "galois",
    "galois_order",
    "monogenic",
    "field_discriminant",
    "reason",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Arguments that parse but make no valid request; exit code 1."""


@dataclass
class Config:
    trial_bound: int = arith.DEFAULT_TRIAL_BOUND
    rho_budget: int = arith.DEFAULT_RHO_BUDGET
    prime_budget: int = 2000

    def factor_budget(self):
        return {"trial_bound": self.trial_bound, "rho_budget": self.rho_budget}


def load_config(path: str | None) -> Config:
    cfg = Config()
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return cfg
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}")
    keys = {f.name for f in fields(Config)}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise UsageError(f"unknown config key: {key}")
        try:
            setattr(cfg, key, int(value))
        except ValueError:
            raise UsageError(f"config key {key} needs an integer, got {value!r}")
    return cfg


def classification_row(c: Classification) -> dict:
    fam = c.family
    return {
        "p": fam.p,
        "a": fam.a,
        "b": fam.b,
        "delta": c.delta,
        "disc_f": c.disc_f,
        "irreducible": c.irreducible,
        "case": c.case.value if c.case else None,
        "galois": c.galois.describe() if c.galois else None,
        "galois_order": c.galois.order if c.galois else None,
        "monogenic": c.monogenic,
        "field_discriminant": c.field_discriminant,
        "reason": list(c.reason),
    }


class RowWriter:
    """Renders dict rows in the chosen format with a fixed field order."""

    def __init__(self, fmt: str, fields, out=None):
        self.fmt = fmt
        self.fields = fields
        self.out = out or sys.stdout
        self._csv = csv.writer(self.out, lineterminator="\n")
        self._header_done = False

    def _emit_header(self):
        if self.fmt == "csv":
            self._csv.writerow(self.fields)
        elif self.fmt == "human":
            print("  ".join(self.fields), file=self.out)
        self._header_done = True

    def write(self, row: dict):
        if not self._header_done:
            self._emit_header()
        if self.fmt == "jsonl":
            print(
                json.dumps({k: row.get(k) for k in self.fields}, default=str),
                file=self.out,
            )
        elif self.fmt == "csv":
            self._csv.writerow([self._flat(row.get(k)) for k in self.fields])
        else:
            print(
                "  ".join(f"{k}={self._flat(row.get(k))}" for k in self.fields),
                file=self.out,
            )

    @staticmethod
    def _flat(v):
        if isinstance(v, list):
            return "; ".join(str(x) for x in v)
        if v is None:
            return ""
        return v


def _add_common(sub, budget=True):
    sub.add_argument(
        "--format",
        choices=["human", "jsonl", "csv"],
        default="human",
        help="output format for data rows",
    )
    sub.add_argument("--config", help="key=value config file")
    if budget:
        sub.add_argument(
            "--budget", type=int, help="override the factoring iteration budget"
        )


def _config_from(args) -> Config:
    cfg = load_config(args.config)
    if args.budget is not None:
        cfg.rho_budget = args.budget
    return cfg


def _parse_family(args) -> TrinomialFamily:
    try:
        return TrinomialFamily(args.p, args.a, args.b)
    except ValueError as exc:
        raise UsageError(f"invalid family: {exc}")


def cmd_classify(args) -> int:
    cfg = _config_from(args)
    fam = _parse_family(args)
    c = cls.classify(fam, **cfg.factor_budget())
    RowWriter(args.format, ROW_FIELDS).write(classification_row(c))
    if c.irreducible and c.monogenic is None:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_enumerate(args) -> int:
    cfg = _config_from(args)
    writer = RowWriter(args.format, ROW_FIELDS)
    unknown = False
    p_set = sorted(set(args.p))
    for p in p_set:
        if not arith.is_prime(p) or p < 3:
            raise UsageError(f"p={p} is not an odd prime")
    b_set = sorted(set(args.b))
    if 0 in b_set:
        raise UsageError("b=0: need a*b != 0")
    lo, hi = args.a_min, args.a_max
    if lo > hi:
        raise UsageError("empty a range")
    for p in p_set:
        for a in range(lo, hi + 1):
            if a == 0:
                continue
            for b in b_set:
                fam = TrinomialFamily(p, a, b)
                if args.p_divides_delta and fam.delta % p != 0:
                    continue
                c = cls.classify(fam, **cfg.factor_budget())
                # an Unknown verdict sets the exit code even when filtered
                if c.irreducible and c.monogenic is None:
                    unknown = True
                if args.monogenic_only and not c.monogenic:
                    continue
                if args.case and (
                    c.case is None or c.case.value != args.case
                ):
                    continue
                writer.write(classification_row(c))
    return EXIT_UNKNOWN if unknown else EXIT_OK


SCAN_FIELDS = ["z", "p", "p_is_prime", "a", "b", "monogenic", "galois",
               "galois_order", "unique_a", "consistent"]


def corollary_scan_rows(z_max: int, budget: dict):
    """One row per z; for prime p = z^2 + 4, classify (p, z, -1) and verify
    the claimed verdict.  That no other a in [1, isqrt(p)] gives the same
    class follows from the lemma at `unique_a`, so no a is searched."""
    for z in range(1, z_max + 1):
        p = z * z + 4
        row = {"z": z, "p": p, "p_is_prime": arith.is_prime(p)}
        if not row["p_is_prime"]:
            yield row
            continue
        fam = TrinomialFamily(p, z, -1)
        c = cls.classify(fam, **budget)
        row.update(
            a=z,
            b=-1,
            monogenic=c.monogenic,
            galois=c.galois.describe() if c.galois else None,
            galois_order=c.galois.order if c.galois else None,
            # Only delta = a^2 + 4 = +p y^2 gives C_p : C_{p-1}, and a = z
            # is the only a in [1, isqrt(p)] with p | a^2 + 4: for z >= 2,
            # isqrt(p) = z and every other a has 0 < a^2 + 4 < p; for z = 1
            # the only other a is 2, and 5 does not divide 8.
            unique_a=True,
            consistent=(
                c.irreducible
                and c.monogenic is True
                and c.galois.kind is cls.GaloisKind.FROBENIUS_P_PMINUS1
            ),
        )
        yield row


def cmd_corollary_scan(args) -> int:
    cfg = _config_from(args)
    if args.z_max < 1:
        raise UsageError(f"z_max must be at least 1, got {args.z_max}")
    writer = RowWriter(args.format, SCAN_FIELDS)
    code = EXIT_OK
    for row in corollary_scan_rows(args.z_max, cfg.factor_budget()):
        writer.write(row)
        if not row["p_is_prime"] or row["consistent"]:
            continue
        if row["monogenic"] is None:
            code = max(code, EXIT_UNKNOWN)
        else:
            # a definite verdict against the corollary is a bug; 3 beats 2
            code = EXIT_INTERNAL
            print(f"inconsistent: z={row['z']} p={row['p']}", file=sys.stderr)
    return code


def crosscheck_corpus(size: int, seed: int):
    """Random irreducible trinomials x^n + A x^m + B with n <= 12 and
    0 < |A|, |B| <= 20, for the engine-vs-oracle comparison."""
    rng = random.Random(seed)
    coeffs = [v for v in range(-20, 21) if v]
    out = []
    while len(out) < size:
        n = rng.randrange(2, 13)
        m = rng.randrange(1, n)
        A = rng.choice(coeffs)
        B = rng.choice(coeffs)
        t = GeneralTrinomial(n, m, A, B)
        # B != 0, so a repeated root (disc = 0) is exactly a zero resolvent
        if t.resolvent and poly.is_irreducible_over_Q(t.polynomial()):
            out.append(t)
    return out


def run_crosscheck(corpus, budget: dict, seed: int = 0):
    """Compare the condition-dispatch engine against the Dedekind oracle on
    every prime divisor of every corpus discriminant.

    A discriminant whose factoring exhausts the budget counts as skipped,
    but the primes proven before that are still compared.  Both engines
    are deterministic, so `seed` no longer affects the result; it is kept
    for callers that still pass it.
    """
    total = agreements = disagreements = skipped = 0
    details = []
    for t in corpus:
        try:
            factors = arith.factorize(t.disc, **budget)
        except FactorizationBudgetExceeded as exc:
            skipped += 1
            factors = exc.factors
        f = t.polynomial()
        for q in sorted(factors):
            jks = indexcheck.jks_index_free(t, q)
            ded = indexcheck.dedekind_divides_index(f, q)
            total += 1
            if jks.divides_index == ded:
                agreements += 1
            else:
                disagreements += 1
                details.append((t, q, jks.divides_index, ded))
    return {
        "total": total,
        "agreements": agreements,
        "disagreements": disagreements,
        "skipped": skipped,
        "details": details,
    }


def cmd_crosscheck(args) -> int:
    cfg = _config_from(args)
    if args.size < 1:
        raise UsageError(f"corpus size must be at least 1, got {args.size}")
    corpus = crosscheck_corpus(args.size, args.seed)
    print(f"corpus: {len(corpus)} irreducible trinomials", file=sys.stderr)
    report = run_crosscheck(corpus, cfg.factor_budget())
    row = {k: report[k] for k in ("total", "agreements", "disagreements", "skipped")}
    RowWriter(args.format, list(row)).write(row)
    for t, q, jks, ded in report["details"]:
        print(f"disagreement: {t} q={q} jks={jks} dedekind={ded}", file=sys.stderr)
    if report["disagreements"]:
        # the two engines are the correctness argument: a split is a bug
        return EXIT_INTERNAL
    return EXIT_UNKNOWN if report["skipped"] else EXIT_OK


def cmd_galois_sample(args) -> int:
    cfg = load_config(args.config)
    fam = _parse_family(args)
    prime_budget = (
        cfg.prime_budget if args.prime_budget is None else args.prime_budget
    )
    if prime_budget < 1:
        raise UsageError(f"prime budget must be at least 1, got {prime_budget}")
    claimed = cls.galois_group(fam)
    report = galois_verify.frobenius_sample(fam, prime_budget)
    verdict = galois_verify.consistency_check(fam, claimed, report)
    row = {
        "p": fam.p,
        "a": fam.a,
        "b": fam.b,
        "claimed": claimed.describe(),
        "claimed_order": claimed.order,
        "primes_used": report.primes_used,
        "observed_orders": dict(sorted(report.observed_orders.items())),
        "split_fraction": str(report.split_fraction),
        "verdict": verdict,
    }
    RowWriter(args.format, list(row)).write(row)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monotri",
        description="Monogenicity and Galois classification of trinomials "
        "x^(2p) + a x^p + b^p",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("classify", help="classify one family (p, a, b)")
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-a", type=int, required=True)
    s.add_argument("-b", type=int, required=True)
    _add_common(s)
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("enumerate", help="classify a grid of families")
    s.add_argument("-p", type=int, action="append", required=True,
                   help="prime; repeatable")
    s.add_argument("--a-min", type=int, required=True)
    s.add_argument("--a-max", type=int, required=True)
    s.add_argument("-b", type=int, action="append", required=True,
                   help="constant parameter; repeatable")
    s.add_argument("--monogenic-only", action="store_true")
    s.add_argument("--p-divides-delta", action="store_true")
    s.add_argument("--case", choices=[k.value for k in cls.CaseKind],
                   help="filter by case label")
    _add_common(s)
    s.set_defaults(func=cmd_enumerate)

    s = sub.add_parser(
        "corollary-scan",
        help="scan z=1..z_max for primes z^2+4 and verify (p, z, -1)",
    )
    s.add_argument("z_max", type=int)
    _add_common(s)
    s.set_defaults(func=cmd_corollary_scan)

    s = sub.add_parser(
        "crosscheck", help="engine-vs-Dedekind agreement on a random corpus"
    )
    s.add_argument("--size", type=int, default=500)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)
    s.set_defaults(func=cmd_crosscheck)

    s = sub.add_parser(
        "galois-sample", help="Frobenius sampling against the claimed group"
    )
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-a", type=int, required=True)
    s.add_argument("-b", type=int, required=True)
    s.add_argument("--prime-budget", type=int, default=None)
    _add_common(s, budget=False)
    s.set_defaults(func=cmd_galois_sample)

    return ap


def main(argv=None) -> int:
    # Arguments and rows hold exact integers of any size: lift the digit
    # limit on int <-> str (Python >= 3.10.7) before parsing, and restore
    # it after the command.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 means Unknown here
        return EXIT_USAGE if exc.code else EXIT_OK
    except (UsageError, Reducible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug, not a bad request: keep it apart from EXIT_USAGE
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
