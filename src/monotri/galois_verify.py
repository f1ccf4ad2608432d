"""Statistical verification of the Galois-group assignments.

The claimed groups leave fingerprints on Frobenius data: the set of element
orders bounds the lcm of every unramified degree pattern, and complete
splitting happens with density 1/|G|.  Sampling a few thousand unramified
primes is enough to separate the candidate groups, whose orders differ by a
factor of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith, poly
from .classify import (
    GaloisClass,
    GaloisKind,
    TrinomialFamily,
    family_is_irreducible,
    family_polynomial,
    swan_disc_f,
)
from .indexcheck import Reducible

__all__ = [
    "OrderSpectrum",
    "SampleReport",
    "element_order_spectrum",
    "frobenius_sample",
    "consistency_check",
    "DEFAULT_SPLIT_REL_TOL",
    "MIN_PRIMES_FOR_VERDICT",
]

DEFAULT_SPLIT_REL_TOL = 0.35
MIN_PRIMES_FOR_VERDICT = 100
FULL_SPECTRUM_THRESHOLD = 2000


@dataclass(frozen=True)
class OrderSpectrum:
    group: GaloisKind
    p: int
    orders: frozenset


@dataclass(frozen=True)
class SampleReport:
    family: TrinomialFamily
    primes_used: int
    observed_orders: dict  # order -> count
    split_fraction: Fraction


def _divisors(n: int):
    return {d for d in range(1, n + 1) if n % d == 0}


def _frobenius_group_orders(p: int, d: int):
    """Element orders of C_p : C_d with the complement acting freely."""
    return {p} | _divisors(d)


def element_order_spectrum(kind: GaloisKind, p: int) -> OrderSpectrum:
    """Exact element-order set of the claimed group."""
    if kind is GaloisKind.FROBENIUS_P_PMINUS1:
        orders = _frobenius_group_orders(p, p - 1)
    else:
        d = (p - 1) // 2 if kind is GaloisKind.HALF_TIMES_C2 else p - 1
        base = _frobenius_group_orders(p, d)
        orders = {math.lcm(o, e) for o in base for e in (1, 2)}
    return OrderSpectrum(kind, p, frozenset(orders))


def frobenius_sample(fam: TrinomialFamily, prime_budget: int) -> SampleReport:
    """Record Frobenius orders (lcm of the factor-degree pattern mod ell)
    over the first `prime_budget` unramified primes.

    Ramified primes are skipped and not counted.  The prime walk is the
    deterministic increasing one.
    """
    if prime_budget < 1:
        raise ValueError("prime_budget must be positive")
    if not family_is_irreducible(fam):
        raise Reducible(f"family {fam} is reducible over Q")
    f = family_polynomial(fam)
    disc = swan_disc_f(fam)
    observed: dict[int, int] = {}
    splits = 0
    used = 0
    for ell in arith.primes():
        if disc % ell == 0:
            continue
        pattern = poly.degree_pattern(f, ell)
        order = math.lcm(*pattern)
        observed[order] = observed.get(order, 0) + 1
        if all(d == 1 for d in pattern):
            splits += 1
        used += 1
        if used >= prime_budget:
            break
    return SampleReport(fam, used, observed, Fraction(splits, used))


def consistency_check(
    fam: TrinomialFamily,
    claimed: GaloisClass,
    report: SampleReport,
    rel_tol: float = DEFAULT_SPLIT_REL_TOL,
) -> str:
    """'consistent', 'inconsistent' or 'inconclusive' for a claimed group.

    Consistent requires: observed orders inside the claimed spectrum, the
    whole spectrum realized for large samples, and the complete-splitting
    fraction within rel_tol (relative) of 1/|G|.
    """
    if report.primes_used < MIN_PRIMES_FOR_VERDICT:
        return "inconclusive"
    spectrum = element_order_spectrum(claimed.kind, fam.p)
    if not set(report.observed_orders) <= spectrum.orders:
        return "inconsistent"
    if report.primes_used >= FULL_SPECTRUM_THRESHOLD and not (
        spectrum.orders <= set(report.observed_orders)
    ):
        return "inconsistent"
    target = Fraction(1, claimed.order)
    if abs(report.split_fraction - target) > Fraction(rel_tol).limit_denominator(
        10**6
    ) * target:
        return "inconsistent"
    return "consistent"
