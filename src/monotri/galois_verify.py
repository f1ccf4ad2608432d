"""Statistical verification of the Galois-group assignments.

The claimed groups leave fingerprints on Frobenius data: the set of element
orders bounds the lcm of every unramified degree pattern, and complete
splitting happens with density 1/|G|.  The verdict compares the observed
orders with the claimed spectrum and the split fraction with 1/|G| under a
fixed relative tolerance.  That is not a test with stated error rates: when
a sample expects less than one complete split (2,000 primes against
|G| = 7,320 for p = 61), it rejects the true group.

The Frobenius order of f = g(x^p) at ell is read off g = x^2 + a x + b^p
mod ell (Lidl-Niederreiter, Finite Fields, Thm 3.75); no degree pattern is
built.  The divisors of p - 1 and a table of ord_p(r) are computed once per
family; each prime then costs one Euler-criterion split test and, when p
divides Q - 1, at most one p-th-power test of the root of g: a Lucas
ladder over the exponent (ell - 1)/p or (ell + 1)/p for the norm-1
quotient of the roots of g, on the ladder that `classify` runs over Z for
irreducibility.  The tests hold the orders equal to the lcm of a
distinct-degree factorization of f itself in `poly`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .classify import (
    GaloisClass,
    GaloisKind,
    TrinomialFamily,
    _dickson_trace,
    # unused; perfbench/test_perfbench.py asserts this module holds the name
    family_is_irreducible,
)
from .indexcheck import Reducible

__all__ = [
    "OrderSpectrum",
    "SampleReport",
    "element_order_spectrum",
    "frobenius_sample",
    "consistency_check",
    "MIN_PRIMES_FOR_VERDICT",
]

# relative tolerance on the split density; a sequential test on the whole
# cycle-type distribution should replace it
SPLIT_REL_TOL = Fraction(7, 20)
MIN_PRIMES_FOR_VERDICT = 100
FULL_SPECTRUM_THRESHOLD = 2000


@dataclass(frozen=True)
class OrderSpectrum:
    orders: frozenset


@dataclass(frozen=True)
class SampleReport:
    primes_used: int
    observed_orders: dict  # order -> count
    split_fraction: Fraction


def _divisors(n: int):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return {*small, *(n // d for d in small)}


def element_order_spectrum(kind: GaloisKind, p: int) -> OrderSpectrum:
    """Exact element-order set of the claimed group.

    In C_p : C_d with the complement acting freely the orders are p and
    the divisors of d; a factor C_2 adds their lcms with 2.
    """
    orders = {p} | _divisors(kind.complement(p))
    if kind.times_c2:
        orders |= {math.lcm(o, 2) for o in orders}
    return OrderSpectrum(frozenset(orders))


def frobenius_sample(fam: TrinomialFamily, prime_budget: int) -> SampleReport:
    """Record Frobenius orders over the first `prime_budget` unramified primes.

    A reducible family raises `Reducible`.  The verdict is the family's
    cached `irreducible`, so sampling after `galois_group` on the same
    family object decides irreducibility once, not twice.

    Ramified primes (those dividing p * b * delta) are skipped and not
    counted.  The prime walk is the deterministic increasing one.  Each
    order is read off g = x^2 + a x + b^p mod ell (Lidl-Niederreiter,
    Finite Fields, Thm 3.75) without building the degree pattern of f:

    g splits (Q = ell) or is inert (Q = ell^2, every degree doubles).  Over
    F_Q, x^p - beta for a root beta of g has one root and orbits of length
    ord_p(Q) when p does not divide Q - 1, so the order is ord_p(Q), read
    from a per-family table of ord_p(r) keyed by r = Q mod p and filled from
    the divisors of p - 1 as residues occur.  Otherwise x^p - beta splits
    completely if beta is a p-th power and is irreducible if not: order 1
    or p.  The roots of g have product c = b^p, so both are p-th powers or
    neither is.  gamma = beta'/beta has norm 1 and trace s = a^2/c - 2, so
    V_k(s, 1) = gamma^k + gamma^-k, which is 2 exactly when gamma^k = 1:

    - g splits: beta^((ell-1)/p) is a p-th root of unity z, and
      gamma^((ell-1)/p) = c^((ell-1)/p) / beta^(2(ell-1)/p) = z^-2, which
      is 1 iff z = 1 as p is odd; k = (ell - 1)/p.
    - g inert, p | ell + 1: beta' = beta^ell, so gamma^((ell+1)/p) =
      beta^((ell^2-1)/p); k = (ell + 1)/p, half the length of a ladder
      over (Q - 1)/p.
    - g inert, p | ell - 1: beta^((ell^2-1)/p) = (beta beta')^((ell-1)/p)
      = b^(ell-1) = 1, so the order is 1 and no ladder runs.

    A prime splits completely when g splits and the order is 1.
    """
    if prime_budget < 1:
        raise ValueError("prime_budget must be positive")
    if not fam.irreducible:
        raise Reducible(f"family {fam} is reducible over Q")
    p, a, c, d = fam.p, fam.a, fam.trinomial.B, fam.delta
    ramified = p * fam.b * d
    divisors = sorted(_divisors(p - 1))
    order_of: dict[int, int] = {}  # r = Q mod p, r != 1 -> ord_p(r)
    observed: dict[int, int] = {}
    splits = 0
    used = 0
    for ell in arith.primes():
        if ramified % ell == 0:
            continue
        # for ell = 2, a and b are odd and g = x^2 + x + 1 is inert
        split = ell > 2 and pow(d, (ell - 1) // 2, ell) == 1
        q = ell if split else ell * ell
        r = q % p
        if r != 1:
            order = order_of.get(r)
            if order is None:
                order = order_of[r] = next(
                    e for e in divisors if pow(r, e, p) == 1)
        elif not split and ell % p == 1:
            order = 1  # beta^((Q - 1)/p) = c^((ell - 1)/p) = 1
        elif _dickson_trace(
            (a * a * pow(c, -1, ell) - 2) % ell,
            1,
            (ell - 1 if split else ell + 1) // p,
            ell,
        ) == 2 % ell:
            order = 1
        else:
            order = p
        if not split:
            order *= 2
        elif order == 1:
            splits += 1
        observed[order] = observed.get(order, 0) + 1
        used += 1
        if used >= prime_budget:
            break
    return SampleReport(used, observed, Fraction(splits, used))


def consistency_check(
    fam: TrinomialFamily, claimed: GaloisClass, report: SampleReport
) -> str:
    """'consistent', 'inconsistent' or 'inconclusive' for a claimed group.

    Consistent requires: observed orders inside the claimed spectrum, the
    whole spectrum realized for large samples, and the complete-splitting
    fraction within SPLIT_REL_TOL = 0.35 (relative) of 1/|G|.  The fixed
    tolerance is not an error bound: with few expected splits it can
    reject the true group.
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
    if abs(report.split_fraction - target) > SPLIT_REL_TOL * target:
        return "inconsistent"
    return "consistent"
