"""Classification layer for the family f(x) = x^{2p} + a x^p + b^p.

Everything specific to this two-parameter family lives here: the quantity
delta = a^2 - 4 b^p, the Galois-group split on the sign pattern of delta,
the case ledger (delta = +-p y^2 or neither), quadratic monogenicity, the
composed-polynomial monogenicity test, and the full verdict with a
structured reason trace.  A `TrinomialFamily` is the one record of a
family's facts: it holds f as a GeneralTrinomial (whose discriminant is
cached), delta, its +-p y^2 split and the irreducibility verdict, each
computed once however many verdicts read it; a `Classification` stores only
what it decides and reads those facts through its `family`.  The paper's
closed form `swan_disc_f` is the tests' reference for the discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import arith, indexcheck
from .arith import FactorizationBudgetExceeded
from .indexcheck import GeneralTrinomial, Reducible
from .poly import _lift_root

__all__ = [
    "TrinomialFamily",
    "CaseKind",
    "GaloisKind",
    "GaloisClass",
    "Classification",
    "swan_disc_f",
    "family_is_irreducible",
    "galois_group",
    "case_label",
    "quadratic_is_monogenic",
    "kkr_monogenic",
    "classify",
    "exceptional_sets",
    "theorem_item",
    "theorem_membership",
]


@dataclass(frozen=True)
class TrinomialFamily:
    """The triple (p, a, b) defining f = x^{2p} + a x^p + b^p.

    Its properties are the facts every verdict reads, each cached
    (outside eq, hash and repr), so it is computed once per family
    however many verdicts read it.
    """

    p: int
    a: int
    b: int

    def __post_init__(self):
        if self.p < 3 or not arith.is_prime(self.p):
            raise ValueError("p must be an odd prime >= 3")
        if self.a == 0 or self.b == 0:
            raise ValueError("need a*b != 0")

    @cached_property
    def trinomial(self) -> GeneralTrinomial:
        """f as the general trinomial x^{2p} + a x^p + b^p."""
        return GeneralTrinomial(2 * self.p, self.p, self.a, self.b**self.p)

    @cached_property
    def irreducible(self) -> bool:
        return family_is_irreducible(self)

    @cached_property
    def delta(self) -> int:
        """a^2 - 4 b^p."""
        return self.a * self.a - 4 * self.trinomial.B

    @cached_property
    def p_split(self):
        """(sign, y) with delta = sign p y^2 and y >= 0, or None."""
        d = self.delta
        if d % self.p:
            return None
        sign = 1 if d >= 0 else -1
        y = arith.exact_square_root(sign * d // self.p)
        return None if y is None else (sign, y)


class CaseKind(Enum):
    GAMMA1_B1 = "Gamma1_b1"  # delta = +p y^2, b = 1
    GAMMA2_B1 = "Gamma2_b1"  # delta = -p y^2, b = 1
    GAMMA1_BNEG1 = "Gamma1_bneg1"  # delta = +p y^2, b = -1
    OMEGA_B1 = "Omega_b1"  # p | delta, delta != +-p y^2, b = 1
    OMEGA_BNEG1 = "Omega_bneg1"
    P_NOT_DIVIDING_DELTA = "p_not_dividing_delta"


class GaloisKind(Enum):
    """The group (C_p : C_d) x C_2^e, a complement order d and a C_2 flag."""

    FROBENIUS_P_PMINUS1 = "Frobenius_p_pminus1"  # C_p : C_{p-1}
    HALF_TIMES_C2 = "Half_times_C2"  # (C_p : C_{(p-1)/2}) x C_2
    FULL_TIMES_C2 = "Full_times_C2"  # (C_p : C_{p-1}) x C_2

    def complement(self, p: int) -> int:
        """Order d of the complement C_d, acting freely on C_p."""
        return (p - 1) // 2 if self is GaloisKind.HALF_TIMES_C2 else p - 1

    @property
    def times_c2(self) -> bool:
        return self is not GaloisKind.FROBENIUS_P_PMINUS1


@dataclass(frozen=True)
class GaloisClass:
    kind: GaloisKind
    p: int

    @property
    def order(self) -> int:
        p, kind = self.p, self.kind
        return p * kind.complement(p) * (1 + kind.times_c2)

    def describe(self) -> str:
        base = f"C{self.p}:C{self.kind.complement(self.p)}"
        return f"({base})xC2" if self.kind.times_c2 else base


@dataclass(frozen=True)
class Classification:
    """What `classify` decides; every other fact is read from `family`."""

    family: TrinomialFamily
    case: CaseKind | None
    galois: GaloisClass | None
    monogenic: bool | None  # None = unknown (budget) or reducible
    reason: tuple  # ordered tuple of applied-rule strings

    @property
    def delta(self) -> int:
        return self.family.delta

    @property
    def disc_f(self) -> int:
        return self.family.trinomial.disc

    @property
    def irreducible(self) -> bool:
        return self.family.irreducible

    @property
    def field_discriminant(self) -> int | None:
        """disc(f) is the field discriminant exactly when f is monogenic."""
        return self.disc_f if self.monogenic else None


def swan_disc_f(fam: TrinomialFamily) -> int:
    """Closed-form discriminant b^{p(p-1)} p^{2p} (a^2 - 4 b^p)^p.

    The paper's form, kept as the test reference for Swan's general form,
    which `Classification.disc_f` reads through `GeneralTrinomial.disc`.
    """
    p, b = fam.p, fam.b
    return b ** (p * (p - 1)) * p ** (2 * p) * fam.delta**p


def _dickson_trace(s: int, n: int, k: int, m: int = 0) -> int:
    """gamma^k + conj(gamma)^k where gamma + conj = s, gamma*conj = n.

    This is the Lucas sequence V_k(s, n), the Dickson value D_k(s, n).
    A binary ladder on (V_j, V_{j+1}, n^j) reads the bits of k from the
    top (Joye and Quisquater 1996), so it takes O(log k) multiplications:

        V_{2j} = V_j^2 - 2 n^j,    V_{2j+1} = V_j V_{j+1} - s n^j.

    With m > 0 every step is reduced mod m, giving V_k mod m in [0, m).
    """
    return _dickson_pair(s, n, k, m)[0]


def _dickson_pair(s: int, n: int, k: int, m: int = 0) -> tuple:
    """(V_k, V_{k+1}) from the one ladder of `_dickson_trace`."""
    v, w, nj = 2, s, 1  # V_j, V_{j+1}, n^j at j = 0
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w, nj = v * w - s * nj, w * w - 2 * n * nj, n * nj * nj
        else:
            v, w, nj = v * v - 2 * nj, v * w - s * nj, nj * nj
        if m:
            v, w, nj = v % m, w % m, nj % m
    return v, w


def family_is_irreducible(fam: TrinomialFamily) -> bool:
    """Exact irreducibility of f = g(x^p), g = x^2 + a x + b^p, over Q.

    g is reducible iff delta is a perfect square (or zero), and then so is
    f.  Otherwise, with beta a root of g, f is irreducible iff beta is not
    a p-th power in Q(beta).  Any gamma with gamma^p = beta is a quadratic
    integer of norm b and some integer trace s, and then
    trace(gamma^p) = D_p(s, b) must equal -a; so f is reducible iff
    P(s) = D_p(s, b) + a has an integer root with |s| <= S, a bound from
    the size of beta.  Each value of P costs one `_dickson_trace`, O(log p)
    multiplications.

    Rather than trying every s in [-S, S], the roots of P mod the least
    prime ell not dividing 2 p b delta, found among ell values of P, are
    lifted (`poly._lift_root`) past 2S in O(log log S) steps of one ladder
    each, and tested exactly; so the cost grows with log S, not with S.
    There s^2 - 4b is a unit mod ell at every root of P, and so is
    P'(s) = p U_p(s, b) = p (2 V_{p+1} - s V_p) / (s^2 - 4b): either
    failing forces a^2 = 4 b^p mod ell.
    """
    p, a, b, d = fam.p, fam.a, fam.b, fam.delta
    if arith.exact_square_root(d) is not None:
        return False
    # |gamma| <= max(|beta|, |beta'|)^{1/p}, which bounds s = gamma + conj
    root_bound = (abs(a) + math.isqrt(abs(d)) + 2) // 2 + 1
    # 2^ceil(bits/p) > root_bound^(1/p); any upper bound gives one verdict
    s_bound = 2 ** (1 + -(-root_bound.bit_length() // p)) + 2

    def newton(s, m):
        v, w = _dickson_pair(s, b, p, m)
        return v + a, p * (2 * w - s * v) * pow(s * s - 4 * b, -1, m)

    ell = next(q for q in arith.primes() if 2 * p * b * d % q)
    for r in range(ell):
        if (_dickson_trace(r, b, p, ell) + a) % ell == 0:
            s = _lift_root(r, ell, 2 * s_bound, newton)
            if abs(s) <= s_bound and _dickson_trace(s, b, p) == -a:
                return False
    return True


def galois_group(fam: TrinomialFamily) -> GaloisClass:
    """Galois class of f from the sign pattern of delta = +-p y^2."""
    if not fam.irreducible:
        raise Reducible(f"family {fam} is reducible over Q")
    p, split = fam.p, fam.p_split
    kind = GaloisKind.FULL_TIMES_C2
    # irreducible, so delta != 0 and split[0] is its sign
    if split is not None:
        if p % 4 == 1 and split[0] > 0:
            kind = GaloisKind.FROBENIUS_P_PMINUS1
        elif p % 4 == 3 and split[0] < 0:
            kind = GaloisKind.HALF_TIMES_C2
    return GaloisClass(kind, p)


def case_label(fam: TrinomialFamily) -> CaseKind | None:
    """The ledger's case: p ∤ delta, or, for p | delta and b = +-1, whether
    delta = +p y^2, -p y^2 or neither.

    The ledger has no case for p | delta with |b| != 1, and None says so.
    """
    b = fam.b
    if fam.delta % fam.p != 0:
        return CaseKind.P_NOT_DIVIDING_DELTA
    if b not in (1, -1):
        return None
    split = fam.p_split
    if split is None:
        return CaseKind.OMEGA_B1 if b == 1 else CaseKind.OMEGA_BNEG1
    # delta = 0 = p 0^2 (a degenerate, always-reducible family) is Gamma1
    if split[0] > 0:
        return CaseKind.GAMMA1_B1 if b == 1 else CaseKind.GAMMA1_BNEG1
    if b == -1:
        # delta = a^2 + 4 > 0: cannot be -p y^2
        raise AssertionError("(Gamma2, -1) is impossible")
    return CaseKind.GAMMA2_B1


def _squarefree_reasons(a: int, b: int, **budget):
    """Per-factor squarefree/parity analysis behind quadratic monogenicity.

    Returns (verdict, reasons).  For b=1 the squarefree requirement on
    W = (a^2-4)/gcd(a,2)^2 splits into (a-2)/g and (a+2)/g, g = gcd(a,2),
    which gives sharper failure messages.  Past the parity test both are
    odd, nonzero and coprime.
    """
    if b == 1:
        if a % 4 == 2:
            return False, ["2|a but 4∤a forbidden for b=1"]
        g = math.gcd(a, 2)
        reasons = [
            f"a{k:+d}={arith._cite(a + k)} not squarefree"
            for k in (-2, 2)
            if not arith.is_squarefree((a + k) // g, **budget)
        ]
        return not reasons, reasons or ["a-2 and a+2 squarefree"]
    # b = -1
    if a % 4 == 0:
        return False, ["4|a forbidden for b=-1"]
    w = (a * a + 4) // (4 if a % 2 == 0 else 1)
    if not arith.is_squarefree(w, **budget):
        return False, [f"W=(a^2+4)/gcd(a,2)^2={arith._cite(w)} not squarefree"]
    return True, [f"W={arith._cite(w)} squarefree"]


def quadratic_is_monogenic(a: int, b: int, **budget) -> bool:
    """Monogenicity of x^2 + a x + b for b in {-1, +1}.

    W = (a^2 - 4b)/gcd(a,2)^2 must be squarefree, with the parity side
    conditions 4|a-if-2|a (b=1) and 4∤a (b=-1); `_squarefree_reasons`
    applies them.
    """
    if b not in (1, -1):
        raise ValueError("b must be +-1")
    if arith.exact_square_root(a * a - 4 * b) is not None:
        raise Reducible(f"x^2+{a}x+{b} is reducible over Q")
    return _squarefree_reasons(a, b, **budget)[0]


def kkr_monogenic(fam: TrinomialFamily, **budget):
    """Monogenicity of f = g(x^p) via the composed-polynomial reduction.

    Requires: g(0) = b^p squarefree (forces |b| = 1); the prime p does not
    divide the index of f; and g itself monogenic.  Returns (bool, reasons).
    """
    if not fam.irreducible:
        raise Reducible(f"family {fam} is reducible over Q")
    p, a, b = fam.p, fam.a, fam.b
    if b not in (1, -1):
        return False, [f"g(0)=b^p={arith._cite(fam.trinomial.B)} not squarefree"]
    reasons = ["g(0) squarefree"]
    verdict = indexcheck.jks_index_free(fam.trinomial, p)
    if verdict.divides_index:
        reasons.append(f"p={p} divides the index ({verdict.detail})")
    else:
        reasons.append(
            f"p={p} does not divide the index ({verdict.condition_used})"
        )
    quad_ok, quad_reasons = _squarefree_reasons(a, b, **budget)
    reasons.extend(quad_reasons)
    if quad_ok:
        reasons.append("g monogenic")
    else:
        reasons.append("g not monogenic")
    return not verdict.divides_index and quad_ok, reasons


def theorem_item(case: CaseKind | None, p: int) -> str:
    """Which closed-form item of the classification covers this case;
    "generic" for p ∤ delta and for no case."""
    if case in (CaseKind.GAMMA1_B1, CaseKind.GAMMA1_BNEG1):
        return "item1" if p % 4 == 1 else "item3a"
    if case is CaseKind.GAMMA2_B1:
        return "item2" if p % 4 == 3 else "item3a"
    if case in (CaseKind.OMEGA_B1, CaseKind.OMEGA_BNEG1):
        return "item3b"
    return "generic"


def theorem_membership(fam: TrinomialFamily, **budget) -> bool:
    """Closed-form monogenicity membership test for p | delta families.

    Raises ValueError where the ledger gives no closed-form item: when p
    does not divide delta, and when it has no case (p | delta, |b| != 1).
    """
    p, a, b = fam.p, fam.a, fam.b
    item = theorem_item(case_label(fam), p)
    if item == "item1":
        return (p, abs(a), b) == (5, 3, 1) or (b == -1 and a * a + 4 == p)
    if item == "item2":
        return (p, abs(a), b) == (3, 1, 1)
    if item == "item3a":
        return (p, abs(a), b) == (3, 4, 1)
    if item == "item3b":
        ok, _ = _squarefree_reasons(a, b, **budget)
        return ok
    raise ValueError("membership test needs p | delta and b = +-1")


def classify(fam: TrinomialFamily, **budget) -> Classification:
    """Full verdict for one family: irreducibility, case, Galois class,
    monogenicity and (when monogenic) the field discriminant."""
    case = case_label(fam)

    if not fam.irreducible:
        if arith.exact_square_root(fam.delta) is not None:
            reason = "delta is a perfect square: g reducible"
        else:
            reason = "root of g is a p-th power: f reducible"
        return Classification(fam, case, None, None, (reason,))

    galois = galois_group(fam)
    reasons = [] if case is None else [f"case={case.value}"]
    monogenic: bool | None
    try:
        if case is not CaseKind.P_NOT_DIVIDING_DELTA:
            if case is not None:
                reasons.append(f"classification {theorem_item(case, fam.p)}")
            monogenic, more = kkr_monogenic(fam, **budget)
        else:
            reasons.append("generic index scan (p does not divide delta)")
            report = indexcheck.trinomial_is_monogenic(fam.trinomial, **budget)
            monogenic = report.monogenic
            more = [f"q={arith._cite(v.q)}: {v.detail}" for v in report.checks]
        reasons.extend(more)
    except FactorizationBudgetExceeded as exc:
        monogenic = None
        reasons.append(f"unknown: {exc}")

    return Classification(fam, case, galois, monogenic, tuple(reasons))


def exceptional_sets(p_max: int, a_max: int, **budget):
    """Enumerate the monogenic p|delta families with p <= p_max, |a| <= a_max,
    b = +-1, grouped by closed-form classification item."""
    if p_max < 3 or a_max < 1:
        return {}
    out: dict[str, list] = {}
    for p in arith.primes():
        if p > p_max:
            break
        if p == 2:
            continue
        for a in range(-a_max, a_max + 1):
            if a == 0:
                continue
            for b in (-1, 1):
                fam = TrinomialFamily(p, a, b)
                # only the delta = +-p y^2 cases have finite exceptional sets
                if fam.p_split is None:
                    continue
                c = classify(fam, **budget)
                if c.irreducible and c.monogenic:
                    item = theorem_item(c.case, p)
                    out.setdefault(item, []).append((item, p, a, b))
    return {k: sorted(v) for k, v in sorted(out.items())}
