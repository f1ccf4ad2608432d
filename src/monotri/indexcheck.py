"""Index-divisibility engines for monic trinomials x^n + A x^m + B.

Two independent routes decide whether a prime q divides the index
[Z_K : Z[theta]] of the equation order:

* a condition-dispatch engine on the shape of (q|A, q|B, q|m), with five
  mutually exclusive branches (the JKS criterion for trinomials);
* the classical Dedekind criterion, driven by the radical of f mod q,
  or, for a lone double root r mod q, by f(r) mod q^2 alone.

The two must always agree; the test suite cross-checks them on a large
randomized corpus.  `trinomial_is_monogenic` scans every prime whose square
divides the discriminant and requires an index-free verdict at each.
The engine and the scan read the discriminant from `GeneralTrinomial.disc`,
Swan's closed form, computed once per trinomial.

Whether q divides the index depends only on f over Z_q, so the engines
answer for any separable trinomial: they decide q | [O : Z[x]/(f)] with O
the maximal order of the etale algebra Q[x]/(f), a number field exactly
when f is irreducible.  Irreducibility over Q is the caller's business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import arith, poly
from .poly import IntPolynomial, trinomial

__all__ = [
    "GeneralTrinomial",
    "IndexVerdict",
    "MonogenicityReport",
    "NotADiscriminantPrime",
    "Reducible",
    "swan_general_discriminant",
    "jks_index_free",
    "dedekind_divides_index",
    "trinomial_is_monogenic",
]


class NotADiscriminantPrime(ValueError):
    """q does not divide the trinomial discriminant; the engine has no claim."""


class Reducible(ValueError):
    """The trinomial is reducible over Q; index language does not apply.

    The index engines raise it only for a zero discriminant (repeated
    roots); any other reducible trinomial gets an answer.
    """


@dataclass(frozen=True)
class GeneralTrinomial:
    """x^n + A x^m + B with n > m >= 1."""

    n: int
    m: int
    A: int
    B: int

    def __post_init__(self):
        if not self.n > self.m >= 1:
            raise ValueError("need n > m >= 1")

    def polynomial(self) -> IntPolynomial:
        return trinomial(self.n, self.m, self.A, self.B)

    @cached_property
    def disc(self) -> int:
        """Swan's discriminant, computed once; outside eq, hash and repr."""
        # cached_property writes __dict__ directly, so frozen is no obstacle
        return swan_general_discriminant(self)

    @cached_property
    def d0(self) -> int:
        return math.gcd(self.n, self.m)

    @cached_property
    def n1(self) -> int:
        return self.n // self.d0

    @cached_property
    def m1(self) -> int:
        return self.m // self.d0

    @cached_property
    def resolvent(self) -> int:
        """R = n1^{n1} B^{n1-m1} - (-1)^{n1} (n1-m1)^{n1-m1} m1^{m1} A^{n1}."""
        n1, m1, k = self.n1, self.m1, self.n1 - self.m1
        return n1**n1 * self.B**k - (-1) ** n1 * k**k * m1**m1 * self.A**n1


@dataclass(frozen=True)
class IndexVerdict:
    q: int
    divides_index: bool
    condition_used: str  # the JKS branch that decided: "i" to "v"
    detail: str


def swan_general_discriminant(t: GeneralTrinomial) -> int:
    """Exact discriminant of x^n + A x^m + B by Swan's closed form.

    With d0 = gcd(n, m), n = n1 d0 and m = m1 d0 (Swan 1962, Pacific J.
    Math. 12, Thm 2):

        (-1)^{n(n-1)/2} B^{m-1}
            [n^{n1} B^{n1-m1} - (-1)^{n1} (n-m)^{n1-m1} m^{m1} A^{n1}]^{d0}

    The bracket, Swan's core, is d0^{n1} times `GeneralTrinomial.resolvent`.
    """
    n, m, d0 = t.n, t.m, t.d0
    core = d0**t.n1 * t.resolvent
    return (-1) ** (n * (n - 1) // 2) * t.B ** (m - 1) * core**d0


def _build_h2(A: int, B: int, s: int, Q: int, q: int) -> list:
    """H2 = (A x^{sQ} + B + (-A x^s - B)^Q) / q mod q, with Q = q^r, q ∤ AB,
    as a reduced coefficient list over F_q.

    The numerator's x^{si} coefficient is C(Q,i) (-A)^i (-B)^{Q-i}, plus B
    at i = 0 and A at i = Q.  For 0 < i < Q, v_q C(Q,i) = r - v_q(i), so
    a middle term survives mod q^2 only at i = kQ/q with 0 < k < q.  There
    C(Q, kQ/q) = C(q,k) mod q^2 (Babbage's C(qa, qb) = C(a,b) mod q^2,
    applied r - 1 times), C(q,k)/q = (-1)^{k-1}/k mod q (Wilson), and
    (-A)^{kQ/q} (-B)^{Q-kQ/q} = (-A)^k (-B)^{q-k} = -B (A/B)^k mod q
    (Fermat).  So x^{k sQ/q} has the coefficient B (-A/B)^k / k mod q.
    Only the two ends, (B + (-B)^Q)/q and (A + (-A)^Q)/q, need q^2.
    The tests' exact integer H2, `big_integer_h2`, is the oracle.
    """
    q2 = q * q
    lo, hi = B + pow(-B, Q, q2), A + pow(-A, Q, q2)
    assert lo % q == 0 and hi % q == 0, "H2 numerator not divisible by q"
    coeffs = [0] * (s * Q + 1)
    coeffs[0], coeffs[-1] = lo // q % q, hi // q % q
    step = s * Q // q
    c, ratio = B % q, -A * pow(B, -1, q) % q
    for k in range(1, q):
        c = c * ratio % q
        coeffs[k * step] = c * pow(k, -1, q) % q
    return poly._trim(coeffs)


def jks_index_free(t: GeneralTrinomial, q: int) -> IndexVerdict:
    """Decide whether the prime q | disc divides the index, by condition
    dispatch on (q|A, q|B, q|m).

    t must be separable (nonzero discriminant); it need not be irreducible.
    Exactly one of the five branches fires.
    """
    if q < 2 or not arith.is_prime(q):
        raise arith.NotPrime(f"{q} is not prime")
    if t.disc == 0:
        raise Reducible("zero discriminant: repeated roots")
    if t.disc % q != 0:
        raise NotADiscriminantPrime(f"{q} does not divide the discriminant")

    n, m, A, B = t.n, t.m, t.A, t.B
    n1, m1 = t.n1, t.m1
    qA = A % q == 0
    qB = B % q == 0

    if qA and qB:
        free = B % (q * q) != 0
        detail = f"(i): q|A, q|B; q^2 {'not ' if free else ''}dividing B"
        return IndexVerdict(q, not free, "i", detail)

    if qA and not qB:
        j = arith.valuation(n, q)
        # Swan's core is n^{n1} B^{n1-m1} mod q here, so q | disc forces q | n
        assert j >= 1, "q | A, q ∤ B and q | disc but q ∤ n"
        a2 = A // q
        num = B + (-B) ** (q**j)
        assert num % q == 0, "b1 not integral"
        b1 = num // q
        first = a2 % q == 0 and b1 % q != 0
        second = (
            a2 * (pow(-B, m1, q) * pow(a2, n1, q) - pow(-b1, n1, q))
        ) % q != 0
        free = first or second
        detail = f"(ii): q|A, q∤B; a2={arith._cite(a2)}, b1={arith._cite(b1)}"
        return IndexVerdict(q, not free, "ii", detail)

    if not qA and qB:
        l = arith.valuation(n - m, q)
        num = A + (-A) ** (q**l)
        assert num % q == 0, "a1 not integral"
        a1 = num // q
        b2 = B // q
        first = a1 % q == 0 and b2 % q != 0
        k = n1 - m1
        second = (
            a1
            * pow(b2, m - 1, q)
            * (pow(-A, m1, q) * pow(a1, k, q) - pow(-b2, k, q))
        ) % q != 0
        free = first or second
        detail = f"(iii): q∤A, q|B; a1={arith._cite(a1)}, b2={arith._cite(b2)}"
        return IndexVerdict(q, not free, "iii", detail)

    if m % q == 0:
        # r is the largest power with q^r | gcd(n, m), so q ∤ gcd(s', s)
        r = min(arith.valuation(m, q), arith.valuation(n, q))
        # the m^{m1} term of Swan's core vanishes mod q, so as in (ii)
        # q | disc forces q | n
        assert r >= 1, "q ∤ AB, q | m and q | disc but q ∤ n"
        Q = q**r
        s = m // Q
        h1 = poly._reduce(trinomial(n // Q, s, A, B).coeffs, q)
        h2 = _build_h2(A, B, s, Q, q)
        deg = len(poly._gcd(h1, h2, q)) - 1
        free = deg == 0
        detail = (f"(iv): q∤AB, q|m; gcd(H1,H2) mod {arith._cite(q)} "
                  f"has degree {deg}")
        return IndexVerdict(q, not free, "iv", detail)

    free = t.resolvent % (q * q) != 0
    detail = f"(v): q∤ABm; q^2 {'not ' if free else ''}dividing the resolvent"
    return IndexVerdict(q, not free, "v", detail)


def dedekind_divides_index(f: IntPolynomial, q: int) -> bool:
    """Dedekind criterion: does the prime q divide [Z_K : Z[theta]]?

    Precondition: f is monic and squarefree over Q; it need not be
    irreducible, and Z_K is then the maximal order of Q[x]/(f).
    With g the lift to Z of rad(f mod q), the product of the distinct
    irreducible factors, and h the lift of (f mod q)/g, the index is
    divisible by q iff gcd((g*h - f)/q, g, h) mod q has positive degree
    (Cohen, A Course in Computational Algebraic Number Theory, 1993,
    §6.1.2).  Each irreducible factor of h mod q is a repeated factor of
    f mod q, so it divides g mod q, and the gcd with h alone is taken.
    g and h are lifted with coefficients in [0, q); the verdict does not
    depend on that choice.  All of it runs on reduced coefficient lists
    over F_q, and c = gcd(f, f') mod q is taken once.

    A lone double root needs one evaluation.  If deg c = 1, c = x - r
    and q divides the index iff q^2 | f(r), for the integer r in [0, q):

    1. With f = prod g_i^e_i mod q, the g_i distinct monic irreducibles,
       c = prod_{q ∤ e} g^(e-1) * prod_{q | e} g^e.
    2. So deg c = 1 forces one linear factor x - r with e = 2, q odd
       (at q = 2 it would put (x - r)^2 into c), and every other factor
       simple.
       Then h = x - r mod q, and x - r divides g mod q.
    3. By the criterion, q divides the index iff T(r) = 0 mod q, with
       T = (g*h - f)/q.
    4. g(r) = h(r) = 0 mod q, so g(r) h(r) = 0 mod q^2 and
       T(r) = -f(r)/q mod q: T(r) = 0 mod q iff q^2 | f(r).
    5. f'(r) = 0 mod q gives f(r + qt) = f(r) mod q^2, so every lift of r
       gives the same answer.

    Otherwise g = rad(f) comes from the squarefree split (`poly._radical`,
    handed c), and h = f / g.
    """
    if q < 2 or not arith.is_prime(q):
        raise arith.NotPrime(f"{q} is not prime")
    if not f.is_monic():
        raise ValueError("Dedekind criterion requires a monic polynomial")
    # f is monic, so fbar is monic too
    fbar = poly._reduce(f.coeffs, q)
    c = poly._gcd(fbar, poly._derivative(fbar, q), q)
    if len(c) == 2:
        return poly._value(f.coeffs, -c[0] % q) % (q * q) == 0
    gbar = poly._radical(fbar, q, c)
    hbar = poly._quotient(fbar, gbar, q)
    # g and h are monic, so deg gh = deg f
    gh = poly._product(gbar, hbar)
    diff = [x - y for x, y in zip(gh, f.coeffs)]
    assert all(d % q == 0 for d in diff)
    tbar = poly._reduce([d // q for d in diff], q)
    return len(poly._gcd(tbar, hbar, q)) > 1


@dataclass(frozen=True)
class MonogenicityReport:
    checks: tuple  # of IndexVerdict, one per prime with q^2 | disc

    @property
    def monogenic(self) -> bool:
        """No checked prime divides the index."""
        return not any(v.divides_index for v in self.checks)


def trinomial_is_monogenic(t: GeneralTrinomial, **budget) -> MonogenicityReport:
    """True iff no prime with q^2 | disc divides the index.

    t must be separable; for irreducible t this is monogenicity of
    Q[x]/(t).  Factoring the discriminant may exhaust the budget, in which
    case FactorizationBudgetExceeded propagates: the verdict is then
    unknown, never guessed.
    """
    if t.disc == 0:
        raise Reducible("zero discriminant: repeated roots")
    fac = arith.factorize(t.disc, **budget)
    return MonogenicityReport(tuple(
        jks_index_free(t, q) for q in sorted(fac) if fac[q] >= 2
    ))
