"""Dense univariate polynomials over Z and over prime fields.

Integer polynomials are coefficient tuples, constant term first.  The
discriminant is computed from the resultant (via sympy's exact subresultant
machinery).  The package itself uses Swan's closed form; this route is the
independent oracle the tests compare it against.  Over F_q, arithmetic runs
on plain coefficient lists (product, remainder with delayed reduction)
and `ModPolynomial` wraps their already-reduced results.  The radical
(product of the distinct monic irreducible factors) comes from the
squarefree split alone; the Dedekind oracle needs nothing more.  The
distinct-degree split gives `degree_pattern`, which runs at runtime in the
irreducibility proof below.  The full factorization (squarefree split +
distinct-degree split + Cantor-Zassenhaus equal-degree split with
caller-supplied randomness) is used by tests.  Irreducibility over Q is
exact: a degree-set proof from the factor degrees mod the first few primes
settles most inputs, and sympy (modular factorization with Hensel lifting
and recombination) settles only what that proof cannot; this is sympy's
only use at runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, zip_longest

import sympy

from . import arith

__all__ = [
    "IntPolynomial",
    "ModPolynomial",
    "ModulusMismatch",
    "RamifiedPrime",
    "DegreeBudgetExceeded",
    "reduce_mod",
    "gcd_mod",
    "discriminant",
    "radical_mod",
    "factor_mod",
    "degree_pattern",
    "is_irreducible_over_Q",
    "trinomial",
]

DEGREE_BUDGET = 40
# Primes, from 2 on and ramified ones included, that is_irreducible_over_Q
# reads factor degrees at before it asks sympy.
IRREDUCIBILITY_PRIMES = 10

_x = sympy.Symbol("x")


class ModulusMismatch(ValueError):
    """Arithmetic attempted between polynomials over different prime fields."""


class RamifiedPrime(ValueError):
    """Prime divides the discriminant; no Frobenius degree pattern exists."""


class DegreeBudgetExceeded(Exception):
    """Degree above DEGREE_BUDGET, the bound for exact irreducibility testing."""


def _trim(c):
    """Drop the trailing zeros of the list c in place; return c."""
    while c and not c[-1]:
        c.pop()
    return c


def _strip(coeffs):
    return tuple(_trim(list(coeffs)))


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial over Z; coeffs[i] is the coefficient of x^i."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _strip(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return self.lc == 1

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def to_sympy(self):
        return sympy.Poly(list(reversed(self.coeffs)) or [0], _x)


def trinomial(n: int, m: int, A: int, B: int) -> IntPolynomial:
    """x^n + A*x^m + B."""
    if not n > m >= 1:
        raise ValueError("need n > m >= 1")
    c = [0] * (n + 1)
    c[0] = B
    c[m] += A
    c[n] += 1
    return IntPolynomial(c)


def _reduce(c, q):
    """The reduced coefficient list of the integers c over F_q."""
    return _trim([x % q for x in c])


def _product(a, b):
    """Product of two coefficient lists over Z, not reduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _remainder(a, b, q, quo=None):
    """Reduced remainder of a by b over F_q; the quotient goes into quo.

    a may hold any integers; b is reduced and nonzero.  Each c*b is
    subtracted without reducing: a coefficient is reduced when it is read
    as the leading one, and the remainder once at the end.
    """
    db = len(b) - 1
    rem = list(a)
    inv = pow(b[-1], -1, q)
    low = b[:-1]
    for i in range(len(rem) - 1 - db, -1, -1):
        c = rem[i + db] * inv % q
        if c:
            for j, y in enumerate(low, i):
                rem[j] -= c * y
            if quo is not None:
                quo[i] = c
    del rem[db:]
    return _reduce(rem, q)


@dataclass(frozen=True)
class ModPolynomial:
    """Polynomial over F_q; all coefficients reduced into [0, q).

    The arithmetic works on coefficient lists (the helpers above) and
    wraps their already-reduced results without reducing them again.
    """

    modulus: int
    coeffs: tuple

    def __init__(self, modulus, coeffs):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", _strip(c % modulus for c in coeffs))

    @classmethod
    def _wrap(cls, modulus, coeffs):
        """A ModPolynomial of a reduced list, taken as it is."""
        self = object.__new__(cls)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def _check(self, other):
        if self.modulus != other.modulus:
            raise ModulusMismatch(f"{self.modulus} != {other.modulus}")

    def __add__(self, other):
        self._check(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return ModPolynomial(self.modulus, [x + y for x, y in pairs])

    def __sub__(self, other):
        self._check(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return ModPolynomial(self.modulus, [x - y for x, y in pairs])

    def __mul__(self, other):
        q = self.modulus
        if isinstance(other, int):
            prod = [other * c for c in self.coeffs]
        else:
            self._check(other)
            prod = _product(self.coeffs, other.coeffs)
        return ModPolynomial._wrap(q, _reduce(prod, q))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = self.modulus
        quo = [0] * max(len(self.coeffs) - other.degree, 1)
        rem = _remainder(self.coeffs, other.coeffs, q, quo)
        return ModPolynomial._wrap(q, _trim(quo)), ModPolynomial._wrap(q, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        """The remainder of divmod(self, other), without the quotient."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return self
        q = self.modulus
        return ModPolynomial._wrap(q, _remainder(self.coeffs, other.coeffs, q))

    def monic(self) -> "ModPolynomial":
        q, c = self.modulus, self.coeffs
        if not c or c[-1] == 1:
            return self
        inv = pow(c[-1], -1, q)
        return ModPolynomial._wrap(q, [x * inv % q for x in c])

    def derivative(self) -> "ModPolynomial":
        q = self.modulus
        return ModPolynomial._wrap(
            q, _reduce([i * c for i, c in enumerate(self.coeffs)][1:], q)
        )

    def __call__(self, v):
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * v + c) % self.modulus
        return acc

    def pow_mod(self, e: int, mod: "ModPolynomial") -> "ModPolynomial":
        """self^e reduced modulo `mod`."""
        q, m = self.modulus, mod.coeffs
        result = [1]
        base = (self % mod).coeffs
        while e > 0:
            if e & 1:
                result = _remainder(_product(result, base), m, q)
            e >>= 1
            if e:
                base = _remainder(_product(base, base), m, q)
        return ModPolynomial._wrap(q, result)


def reduce_mod(f: IntPolynomial, q: int) -> ModPolynomial:
    """Coefficientwise reduction of f modulo the prime q."""
    return ModPolynomial(q, f.coeffs)


def gcd_mod(f: ModPolynomial, g: ModPolynomial) -> ModPolynomial:
    """Monic gcd over F_q (Euclid)."""
    f._check(g)
    q, a, b = f.modulus, f.coeffs, g.coeffs
    while b:
        a, b = b, _remainder(a, b, q)
    return ModPolynomial._wrap(q, a).monic()


def discriminant(f: IntPolynomial) -> int:
    """(-1)^{n(n-1)/2} * Res(f, f') / lc(f), computed exactly via resultants."""
    n = f.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = sympy.resultant(f.to_sympy(), f.derivative().to_sympy())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return int(sign * res // f.lc)


def _char_p_root(f: ModPolynomial) -> ModPolynomial:
    """q-th root of a polynomial in x^q over the prime field F_q."""
    return ModPolynomial(f.modulus, f.coeffs[:: f.modulus])


def _squarefree_parts(f: ModPolynomial):
    """Yield (multiplicity, squarefree factor) pairs with product f (monic)."""
    q = f.modulus
    f = f.monic()
    if f.degree <= 0:
        return
    # f' = 0 gives c = f and w = 1: only the leftover branch runs
    c = gcd_mod(f, f.derivative())
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd_mod(w, c)
        part = w // y
        if part.degree > 0:
            yield i, part
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        # leftover factors all have multiplicity divisible by q
        for mult, part in _squarefree_parts(_char_p_root(c)):
            yield mult * q, part


def radical_mod(f: ModPolynomial) -> ModPolynomial:
    """Product of the distinct monic irreducible factors of f over F_q.

    The squarefree parts are pairwise coprime and each is the product of
    the irreducibles of one multiplicity, so their product is rad(f); no
    factor is split further.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no radical")
    rad = ModPolynomial(f.modulus, [1])
    for _, part in _squarefree_parts(f):
        rad = rad * part
    return rad


def _distinct_degree(f: ModPolynomial):
    """Split a squarefree monic f into (degree d, product of deg-d factors)."""
    q = f.modulus
    x = ModPolynomial(q, [0, 1])
    h = x
    d = 0
    out = []
    while f.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(q, f)
        g = gcd_mod(f, h - x)
        if g.degree > 0:
            out.append((d, g))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f.degree, f))
    return out


def _equal_degree(f: ModPolynomial, d: int, rng: random.Random):
    """Cantor-Zassenhaus split of monic squarefree f with all factors deg d."""
    q = f.modulus
    n = f.degree
    if n == d:
        return [f]
    while True:
        a = ModPolynomial(q, [rng.randrange(q) for _ in range(n)])
        if a.degree < 1:
            continue
        if q % 2 == 1:
            b = a.pow_mod((q**d - 1) // 2, f) - ModPolynomial(q, [1])
        else:
            # trace map for characteristic 2
            b = a
            t = a
            for _ in range(d - 1):
                t = t.pow_mod(q, f)
                b = b + t
        g = gcd_mod(f, b)
        if 0 < g.degree < n:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor_mod(f: ModPolynomial, seed: int = 0):
    """Factor f over F_q as a list of (irreducible monic factor, exponent).

    The equal-degree split is randomized; a fixed seed makes the run
    reproducible.  Factor order is canonical (by degree, then coefficients).
    Used by tests, as the oracle for `radical_mod`.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    out = []
    for mult, part in _squarefree_parts(f):
        for d, prod in _distinct_degree(part):
            for irr in _equal_degree(prod, d, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def degree_pattern(f: IntPolynomial, ell: int):
    """Multiset (sorted list) of irreducible factor degrees of f mod ell.

    Requires ell unramified (f squarefree mod ell, same thing for monic f);
    this is the Frobenius cycle type at ell.  A distinct-degree
    factorization of f itself, it runs at runtime inside
    `is_irreducible_over_Q`'s degree-set proof; it is also the tests'
    oracle for the cycle types that `galois_verify` reads off g mod ell
    for f = g(x^p).
    """
    fq = reduce_mod(f, ell)
    if fq.degree != f.degree:
        raise RamifiedPrime(f"leading coefficient vanishes mod {ell}")
    if gcd_mod(fq, fq.derivative()).degree != 0:
        raise RamifiedPrime(f"{ell} divides the discriminant")
    pattern = []
    for d, prod in _distinct_degree(fq.monic()):
        pattern.extend([d] * (prod.degree // d))
    return sorted(pattern)


def is_irreducible_over_Q(f: IntPolynomial) -> bool:
    """Exact irreducibility over the rationals for monic f.

    First a degree-set proof (Musser, J. ACM 25, 1978): a factor of f of
    degree d over Z reduces to a product of factors mod every unramified
    ell, so d is a sub-sum of each `degree_pattern`.  The first
    IRREDUCIBILITY_PRIMES primes are tried, ramified ones skipped; once no
    proper degree is a sub-sum of every pattern, f is irreducible.  What
    the proof cannot settle, sympy decides (exact modular factorization +
    Hensel lifting + recombination).  Degrees above DEGREE_BUDGET are
    refused rather than answered heuristically.  Its one runtime caller
    is `cli.crosscheck_corpus`, whose trinomials have degree at most 12;
    the index engines never call it.
    """
    if not f.is_monic() or f.degree < 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if f.degree > DEGREE_BUDGET:
        raise DegreeBudgetExceeded(f"degree {f.degree} > budget {DEGREE_BUDGET}")
    # bit d set: a factor of degree d is still possible; 1..deg-1 are proper
    possible = (1 << f.degree) - 2
    for ell in islice(arith.primes(), IRREDUCIBILITY_PRIMES):
        if not possible:
            break
        try:
            pattern = degree_pattern(f, ell)
        except RamifiedPrime:
            continue
        sums = 1  # bit s set: some sub-multiset of the pattern sums to s
        for d in pattern:
            sums |= sums << d
        possible &= sums
    return not possible or bool(f.to_sympy().is_irreducible)
