"""Dense univariate polynomials over Z and over prime fields.

Integer polynomials are coefficient tuples, constant term first.  The
discriminant is computed from the resultant (via sympy's exact subresultant
machinery).  The package itself uses Swan's closed form; this route is the
independent oracle the tests compare it against.

Over F_q a polynomial is a plain reduced coefficient list, constant term
first, with no trailing zeros; there is no other F_q type.  Each routine
has one implementation: product, remainder with delayed reduction,
quotient, Euclid's gcd, powering, the squarefree split, the radical
(product of the distinct monic irreducible factors, from the squarefree
split; the Dedekind oracle needs nothing more) and the distinct-degree
split behind `degree_pattern`.  The full factorization
`factor_mod` (those splits + the Cantor-Zassenhaus equal-degree split) is
used by tests.

Irreducibility over Q is exact, with a certificate each way before
sympy: a degree-set proof from the factor degrees mod the first few
primes shows irreducibility, and an integer root, lifted from a root mod
the first unramified prime, shows reducibility.  sympy (modular
factorization with Hensel lifting and recombination) settles only what
neither can; this is sympy's only use at runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

import sympy

from . import arith

__all__ = [
    "IntPolynomial",
    "RamifiedPrime",
    "DegreeBudgetExceeded",
    "discriminant",
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


class RamifiedPrime(ValueError):
    """Prime divides the discriminant; no Frobenius degree pattern exists."""


class DegreeBudgetExceeded(Exception):
    """Degree above DEGREE_BUDGET, the bound for exact irreducibility testing."""


def _trim(c):
    """Drop the trailing zeros of the list c in place; return c."""
    while c and not c[-1]:
        c.pop()
    return c


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial over Z; coeffs[i] is the coefficient of x^i."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(_trim(list(coeffs))))

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
    """Reduced remainder of a by b over F_q.

    Given a list quo, the quotient goes into it instead and no remainder is
    formed: the result is None.  a may hold any integers; b is reduced and
    nonzero.  Each c*b is subtracted without reducing: a coefficient is
    reduced when it is read as the leading one, and the remainder once at
    the end.
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
    if quo is not None:
        return None
    del rem[db:]
    return _reduce(rem, q)


def _value(c, v):
    """The coefficient list c evaluated at the integer v (Horner)."""
    acc = 0
    for x in reversed(c):
        acc = acc * v + x
    return acc


def _quotient(a, b, q):
    """Quotient of a by b over F_q, as `_remainder` takes them."""
    quo = [0] * max(len(a) - len(b) + 1, 1)
    _remainder(a, b, q, quo)
    return _trim(quo)


def _monic(c, q):
    """The monic multiple of the reduced list c; the zero list stays."""
    if not c or c[-1] == 1:
        return c
    inv = pow(c[-1], -1, q)
    return [x * inv % q for x in c]


def _derivative(c, q):
    """The derivative of the reduced list c over F_q."""
    return _reduce([i * x for i, x in enumerate(c)][1:], q)


def _gcd(a, b, q):
    """Monic gcd of two reduced lists over F_q (Euclid)."""
    while b:
        a, b = b, _remainder(a, b, q)
    return _monic(a, q)


def _pow_mod(a, e, m, q):
    """a^e modulo the nonzero m over F_q, for a reduced a of lower degree.

    Left-to-right binary powering: one squaring per bit of e after the
    leading one, and one product by a per further set bit.
    """
    if not e:
        return [1]
    result = a
    for bit in bin(e)[3:]:
        result = _remainder(_product(result, result), m, q)
        if bit == "1":
            result = _remainder(_product(result, a), m, q)
    return result


def discriminant(f: IntPolynomial) -> int:
    """(-1)^{n(n-1)/2} * Res(f, f') / lc(f), computed exactly via resultants."""
    n = f.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    res = sympy.resultant(f.to_sympy(), f.derivative().to_sympy())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return int(sign * res // f.lc)


def _squarefree_parts(f, q, c=None):
    """Yield (multiplicity, squarefree factor) pairs, reduced lists over
    F_q, whose product is the monic multiple of the reduced list f.

    A caller that already holds c = gcd(f, f') of a monic f passes it in.
    """
    if len(f) <= 1:
        return
    if c is None:
        f = _monic(f, q)
        # f' = 0 gives c = f and w = 1: only the leftover branch runs
        c = _gcd(f, _derivative(f, q), q)
    w = _quotient(f, c, q)
    i = 1
    while len(w) > 1 and len(c) > 1:
        y = _gcd(w, c, q)
        part = _quotient(w, y, q)
        if len(part) > 1:
            yield i, part
        w = y
        c = _quotient(c, y, q)
        i += 1
    if len(w) > 1:
        # c = 1, so every factor left in w has multiplicity i
        yield i, w
    if len(c) > 1:
        # leftover factors all have multiplicity divisible by q; c is a
        # polynomial in x^q, and c[::q] is its q-th root
        for mult, part in _squarefree_parts(c[::q], q):
            yield mult * q, part


def _radical(f, q, c=None):
    """The product of the distinct monic irreducible factors of the
    nonzero reduced list f over F_q.

    The squarefree parts are pairwise coprime and each is the product of
    the irreducibles of one multiplicity, so their product is rad(f); no
    factor is split further.  A caller that already holds c = gcd(f, f')
    of a monic f passes it in, and that gcd is not taken again.
    """
    rad = [1]
    for _, part in _squarefree_parts(f, q, c):
        rad = _reduce(_product(rad, part), q)
    return rad


def _distinct_degree(f, q):
    """Split a squarefree monic reduced list f into (degree d, product of
    the degree-d factors) pairs."""
    h = [0, 1]  # x^(q^d) mod f
    d = 0
    out = []
    while len(f) > 2 * (d + 1):
        d += 1
        h = _pow_mod(h, q, f, q)
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] -= 1
        g = _gcd(f, _reduce(h_minus_x, q), q)
        if len(g) > 1:
            out.append((d, g))
            f = _quotient(f, g, q)
            h = _remainder(h, f, q)
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(f, d, q, rng):
    """Cantor-Zassenhaus split of the monic squarefree reduced list f,
    all of whose irreducible factors have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(q) for _ in range(n)])
        if len(a) < 2:
            continue
        if q % 2 == 1:
            b = _pow_mod(a, (q**d - 1) // 2, f, q) + [0]
            b[0] -= 1
        else:
            # trace map for characteristic 2
            b = a + [0] * (n - len(a))
            t = a
            for _ in range(d - 1):
                t = _pow_mod(t, q, f, q)
                for i, x in enumerate(t):
                    b[i] += x
        g = _gcd(f, _reduce(b, q), q)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, q, rng) + _equal_degree(
                _quotient(f, g, q), d, q, rng
            )


def factor_mod(f, q):
    """Factor the reduced list f over F_q: a list of (monic irreducible
    factor, multiplicity) pairs, the factors as reduced lists.

    The equal-degree split draws from a fixed-seed generator; the factors
    are unique and come in canonical order (by degree, then coefficients)
    whatever it draws.  Used by tests.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(0)
    out = []
    for mult, part in _squarefree_parts(f, q):
        for d, prod in _distinct_degree(part, q):
            for irr in _equal_degree(prod, d, q, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def degree_pattern(f: IntPolynomial, ell: int):
    """Multiset (sorted list) of irreducible factor degrees of f mod ell.

    Requires ell unramified (f squarefree mod ell, same thing for monic f);
    this is the Frobenius cycle type at ell.  The ramification test (the
    gcd of f and f' mod ell) and the distinct-degree factorization of f
    itself both run on reduced coefficient lists.  It runs at runtime
    inside `is_irreducible_over_Q`'s degree-set proof; it is also the
    tests' oracle for the cycle types that `galois_verify` reads off
    g mod ell for f = g(x^p).
    """
    fq = _reduce(f.coeffs, ell)
    if len(fq) != len(f.coeffs):
        raise RamifiedPrime(f"leading coefficient vanishes mod {ell}")
    if len(_gcd(fq, _derivative(fq, ell), ell)) != 1:
        raise RamifiedPrime(f"{ell} divides the discriminant")
    pattern = []
    for d, prod in _distinct_degree(_monic(fq, ell), ell):
        pattern.extend([d] * ((len(prod) - 1) // d))
    return sorted(pattern)


def _lift_root(r, ell, bound, newton):
    """Newton's lift of the root r of P mod the prime ell, with P'(r) a
    unit mod ell, to a modulus M > bound; its representative in (-M/2, M/2].

    newton(s, m) gives the pair (P(s), P'(s)), exactly or mod m.  Each
    step squares M, and the lift mod M is unique (Loos, SIAM J. Comput.
    12, 1983), so an integer root of P with |root| < bound/2 that reduces
    to r mod ell is the result.
    """
    m = ell
    while m <= bound:
        m *= m
        value, slope = newton(r, m)
        r = (r - value * pow(slope, -1, m)) % m
    return r - m if r > m // 2 else r


def _has_integer_root(f: IntPolynomial, ell: int) -> bool:
    """Whether the monic f, squarefree mod the prime ell, has a root in Z.

    An integer root r is a simple root mod ell, which `_lift_root` lifts.
    Cauchy's bound gives |r| < H = 1 + max|c_i|, so lifting past 2H and
    one exact evaluation settle each root mod ell.  The cost grows with
    log H, not with the divisors of f(0).
    """
    c, dc = f.coeffs, f.derivative().coeffs
    bound = 2 * (1 + max(map(abs, c)))
    for r in range(ell):
        if _value(c, r) % ell:
            continue
        r = _lift_root(r, ell, bound, lambda s, m: (_value(c, s), _value(dc, s)))
        if _value(c, r) == 0:
            return True
    return False


def is_irreducible_over_Q(f: IntPolynomial) -> bool:
    """Exact irreducibility over the rationals for monic f.

    A certificate each way, then sympy.  Irreducibility comes from a
    degree-set proof (Musser, J. ACM 25, 1978): a factor of f of degree d
    over Z reduces to a product of factors mod every unramified ell, so d
    is a sub-sum of each `degree_pattern`.  The first
    IRREDUCIBILITY_PRIMES primes are tried, ramified ones skipped; once no
    proper degree is a sub-sum of every pattern, f is irreducible.
    Reducibility comes from an integer root: at the first unramified ell
    whose pattern has a 1, each root mod ell is lifted and tested
    (`_has_integer_root`).  A root makes f reducible at once; without one
    f has no factor of degree 1, nor of degree deg f - 1, and the
    degree-set proof goes on.  What neither settles, sympy decides (exact
    modular factorization + Hensel lifting + recombination).  Degrees
    above DEGREE_BUDGET are refused rather than answered heuristically.
    Its one runtime caller is `cli.crosscheck_corpus`, whose trinomials
    have degree at most 12; the index engines never call it.
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
        # bit 1 lasts only to the first unramified ell: there a pattern
        # without a 1 clears it, and so does a certificate without a root
        if possible & 2 and 1 in pattern:
            if _has_integer_root(f, ell):
                return False
            possible &= ~(2 | 1 << (f.degree - 1))
        sums = 1  # bit s set: some sub-multiset of the pattern sums to s
        for d in pattern:
            sums |= sums << d
        possible &= sums
    return not possible or bool(f.to_sympy().is_irreducible)
