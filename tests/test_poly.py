import random
from itertools import zip_longest

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ

from monotri import arith, cli, poly
from monotri.poly import (
    DegreeBudgetExceeded,
    IntPolynomial,
    RamifiedPrime,
    _derivative,
    _gcd,
    _monic,
    _pow_mod,
    _product,
    _quotient,
    _radical,
    _reduce,
    _remainder,
    _trim,
    _value,
    degree_pattern,
    discriminant,
    factor_mod,
    is_irreducible_over_Q,
    trinomial,
)


def _gf(f):
    """Coefficients in galoistools' order, leading coefficient first."""
    return ZZ.map(f[::-1])


class TestReduceMod:
    def test_identity_below_modulus(self):
        assert _reduce([1, 3, 1], 5) == [1, 3, 1]

    def test_reduction(self):
        assert _reduce([5, 6, 1], 5) == [0, 1, 1]

    def test_h1_shape_mod_5(self):
        # H1 for (5, 3, 1) collapses to (x+4)^2 over F_5
        assert _reduce([1, 3, 1], 5) == _reduce(_product([4, 1], [4, 1]), 5)


class TestGcdMod:
    def test_paper_coprimality(self):
        h1 = _reduce([16, 8, 1], 5)  # (x+4)^2
        h2 = [0, 2, 2, 3, 4, 2]  # 2x(x^4+2x^3+3x^2+x+1)
        assert _gcd(h1, h2, 5) == [1]

    def test_common_factor(self):
        assert _gcd([0, 1, 1], [0, 1], 5) == [0, 1]

    def test_gcd_with_zero(self):
        g = _gcd([1, 3, 2], [], 5)
        assert g[-1] == 1 and len(g) == 3


@st.composite
def _dividend_and_divisor(draw):
    """(q, a, b) over F_q with degrees up to 30 in either order; b is
    nonzero and its leading coefficient is any unit, not only 1."""
    q = draw(st.sampled_from([2, 3, 5, 7, 101]))
    coeff = st.integers(0, q - 1)
    a = _trim(draw(st.lists(coeff, max_size=31)))
    b = draw(st.lists(coeff, max_size=30)) + [draw(st.integers(1, q - 1))]
    return q, a, b


class TestRemainder:
    @given(_dividend_and_divisor())
    @settings(max_examples=300, deadline=None)
    def test_equals_divmod_remainder(self, case):
        q, a, b = case
        quo, rem = _quotient(a, b, q), _remainder(a, b, q)
        assert [_gf(quo), _gf(rem)] == list(gt.gf_div(_gf(a), _gf(b), q, ZZ))
        pairs = zip_longest(_product(quo, b), rem, fillvalue=0)
        assert _reduce([x + y for x, y in pairs], q) == a

    def test_lower_degree_dividend_is_its_own_remainder(self):
        assert _remainder([3, 0, 5], [1, 2, 0, 4], 7) == [3, 0, 5]


@st.composite
def _kernel_cases(draw):
    """(q, a, b, m, e): a and b any reduced lists over F_q, zero included;
    m nonzero with any unit as leading coefficient, of any degree relative
    to a; e an exponent."""
    q = draw(st.sampled_from([2, 3, 7, 1000003]))
    coeff = st.integers(0, q - 1)
    a = _trim(draw(st.lists(coeff, max_size=16)))
    b = _trim(draw(st.lists(coeff, max_size=12)))
    m = draw(st.lists(coeff, max_size=10)) + [draw(st.integers(1, q - 1))]
    return q, a, b, m, draw(st.integers(0, 3 * q))


class TestKernelAgainstGaloistools:
    @given(_kernel_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_galoistools(self, case):
        q, a, b, m, e = case
        ga, gb, gm = _gf(a), _gf(b), _gf(m)
        assert _gf(_reduce(_product(a, b), q)) == gt.gf_mul(ga, gb, q, ZZ)
        assert [_gf(_quotient(a, m, q)), _gf(_remainder(a, m, q))] == list(
            gt.gf_div(ga, gm, q, ZZ)
        )
        assert _gf(_gcd(a, b, q)) == gt.gf_gcd(ga, gb, q, ZZ)
        power = _pow_mod(_remainder(a, m, q), e, m, q)
        assert _gf(power) == gt.gf_pow_mod(ga, e, gm, q, ZZ)
        assert _gf(_monic(m, q)) == gt.gf_monic(gm, q, ZZ)[1]
        assert _gf(_derivative(a, q)) == gt.gf_diff(ga, q, ZZ)
        for f in (a, m):
            if not f:
                continue
            gf = _gf(f)
            # the radical is the product of the squarefree parts
            rad = [ZZ(1)]
            for part, _ in gt.gf_sqf_list(gf, q, ZZ)[1]:
                rad = gt.gf_mul(rad, part, q, ZZ)
            assert _gf(_radical(f, q)) == rad
            # the same monic factors with the same multiplicities, in
            # canonical order
            factors = factor_mod(f, q)
            assert factors == sorted(factors, key=lambda t: (len(t[0]), t[0]))
            want = sorted(gt.gf_factor(gf, q, ZZ)[1])
            assert sorted((_gf(g), k) for g, k in factors) == want
            if gt.gf_sqf_p(gf, q, ZZ):
                factors = gt.gf_factor_sqf(gf, q, ZZ)[1]
                degrees = sorted(gt.gf_degree(g) for g in factors)
                assert degree_pattern(IntPolynomial(f), q) == degrees
            else:
                with pytest.raises(RamifiedPrime):
                    degree_pattern(IntPolynomial(f), q)


class TestDiscriminant:
    def test_quadratic_with_delta_5(self):
        assert discriminant(IntPolynomial([1, 3, 1])) == 5

    def test_family_sextic(self):
        assert discriminant(trinomial(6, 3, 1, 1)) == -19683

    def test_cyclotomic_quadratic(self):
        assert discriminant(IntPolynomial([1, 1, 1])) == -3

    def test_repeated_root(self):
        assert discriminant(trinomial(6, 3, 2, 1)) == 0


def _closed_form_trinomial_disc(n, m, A, B):
    """Independent closed form for monic trinomial discriminants (Swan)."""
    import math

    d0 = math.gcd(n, m)
    N, M = n // d0, m // d0
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    core = n**N * B ** (N - M) - (-1) ** N * (n - m) ** (N - M) * m**M * A**N
    return sign * B ** (m - 1) * core**d0


class TestClosedFormAgreement:
    def test_500_random_trinomials(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 500:
            n = rng.randrange(2, 13)
            m = rng.randrange(1, n)
            A = rng.choice([v for v in range(-20, 21) if v])
            B = rng.choice([v for v in range(-20, 21) if v])
            assert discriminant(trinomial(n, m, A, B)) == (
                _closed_form_trinomial_disc(n, m, A, B)
            )
            checked += 1


class TestFactorMod:
    def test_split_linear(self):
        assert factor_mod([0, 1, 1], 5) == [([0, 1], 1), ([1, 1], 1)]

    def test_repeated_factor(self):
        # (x+4)^2 = x^2 + 8x + 16
        assert factor_mod(_reduce([16, 8, 1], 5), 5) == [([4, 1], 2)]

    def test_inert_quadratic(self):
        # F_5 has no square root of -2: exhaustive root check
        assert all((x * x + 2) % 5 for x in range(5))
        assert factor_mod([2, 0, 1], 5) == [([2, 0, 1], 1)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_mod([], 5)

    @pytest.mark.parametrize("q", [2, 3, 5, 13])
    def test_remultiplies_and_factors_irreducible(self, q):
        rng = random.Random(q)
        for _ in range(60):
            f = [rng.randrange(q) for _ in range(rng.randrange(1, 8))]
            f.append(rng.randrange(1, q))
            prod = [f[-1]]
            for g, e in factor_mod(f, q):
                assert g[-1] == 1
                # no roots certifies irreducibility up to degree 3;
                # above that a full distinct-degree split of g must be trivial
                if 2 < len(g) <= 4:
                    assert all(_value(g, x) % q for x in range(q))
                elif len(g) > 4:
                    assert factor_mod(g, q) == [(g, 1)]
                for _ in range(e):
                    prod = _reduce(_product(prod, g), q)
            assert prod == f


@st.composite
def _powered_products(draw):
    """(q, f) with f a product of random monic factors over F_q, each raised
    to a multiplicity in {1, 2, q, 2q}."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    f = [1]
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
        for _ in range(draw(st.sampled_from([1, 2, q, 2 * q]))):
            f = _reduce(_product(f, low + [1]), q)
    return q, f


@st.composite
def _radical_cases(draw):
    """(q, f) with f a unit times monic factors over F_q raised to
    multiplicities up to 7, deg f <= 12: both deg f < q, and deg f >= q
    for q <= 7."""
    q = draw(st.sampled_from([2, 3, 5, 7, 13, 101, 2**31 - 1]))
    f = [draw(st.integers(1, q - 1))]
    for _ in range(draw(st.integers(0, 4))):
        low = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
        e = draw(st.integers(1, 7))
        if len(f) - 1 + e * len(low) <= 12:
            for _ in range(e):
                f = _reduce(_product(f, low + [1]), q)
    return q, f


class TestRadicalMod:
    def test_examples(self):
        # (x + 1)^2 (x + 2) over F_5
        assert _radical([2, 0, 4, 1], 5) == [2, 3, 1]
        # x^4 + 1 = (x + 1)^4 over F_2: the multiplicity is a power of q
        assert _radical([1, 0, 0, 0, 1], 2) == [1, 1]
        # the radical is monic
        assert _radical([3, 3], 7) == [1, 1]

    @given(st.one_of(_powered_products(), _radical_cases()))
    @settings(max_examples=400, deadline=None)
    def test_equals_product_of_distinct_irreducibles(self, case):
        q, f = case
        prod = [1]
        for g, _ in factor_mod(f, q):
            prod = _reduce(_product(prod, g), q)
        assert _radical(f, q) == prod


class TestDegreePattern:
    def test_split_quadratic(self):
        # 3^2 - 4 = 5 is a quadratic residue mod 11 (4^2 = 16 = 5)
        assert any(x * x % 11 == 5 for x in range(11))
        assert degree_pattern(IntPolynomial([1, 3, 1]), 11) == [1, 1]

    def test_inert_quadratic(self):
        assert not any(x * x % 3 == 2 for x in range(3))
        assert degree_pattern(IntPolynomial([1, 3, 1]), 3) == [2]

    def test_degree_conservation(self):
        assert sum(degree_pattern(trinomial(6, 3, 1, 1), 7)) == 6

    def test_ramified_prime_rejected(self):
        with pytest.raises(RamifiedPrime):
            degree_pattern(trinomial(6, 3, 1, 1), 3)
        # 3x^2 + x + 1 loses its leading coefficient mod 3
        with pytest.raises(RamifiedPrime):
            degree_pattern(IntPolynomial([1, 1, 3]), 3)

    @given(st.sampled_from([7, 11, 13, 17, 19, 23]))
    @settings(max_examples=20, deadline=None)
    def test_pattern_sums_to_degree(self, ell):
        f = trinomial(10, 5, 3, 1)
        if 5**15 % ell == 0:
            return
        assert sum(degree_pattern(f, ell)) == 10


def _count_sympy_calls(monkeypatch):
    """A list that grows by one for each IntPolynomial.to_sympy call."""
    calls = []
    to_sympy = IntPolynomial.to_sympy

    def counting(f):
        calls.append(f)
        return to_sympy(f)

    monkeypatch.setattr(IntPolynomial, "to_sympy", counting)
    return calls


def _from_sympy(p):
    return IntPolynomial([int(c) for c in reversed(p.all_coeffs())])


_X = sympy.Symbol("x")
_CYCLOTOMIC = [
    _from_sympy(sympy.Poly(sympy.cyclotomic_poly(k, _X), _X))
    for k in range(1, 31)
    if sympy.totient(k) <= 7
]
# Irreducible, yet reducible modulo every prime: x^4 + 1 and the
# Swinnerton-Dyer polynomials of sqrt2 + sqrt3 and sqrt2 + sqrt3 + sqrt5.
_EVERYWHERE_SPLIT = [
    IntPolynomial([1, 0, 0, 0, 1]),
    IntPolynomial([1, 0, -10, 0, 1]),
    IntPolynomial([576, 0, -960, 0, 352, 0, -40, 0, 1]),
]


@st.composite
def _monic_polynomials(draw):
    """Monic integer polynomials of degree 1-14: random ones, products,
    products with a repeated factor, products with a linear factor,
    cyclotomic products and polynomials reducible modulo every prime."""

    def monic(lo, hi, size=20):
        n = draw(st.integers(lo, hi))
        low = draw(st.lists(st.integers(-size, size), min_size=n, max_size=n))
        return IntPolynomial(low + [1]).to_sympy()

    kinds = ["random", "product", "square", "linear factor", "special"]
    kind = draw(st.sampled_from(kinds))
    if kind == "linear factor":
        # (x - r) g or (x - r)^2 g, with the root r at 0, at 1 or -1, or
        # at +-H, H = 1 + max|g_i| the Cauchy bound of g; |f(0)| reaches
        # about 10^60
        g = monic(0, 6, 10**20)
        bound = 1 + max(abs(int(c)) for c in g.all_coeffs())
        r = draw(st.sampled_from([0, 1, -1, bound, -bound]))
        linear = sympy.Poly(_X - r, _X)
        return _from_sympy(linear ** draw(st.integers(1, 2)) * g)
    if kind == "random":
        return _from_sympy(monic(1, 14))
    if kind == "product":
        return _from_sympy(monic(1, 7) * monic(1, 7))
    if kind == "square":
        return _from_sympy(monic(1, 5) ** 2 * monic(0, 4))
    special = st.sampled_from(_EVERYWHERE_SPLIT + _CYCLOTOMIC)
    f = draw(special).to_sympy()
    for _ in range(draw(st.integers(0, 1))):
        f *= draw(special).to_sympy()
    return _from_sympy(f)


class TestIrreducibility:
    def test_monogenic_family_member(self):
        assert is_irreducible_over_Q(trinomial(10, 5, 3, 1))

    def test_square_of_cubic(self):
        assert not is_irreducible_over_Q(trinomial(6, 3, 2, 1))

    def test_square_of_shifted_cubic(self):
        assert not is_irreducible_over_Q(trinomial(6, 3, -4, 4))

    def test_zero_discriminant_never_irreducible(self):
        for f in (trinomial(6, 3, 2, 1), trinomial(6, 3, -2, 1)):
            assert discriminant(f) == 0
            assert not is_irreducible_over_Q(f)

    def test_substitution_symmetry_for_unit_b(self):
        # f(x) and f(-x) agree on irreducibility for the paper family
        for p, a, b in [(3, 1, 1), (3, 4, 1), (5, 3, 1), (5, 1, -1), (3, 7, 1)]:
            f = trinomial(2 * p, p, a, b**p)
            g = trinomial(2 * p, p, -a, b**p)  # f(-x) for even 2p, odd p
            assert is_irreducible_over_Q(f) == is_irreducible_over_Q(g)

    def test_swinnerton_dyer_falls_through_to_sympy(self, monkeypatch):
        # reducible into factors of degree <= 2 mod every prime, so no
        # degree pattern rules out a quadratic factor
        calls = _count_sympy_calls(monkeypatch)
        assert is_irreducible_over_Q(IntPolynomial([1, 0, -10, 0, 1]))
        assert len(calls) == 1

    def test_integer_root_needs_no_sympy(self, monkeypatch):
        # x^5 - 3x^2 + 2 has the root 1, a simple root mod 3, the first
        # unramified prime; the lift settles it
        calls = _count_sympy_calls(monkeypatch)
        assert not is_irreducible_over_Q(trinomial(5, 2, -3, 2))
        assert calls == []

    def test_degree_proof_needs_no_sympy(self, monkeypatch):
        calls = _count_sympy_calls(monkeypatch)
        assert is_irreducible_over_Q(trinomial(10, 5, 3, 1))
        assert is_irreducible_over_Q(IntPolynomial([-2, 0, 0, 0, 0, 1]))
        assert is_irreducible_over_Q(IntPolynomial([5, 1]))
        assert calls == []

    def test_proof_settles_most_of_the_crosscheck_corpus(self, monkeypatch):
        tried = []
        proof = poly.is_irreducible_over_Q

        def counting(f):
            tried.append(f)
            return proof(f)

        monkeypatch.setattr(poly, "is_irreducible_over_Q", counting)
        calls = _count_sympy_calls(monkeypatch)
        cli.crosscheck_corpus(100, 0)
        # 6 of the 106 candidates reach sympy; 10% leaves room
        assert len(tried) > 100 and len(calls) < 0.1 * len(tried)

    @given(_monic_polynomials())
    @settings(max_examples=400, deadline=None)
    def test_matches_sympy(self, f):
        assert is_irreducible_over_Q(f) == bool(f.to_sympy().is_irreducible)

    def test_degree_budget(self):
        c = [0] * 51
        c[0] = 1
        c[50] = 1
        with pytest.raises(DegreeBudgetExceeded):
            is_irreducible_over_Q(IntPolynomial(c))
