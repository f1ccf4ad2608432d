import random

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
    ModPolynomial,
    ModulusMismatch,
    RamifiedPrime,
    degree_pattern,
    discriminant,
    factor_mod,
    gcd_mod,
    is_irreducible_over_Q,
    radical_mod,
    reduce_mod,
    trinomial,
)


class TestReduceMod:
    def test_identity_below_modulus(self):
        assert reduce_mod(IntPolynomial([1, 3, 1]), 5).coeffs == (1, 3, 1)

    def test_reduction(self):
        assert reduce_mod(IntPolynomial([5, 6, 1]), 5).coeffs == (0, 1, 1)

    def test_h1_shape_mod_5(self):
        # H1 for (5, 3, 1) collapses to (x+4)^2 over F_5
        h1 = reduce_mod(IntPolynomial([1, 3, 1]), 5)
        square = ModPolynomial(5, [4, 1]) * ModPolynomial(5, [4, 1])
        assert h1.coeffs == square.coeffs


class TestGcdMod:
    def test_paper_coprimality(self):
        h1 = ModPolynomial(5, [16, 8, 1])  # (x+4)^2
        h2 = ModPolynomial(5, [0, 2, 2, 3, 4, 2])  # 2x(x^4+2x^3+3x^2+x+1)
        assert gcd_mod(h1, h2).coeffs == (1,)

    def test_common_factor(self):
        assert gcd_mod(
            ModPolynomial(5, [0, 1, 1]), ModPolynomial(5, [0, 1])
        ).coeffs == (0, 1)

    def test_gcd_with_zero(self):
        f = ModPolynomial(5, [1, 3, 2])
        g = gcd_mod(f, ModPolynomial(5, []))
        assert g.lc == 1 and g.degree == f.degree

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            gcd_mod(ModPolynomial(5, [1, 1]), ModPolynomial(7, [1, 1]))


@st.composite
def _dividend_and_divisor(draw):
    """(a, b) over F_q with degrees up to 30 in either order; b is nonzero
    and its leading coefficient is any unit, not only 1."""
    q = draw(st.sampled_from([2, 3, 5, 7, 101]))
    coeff = st.integers(0, q - 1)
    a = draw(st.lists(coeff, max_size=31))
    b = draw(st.lists(coeff, max_size=30)) + [draw(st.integers(1, q - 1))]
    return ModPolynomial(q, a), ModPolynomial(q, b)


class TestRemainder:
    @given(_dividend_and_divisor())
    @settings(max_examples=300, deadline=None)
    def test_equals_divmod_remainder(self, case):
        a, b = case
        quo, rem = divmod(a, b)
        assert a % b == rem
        assert quo * b + rem == a

    def test_lower_degree_dividend_is_its_own_remainder(self):
        a = ModPolynomial(7, [3, 0, 5])
        assert a % ModPolynomial(7, [1, 2, 0, 4]) == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ModPolynomial(5, [1, 1]) % ModPolynomial(5, [])

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            ModPolynomial(5, [1, 1]) % ModPolynomial(7, [1, 1])


@st.composite
def _kernel_cases(draw):
    """(q, a, b, m, e): a and b any polynomials over F_q, zero included;
    m nonzero with any unit as leading coefficient, of any degree relative
    to a; e an exponent."""
    q = draw(st.sampled_from([2, 3, 7, 1000003]))
    coeff = st.integers(0, q - 1)
    a = ModPolynomial(q, draw(st.lists(coeff, max_size=16)))
    b = ModPolynomial(q, draw(st.lists(coeff, max_size=12)))
    m = ModPolynomial(
        q, draw(st.lists(coeff, max_size=10)) + [draw(st.integers(1, q - 1))]
    )
    return q, a, b, m, draw(st.integers(0, 3 * q))


def _gf(f):
    """Coefficients in galoistools' order, leading coefficient first."""
    return ZZ.map(list(reversed(f.coeffs)))


class TestKernelAgainstGaloistools:
    @given(_kernel_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_galoistools(self, case):
        q, a, b, m, e = case
        assert _gf(a * b) == gt.gf_mul(_gf(a), _gf(b), q, ZZ)
        quo, rem = divmod(a, m)
        assert [_gf(quo), _gf(rem)] == list(gt.gf_div(_gf(a), _gf(m), q, ZZ))
        assert _gf(a % m) == gt.gf_rem(_gf(a), _gf(m), q, ZZ)
        assert _gf(gcd_mod(a, b)) == gt.gf_gcd(_gf(a), _gf(b), q, ZZ)
        assert _gf(a.pow_mod(e, m)) == gt.gf_pow_mod(_gf(a), e, _gf(m), q, ZZ)
        assert _gf(m.monic()) == gt.gf_monic(_gf(m), q, ZZ)[1]
        assert _gf(a.derivative()) == gt.gf_diff(_gf(a), q, ZZ)
        for f in (a, m):
            if f.is_zero():
                continue
            # the radical is the product of the squarefree parts
            rad = [ZZ(1)]
            for part, _ in gt.gf_sqf_list(_gf(f), q, ZZ)[1]:
                rad = gt.gf_mul(rad, part, q, ZZ)
            assert _gf(radical_mod(f)) == rad
            f_int = IntPolynomial(f.coeffs)
            if gt.gf_sqf_p(_gf(f), q, ZZ):
                factors = gt.gf_factor_sqf(_gf(f), q, ZZ)[1]
                degrees = sorted(gt.gf_degree(g) for g in factors)
                assert degree_pattern(f_int, q) == degrees
            else:
                with pytest.raises(RamifiedPrime):
                    degree_pattern(f_int, q)


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
        fs = factor_mod(ModPolynomial(5, [0, 1, 1]))
        assert [(f.coeffs, e) for f, e in fs] == [((0, 1), 1), ((1, 1), 1)]

    def test_repeated_factor(self):
        fs = factor_mod(ModPolynomial(5, [16, 8, 1]))
        assert [(f.coeffs, e) for f, e in fs] == [((4, 1), 2)]

    def test_inert_quadratic(self):
        # F_5 has no square root of -2: exhaustive root check
        assert all((x * x + 2) % 5 for x in range(5))
        fs = factor_mod(ModPolynomial(5, [2, 0, 1]))
        assert [(f.coeffs, e) for f, e in fs] == [((2, 0, 1), 1)]

    @pytest.mark.parametrize("q", [2, 3, 5, 13])
    def test_remultiplies_and_factors_irreducible(self, q):
        rng = random.Random(q)
        for trial in range(60):
            coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, 8))]
            coeffs.append(rng.randrange(1, q))
            f = ModPolynomial(q, coeffs)
            fs = factor_mod(f, seed=trial)
            prod = ModPolynomial(q, [f.lc])
            for g, e in fs:
                assert g.lc == 1
                # no roots certifies irreducibility up to degree 3;
                # above that a full distinct-degree split of g must be trivial
                if g.degree <= 3 and g.degree > 1:
                    assert all(g(x) != 0 for x in range(q))
                elif g.degree > 3:
                    assert [(gg.coeffs, ee) for gg, ee in factor_mod(g)] == [
                        (g.coeffs, 1)
                    ]
                for _ in range(e):
                    prod = prod * g
            assert prod.coeffs == f.coeffs


@st.composite
def _powered_products(draw):
    """(q, f) with f a product of random monic factors over F_q, each raised
    to a multiplicity in {1, 2, q, 2q}."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    f = ModPolynomial(q, [1])
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
        factor = ModPolynomial(q, low + [1])
        for _ in range(draw(st.sampled_from([1, 2, q, 2 * q]))):
            f = f * factor
    return q, f


class TestRadicalMod:
    def test_examples(self):
        # (x + 1)^2 (x + 2) over F_5
        assert radical_mod(ModPolynomial(5, [2, 0, 4, 1])).coeffs == (2, 3, 1)
        # x^4 + 1 = (x + 1)^4 over F_2: the multiplicity is a power of q
        assert radical_mod(ModPolynomial(2, [1, 0, 0, 0, 1])).coeffs == (1, 1)
        # the radical is monic
        assert radical_mod(ModPolynomial(7, [3, 3])).coeffs == (1, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            radical_mod(ModPolynomial(3, []))

    @given(_powered_products())
    @settings(max_examples=150, deadline=None)
    def test_equals_product_of_distinct_irreducibles(self, case):
        q, f = case
        prod = ModPolynomial(q, [1])
        for g, _ in factor_mod(f):
            prod = prod * g
        assert radical_mod(f) == prod


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
