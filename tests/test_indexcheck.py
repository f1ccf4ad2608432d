import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ

from monotri import arith, cli, indexcheck, poly
from monotri import classify as cls
from monotri.arith import FactorizationBudgetExceeded
from monotri.indexcheck import (
    GeneralTrinomial,
    NotADiscriminantPrime,
    Reducible,
    _build_h2,
    dedekind_divides_index,
    jks_index_free,
    swan_general_discriminant,
    trinomial_is_monogenic,
)
from monotri.poly import IntPolynomial


def big_integer_h2(A, B, s, Q, q):
    """Oracle: H2 = (A x^{sQ} + B + (-A x^s - B)^Q) / q over Z, exactly.

    term runs through C(Q,i) (-A)^i (-B)^{Q-i}; each step multiplies it by
    (Q-i) A and divides it by i+1 and then by B, both exactly.
    """
    coeffs = [0] * (s * Q + 1)
    term = (-B) ** Q
    for i in range(Q + 1):
        c = term + (B if i == 0 else 0) + (A if i == Q else 0)
        coeffs[s * i], rem = divmod(c, q)
        assert rem == 0, "H2 numerator not divisible by q"
        if i < Q:
            term = term * ((Q - i) * A) // (i + 1) // B
    return IntPolynomial(coeffs)


def random_irreducible_corpus(size, seed, n_max=12, coeff_max=20):
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        n = rng.randrange(2, n_max + 1)
        m = rng.randrange(1, n)
        A = rng.choice([v for v in range(-coeff_max, coeff_max + 1) if v])
        B = rng.choice([v for v in range(-coeff_max, coeff_max + 1) if v])
        t = GeneralTrinomial(n, m, A, B)
        if swan_general_discriminant(t) == 0:
            continue
        # sympy alone: the oracle for poly.is_irreducible_over_Q's proof
        if not t.polynomial().to_sympy().is_irreducible:
            continue
        out.append(t)
    return out


class TestSwanGeneralDiscriminant:
    def test_family_sextic(self):
        assert swan_general_discriminant(GeneralTrinomial(6, 3, 1, 1)) == -19683

    def test_family_degree_ten(self):
        assert swan_general_discriminant(GeneralTrinomial(10, 5, 3, 1)) == 5**15

    def test_quadratic(self):
        assert swan_general_discriminant(GeneralTrinomial(2, 1, 3, 1)) == 5

    def test_matches_resultant_on_corpus(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randrange(2, 13)
            m = rng.randrange(1, n)
            A = rng.choice([v for v in range(-20, 21) if v])
            B = rng.choice([v for v in range(-20, 21) if v])
            t = GeneralTrinomial(n, m, A, B)
            assert swan_general_discriminant(t) == poly.discriminant(
                t.polynomial()
            )

    @given(
        st.integers(2, 30),
        st.data(),
        st.integers(-50, 50).filter(bool),
        st.integers(-50, 50).filter(bool),
    )
    @settings(max_examples=200, deadline=None)
    def test_resolvent_is_core_and_branch_v_criterion(self, n, data, A, B):
        m = data.draw(st.integers(1, n - 1))
        t = GeneralTrinomial(n, m, A, B)
        d0, n1, m1 = t.d0, t.n1, t.m1
        swan_core = n**n1 * B ** (n1 - m1) - (-1) ** n1 * (n - m) ** (
            n1 - m1
        ) * m**m1 * A**n1
        jks_v = B ** (n1 - m1) * n1**n1 - (-1) ** m1 * A**n1 * m1**m1 * (
            m1 - n1
        ) ** (n1 - m1)
        assert swan_core == d0**n1 * t.resolvent
        assert jks_v == t.resolvent


class TestDiscProperty:
    def test_is_swan_and_cached(self, monkeypatch):
        calls = []

        def counting(t):
            calls.append(t)
            return swan_general_discriminant(t)

        monkeypatch.setattr(indexcheck, "swan_general_discriminant", counting)
        t = GeneralTrinomial(10, 5, 3, 1)
        assert t.disc == t.disc == 5**15
        assert len(calls) == 1

    def test_invisible_to_eq_hash_repr(self):
        t, u = GeneralTrinomial(6, 3, 1, 1), GeneralTrinomial(6, 3, 1, 1)
        before = repr(t)
        assert t.disc == -19683
        assert t == u and hash(t) == hash(u)
        assert repr(t) == before == "GeneralTrinomial(n=6, m=3, A=1, B=1)"


def exact_branch_ii_iii(t, q):
    """Oracle: the branch (ii) or (iii) verdict on exact integers, every
    power formed in full before it is reduced mod q."""
    n, m, A, B, n1, m1 = t.n, t.m, t.A, t.B, t.n1, t.m1
    if A % q == 0:
        a2 = A // q
        b1 = (B + (-B) ** (q ** arith.valuation(n, q))) // q
        first = a2 % q == 0 and b1 % q != 0
        second = (a2 * ((-B) ** m1 * a2**n1 - (-b1) ** n1)) % q != 0
    else:
        a1 = (A + (-A) ** (q ** arith.valuation(n - m, q))) // q
        b2 = B // q
        first = a1 % q == 0 and b2 % q != 0
        second = (
            a1
            * b2 ** (m - 1)
            * ((-A) ** m1 * a1 ** (n1 - m1) - (-b2) ** (n1 - m1))
        ) % q != 0
    return not (first or second)


@st.composite
def _branch_ii_iii_cases(draw):
    """(t, q) with q | disc and exactly one of q | A, q | B.  B is often
    +-2^p with p <= 211, at q odd in (ii) and at q = 2 in (iii); the
    family shape x^2q + A x^q + B reaches q up to 211."""
    nonzero = st.integers(-(10**4), 10**4).filter(bool)
    power_of_two = st.builds(
        lambda s, p: s * 2**p, st.sampled_from([1, -1]), st.integers(1, 211)
    )
    if draw(st.booleans()):
        q = draw(st.sampled_from([17, 101, 211]))
        n, m = 2 * q, q
    else:
        q = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
        n = draw(st.integers(2, 36))
        m = draw(st.integers(1, n - 1))
    if draw(st.booleans()):  # (ii): q | A, q ∤ B, and q | n
        n -= n % q
        assume(n >= 2)
        m = min(m, n - 1)
        A = q * draw(nonzero)
        B = draw(power_of_two if q > 2 else unit_mod(q))
    else:  # (iii): q ∤ A, q | B
        A = draw(unit_mod(q))
        B = draw(power_of_two) if q == 2 else q * draw(nonzero)
    if B % q and draw(st.booleans()):
        B = draw(unit_mod(q))
    t = GeneralTrinomial(n, m, A, B)
    assume(t.disc != 0 and t.disc % q == 0)
    return t, q


class TestJksIndexFree:
    @pytest.mark.parametrize("q", [-5, -2, 0, 1])
    def test_rejects_q_below_two(self, q):
        t = GeneralTrinomial(3, 1, 5, 5)
        with pytest.raises(arith.NotPrime):
            jks_index_free(t, q)

    def test_condition_iv_degree_ten(self):
        v = jks_index_free(GeneralTrinomial(10, 5, 3, 1), 5)
        assert not v.divides_index and v.condition_used == "iv"

    @pytest.mark.parametrize("A", [1, -1])
    def test_condition_iv_sextics(self, A):
        v = jks_index_free(GeneralTrinomial(6, 3, A, 1), 3)
        assert not v.divides_index and v.condition_used == "iv"

    def test_condition_v_quadratic(self):
        v = jks_index_free(GeneralTrinomial(2, 1, 3, 1), 5)
        assert not v.divides_index and v.condition_used == "v"

    def test_h2_shape_for_sextics(self):
        # H2 for x^6 +- x^3 + 1 at q=3 is -x(x +- 1) mod 3
        for A in (1, -1):
            assert _build_h2(A, 1, 1, 3, 3) == poly._reduce([0, -A, -1], 3)

    @pytest.mark.parametrize("p, b", [(101, 3), (211, 2)])
    def test_huge_b1_is_cited_by_size(self, p, b):
        # b1 = (b^p + (-b^p)^p)/p has about p^2 log2(b) bits, past the
        # 4300-digit limit of str()
        t = GeneralTrinomial(2 * p, p, p, b**p)
        v = jks_index_free(t, p)
        assert v.condition_used == "ii"
        assert "b1=a negative " in v.detail and "-bit integer ending 0x" in v.detail
        assert v.divides_index == dedekind_divides_index(t.polynomial(), p)

    def test_rejects_non_discriminant_prime(self):
        with pytest.raises(NotADiscriminantPrime):
            jks_index_free(GeneralTrinomial(10, 5, 3, 1), 7)

    def test_rejects_repeated_roots(self):
        t = GeneralTrinomial(6, 3, 2, 1)  # (x^3 + 1)^2
        with pytest.raises(Reducible, match="zero discriminant"):
            jks_index_free(t, 3)

    def test_degree_106_needs_no_irreducibility_test(self):
        # x^106 + 12345 x^53 + 2^53: q = 53 divides m but not AB
        v = jks_index_free(GeneralTrinomial(106, 53, 12345, 2**53), 53)
        assert v.q == 53 and v.condition_used == "iv"

    @given(_branch_ii_iii_cases())
    @settings(max_examples=300, deadline=None)
    def test_branches_ii_iii_match_exact_integers(self, case):
        t, q = case
        v = jks_index_free(t, q)
        assert v.condition_used == ("ii" if t.A % q == 0 else "iii")
        assert v.divides_index == exact_branch_ii_iii(t, q)

    def test_branch_ii_at_a_large_power_of_two(self):
        # (-b1)^2 has about 2 * 1009^2 bits; mod q it is one pow
        t = GeneralTrinomial(2 * 1009, 1009, 1009, 2**1009)
        v = jks_index_free(t, 1009)
        assert v.condition_used == "ii"
        assert v.divides_index == exact_branch_ii_iii(t, 1009)

    def test_exactly_one_condition_fires(self):
        # dispatch is a partition on (q|A, q|B, q|m)
        cases = {
            ("i",): GeneralTrinomial(4, 1, 2, 2),
            ("ii",): GeneralTrinomial(4, 1, 2, 3),
            ("iii",): GeneralTrinomial(4, 1, 3, 2),
        }
        for (cond,), t in cases.items():
            d = swan_general_discriminant(t)
            q = 2
            if d % q:
                continue
            v = jks_index_free(t, q)
            assert v.condition_used == cond


def unit_mod(q):
    """Integers in [-10^6, 10^6] prime to q."""
    return st.integers(-(10**6), 10**6).filter(lambda v: v % q != 0)


class TestBuildH2:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_big_integer_h2_mod_q(self, data):
        # Q <= 13^3 = 2197 keeps the exact oracle fast
        q = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
        r = data.draw(st.integers(1, 3))
        s = data.draw(st.integers(1, 3))
        A, B = data.draw(unit_mod(q)), data.draw(unit_mod(q))
        Q = q**r
        expect = poly._reduce(big_integer_h2(A, B, s, Q, q).coeffs, q)
        assert _build_h2(A, B, s, Q, q) == expect

    @pytest.mark.parametrize(
        "q, r, s, A, B",
        [
            (2, 5, 3, 999_999, -1_000_001),
            (3, 4, 2, -999_998, 1_000_000),
            (101, 1, 3, 1_000_003, -999_997),
            (1373, 1, 1, -1_000_001, 999_999),
        ],
    )
    def test_matches_big_integer_h2_pinned(self, q, r, s, A, B):
        Q = q**r
        expect = poly._reduce(big_integer_h2(A, B, s, Q, q).coeffs, q)
        assert _build_h2(A, B, s, Q, q) == expect

    @pytest.mark.parametrize("z", [1, 3, 5, 7, 13, 17, 27])
    def test_engine_matches_dedekind_on_corollary_families(self, z):
        # (p, z, -1) with p = z^2 + 4: branch (iv) at q = p with Q = p
        p = z * z + 4
        t = GeneralTrinomial(2 * p, p, z, -1)
        v = jks_index_free(t, p)
        assert v.condition_used == "iv"
        assert v.divides_index == dedekind_divides_index(t.polynomial(), p)

    @pytest.mark.parametrize("p", [173, 293, 733])
    def test_engine_matches_dedekind_with_both_verdicts(self, p):
        # branch (iv) at q = p; p divides the index at A = p^2 - 2 only
        verdicts = []
        for A in (p * p - 2, p + 2):
            t = GeneralTrinomial(2 * p, p, A, 1)
            v = jks_index_free(t, p)
            assert v.condition_used == "iv"
            assert v.divides_index == dedekind_divides_index(t.polynomial(), p)
            verdicts.append(v.divides_index)
        assert verdicts == [True, False]

    def test_engine_matches_dedekind_at_q_squared(self):
        # x^18 + A x^9 + B at q = 3: 9 | gcd(18, 9), so Q = 9 (r = 2)
        seen = set()
        for A, B in [(1, 1), (-8, -1), (-7, 1), (-5, -5), (4, 7), (-8, 7)]:
            t = GeneralTrinomial(18, 9, A, B)
            v = jks_index_free(t, 3)
            assert v.condition_used == "iv"
            assert v.divides_index == dedekind_divides_index(t.polynomial(), 3)
            seen.add(v.divides_index)
        assert seen == {True, False}


def textbook_dedekind(f, q):
    """Oracle, on sympy's galoistools alone: Dedekind's criterion with g
    the product of the distinct irreducible factors of f mod q from
    gf_factor, and h = (f mod q)/g.  T = (g*h - f)/q is formed under the
    [0, q) lift and the symmetric lift; the verdict gcd(T, g, h) mod q must
    not depend on the lift.  Lists here are leading coefficient first."""
    fbar = gt.gf_from_int_poly(f.coeffs[::-1], q)
    gbar = [ZZ(1)]
    for irr, _ in gt.gf_factor(fbar, q, ZZ)[1]:
        gbar = gt.gf_mul(gbar, irr, q, ZZ)
    hbar = gt.gf_quo(fbar, gbar, q, ZZ)
    verdicts = set()
    for lift in (lambda c: c, lambda c: c - q if c > q // 2 else c):
        diff = [-c for c in f.coeffs]
        for i, gi in enumerate(reversed(gbar)):
            for j, hj in enumerate(reversed(hbar)):
                diff[i + j] += lift(gi) * lift(hj)
        assert all(c % q == 0 for c in diff)
        tbar = gt.gf_from_int_poly([c // q for c in reversed(diff)], q)
        d = gt.gf_gcd(gt.gf_gcd(tbar, gbar, q, ZZ), hbar, q, ZZ)
        verdicts.add(gt.gf_degree(d) > 0)
    assert len(verdicts) == 1, "the verdict depends on the lift"
    return verdicts.pop()


@st.composite
def _planted_multiplicity_cases(draw):
    """(f, q): monic f over Z whose reduction mod q is a product of monic
    factors of degree 1 or 2 raised to 1, 2, q or 2q (1 or 2 for the large
    q), lifted to Z with a random multiple of q added below the leading
    term.  Half of them plant a lone double root r mod q (r = 0 among
    them) beside factors raised to 1, and may shift the constant term so
    that f(r) is 0 or q mod q^2."""
    q = draw(st.sampled_from([2, 3, 5, 7, 101, 10007]))
    exponents = [1, 2, q, 2 * q] if q < 100 else [1, 2]
    lone = draw(st.booleans())
    fbar = [1]
    if lone:
        r = draw(st.one_of(st.just(0), st.integers(0, q - 1)))
        fbar = poly._reduce([r * r, -2 * r, 1], q)
        exponents = [1]
    for _ in range(draw(st.integers(0, 4) if lone else st.integers(1, 3))):
        deg = draw(st.integers(1, 2))
        coeffs = draw(st.lists(st.integers(0, q - 1), min_size=deg, max_size=deg))
        for _ in range(draw(st.sampled_from(exponents))):
            fbar = poly._reduce(poly._product(fbar, coeffs + [1]), q)
    n = len(fbar) - 1
    noise = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    coeffs = [c + q * e for c, e in zip(fbar[:n], noise)] + [1]
    shift = draw(st.sampled_from([None, 0, q])) if lone else None
    if shift is not None:
        # f(r) = 0 mod q, so this keeps f mod q
        coeffs[0] += shift - poly._value(coeffs, r) % (q * q)
    return IntPolynomial(coeffs), q


class TestDedekind:
    def test_index_two_in_sqrt5(self):
        # Z[sqrt(5)] has index 2 in the maximal order of Q(sqrt 5)
        assert dedekind_divides_index(IntPolynomial([-5, 0, 1]), 2) is True

    def test_squarefree_discriminant(self):
        assert dedekind_divides_index(IntPolynomial([1, 3, 1]), 5) is False

    def test_cubic_with_prime_discriminant(self):
        assert dedekind_divides_index(IntPolynomial([-1, -1, 0, 1]), 23) is False

    @given(_planted_multiplicity_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_textbook_criterion(self, case):
        f, q = case
        assume(f.degree >= 2 and poly.discriminant(f) != 0)
        want = textbook_dedekind(f, q)
        assert dedekind_divides_index(f, q) is want

    @pytest.mark.parametrize(
        "coeffs, q, want",
        [
            # q > deg f: (x - 1)^2 + 25 and (x - 1)^2 + 5 at q = 5
            ([26, -2, 1], 5, True),
            ([6, -2, 1], 5, False),
            # r = 0 at a large q: x^2 + q^2 (theta = q i) and x^2 + q
            ([10007**2, 0, 1], 10007, True),
            ([10007, 0, 1], 10007, False),
            # 3 <= q <= deg f: x^2 (x + 1) + 9 and + 3 at q = 3
            ([9, 0, 1, 1], 3, True),
            ([3, 0, 1, 1], 3, False),
            # (x - 1)^2 (x^2 + 1) + 9 and + 3 at q = 3: f(1) = 9, 3
            ([10, -2, 2, -2, 1], 3, True),
            ([4, -2, 2, -2, 1], 3, False),
        ],
    )
    def test_lone_double_root_is_one_evaluation(self, monkeypatch, coeffs, q, want):
        f = IntPolynomial(coeffs)
        assert poly.discriminant(f) != 0
        assert textbook_dedekind(f, q) is want

        def forbidden(*args, **kwargs):
            raise AssertionError("a lone double root needs no product")

        monkeypatch.setattr(poly, "_product", forbidden)
        assert dedekind_divides_index(f, q) is want

    @pytest.mark.parametrize(
        "coeffs, q, roots",
        [
            ([26, -2, 1], 5, 0),  # lone double root, q > deg f
            ([9, 0, 1, 1], 3, 0),  # lone double root, q <= deg f
            ([1, 3, 1], 7, 0),  # f squarefree mod q
            ([11, -12, 13, -6, 1], 7, 0),  # (x-1)^2 (x-2)^2 mod 7, q > deg f
            ([3, 0, 1, 2, 1], 3, 0),  # x^2 (x+1)^2 mod 3, q <= deg f
            # (x + 1)^2 mod 2: the multiplicity is a multiple of q, so the
            # squarefree split differentiates the q-th root x + 1 as well
            ([-5, 0, 1], 2, 1),
        ],
    )
    def test_derivative_of_f_is_taken_once(self, monkeypatch, coeffs, q, roots):
        calls = []
        derivative = poly._derivative

        def counting(c, q):
            calls.append(list(c))
            return derivative(c, q)

        monkeypatch.setattr(poly, "_derivative", counting)
        f = IntPolynomial(coeffs)
        want = textbook_dedekind(f, q)
        assert dedekind_divides_index(f, q) is want
        fbar = poly._reduce(coeffs, q)
        assert calls[0] == fbar
        assert len(calls) == 1 + roots
        assert all(len(c) < len(fbar) for c in calls[1:])

    @pytest.mark.parametrize("q", [1, 4, 9, 15, -5])
    def test_rejects_non_prime_q(self, q):
        with pytest.raises(arith.NotPrime):
            dedekind_divides_index(IntPolynomial([-5, 0, 1]), q)

    def test_needs_neither_full_factoring_nor_sympy(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the Dedekind oracle must not call this")

        monkeypatch.setattr(poly, "factor_mod", forbidden)
        monkeypatch.setattr(IntPolynomial, "to_sympy", forbidden)
        examples = [
            (IntPolynomial([-5, 0, 1]), 2, True),
            (IntPolynomial([1, 3, 1]), 5, False),
            (IntPolynomial([-1, -1, 0, 1]), 23, False),
        ]
        for f, q, expected in examples:
            assert dedekind_divides_index(f, q) is expected, (f, q)


def random_reducible_separable_corpus(size, seed):
    """Random and family-shaped trinomials that sympy finds reducible."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        if rng.random() < 0.5:
            n = rng.randrange(2, 13)
            m = rng.randrange(1, n)
            A = rng.choice([v for v in range(-30, 31) if v])
            B = rng.choice([v for v in range(-30, 31) if v])
        else:
            p = rng.choice([3, 5, 7])
            n, m = 2 * p, p
            A = rng.choice([v for v in range(-60, 61) if v])
            B = rng.choice([-3, -2, -1, 1, 2, 3]) ** p
        t = GeneralTrinomial(n, m, A, B)
        if t.disc != 0 and not t.polynomial().to_sympy().is_irreducible:
            out.append(t)
    return out


class TestOracleEquivalence:
    def test_engines_agree_on_corpus(self):
        corpus = random_irreducible_corpus(150, seed=8)
        compared = 0
        for t in corpus:
            d = swan_general_discriminant(t)
            try:
                fac = arith.factorize(d)
            except FactorizationBudgetExceeded:
                continue
            f = t.polynomial()
            for q in sorted(fac):
                jks = jks_index_free(t, q)
                ded = dedekind_divides_index(f, q)
                assert jks.divides_index == ded, (t, q)
                compared += 1
        assert compared > 300

    def test_engines_agree_on_reducible_separable(self):
        # q | index depends only on f over Z_q, so neither engine needs f
        # irreducible: both decide it in the maximal order of Q[x]/(f)
        corpus = [GeneralTrinomial(6, 3, 3, 2)]  # (x^3 + 1)(x^3 + 2)
        corpus += random_reducible_separable_corpus(60, seed=4)
        compared = 0
        for t in corpus:
            f = t.polynomial()
            for q in sorted(arith.factorize(t.disc)):
                jks = jks_index_free(t, q)
                assert jks.divides_index == dedekind_divides_index(f, q), (t, q)
                compared += 1
        assert compared > 100


class TestCrosscheckCorpus:
    @pytest.mark.parametrize("seed", range(10))
    def test_cli_corpus_matches_filtered_corpus(self, seed):
        # the CLI corpus has no zero-discriminant filter: irreducibility
        # over Q already excludes repeated roots
        assert cli.crosscheck_corpus(60, seed) == random_irreducible_corpus(
            60, seed
        )

    def test_one_discriminant_per_trinomial(self, monkeypatch):
        calls = []

        def counting(t):
            calls.append(t)
            return swan_general_discriminant(t)

        monkeypatch.setattr(indexcheck, "swan_general_discriminant", counting)
        corpus = cli.crosscheck_corpus(40, 5)
        report = cli.run_crosscheck(corpus, {})
        assert report["disagreements"] == 0
        assert calls == corpus


class TestMonogenicity:
    def test_family_examples(self):
        assert trinomial_is_monogenic(GeneralTrinomial(10, 5, 3, 1)).monogenic
        assert trinomial_is_monogenic(GeneralTrinomial(6, 3, 1, 1)).monogenic

    def test_reciprocal_family_member_cross_checked(self):
        t = GeneralTrinomial(6, 3, 1, -1)
        report = trinomial_is_monogenic(t)
        f = t.polynomial()
        for v in report.checks:
            assert v.divides_index == dedekind_divides_index(f, v.q)

    def test_squarefree_discriminant_is_vacuous(self):
        t = GeneralTrinomial(2, 1, 3, 1)
        report = trinomial_is_monogenic(t)
        assert report.monogenic and report.checks == ()

    def test_budget_propagates(self):
        t = GeneralTrinomial(11, 2, 17, 19)
        assert poly.is_irreducible_over_Q(t.polynomial())
        with pytest.raises(FactorizationBudgetExceeded):
            trinomial_is_monogenic(t, trial_bound=10, rho_budget=5)

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            trinomial_is_monogenic(GeneralTrinomial(6, 3, 2, 1))

    def test_degree_46_needs_no_irreducibility_test(self):
        t = GeneralTrinomial(46, 23, 3, 1)
        report = trinomial_is_monogenic(t)
        assert report.monogenic
        assert [v.q for v in report.checks] == [5, 23]
        for v in report.checks:
            assert not dedekind_divides_index(t.polynomial(), v.q)


class TestNoIrreducibilityOracleAtRuntime:
    @pytest.fixture(autouse=True)
    def forbid(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("runtime path called is_irreducible_over_Q")

        monkeypatch.setattr(poly, "is_irreducible_over_Q", forbidden)

    def test_engines(self):
        t = GeneralTrinomial(10, 5, 3, 1)
        assert not jks_index_free(t, 5).divides_index
        assert not dedekind_divides_index(t.polynomial(), 5)
        assert trinomial_is_monogenic(t).monogenic

    @pytest.mark.parametrize("a", [3, 4])  # delta = 5 and delta = 12
    def test_classify(self, a):
        c = cls.classify(cls.TrinomialFamily(5, a, 1))
        assert c.irreducible and c.monogenic is True
