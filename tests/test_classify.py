import math
import random
import signal
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monotri import arith, cli, indexcheck, poly
from monotri.classify import (
    CaseKind,
    GaloisKind,
    TrinomialFamily,
    _dickson_trace,
    _squarefree_reasons,
    case_label,
    classify,
    exceptional_sets,
    family_is_irreducible,
    galois_group,
    kkr_monogenic,
    quadratic_is_monogenic,
    swan_disc_f,
    theorem_item,
    theorem_membership,
)
from monotri.indexcheck import Reducible


class TestFamilyValidation:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            TrinomialFamily(9, 1, 1)

    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            TrinomialFamily(2, 1, 1)

    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            TrinomialFamily(3, 0, 1)
        with pytest.raises(ValueError):
            TrinomialFamily(3, 1, 0)


class TestDeltaAndDiscriminant:
    def test_delta_examples(self):
        assert TrinomialFamily(3, 1, 1).delta == -3
        assert TrinomialFamily(5, 3, 1).delta == 5
        assert TrinomialFamily(3, 4, 1).delta == 12
        assert TrinomialFamily(5, 1, -1).delta == 5

    def test_closed_form_matches_resultant_on_grid(self):
        for p in (3, 5):
            for a in range(-6, 7):
                if a == 0:
                    continue
                for b in (-2, -1, 1, 2):
                    fam = TrinomialFamily(p, a, b)
                    assert swan_disc_f(fam) == poly.discriminant(
                        fam.trinomial.polynomial()
                    ), fam

    def test_known_value(self):
        # b^{p(p-1)} p^{2p} delta^p at (3,1,1): 3^6 * (-3)^3 = -19683
        assert swan_disc_f(TrinomialFamily(3, 1, 1)) == -19683


def linear_dickson(s, n, k):
    """Oracle: D_0 = 2, D_1 = s, D_j = s D_{j-1} - n D_{j-2}."""
    if k == 0:
        return 2
    prev, cur = 2, s
    for _ in range(k - 1):
        prev, cur = cur, s * cur - n * prev
    return cur


class TestDicksonTrace:
    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(-8, 8),
        st.sampled_from([1, 2, 3, 5, -1, -2, -3, -5]),
        st.integers(0, 63),
    )
    def test_doubling_matches_recurrence(self, s, n, k):
        assert _dickson_trace(s, n, k) == linear_dickson(s, n, k)

    def test_large_k(self):
        assert _dickson_trace(3, 1, 1009) == linear_dickson(3, 1, 1009)

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(-10**6, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(0, 10**4),
        st.integers(2, 10**4),
    )
    def test_reduced_ladder_is_the_integer_one_mod_m(self, s, n, k, m):
        assert _dickson_trace(s, n, k, m) == _dickson_trace(s, n, k) % m


def pow2_root_bound(n, p):
    """2^ceil(bits/p), with bits = n.bit_length(): at least n^(1/p)."""
    return 1 << -(-n.bit_length() // p)


def s_bound(fam):
    """The bound S on |trace gamma| that `family_is_irreducible` uses."""
    root_bound = (abs(fam.a) + math.isqrt(abs(fam.delta)) + 2) // 2 + 1
    return 2 * pow2_root_bound(root_bound, fam.p) + 2


def least_root(n, p):
    """Least r >= 0 with r^p >= n: doubling, then bisection on the integers."""
    lo, hi = 0, 1
    while hi**p < n:
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**p >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


def scan_is_irreducible(fam):
    """Oracle: f is reducible iff delta is a square or D_p(s, b) = -a for
    some s in [-S, S]; every s is tried."""
    d = fam.delta
    if d == 0 or arith.exact_square_root(d) is not None:
        return False
    bound = s_bound(fam)
    return all(
        _dickson_trace(s, fam.b, fam.p) != -fam.a for s in range(-bound, bound + 1)
    )


class TestIrreducibility:
    def test_square_delta_reducible(self):
        assert not family_is_irreducible(TrinomialFamily(3, 2, -2))  # delta=36

    def test_zero_delta_reducible(self):
        assert not family_is_irreducible(TrinomialFamily(3, 2, 1))

    def test_pth_power_root_reducible(self):
        # gamma = -2 + sqrt(3): gamma^3 + conj^3 = -52, norm 1
        assert not family_is_irreducible(TrinomialFamily(3, 52, 1))

    def test_examples_irreducible(self):
        for p, a, b in [(3, 1, 1), (3, 4, 1), (5, 3, 1), (5, 1, -1)]:
            assert family_is_irreducible(TrinomialFamily(p, a, b))

    def test_agrees_with_generic_oracle_on_grid(self):
        for p in (3, 5):
            for a in range(-12, 13):
                if a == 0:
                    continue
                for b in (-2, -1, 1, 2):
                    fam = TrinomialFamily(p, a, b)
                    assert family_is_irreducible(fam) == (
                        poly.is_irreducible_over_Q(fam.trinomial.polynomial())
                    ), fam

    def test_large_p_is_fast(self):
        # 9413 = 97^2 + 4 is prime; the corollary family must be tractable
        assert arith.is_prime(9413)
        assert family_is_irreducible(TrinomialFamily(9413, 97, -1))

    def test_a_above_float_range(self):
        # the s-scan bound comes from a bit length, not a float root:
        # |a| > 1e308 must not overflow a float
        fam = TrinomialFamily(1009, 10**400 + 1, 1)
        assert family_is_irreducible(fam)
        assert galois_group(fam).kind is GaloisKind.FULL_TIMES_C2

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 2003), st.integers(2, 10**400))
    def test_pow2_bound_covers_the_exact_root(self, p, root_bound):
        # Any upper bound on root_bound^(1/p) gives the same verdict; this
        # one is at most twice the exact root, so the lift gains at most
        # one bit.
        r = least_root(root_bound, p)
        assert r <= pow2_root_bound(root_bound, p) <= 2 * r

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(-300, 300),
        st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 5]),
        st.integers(-2, 2),
    )
    def test_lift_matches_scan(self, p, s0, b, shift):
        # a near -D_p(s0, b): reducible at shift 0, mostly not otherwise
        a = shift - _dickson_trace(s0, b, p)
        assume(a != 0)
        fam = TrinomialFamily(p, a, b)
        assert family_is_irreducible(fam) == scan_is_irreducible(fam)

    def test_lift_matches_scan_on_small_bound_grid(self):
        # every family here has S <= 64, where the lift replaced the scan;
        # each reducible one has a root s of P with 2 <= |s| <= 4
        reducible = 0
        for p in (3, 5, 7, 11, 13, 101, 1009):
            for b in (-5, -3, -2, -1, 1, 2, 3, 5):
                planted = {-_dickson_trace(s, b, p) for s in range(-4, 5)}
                for a in sorted(set(range(-40, 41)) | planted):
                    if a == 0 or abs(a) > 10**6:
                        continue
                    fam = TrinomialFamily(p, a, b)
                    assert s_bound(fam) <= 64, fam
                    scan = scan_is_irreducible(fam)
                    assert family_is_irreducible(fam) == scan, fam
                    # reducible through a root of P, not a square delta
                    square = arith.exact_square_root(fam.delta) is not None
                    reducible += not scan and not square
        assert reducible >= 200, reducible

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
        st.integers(10**6, 10**40),
        st.sampled_from([-1, 1]),
        st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 5]),
    )
    def test_planted_root_far_outside_scan_range(self, p, s0, sign, b):
        # gamma with trace s0 and norm b has gamma^p as a root of g; a scan
        # of [-S, S] would take about 2 s0 Dickson values
        a = -_dickson_trace(sign * s0, b, p)
        assert not family_is_irreducible(TrinomialFamily(p, a, b))

    def test_huge_a_or_b_within_a_deadline(self):
        def expire(signum, frame):
            raise TimeoutError("family_is_irreducible overran 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(1)
        try:
            for p, a, b in [(3, 10**400 + 1, 1), (5, 3, 10**30 + 1),
                            (101, 10**300, 7)]:
                assert family_is_irreducible(TrinomialFamily(p, a, b))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_huge_pth_power_root_reducible(self):
        # gamma = (3 + sqrt 5)/2 has norm 1; -a = trace(gamma^1009) has 422
        # digits, and the root of g is gamma^1009
        a = -_dickson_trace(3, 1, 1009)
        assert not family_is_irreducible(TrinomialFamily(1009, a, 1))


class TestGaloisGroup:
    def test_frobenius_case(self):
        g = galois_group(TrinomialFamily(5, 3, 1))
        assert g.kind is GaloisKind.FROBENIUS_P_PMINUS1
        assert g.order == 20
        assert g.describe() == "C5:C4"

    def test_half_case(self):
        g = galois_group(TrinomialFamily(3, 1, 1))
        assert g.kind is GaloisKind.HALF_TIMES_C2
        assert g.order == 6
        assert g.describe() == "(C3:C1)xC2"

    def test_full_case_p_divides(self):
        g = galois_group(TrinomialFamily(3, 4, 1))  # delta = 12 = 3*4, p=3
        assert g.kind is GaloisKind.FULL_TIMES_C2
        assert g.order == 12
        assert g.describe() == "(C3:C2)xC2"

    def test_full_case_p_not_dividing(self):
        g = galois_group(TrinomialFamily(3, 1, -1))  # delta = 5
        assert g.kind is GaloisKind.FULL_TIMES_C2

    def test_corollary_family_is_frobenius(self):
        # p = a^2 + 4, b = -1: delta = p * 1^2, p = 1 mod 4
        for a in (1, 3, 5, 7):
            p = a * a + 4
            if not arith.is_prime(p):
                continue
            g = galois_group(TrinomialFamily(p, a, -1))
            assert g.kind is GaloisKind.FROBENIUS_P_PMINUS1

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            galois_group(TrinomialFamily(3, 2, -2))


class TestCaseLedger:
    def test_gamma1_b1(self):
        fam = TrinomialFamily(5, 3, 1)
        assert case_label(fam) is CaseKind.GAMMA1_B1 and fam.p_split[1] == 1

    def test_gamma2_b1(self):
        fam = TrinomialFamily(3, 1, 1)
        assert case_label(fam) is CaseKind.GAMMA2_B1 and fam.p_split[1] == 1

    def test_gamma1_bneg1(self):
        fam = TrinomialFamily(5, 1, -1)
        assert case_label(fam) is CaseKind.GAMMA1_BNEG1 and fam.p_split[1] == 1

    def test_omega(self):
        c = case_label(TrinomialFamily(3, 3, 1))  # delta = 5
        assert c is CaseKind.P_NOT_DIVIDING_DELTA
        c = case_label(TrinomialFamily(3, 6, 1))  # delta = 32
        assert c is CaseKind.P_NOT_DIVIDING_DELTA
        c = case_label(TrinomialFamily(3, 9, 1))  # delta = 77
        assert c is CaseKind.P_NOT_DIVIDING_DELTA
        fam = TrinomialFamily(3, 7, 1)  # delta = 45 = 3*15
        assert case_label(fam) is CaseKind.OMEGA_B1 and fam.p_split is None

    def test_unsupported_b(self):
        # p=3, a=4, b=2: delta = 16-32 = -16, -16 % 3 != 0 -> fine
        assert case_label(TrinomialFamily(3, 4, 2)) is (
            CaseKind.P_NOT_DIVIDING_DELTA
        )
        # p=3, a=3, b=3: delta = 9-108 = -99, 3 | 99: the ledger has no case
        fam = TrinomialFamily(3, 3, 3)
        assert case_label(fam) is None
        with pytest.raises(ValueError):
            theorem_membership(fam)

    def test_never_gamma2_with_b_negative(self):
        # b = -1 gives delta = a^2 + 4 > 0, so -p y^2 is impossible
        for p in (3, 7):
            for a in range(1, 40):
                c = case_label(TrinomialFamily(p, a, -1))
                assert c is not CaseKind.GAMMA2_B1


class TestQuadraticMonogenic:
    def test_examples(self):
        assert quadratic_is_monogenic(3, 1)  # delta = 5 squarefree
        assert quadratic_is_monogenic(1, -1)  # delta = 5
        assert not quadratic_is_monogenic(7, 1)  # a+2 = 9
        assert not quadratic_is_monogenic(6, 1)  # 2|a but 4 does not
        assert not quadratic_is_monogenic(4, -1)  # 4|a
        assert quadratic_is_monogenic(4, 1)  # (a-2)(a+2)/4 = 3 squarefree

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            quadratic_is_monogenic(2, 1)

    def test_matches_direct_index_computation(self):
        # oracle: x^2+ax+b monogenic iff no prime q with q^2 | disc divides
        # the index (Dedekind)
        from monotri.indexcheck import dedekind_divides_index
        from monotri.poly import IntPolynomial

        for a in range(-20, 21):
            for b in (1, -1):
                d = a * a - 4 * b
                if d == 0 or arith.exact_square_root(d) is not None:
                    continue
                f = IntPolynomial([b, a, 1])
                expect = True
                for q in arith.factorize(d):
                    if d % (q * q) == 0 and dedekind_divides_index(f, q):
                        expect = False
                assert quadratic_is_monogenic(a, b) == expect, (a, b)


class TestKkrMonogenic:
    def test_monogenic_examples(self):
        for p, a, b in [(3, 1, 1), (3, 4, 1), (5, 3, 1), (5, 1, -1)]:
            ok, reasons = kkr_monogenic(TrinomialFamily(p, a, b))
            assert ok, reasons

    def test_non_monogenic_collects_all_reasons(self):
        ok, reasons = kkr_monogenic(TrinomialFamily(3, 7, 1))
        assert not ok
        assert any("a+2=9 not squarefree" in r for r in reasons)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (5, 1, (True, ["a-2 and a+2 squarefree"])),
            (7, 1, (False, ["a+2=9 not squarefree"])),
            (-7, 1, (False, ["a-2=-9 not squarefree"])),
            (20, 1, (False, ["a-2=18 not squarefree"])),
            (52, 1, (False, ["a-2=50 not squarefree", "a+2=54 not squarefree"])),
            (6, 1, (False, ["2|a but 4∤a forbidden for b=1"])),
            (4, -1, (False, ["4|a forbidden for b=-1"])),
            (6, -1, (True, ["W=10 squarefree"])),
            (11, -1, (False, ["W=(a^2+4)/gcd(a,2)^2=125 not squarefree"])),
        ],
    )
    def test_squarefree_reasons_exact(self, a, b, expected):
        assert _squarefree_reasons(a, b) == expected

    def test_reducible_rejected(self):
        with pytest.raises(Reducible):
            kkr_monogenic(TrinomialFamily(3, 2, 1))

    def test_agrees_with_generic_scan(self):
        # composed-polynomial reduction vs the general q-scan on the same f
        from monotri.indexcheck import GeneralTrinomial, trinomial_is_monogenic

        for p in (3, 5):
            for a in range(-10, 11):
                if a == 0:
                    continue
                for b in (1, -1):
                    fam = TrinomialFamily(p, a, b)
                    if fam.delta % p != 0:
                        continue
                    if not family_is_irreducible(fam):
                        continue
                    ok, _ = kkr_monogenic(fam)
                    report = trinomial_is_monogenic(
                        GeneralTrinomial(2 * p, p, a, b**p)
                    )
                    assert ok == report.monogenic, fam


class TestTheoremMembership:
    def test_item_mapping(self):
        assert theorem_item(case_label(TrinomialFamily(5, 3, 1)), 5) == "item1"
        assert theorem_item(case_label(TrinomialFamily(3, 1, 1)), 3) == "item2"
        assert theorem_item(case_label(TrinomialFamily(3, 4, 1)), 3) == "item3a"
        assert theorem_item(case_label(TrinomialFamily(3, 7, 1)), 3) == "item3b"
        assert theorem_item(
            case_label(TrinomialFamily(13, 3, -1)), 13
        ) == "item1"

    def test_item3a_sign_identity(self):
        # for odd p, exactly one of p(p-1)/2 and p(p+1)/2 is even, so the
        # two Gamma branches swap parity classes: Gamma1 at p=3 mod 4 and
        # Gamma2 at p=1 mod 4 are the same item
        for p in (3, 5, 7, 11, 13, 17):
            assert ((-1) ** (p * (p + 1) // 2)) == -((-1) ** (p * (p - 1) // 2))

    def test_membership_equals_kkr_on_grid(self):
        for p in (3, 5, 7, 11, 13):
            for a in range(-30, 31):
                if a == 0:
                    continue
                for b in (1, -1):
                    fam = TrinomialFamily(p, a, b)
                    if fam.delta % p != 0:
                        continue
                    if not family_is_irreducible(fam):
                        continue
                    member = theorem_membership(fam)
                    ok, reasons = kkr_monogenic(fam)
                    assert member == ok, (fam, reasons)


class TestClassify:
    def test_monogenic_frobenius(self):
        c = classify(TrinomialFamily(5, 3, 1))
        assert c.irreducible and c.monogenic
        assert c.galois.kind is GaloisKind.FROBENIUS_P_PMINUS1
        assert c.field_discriminant == c.disc_f == swan_disc_f(c.family)

    def test_reducible(self):
        c = classify(TrinomialFamily(3, 2, 1))
        assert not c.irreducible
        assert c.galois is None and c.monogenic is None
        assert c.field_discriminant is None

    def test_non_monogenic_has_no_field_discriminant(self):
        c = classify(TrinomialFamily(3, 7, 1))
        assert c.irreducible and c.monogenic is False
        assert c.field_discriminant is None
        assert any("not squarefree" in r for r in c.reason)

    def test_generic_branch(self):
        c = classify(TrinomialFamily(3, 1, -1))  # delta = 5, p does not divide
        assert c.case is CaseKind.P_NOT_DIVIDING_DELTA
        assert c.irreducible
        assert any("generic index scan" in r for r in c.reason)

    def test_budget_exhaustion_reports_unknown(self):
        # delta huge and hard to factor under a tiny budget
        fam = TrinomialFamily(3, 123456789, -1)
        c = classify(fam, trial_bound=2, rho_budget=2)
        assert c.irreducible
        assert c.monogenic is None
        assert any("unknown" in r for r in c.reason)

    @pytest.mark.parametrize(
        "budget, cofactor",
        [
            # The cofactors left by trial division are cubes; rho gets
            # their roots, 15241578750190525^3 and (254753 * 2393153957)^3.
            ({"trial_bound": 2, "rho_budget": 2}, "15241578750190525"),
            ({"rho_budget": 2}, "609663150007621"),
        ],
    )
    def test_unknown_names_the_cofactor_left_by_trial_division(
        self, budget, cofactor
    ):
        c = classify(TrinomialFamily(3, 123456789, -1), **budget)
        assert c.reason[-1] == f"unknown: rho budget 2 exhausted on {cofactor}"

    @pytest.mark.parametrize(
        "p, a, b",
        [
            (29, -3, -3),
            (29, -20, -3),
            (31, -191, -3),
            (29, -289, -3),
            (31, -275, -3),
            (31, -246, 3),
            (31, -44, -3),
            (29, -322, -3),
            (29, 455, -3),
            (23, -283, -3),
        ],
    )
    def test_pth_power_cofactor_within_a_deadline(self, p, a, b):
        # Past trial division the discriminant leaves c^p for a prime c
        # of delta above the trial bound; handed to rho whole, it took
        # from 2 s to 46 s.  As a p-th power it goes on as c at once.
        def expire(signum, frame):
            raise TimeoutError("classify overran 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(2)
        try:
            c = classify(TrinomialFamily(p, a, b))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert c.monogenic is not None

    def test_irreducibility_is_decided_once_per_family(self, monkeypatch):
        calls = []

        def counting(fam):
            calls.append(fam)
            return family_is_irreducible(fam)

        monkeypatch.setattr(
            "monotri.classify.family_is_irreducible", counting
        )
        classify(TrinomialFamily(5, 3, 1))
        assert len(calls) == 1
        calls.clear()
        rows = list(cli.corollary_scan_rows(20, {}))
        assert len(calls) == sum(r["p_is_prime"] for r in rows) == 7

    def test_one_family_object_decides_each_fact_once(self, monkeypatch):
        # every verdict on one family object reads the facts it holds
        calls = []
        general = indexcheck.swan_general_discriminant
        monkeypatch.setattr(
            "monotri.classify.family_is_irreducible",
            lambda fam: calls.append("irreducible") or family_is_irreducible(fam),
        )
        monkeypatch.setattr(
            indexcheck,
            "swan_general_discriminant",
            lambda t: calls.append("disc") or general(t),
        )
        fam = TrinomialFamily(5, 3, 1)
        c = classify(fam)
        assert galois_group(fam) == c.galois
        assert kkr_monogenic(fam)[0] is c.monogenic is True
        assert case_label(fam) == c.case
        assert theorem_membership(fam)
        assert sorted(calls) == ["disc", "irreducible"]

    @pytest.mark.parametrize(
        "p, a, b",
        [
            (5, 3, 1),  # delta = 5 = +5 * 1^2
            (13, 3, -1),  # delta = 13 = +13 * 1^2
            (3, 7, 1),  # delta = 45 = 3 * 15, not +-3 y^2
        ],
    )
    def test_one_classify_roots_each_number_once(self, monkeypatch, p, a, b):
        # delta and its +-p y^2 split are cached on the family, so
        # case_label and galois_group share one root of |delta|/p; the
        # other root is family_is_irreducible's square test of delta.
        roots = []
        root = arith.exact_square_root
        monkeypatch.setattr(
            arith, "exact_square_root", lambda n: roots.append(n) or root(n)
        )
        fam = TrinomialFamily(p, a, b)
        c = classify(fam)
        assert c.irreducible and c.case is not None
        assert sorted(roots) == sorted([abs(fam.delta) // p, fam.delta])

    @pytest.mark.parametrize(
        "p, a, b",
        [
            (5, 3, 2),  # p does not divide delta = -119
            (5, 3, 1),  # p | delta = 5, b = 1
            (3, 1, -2),  # p | delta = 33, |b| > 1
            (3, 6, 2),  # delta = 4 is a square: reducible
        ],
    )
    def test_discriminant_is_computed_once_per_family(
        self, monkeypatch, p, a, b
    ):
        calls = []
        general = indexcheck.swan_general_discriminant
        monkeypatch.setattr(
            indexcheck,
            "swan_general_discriminant",
            lambda t: calls.append("general") or general(t),
        )
        monkeypatch.setattr(
            "monotri.classify.swan_disc_f",
            lambda fam: calls.append("closed") or swan_disc_f(fam),
        )
        fam = TrinomialFamily(p, a, b)
        c = classify(fam)
        assert c.disc_f == swan_disc_f(fam)
        assert calls == ["general"]

    def test_huge_b_power_is_cited_by_size(self):
        # b^p = 2^14303 has 4,306 digits, past Python's default limit on
        # int-to-str conversion; the reason names it by its size instead
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit:
            limit = sys.get_int_max_str_digits()
            set_limit(4300)
        try:
            c = classify(TrinomialFamily(14303, 6620, 2))
        finally:
            if set_limit:
                set_limit(limit)
        assert c.case is None and c.monogenic is False
        assert c.reason == (
            "g(0)=b^p=a 14304-bit integer ending 0x0000000000000000 "
            "not squarefree",
        )

    def test_b_not_unit_with_p_dividing_delta(self):
        # p=3, b=3, a=3: delta = -99 divisible by 3, |b| != 1
        c = classify(TrinomialFamily(3, 3, 3))
        assert c.irreducible
        assert c.monogenic is False
        assert c.case is None
        assert c.reason == ("g(0)=b^p=27 not squarefree",)

    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=1, max_value=25),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_symmetry(self, p, a, b):
        # x -> -x maps (p, a, b) to (p, -a, b): every verdict must match
        c1 = classify(TrinomialFamily(p, a, b))
        c2 = classify(TrinomialFamily(p, -a, b))
        assert c1.irreducible == c2.irreducible
        assert c1.delta == c2.delta
        assert c1.disc_f == c2.disc_f
        assert c1.monogenic == c2.monogenic
        assert (c1.galois is None) == (c2.galois is None)
        if c1.galois:
            assert c1.galois.kind == c2.galois.kind

    def test_galois_case_coherence(self):
        # Gamma1 & p=1 mod 4 -> Frobenius; Gamma2 & p=3 mod 4 -> half;
        # everything else -> full x C2
        rng = random.Random(5)
        for _ in range(120):
            p = rng.choice([3, 5, 7, 11, 13])
            a = rng.choice([v for v in range(-30, 31) if v])
            b = rng.choice([1, -1])
            fam = TrinomialFamily(p, a, b)
            if not family_is_irreducible(fam):
                continue
            g = galois_group(fam)
            c = case_label(fam)
            gamma1 = c in (CaseKind.GAMMA1_B1, CaseKind.GAMMA1_BNEG1)
            gamma2 = c is CaseKind.GAMMA2_B1
            if gamma1 and p % 4 == 1:
                assert g.kind is GaloisKind.FROBENIUS_P_PMINUS1
            elif gamma2 and p % 4 == 3:
                assert g.kind is GaloisKind.HALF_TIMES_C2
            else:
                assert g.kind is GaloisKind.FULL_TIMES_C2


class TestExceptionalSets:
    def test_small_window(self):
        sets = exceptional_sets(5, 5)
        assert sets["item1"] == [
            ("item1", 5, -3, 1),
            ("item1", 5, -1, -1),
            ("item1", 5, 1, -1),
            ("item1", 5, 3, 1),
        ]
        assert sets["item2"] == [("item2", 3, -1, 1), ("item2", 3, 1, 1)]
        assert sets["item3a"] == [("item3a", 3, -4, 1), ("item3a", 3, 4, 1)]

    def test_item1_negative_b_families(self):
        # p = a^2 + 4 prime: (5,1,-1), (13,3,-1)
        sets = exceptional_sets(13, 5)
        assert ("item1", 13, -3, -1) in sets["item1"]
        assert ("item1", 13, 3, -1) in sets["item1"]
        assert ("item1", 5, -1, -1) in sets["item1"]

    def test_window_is_exactly_the_closed_form(self):
        # the finite exceptional sets are complete: widening the search
        # window adds nothing beyond the closed-form item-1 families
        sets = exceptional_sets(13, 30)
        for item, entries in sets.items():
            for _, p, a, b in entries:
                assert theorem_membership(TrinomialFamily(p, a, b))
        got = {(p, a, b) for e in sets.values() for _, p, a, b in e}
        expect = {(5, 3, 1), (5, -3, 1), (3, 1, 1), (3, -1, 1),
                  (3, 4, 1), (3, -4, 1), (5, 1, -1), (5, -1, -1),
                  (13, 3, -1), (13, -3, -1)}
        assert got == expect

    def test_empty_window(self):
        assert exceptional_sets(2, 5) == {}
