import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monotri import arith, poly
from monotri.classify import (
    GaloisClass,
    GaloisKind,
    TrinomialFamily,
    delta,
    family_polynomial,
    galois_group,
)
from monotri.galois_verify import (
    MIN_PRIMES_FOR_VERDICT,
    SampleReport,
    _frobenius_pattern,
    consistency_check,
    element_order_spectrum,
    frobenius_sample,
)
from monotri.indexcheck import Reducible


class TestElementOrderSpectrum:
    def test_frobenius_20(self):
        s = element_order_spectrum(GaloisKind.FROBENIUS_P_PMINUS1, 5)
        assert s.orders == {1, 2, 4, 5}

    def test_half_times_c2_at_3(self):
        s = element_order_spectrum(GaloisKind.HALF_TIMES_C2, 3)
        assert s.orders == {1, 2, 3, 6}

    def test_full_times_c2_at_3(self):
        s = element_order_spectrum(GaloisKind.FULL_TIMES_C2, 3)
        assert s.orders == {1, 2, 3, 6}

    def test_full_times_c2_at_5(self):
        s = element_order_spectrum(GaloisKind.FULL_TIMES_C2, 5)
        assert s.orders == {1, 2, 4, 5, 10}

    def test_orders_divide_group_order(self):
        for kind in GaloisKind:
            for p in (3, 5, 7, 11):
                g = GaloisClass.for_kind(kind, p)
                s = element_order_spectrum(kind, p)
                assert all(g.order % o == 0 for o in s.orders)


def fast_and_oracle(fam, ell):
    d = delta(fam)
    fast = _frobenius_pattern(fam.p, fam.a, fam.b**fam.p, d, ell)
    return fast, poly.degree_pattern(family_polynomial(fam), ell)


class TestFrobeniusPattern:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]),
        st.integers(-200, 200).filter(bool),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )
    def test_matches_degree_pattern(self, p, a, b):
        fam = TrinomialFamily(p, a, b)
        d = delta(fam)
        assume(d != 0)
        used = 0
        for ell in arith.primes():
            if p * b * d % ell == 0:
                continue
            fast, oracle = fast_and_oracle(fam, ell)
            assert fast == oracle, (fam, ell)
            used += 1
            if used == 40:
                break

    @pytest.mark.parametrize(
        "p, a, b, ell, pattern",
        [
            # g splits, p does not divide ell - 1: one root, orbits of ord_p(ell)
            (5, 3, 1, 19, [1, 1, 2, 2, 2, 2]),
            # g splits, p | ell - 1, the roots are p-th powers
            (5, 3, 1, 211, [1] * 10),
            # g splits, p | ell - 1, the roots are not p-th powers
            (5, 3, 1, 11, [5, 5]),
            # g inert, p does not divide ell^2 - 1
            (5, 3, 1, 7, [2, 4, 4]),
            # g inert, p | ell^2 - 1, the root is a p-th power in F_ell^2
            (3, 1, 1, 17, [2, 2, 2]),
            # g inert, p | ell^2 - 1, the root is not a p-th power
            (3, 1, 1, 5, [6]),
            # ell = 2: a and b odd, g = x^2 + x + 1 inert
            (3, 1, 1, 2, [6]),
        ],
    )
    def test_each_branch(self, p, a, b, ell, pattern):
        fast, oracle = fast_and_oracle(TrinomialFamily(p, a, b), ell)
        assert fast == oracle == pattern


class TestFrobeniusSample:
    def test_does_not_factor_f(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("degree_pattern called")

        monkeypatch.setattr(poly, "degree_pattern", refuse)
        fam = TrinomialFamily(5, 3, 1)
        assert frobenius_sample(fam, 400) == SampleReport(
            fam, 400, {1: 16, 2: 97, 4: 205, 5: 82}, Fraction(1, 25)
        )

    def test_observed_orders_inside_spectrum(self):
        for p, a, b in [(3, 1, 1), (3, 4, 1), (5, 3, 1)]:
            fam = TrinomialFamily(p, a, b)
            claimed = galois_group(fam)
            rep = frobenius_sample(fam, 400)
            spectrum = element_order_spectrum(claimed.kind, p)
            assert set(rep.observed_orders) <= spectrum.orders
            assert sum(rep.observed_orders.values()) == rep.primes_used == 400

    def test_split_fraction_near_inverse_order(self):
        fam = TrinomialFamily(5, 3, 1)  # order 20
        rep = frobenius_sample(fam, 2000)
        assert abs(rep.split_fraction - Fraction(1, 20)) < Fraction(1, 60)

    def test_deterministic(self):
        fam = TrinomialFamily(3, 1, 1)
        assert frobenius_sample(fam, 150) == frobenius_sample(fam, 150)

    def test_rejects_reducible(self):
        with pytest.raises(Reducible):
            frobenius_sample(TrinomialFamily(3, 2, 1), 50)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            frobenius_sample(TrinomialFamily(3, 1, 1), 0)


class TestConsistencyCheck:
    def test_consistent_for_true_group(self):
        for p, a, b in [(3, 1, 1), (3, 4, 1), (5, 3, 1)]:
            fam = TrinomialFamily(p, a, b)
            claimed = galois_group(fam)
            rep = frobenius_sample(fam, 2000)
            assert consistency_check(fam, claimed, rep) == "consistent"

    def test_inconsistent_for_wrong_order(self):
        # claiming the double-size group halves the target split density
        fam = TrinomialFamily(5, 3, 1)
        rep = frobenius_sample(fam, 2000)
        wrong = GaloisClass.for_kind(GaloisKind.FULL_TIMES_C2, 5)
        assert consistency_check(fam, wrong, rep) == "inconsistent"

    def test_inconsistent_for_wrong_spectrum(self):
        # (3,4,1) realizes order 6 but a Frobenius C3:C2 claim (orders
        # {1,2,3}) cannot
        fam = TrinomialFamily(3, 4, 1)
        rep = frobenius_sample(fam, 500)
        wrong = GaloisClass(GaloisKind.FROBENIUS_P_PMINUS1, 6)
        spectrum = element_order_spectrum(GaloisKind.FROBENIUS_P_PMINUS1, 3)
        assert not set(rep.observed_orders) <= spectrum.orders
        assert consistency_check(fam, wrong, rep) == "inconsistent"

    def test_inconclusive_below_threshold(self):
        fam = TrinomialFamily(3, 1, 1)
        claimed = galois_group(fam)
        rep = frobenius_sample(fam, MIN_PRIMES_FOR_VERDICT - 50)
        assert consistency_check(fam, claimed, rep) == "inconclusive"

    def test_frobenius_order_divides_group_order(self):
        for p, a, b in [(3, 1, 1), (3, 4, 1), (5, 3, 1), (5, 1, -1)]:
            fam = TrinomialFamily(p, a, b)
            claimed = galois_group(fam)
            rep = frobenius_sample(fam, 300)
            assert all(claimed.order % o == 0 for o in rep.observed_orders)
            assert math.lcm(*rep.observed_orders) <= claimed.order
