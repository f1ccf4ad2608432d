import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monotri import arith, poly
from monotri.classify import (
    GaloisClass,
    GaloisKind,
    TrinomialFamily,
    _dickson_trace,
    family_is_irreducible,
    galois_group,
)
from monotri.galois_verify import (
    MIN_PRIMES_FOR_VERDICT,
    SampleReport,
    _divisors,
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
                g = GaloisClass(kind, p)
                s = element_order_spectrum(kind, p)
                assert all(g.order % o == 0 for o in s.orders)

    # complement order d and whether a factor C_2 is present, per the paper
    PAPER_GROUPS = {
        GaloisKind.FROBENIUS_P_PMINUS1: (lambda p: p - 1, False),
        GaloisKind.HALF_TIMES_C2: (lambda p: (p - 1) // 2, True),
        GaloisKind.FULL_TIMES_C2: (lambda p: p - 1, True),
    }

    @staticmethod
    def _affine_group(p: int, d: int, times_c2: bool):
        """C_p : C_d as the maps x -> u x + v over F_p with u^d = 1, each
        paired with an element e of C_2 = Z/2 when times_c2; returns
        {element: order}, each order found by composing until the identity."""
        units = [u for u in range(1, p) if pow(u, d, p) == 1]
        assert len(units) == d
        elements = [
            (u, v, e)
            for u in units
            for v in range(p)
            for e in ((0, 1) if times_c2 else (0,))
        ]

        def compose(x, y):
            # x after y: u1 (u2 t + v2) + v1, and addition in Z/2
            return x[0] * y[0] % p, (x[0] * y[1] + x[1]) % p, (x[2] + y[2]) % 2

        orders = {}
        for g in elements:
            power, k = g, 1
            while power != (1, 0, 0):
                power, k = compose(g, power), k + 1
            orders[g] = k
        return orders

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("kind", list(GaloisKind))
    def test_group_matches_affine_oracle(self, kind, p):
        complement, times_c2 = self.PAPER_GROUPS[kind]
        d = complement(p)
        orders = self._affine_group(p, d, times_c2)
        claimed = GaloisClass(kind, p)
        assert claimed.order == len(orders)
        assert element_order_spectrum(kind, p).orders == set(orders.values())
        name = claimed.describe()
        assert f"C{p}:C{d}" in name
        assert name.endswith("xC2") == times_c2


def _frobenius_pattern(p: int, a: int, c: int, d: int, ell: int):
    """Sorted factor degrees of x^{2p} + a x^p + c mod ell, for ell prime
    with ell not dividing p*c*d, where d = a^2 - 4c and c = b^p.

    The Lidl-Niederreiter reading (Finite Fields, Thm 3.75) that
    `frobenius_sample` takes its orders from, spelled out as the whole
    pattern: it bridges the sampler to `poly.degree_pattern`.  g = x^2 +
    a x + c either splits mod ell (Q = ell) or is inert (Q = ell^2, every
    degree doubles).  Over F_Q, x^p - beta for a root beta of g has one
    root and orbits of length ord_p(Q) when p does not divide Q - 1;
    otherwise it splits completely if beta is a p-th power and is
    irreducible if not, which V_e(-a, b^p) = 2 mod ell, e = (Q - 1)/p,
    decides.
    """
    a, c = a % ell, c % ell
    # for ell = 2, a and b are odd and g = x^2 + x + 1 is inert
    split = ell > 2 and pow(d, (ell - 1) // 2, ell) == 1
    q = ell if split else ell * ell
    if (q - 1) % p:
        k = min(e for e in _divisors(p - 1) if pow(q, e, p) == 1)
        per_root = [1] + [k] * ((p - 1) // k)
    elif _dickson_trace(-a, c, (q - 1) // p, ell) == 2 % ell:
        per_root = [1] * p
    else:
        per_root = [p]
    if split:
        return sorted(per_root * 2)
    return [2 * e for e in per_root]


def degree_pattern_sample(fam, prime_budget, branches):
    """`frobenius_sample` by factoring f mod each unramified ell: each
    order is the lcm of the degree pattern, each split an all-ones one.

    Counts into `branches` the primes of each ladder branch of the
    sampler.  g splits mod ell iff the pattern has an odd degree: over a
    split g, x^p - beta has a root or is irreducible of degree p.
    """
    f = fam.trinomial.polynomial()
    p = fam.p
    ramified = p * fam.b * fam.delta
    observed = {}
    splits = used = 0
    for ell in arith.primes():
        if ramified % ell == 0:
            continue
        pattern = poly.degree_pattern(f, ell)
        split = any(e % 2 for e in pattern)
        if ell % p == 1:
            branches["split" if split else "inert, p | ell - 1"] += 1
        elif ell % p == p - 1 and not split:
            branches["inert, p | ell + 1"] += 1
        order = math.lcm(*pattern)
        observed[order] = observed.get(order, 0) + 1
        splits += all(e == 1 for e in pattern)
        used += 1
        if used == prime_budget:
            break
    return SampleReport(used, observed, Fraction(splits, used))


def fast_and_oracle(fam, ell):
    d = fam.delta
    fast = _frobenius_pattern(fam.p, fam.a, fam.b**fam.p, d, ell)
    return fast, poly.degree_pattern(fam.trinomial.polynomial(), ell)


class TestFrobeniusPattern:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]),
        st.integers(-200, 200).filter(bool),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )
    def test_matches_degree_pattern(self, p, a, b):
        fam = TrinomialFamily(p, a, b)
        d = fam.delta
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
    def test_matches_degree_pattern_sampler(self):
        branches = Counter()

        # derandomized, and the pinned families alone meet the branch floor
        # below (51 split, 41 and 33 inert primes), so it holds on any draw
        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(
            st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
            st.integers(-200, 200).filter(bool),
            st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 5]),
        )
        @example(3, 1, 2)
        @example(3, 2, 2)
        @example(5, 3, 1)
        @example(7, 8, 2)
        @example(13, 3, -1)
        def matches(p, a, b):
            fam = TrinomialFamily(p, a, b)
            assume(family_is_irreducible(fam))
            oracle = degree_pattern_sample(fam, 60, branches)
            assert frobenius_sample(fam, 60) == oracle

        matches()
        # each ladder branch of the sampler was compared on enough primes
        for branch in ("split", "inert, p | ell + 1", "inert, p | ell - 1"):
            assert branches[branch] >= 20, branches

    @pytest.mark.parametrize(
        "family, budget, orders, split_fraction",
        [
            (
                (61, 3, 1),
                2000,
                {2: 31, 3: 36, 4: 69, 5: 59, 6: 97, 10: 201, 12: 135,
                 15: 136, 20: 274, 30: 390, 60: 538, 61: 17, 122: 17},
                Fraction(0),
            ),
            (
                (1009, 3, 1),
                2000,
                {3: 2, 4: 4, 6: 6, 7: 7, 8: 9, 9: 7, 12: 9, 14: 21, 16: 12,
                 18: 24, 21: 15, 24: 15, 28: 19, 36: 22, 42: 37, 48: 38,
                 56: 45, 63: 33, 72: 42, 84: 48, 112: 83, 126: 110, 144: 89,
                 168: 94, 252: 156, 336: 196, 504: 269, 1008: 583, 1009: 2,
                 2018: 3},
                Fraction(0),
            ),
            (
                (3, 1, 2),
                20000,
                {1: 1629, 2: 11688, 3: 3331, 6: 3352},
                Fraction(1629, 20000),
            ),
            # many inert primes with p | ell + 1; c = b^p = 128 for (7, 8, 2)
            (
                (7, 8, 2),
                20000,
                {1: 470, 2: 467, 3: 6667, 6: 6686, 7: 2851, 14: 2859},
                Fraction(47, 2000),
            ),
            (
                (13, 3, -1),
                20000,
                {1: 115, 2: 1653, 3: 3299, 4: 3339, 6: 3349, 12: 6692,
                 13: 1553},
                Fraction(23, 4000),
            ),
        ],
        ids=["61-3-1", "1009-3-1", "3-1-2", "7-8-2", "13-3-neg1"],
    )
    def test_pinned_reports(self, family, budget, orders, split_fraction):
        fam = TrinomialFamily(*family)
        assert frobenius_sample(fam, budget) == SampleReport(
            budget, orders, split_fraction
        )

    def test_does_not_factor_f(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("degree_pattern called")

        monkeypatch.setattr(poly, "degree_pattern", refuse)
        fam = TrinomialFamily(5, 3, 1)
        assert frobenius_sample(fam, 400) == SampleReport(
            400, {1: 16, 2: 97, 4: 205, 5: 82}, Fraction(1, 25)
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

    def test_irreducibility_is_decided_once_with_galois_group(self, monkeypatch):
        # sampling reads the family's cached verdict, which galois_group
        # then reads too; the wrapper replaces every module's reference
        calls = []

        def counting(fam):
            calls.append(fam)
            return family_is_irreducible(fam)

        for module in ("classify", "galois_verify"):
            monkeypatch.setattr(f"monotri.{module}.family_is_irreducible", counting)
        fam = TrinomialFamily(13, 3, -1)
        frobenius_sample(fam, 200)
        galois_group(fam)
        assert calls == [fam]

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
        wrong = GaloisClass(GaloisKind.FULL_TIMES_C2, 5)
        assert consistency_check(fam, wrong, rep) == "inconsistent"

    def test_inconsistent_for_wrong_spectrum(self):
        # (3,4,1) realizes order 6 but a Frobenius C3:C2 claim (orders
        # {1,2,3}) cannot
        fam = TrinomialFamily(3, 4, 1)
        rep = frobenius_sample(fam, 500)
        wrong = GaloisClass(GaloisKind.FROBENIUS_P_PMINUS1, 3)
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
