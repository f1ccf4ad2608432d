import functools
import math
import random
import sys
import threading
from itertools import count, dropwhile, islice, takewhile

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from monotri import arith
from monotri.arith import (
    FactorizationBudgetExceeded,
    NotPrime,
    exact_square_root,
    factorize,
    is_prime,
    is_squarefree,
    primes,
    valuation,
)
from monotri.classify import TrinomialFamily, swan_disc_f


@functools.lru_cache
def _trial_division_primes(n_max):
    """[n is prime for n in 0..n_max], by trial division."""
    return [
        n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        for n in range(n_max + 1)
    ]


class TestIsPrime:
    def test_smallest_prime(self):
        assert is_prime(2)

    def test_unit(self):
        assert not is_prime(1)

    def test_corollary_prime(self):
        # 173 = 13^2 + 4; verified by trial division
        assert all(173 % d for d in range(2, 14))
        assert is_prime(173)

    def test_negative_uses_absolute_value(self):
        assert is_prime(-7)
        assert not is_prime(-9)

    def test_large_prime(self):
        assert is_prime(2**89 - 1)
        assert not is_prime((2**89 - 1) * (2**61 - 1))

    @given(
        st.one_of(
            st.builds(
                lambda x, y: sympy.nextprime(x) * sympy.nextprime(y),
                st.integers(2**49, 2**50),
                st.integers(2**49, 2**50),
            ),
            st.integers(2**89, 2**90).map(sympy.nextprime),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_witnesses_drawn_lazily_match_the_eager_list(self, n):
        # Above the proven bound the 64 input-seeded witnesses are drawn
        # one at a time; the verdict must equal that of all 64 drawn first.
        assert n > arith._DETERMINISTIC_BOUND
        rng = random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(arith._LARGE_ROUNDS)]
        expected = not any(arith._miller_rabin_witness(n, a) for a in witnesses)
        assert is_prime(n) == expected

    @pytest.mark.parametrize("n", [0, 4, 561, 1729, 2047, 3215031751])
    def test_known_composites(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("k", range(1, 14))
    def test_psi_k_is_composite(self, k):
        # psi_k fools the first k witnesses, so is_prime must use k + 1
        psi = arith._PSI[k - 1]
        assert not any(
            arith._miller_rabin_witness(psi, a)
            for a in arith._SMALL_WITNESSES[:k]
        )
        assert not is_prime(psi)

    @pytest.mark.parametrize("grow", [None, 150_000, 400_000])
    def test_table_lookup_matches_trial_division(self, grow, monkeypatch):
        # n up to the table's limit is a lookup, n past it Miller-Rabin:
        # the empty table sends every n to the second, 150,000 splits
        # them and 400,000 answers them all by lookup
        n_max = 2 * 10**5
        monkeypatch.setattr(arith, "_trial_table", (1, []))
        if grow:
            arith._trial_primes(grow)
            assert arith._trial_table[0] == grow
        assert [is_prime(n) for n in range(n_max + 1)] == _trial_division_primes(
            n_max
        )

    def test_matches_sieve_to_two_million(self):
        n_max = 2 * 10**6
        sieve = bytearray([0, 0]) + bytearray([1]) * (n_max - 1)
        for p in range(2, math.isqrt(n_max) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, n_max + 1, p)))
        assert bytearray(map(is_prime, range(n_max + 1))) == sieve

    @given(
        st.one_of(
            st.integers(2, arith._DETERMINISTIC_BOUND - 1),
            # products of two odd numbers, and psi_k +- small offsets,
            # where the prefix length matters most
            st.builds(
                lambda x, y: x * y,
                st.integers(43, 10**12).map(lambda v: v | 1),
                st.integers(43, 10**12).map(lambda v: v | 1),
            ),
            st.builds(
                lambda psi, d: psi + d,
                st.sampled_from(arith._PSI),
                st.integers(-64, 64),
            ),
        ).filter(lambda n: n < arith._DETERMINISTIC_BOUND)
    )
    @settings(max_examples=1500, deadline=None)
    def test_matches_the_full_witness_battery(self, n):
        # below the bound the 13-witness battery is a proof; at psi_13
        # itself it calls a composite prime
        small = arith._SMALL_WITNESSES
        if n in small:
            expected = True
        elif any(n % p == 0 for p in small):
            expected = False
        else:
            expected = not any(arith._miller_rabin_witness(n, a) for a in small)
        assert is_prime(n) == expected


# The 30,000th prime is 350,377: the walk passes the default trial bound
# and grows the table several times.
FIRST_30000 = list(islice(filter(is_prime, count(2)), 30_000))


def _primes_by_trial_division(limit):
    found = []
    for n in range(2, limit + 1):
        if all(n % q for q in takewhile(lambda q: q * q <= n, found)):
            found.append(n)
    return found


PRIMES_TO_100000 = _primes_by_trial_division(100_000)

# 1_000_003 * 1_000_033 has no factor below its square root of about
# 10^6, so factoring it at trial bound 300,000 reads the whole table.
_TABLE_GROWER = 1_000_003 * 1_000_033


def _primes_by_test(start):
    n = start
    while True:
        if n >= 2 and is_prime(n):
            yield n
        n += 1


class TestPrimes:
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 1000, 7919, 10**6])
    def test_first_5000_match_primality_filter(self, start, monkeypatch):
        # primes() walks from 2: the 5,000 primes it yields from start on
        # must equal the is_prime filter, from whatever table the earlier
        # tests left and again from the empty table.
        expected = list(islice(_primes_by_test(start), 5000))
        for table in (arith._trial_table, (1, [])):
            monkeypatch.setattr(arith, "_trial_table", table)
            walk = dropwhile(lambda p: p < start, primes())
            assert list(islice(walk, 5000)) == expected

    def test_first_30000_match_primality_filter(self, monkeypatch):
        monkeypatch.setattr(arith, "_trial_table", (1, []))
        assert list(islice(primes(), 30_000)) == FIRST_30000
        monkeypatch.setattr(arith, "_trial_table", (1, []))
        factorize(_TABLE_GROWER, trial_bound=300_000)
        assert arith._trial_table[0] >= 300_000
        assert list(islice(primes(), 30_000)) == FIRST_30000

    def test_default_start(self):
        assert list(islice(primes(), 6)) == [2, 3, 5, 7, 11, 13]

    def test_screen_is_the_odd_primes_below_1000(self):
        odd = [q for q in PRIMES_TO_100000 if 2 < q < 1000]
        assert arith._SCREEN == math.prod(odd)

    @pytest.mark.parametrize(
        "bounds",
        [
            [2, 10, 100, 1000, 10_000, 50_000],
            [50_000, 10_000, 1000, 100, 10, 2],
            [3, 40_000, 7, 50_000, 2, 997, 49_999],
        ],
        ids=["increasing", "decreasing", "mixed"],
    )
    def test_table_after_growth_in_any_order(self, bounds, monkeypatch):
        # Each growth re-sieves the whole table; whatever the order of the
        # bounds, it must hold exactly the primes up to its limit, and a
        # table a caller already holds must not change under it.
        monkeypatch.setattr(arith, "_trial_table", (1, []))
        held = []
        for bound in bounds:
            table, k = arith._trial_primes(bound)
            assert table[:k] == [q for q in PRIMES_TO_100000 if q <= bound]
            held.append((table, list(table)))
        limit, table = arith._trial_table
        assert 50_000 <= limit <= 100_000
        assert table == [q for q in PRIMES_TO_100000 if q <= limit]
        assert all(old == copy for old, copy in held)
        assert list(islice(primes(), 5000)) == PRIMES_TO_100000[:5000]


def root_by_bisection(m, k):
    """floor(m^(1/k)) for m >= 1, by bisection on [1, 2^(bits/k + 1))."""
    lo, hi = 1, 1 << (m.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= m:
            lo = mid
        else:
            hi = mid
    return lo


def least_power(m, k_max):
    """(r, k) with r^k == m for the least k in [2, k_max] that has one,
    trying every k, else (m, 1): the oracle for arith._perfect_power,
    which tries only primes (the least k that hits is prime)."""
    for k in range(2, k_max + 1):
        r = root_by_bisection(m, k)
        if r**k == m:
            return r, k
    return m, 1


def odd_d_factorize(n, trial_bound, rho_budget):
    """factorize by trial division over every odd d: the oracle for the
    prime-table loop, which must give the same result or the same
    Unknown."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors = {}

    def add(p, e=1):
        factors[p] = factors.get(p, 0) + e

    while n % 2 == 0:
        add(2)
        n //= 2
    d = 3
    while d * d <= n and d <= trial_bound:
        while n % d == 0:
            add(d)
            n //= d
        d += 2
    if n == 1:
        return factors
    if d * d > n or is_prime(n):
        add(n)
        return factors

    # rho's stage: a perfect power m = r^k goes on as r, for the least k
    # that has an exact root; each factor g rho finds loses its whole
    # power, one g at a time, and the rest is popped first, as in
    # factorize.
    rng = random.Random(n)
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            add(m, e)
            continue
        root, k = least_power(m, m.bit_length())
        if k > 1:
            stack.append((root, k * e))
            continue
        g = arith._pollard_brent(m, rho_budget, rng)
        k = 0
        while m % g == 0:
            m //= g
            k += 1
        stack.append((g, k * e))
        if m > 1:
            stack.append((m, e))
    return factors


TRIAL_BOUNDS = [0, 1, 2, 3, 4, 50, 1000, 100_000]


# Exponents of 1-4, and in the hundreds to low thousands as in a family
# discriminant, where every prime has an exponent of at least p.
_EXPONENTS = st.one_of(st.integers(1, 4), st.integers(100, 2500))


PSI_13 = arith._DETERMINISTIC_BOUND


@st.composite
def _trial_division_cases(draw):
    """(n, T): small prime powers, and then one of two kinds.

    Either times one prime P above T^2, which trial division leaves
    whole: below psi_13, where factorize may prove it prime and stop
    early, or above, where it must not.  Or times optionally a prime in
    (T, T^2) that trial division leaves, times optionally a power of a
    prime above T (exponent up to 13, as p is in a family discriminant),
    times optionally two primes just above T, which rho splits off into
    factors below d^2 for d the first untried candidate.  Primes below 47
    that trial division reaches may take large exponents; above T they
    would only feed rho a huge cofactor."""
    t = draw(st.sampled_from(TRIAL_BOUNDS))
    n = draw(st.sampled_from([1, -1]))
    for q in draw(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 47, 997]))):
        big = q < 47 and q <= max(t, 2)
        n *= q ** draw(_EXPONENTS if big else st.integers(1, 4))
    floor = max(t, 3)
    kind = draw(st.sampled_from(["proven", "probable", "mixed"]))
    if kind == "proven":
        return n * sympy.nextprime(draw(st.integers(floor**2, PSI_13 // 2))), t
    if kind == "probable":
        return n * sympy.nextprime(draw(st.integers(PSI_13, 2 * PSI_13))), t
    if draw(st.booleans()):
        n *= sympy.nextprime(draw(st.integers(floor, floor * floor - 1)))
    if draw(st.booleans()):
        q = sympy.nextprime(draw(st.integers(floor, 10 * floor)))
        n *= q ** draw(st.integers(1, 13))
    if draw(st.booleans()):
        for _ in range(2):
            n *= sympy.nextprime(draw(st.integers(floor, 2 * floor)))
    return n, t


# Primes above 10^5 squared, below and above psi_13.
PRIME_ABOVE_TABLE = sympy.nextprime(10**12)
PRIME_ABOVE_PSI = sympy.nextprime(PSI_13)


class _ReadCounter(list):
    """A prime table that counts the entries read from its iterator."""

    read = 0

    def __iter__(self):
        for p in super().__iter__():
            self.read += 1
            yield p


class TestFactorize:
    def test_simple(self):
        assert factorize(12) == {2: 2, 3: 1}

    def test_two_is_divided_out_below_every_bound(self):
        assert factorize(12, trial_bound=0) == {2: 2, 3: 1}

    @given(_trial_division_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_odd_d_oracle(self, case):
        n, t = case
        assert factorize(n, trial_bound=t) == odd_d_factorize(
            n, t, arith.DEFAULT_RHO_BUDGET
        )

    @given(_trial_division_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_odd_d_oracle_under_tiny_rho_budget(self, case):
        n, t = case

        def outcome(fn):
            try:
                return fn(n, trial_bound=t, rho_budget=2)
            except FactorizationBudgetExceeded as exc:
                return str(exc)

        assert outcome(factorize) == outcome(odd_d_factorize)

    @given(_trial_division_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_odd_d_oracle_after_a_long_walk(self, case):
        # The walk leaves a table far past every trial bound drawn, which
        # factorize must read only a prefix of.
        if arith._trial_table[0] < 10**6:
            next(islice(primes(), 100_000, None))
        n, t = case
        assert factorize(n, trial_bound=t) == odd_d_factorize(
            n, t, arith.DEFAULT_RHO_BUDGET
        )

    @pytest.mark.parametrize(
        "n, factors, calls",
        [
            (1_000_003**13 * 3**5, {3: 5, 1_000_003: 13}, 0),
            (100_019**13 * 3**5, {3: 5, 100_019: 13}, 0),
            (1_000_003**7 * 7_368_787**5, {1_000_003: 7, 7_368_787: 5}, 1),
            (
                (1_000_003 * 7_368_787) ** 13,
                {1_000_003: 13, 7_368_787: 13},
                1,
            ),
        ],
        ids=[
            "1000003^13*3^5",
            "100019^13*3^5",
            "1000003^7*7368787^5",
            "(1000003*7368787)^13",
        ],
    )
    def test_rho_finds_each_repeated_factor_once(
        self, n, factors, calls, monkeypatch
    ):
        # A perfect power goes on as its root without rho, and a factor
        # rho finds loses its whole power at once, so a prime above the
        # trial bound costs at most one rho call whatever its exponent.
        pollard_brent = arith._pollard_brent
        seen = []

        def counting(m, budget, rng):
            seen.append(m)
            return pollard_brent(m, budget, rng)

        monkeypatch.setattr(arith, "_pollard_brent", counting)
        assert factorize(n) == factors
        assert len(seen) == calls

    @pytest.mark.parametrize(
        "n, factors, reads, tests",
        [
            (PRIME_ABOVE_TABLE, {PRIME_ABOVE_TABLE: 1}, 2, 1),
            (
                3 * 5**2 * PRIME_ABOVE_TABLE,
                {3: 1, 5: 2, PRIME_ABOVE_TABLE: 1},
                4,
                1,
            ),
            # composite below psi_13: the cube of a prime above the bound
            (3 * 100_003**3, {3: 1, 100_003: 3}, None, 1),
            # 593^7 shares 593 with the screen: no Miller-Rabin round, and
            # the loop stops at 599, the 109th prime
            (7**2 * 593**7, {7: 2, 593: 7}, 109, 0),
            # above psi_13 only the stage after the loop tests it
            (3 * PRIME_ABOVE_PSI, {3: 1, PRIME_ABOVE_PSI: 1}, None, 1),
        ],
        ids=["P", "3*5^2*P", "3*100003^3", "7^2*593^7", "3*P_above_psi13"],
    )
    def test_trial_division_ends_at_a_proven_prime(
        self, n, factors, reads, tests, monkeypatch
    ):
        # A cofactor above the last table prime's square and below psi_13,
        # with no factor below 1000, that is_prime proves prime ends the
        # loop; any other cofactor takes the loop as far as it went
        # before (None: to the end of the table).
        tables, tested = [], []
        trial_primes, prime = arith._trial_primes, arith.is_prime

        def counted(bound):
            table, k = trial_primes(bound)
            tables.append((_ReadCounter(table), k))
            return tables[-1]

        monkeypatch.setattr(arith, "_trial_primes", counted)
        monkeypatch.setattr(arith, "is_prime", lambda m: tested.append(m) or prime(m))
        assert factorize(n) == factors
        table, k = tables[0]
        assert table.read == (k if reads is None else reads)
        assert len(tested) == tests

    @given(
        st.integers(10**5, 10**12).map(sympy.nextprime),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_of_a_power_comes_apart(self, r, k1, k2):
        # r^(k1 k2) is (r^k1)^k2: the least prime exponent is taken off
        # first and the other in a second root step.
        assert factorize(r ** (k1 * k2)) == {r: k1 * k2}

    def test_threads_share_the_prime_table_safely(self, monkeypatch):
        # One thread keeps dropping the cached table while the others
        # regrow it to different bounds or walk it; every result must
        # stay exact.
        # 1009 * 1013 < 1011**2: skipping 1009 would call it prime.
        cases = [
            (n, t)
            for n in (1009 * 1013, 3**5 * 1009 * 100_003 * 1_000_003)
            for t in (10, 1000, 2000, 50_000, 100_000, 200_000)
        ]
        want = [odd_d_factorize(n, t, arith.DEFAULT_RHO_BUDGET) for n, t in cases]
        monkeypatch.setattr(arith, "_trial_table", (1, []))
        wrong = []

        def worker(resets):
            for _ in range(15):
                for (n, t), expected in zip(cases, want):
                    if resets:
                        arith._trial_table = (1, [])
                    if factorize(n, trial_bound=t) != expected:
                        wrong.append((n, t))

        # A walk that the table's resets and regrowths must not disturb.
        def walker():
            for _ in range(15):
                if list(islice(primes(), 10_000)) != FIRST_30000[:10_000]:
                    wrong.append("walk")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i == 0,)) for i in range(4)
            ]
            threads.append(threading.Thread(target=walker))
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []

    def test_negative_discriminant_value(self):
        # -19683 is the family discriminant at (p,a,b) = (3,1,1)
        assert factorize(-19683) == {3: 9}

    def test_prime_power(self):
        assert factorize(5**15) == {5: 15}

    def test_large_p_family_discriminant(self):
        # (p, a, b) = (1009, 3, 1): disc f = 1009^2018 * 5^1009, 22,480 bits
        f = factorize(swan_disc_f(TrinomialFamily(1009, 3, 1)))
        assert f == {5: 1009, 1009: 2018}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_budget_exceeded_is_explicit(self):
        n = (2**127 - 1) * (2**89 - 1)
        with pytest.raises(FactorizationBudgetExceeded):
            factorize(n, trial_bound=100, rho_budget=50)

    def test_budget_exceeded_carries_the_proven_primes(self):
        cofactor = (2**89 - 1) * (2**127 - 1)
        n = 2**5 * 3**4 * 97 * cofactor
        with pytest.raises(FactorizationBudgetExceeded) as info:
            factorize(n, trial_bound=100, rho_budget=50)
        assert info.value.factors == {2: 5, 3: 4, 97: 1}
        assert str(info.value) == f"rho budget 50 exhausted on {cofactor}"

    def test_budget_exceeded_keeps_the_primes_rho_split_off(self):
        # rho splits 10007 and 10009 off before the Mersenne pair uses up
        # its budget; both are below 101^2, so proven prime at once.
        cofactor = (2**89 - 1) * (2**127 - 1)
        with pytest.raises(FactorizationBudgetExceeded) as info:
            factorize(10007 * 10009 * cofactor, trial_bound=100, rho_budget=1000)
        assert info.value.factors == {10007: 1, 10009: 1}
        assert str(info.value) == f"rho budget 1000 exhausted on {cofactor}"

    @given(st.integers(2, 10**6), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_proven_primes_are_lower_bounds(self, small, e):
        # rho may split off some primes of small^e before the budget runs out
        n = small**e * (2**89 - 1) * (2**127 - 1)
        with pytest.raises(FactorizationBudgetExceeded) as info:
            factorize(n, trial_bound=10, rho_budget=300)
        factors = info.value.factors
        assert all(is_prime(p) and n % p**k == 0 for p, k in factors.items())

    def test_huge_cofactor_is_named_by_size(self):
        # str() of a 19,630-bit integer exceeds the 4300-digit limit
        n = (2**9689 - 1) * (2**9941 - 1)
        with pytest.raises(FactorizationBudgetExceeded) as info:
            arith._pollard_brent(n, 1, random.Random(0))
        assert str(info.value) == (
            "rho budget 1 exhausted on a 19630-bit cofactor ending "
            "0x0000000000000001"
        )

    def test_small_cofactor_is_named_in_full(self):
        with pytest.raises(FactorizationBudgetExceeded) as info:
            arith._pollard_brent(10007 * 10009, 1, random.Random(0))
        assert str(info.value) == "rho budget 1 exhausted on 100160063"

    def test_cite_keeps_4096_bits_and_names_the_sign_above(self):
        n = 2**4096 - 1
        assert arith._cite(-n) == str(-n)
        assert arith._cite(-(n + 2)) == (
            "a negative 4097-bit integer ending 0x0000000000000001"
        )

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert all(is_prime(p) for p in f)
        assert all(e >= 1 for e in f.values())

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_squarefree_matches_exponents(self, n):
        f = factorize(n)
        assert is_squarefree(n) == all(e == 1 for e in f.values())


_PRIMES_TO_61 = [q for q in PRIMES_TO_100000 if q <= 61]


class TestPerfectPower:
    @given(
        st.integers(2, 10**40),
        st.sampled_from(_PRIMES_TO_61),
        st.sampled_from([0, 1, -1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection(self, r, k, offset):
        m = r**k + offset
        assert arith._perfect_power(m, 61) == least_power(m, 61)
        if offset == 0 and least_power(r, 61)[1] == 1:
            assert arith._perfect_power(m, 61) == (r, k)
        # By Mihailescu's theorem 8 and 9 are the only perfect powers
        # that differ by 1.
        if offset and m not in (8, 9):
            assert arith._perfect_power(m, 61) == (m, 1)

    @given(st.integers(2, 10**40), st.sampled_from(_PRIMES_TO_61))
    @settings(max_examples=100, deadline=None)
    def test_every_prime_up_to_the_bit_length(self, r, k):
        # k_max = bits is past every exponent m can have.
        m = r**k
        root, j = arith._perfect_power(m, m.bit_length())
        assert root**j == m and j <= k
        if least_power(r, 61)[1] == 1:
            assert (root, j) == (r, k)

    @given(
        st.integers(2, 10**20).map(sympy.nextprime),
        st.integers(2, 10**20).map(sympy.nextprime),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_distinct_primes_are_no_power(self, p, q):
        if p != q:
            m = p * q
            assert arith._perfect_power(m, m.bit_length()) == (m, 1)


class TestValuation:
    def test_examples(self):
        assert valuation(8, 2) == 3
        assert valuation(10, 5) == 1
        assert valuation(-19683, 3) == 9

    def test_absent_prime(self):
        assert valuation(10, 7) == 0

    def test_nonprime_rejected(self):
        with pytest.raises(NotPrime):
            valuation(8, 4)

    @pytest.mark.parametrize("q", [-3, -2, 0, 1])
    def test_below_two_rejected(self, q):
        # -2 and -3 are not primes, though their absolute values are
        with pytest.raises(NotPrime):
            valuation(8, q)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.one_of(st.just(0), _EXPONENTS),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_factorization(self, m, q, e, sign):
        n = sign * m * q**e
        expected = e
        while m % q == 0:
            m //= q
            expected += 1
        assert valuation(n, q) == expected
        assert factorize(n).get(q, 0) == expected


class TestIsSquarefree:
    def test_examples(self):
        assert is_squarefree(10)
        assert not is_squarefree(12)
        assert is_squarefree(5)  # a^2 - 4 = p at (p, a) = (5, 3)

    def test_sign_ignored(self):
        assert is_squarefree(-10)
        assert not is_squarefree(-12)


class TestExactSquareRoot:
    def test_examples(self):
        assert exact_square_root(9) == 3
        assert exact_square_root(8) is None
        assert exact_square_root(1) == 1
        assert exact_square_root(0) == 0
        assert exact_square_root(-4) is None

    @given(st.integers(min_value=0, max_value=10**8))
    @settings(max_examples=200, deadline=None)
    def test_square_detection(self, y):
        assert exact_square_root(y * y) == y

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_factorization(self, n):
        f = factorize(n)
        even = all(e % 2 == 0 for e in f.values())
        assert (exact_square_root(n) is not None) == even
