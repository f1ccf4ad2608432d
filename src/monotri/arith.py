"""Arbitrary-precision integer primitives.

Primality, bounded factorization, squarefree testing, valuations, exact
square roots and the walk over the primes.  A factorization is the
{prime: exponent} dict of |n|; one cut short by rho's budget is the same
dict, holding every prime proven so far.  One sieve table serves
trial division (the primes up to factorize's trial bound, before
Pollard-Brent rho), the walk, is_prime, which answers an n up to the
table's limit by one bisection into it, and the screen of odd primes below
1000, which reads it when the module is imported; a larger bound re-sieves
it whole, to at least twice its old limit.  That table is the module's
only state; it is replaced whole, never edited, so every function here is
safe to call from any number of threads.
Factorization and valuation remove a prime's whole power in O(log e) big
divisions, not e; each factor Pollard-Brent rho splits off loses its whole
power the same way, so a repeated factor costs one rho call, not one per
copy.  A perfect power r^k past trial division goes on as r, found by
exact k-th roots (Bernstein, Math. Comp. 67, 1998), before is_prime or
rho sees it.  Trial division stops at a cofactor that is_prime proves
prime (below its deterministic bound) where the loop would otherwise walk
the whole table: the walk could find no divisor of it, and the stage after
it would only prove the same cofactor prime, so nothing but time changes.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from itertools import compress, islice

__all__ = [
    "FactorizationBudgetExceeded",
    "NotPrime",
    "is_prime",
    "factorize",
    "is_squarefree",
    "valuation",
    "exact_square_root",
    "primes",
]

_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# _PSI[k - 1] is psi_k, the least strong pseudoprime to the first k primes
# as bases (Jaeschke 1993; Sorenson-Webster 2017): below it the first k
# witnesses are a proven deterministic Miller-Rabin test.
_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_DETERMINISTIC_BOUND = _PSI[-1]

# 64 rounds above the proven bound: compositeness escapes with
# probability < 4^-64 = 2^-128.  Witnesses are drawn from an RNG seeded
# by the input itself, so the answer is deterministic per input.
_LARGE_ROUNDS = 64

# Cofactors longer than this are not written out in full in an Unknown.
_CITED_BITS = 4096

DEFAULT_TRIAL_BOUND = 100_000
DEFAULT_RHO_BUDGET = 1 << 21

# (limit, every prime <= limit): the trial divisors and the prime walk,
# grown on demand; _SCREEN below seeds it at import.
_trial_table = (1, [])


class FactorizationBudgetExceeded(Exception):
    """Raised when the factoring effort bound is hit; never a wrong answer.

    `factorize` sets `factors`, its {prime: exponent} dict as it stood when
    the budget ran out: every prime it had proven, each exponent a lower
    bound.
    """


class NotPrime(ValueError):
    """Raised when an argument required to be prime is not."""


def _miller_rabin_witness(n, a):
    """True if a witnesses the compositeness of n."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """True iff |n| is prime.

    An n up to the limit of the cached sieve table (which holds every
    prime up to that limit) is answered by one bisection into it: the
    index engines and valuation re-prove each small discriminant prime on
    every call.  Past the table it is deterministic below
    _DETERMINISTIC_BOUND, with only the witnesses that n's size needs (the
    first k primes below psi_k); above it a 64-round Miller-Rabin test
    with input-seeded witnesses (error < 2^-128).
    """
    n = abs(n)
    if n < 2:
        return False
    limit, table = _trial_table
    if n <= limit:
        i = bisect_left(table, n)
        return i < len(table) and table[i] == n
    for p in _SMALL_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_BOUND:
        witnesses = _SMALL_WITNESSES[: bisect_right(_PSI, n) + 1]
    else:
        rng = random.Random(n)
        # Drawn lazily: a composite usually needs only the first.
        witnesses = (rng.randrange(2, n - 1) for _ in range(_LARGE_ROUNDS))
    return not any(_miller_rabin_witness(n, a) for a in witnesses)


def _proven_prime(n, floor):
    """True if floor < n < _DETERMINISTIC_BOUND, n shares no factor with
    _SCREEN, and is_prime, a proof below that bound, passes n."""
    return (
        floor < n < _DETERMINISTIC_BOUND
        and math.gcd(n, _SCREEN) == 1
        and is_prime(n)
    )


def _trial_primes(bound):
    """(table, k): the first k entries of table are the primes <= bound.

    The table is seeded at import with the primes up to 999, for _SCREEN.
    When a larger bound is asked for, one sieve of Eratosthenes over [2,
    max(bound, 2 limit)] makes a new table, so it at least doubles and the
    re-sieving costs O(bound log log bound) in all.  A smaller bound reads
    a prefix.  The table is replaced whole, never edited, so a reader
    holding an old one stays correct.
    """
    global _trial_table
    limit, table = _trial_table
    if bound > limit:
        limit = max(bound, 2 * limit)
        sieve = bytearray([1]) * (limit + 1)
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        table = list(compress(range(limit + 1), sieve))
        _trial_table = (limit, table)
    return table, bisect_right(table, bound)


# The odd primes below 1000, multiplied, read from the table.  Trial
# division finds a factor this shares with a cofactor within 167 steps,
# which cost less than the Miller-Rabin round that would fail to prove the
# cofactor prime.
_SCREEN = math.prod(p for p in _trial_primes(999)[0] if 2 < p < 1000)


def primes():
    """Yield every prime in increasing order.

    The walk reads the trial-division table and doubles it whenever it
    reaches the end, so the primes it passes stay cached for later walks
    and for factorize.
    """
    table = _trial_primes(2)[0]
    done = 0
    while True:
        yield from islice(table, done, None)
        done = len(table)
        # By Bertrand's postulate the new table holds a prime past the old.
        table = _trial_primes(2 * table[-1])[0]


def _cite(n, noun="integer"):
    """n as text for a message: str(n) up to _CITED_BITS bits.

    Above that, n is named by its sign, bit length and low 64 bits: str()
    of it would be slow, and past 4300 digits it raises ValueError.
    """
    bits = n.bit_length()
    if bits <= _CITED_BITS:
        return str(n)
    sign = "negative " if n < 0 else ""
    return f"a {sign}{bits}-bit {noun} ending 0x{abs(n) & (2**64 - 1):016x}"


def _rho_exhausted(n, budget):
    """The Unknown for a cofactor n that rho could not split."""
    return FactorizationBudgetExceeded(
        f"rho budget {budget} exhausted on {_cite(n, 'cofactor')}"
    )


def _pollard_brent(n, budget, rng):
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite n.

    Raises FactorizationBudgetExceeded once `budget` iterations are spent.
    """
    if n % 2 == 0:
        return 2
    spent = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
                spent += min(m, r - k + m)
                if spent > budget:
                    raise _rho_exhausted(n, budget)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                spent += 1
                if spent > budget:
                    raise _rho_exhausted(n, budget)
        if g != n:
            return g


def _divide_out(n, p):
    """(m, e) with n == m * p**e and p not dividing m, for n > 0, p >= 2.

    p need not be prime: factorize also strips rho's composite factors.

    Divides by p, p^2, p^4, ... while they divide (each call strips one
    p, then recurses on p*p), then on the way back down divides by each
    of those powers that still divides: O(log e) big divisions instead
    of e, and one division when p does not divide n.
    """
    m, r = divmod(n, p)
    if r:
        return n, 0
    n, e = _divide_out(m, p * p)
    # p*p does not divide n, so at most one more p does.
    m, r = divmod(n, p)
    if r:
        return n, 2 * e + 1
    return m, 2 * e + 2


def _perfect_power(m, k_max):
    """(r, k) with r**k == m >= 2 for the least prime k <= k_max that has
    one, else (m, 1).  Each k-th root is Newton's integer step from 2^a,
    a = log2(m)/k in floats raised past their rounding error: from above
    the root, the step falls to its floor and stops there."""
    s = max(m.bit_length() - 64, 0)
    log_m = math.log2((m >> s) + 1) + s  # >= log2(m), to rounding
    table, count = _trial_primes(k_max)
    for k in islice(table, count):
        a = log_m / k * (1 + 2**-40)
        shift = max(int(a) - 52, 0)
        x = (int(2.0 ** (a - shift)) + 1) << shift
        while True:
            y = ((k - 1) * x + m // x ** (k - 1)) // k
            if y >= x:
                break
            x = y
        if x**k == m:
            return x, k
    return m, 1


def factorize(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> dict[int, int]:
    """The prime factorization of |n|, n != 0, as {prime: exponent}.

    2 is always divided out.  Then n is divided by each odd prime p <=
    trial_bound, from the cached sieve table, until p*p exceeds what is
    left; a prime that divides has its whole power removed at once by
    _divide_out.  Where what is left exceeds the square of the last
    prime in the table, the loop would run to the table's end; there, if
    it is below _DETERMINISTIC_BOUND and has no odd factor below 1000
    (one gcd, which spares a Miller-Rabin round on a cofactor such as
    593^7 that the loop would soon divide), it is tested at the start
    and again after each divisor found, and a proven prime ends the loop
    as the last factor.  That exit is exact: no table prime divides a
    prime above them all, and past the loop the same cofactor would only
    meet the same deterministic is_prime (or, below d*d, be taken as
    prime unasked), never rho.  Every prime factor of what is left is
    >= d, the next untried candidate, so it, and each factor rho splits
    off it, is prime if it is below d*d, and is recorded as soon as it is
    found rather than when it is reached.  Pollard-Brent rho runs with an
    iteration budget; budget exhaustion raises rather than guessing.  The
    rho stage keeps (cofactor, multiplicity) pairs.  A cofactor m >= d*d
    that is r^k for a prime k <= log m / log d goes on as r with k times
    the multiplicity, before is_prime; one that passes is_prime is prime;
    rho splits the rest, and a factor g that it finds has its whole power
    divided out at once.  So a repeated factor takes at most one rho
    call, and a power of a prime none.  An exhausted budget raises
    FactorizationBudgetExceeded with the dict so far attached: every prime
    proven, rho's split-off factors below d*d among them.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}

    def add(p, e=1):
        factors[p] = factors.get(p, 0) + e

    e = (n & -n).bit_length() - 1
    if e:
        add(2, e)
        n >>= e
    # No prime above sqrt(n) is ever tried, so the table need not reach it;
    # isqrt runs only when n is below trial_bound^2, never on a huge n.
    bound = trial_bound
    if n < trial_bound * trial_bound:
        bound = min(trial_bound, math.isqrt(n))
    table, k = _trial_primes(bound)
    d = max(3, (bound + 1) | 1)  # the smallest odd number past the table
    # Above the last prime's square the loop would run to the end of the
    # table; a cofactor proven prime there ends it instead.
    full_walk = table[k - 1] ** 2 if k > 1 else _DETERMINISTIC_BOUND
    if _proven_prime(n, full_walk):
        add(n)
        n = 1
    for p in islice(table, 1, k):
        if p * p > n:
            d = p
            break
        if n % p == 0:
            n, e = _divide_out(n // p, p)
            add(p, e + 1)
            if _proven_prime(n, full_walk):
                add(n)
                n = 1
    rng = None  # seeded by n, made when rho first runs
    stack = []

    def push(m, e):
        # m's prime factors are all >= d, so below d*d it is prime.
        if m < d * d:
            add(m, e)
        else:
            stack.append((m, e))

    if n > 1:
        push(n, 1)
    while stack:
        m, e = stack.pop()
        # m = r^k has r >= d, so d^k <= m bounds k.
        root, k = _perfect_power(m, (m.bit_length() - 1) // (d.bit_length() - 1))
        if k > 1:
            push(root, k * e)
            continue
        if is_prime(m):
            add(m, e)
            continue
        rng = rng or random.Random(n)
        try:
            g = _pollard_brent(m, rho_budget, rng)
        except FactorizationBudgetExceeded as exc:
            exc.factors = factors
            raise
        rest, k = _divide_out(m, g)
        push(g, k * e)
        if rest > 1:
            push(rest, e)
    return factors


def is_squarefree(n: int, **budget) -> bool:
    """True iff no prime square divides |n|."""
    if n == 0:
        raise ValueError("0 is not squarefree or squareful")
    return all(e == 1 for e in factorize(n, **budget).values())


def valuation(n: int, q: int) -> int:
    """Largest e with q^e | n, for prime q >= 2 and n != 0.

    Takes O(log e) big divisions (see _divide_out).
    """
    if q < 2 or not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    return _divide_out(abs(n), q)[1]


def exact_square_root(n: int):
    """y >= 0 with y*y == n, or None if n is not a perfect square."""
    if n < 0:
        return None
    y = math.isqrt(n)
    return y if y * y == n else None
