from fractions import Fraction
from itertools import product
from math import comb, gcd, isqrt, prod

import pytest

from vpvtotients._kernels import moebius_table
from vpvtotients.errors import DomainError, ResourceError
from vpvtotients.exactcore import (
    bernoulli,
    divisors,
    factorize,
    faulhaber_sum_direct,
    grid_power_sum,
    moebius,
    stirling2,
)


def _is_prime(p):
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def test_factorize_roundtrip():
    # every reported p must be prime: a factorize that returned (n, 1) for a
    # composite n would pass the product and order checks alone
    cases = list(range(1, 3001)) + [2**10 * 3**4, 9973, 10007 * 3]
    # around 10^6, where a sieve table used to end
    cases += [999983, 10**6, 10**6 + 3, 2 * 999983, 1000003**2, 2**20 * 3**5]
    # two primes just below the trial cap: the largest trial divisor needed
    cases.append(9999973 * 9999991)
    for n in cases:
        pairs = factorize(n)
        primes = [p for p, _ in pairs]
        assert all(e >= 1 for _, e in pairs), n
        assert primes == sorted(set(primes)), n
        assert all(_is_prime(p) for p in primes), n
        assert prod(p**e for p, e in pairs) == n


def test_factorize_trial_cap():
    # 10000019 and 10000079 are the two primes just above 10^7, so the
    # smallest factor of their product is one trial divisor past the cap
    with pytest.raises(ResourceError, match="47-bit n .* above cap 10000000"):
        factorize(10000019 * 10000079)


def test_moebius_matches_sieve():
    # the Moebius table that analytic sums over, sieved by prime strides
    sieve = moebius_table(500)
    for n in range(1, 501):
        assert moebius(n) == sieve[n]


def test_moebius_divisor_sum():
    # sum_{d|n} mu(d) = [n == 1]
    for n in range(1, 200):
        assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_divisors_sorted_and_complete():
    for n in range(1, 120):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_bernoulli_values():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        3: Fraction(0),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for a, want in expected.items():
        assert bernoulli(a) == want


def test_stirling2_recurrence_and_values():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    for n in range(1, 10):
        for j in range(1, n + 1):
            assert stirling2(n, j) == j * stirling2(n - 1, j) + stirling2(n - 1, j - 1)


def test_stirling2_large_n_inclusion_exclusion():
    # n far beyond the recursion limit; oracle S(n, 3) = sum_i (-1)^i C(3,i) (3-i)^n / 3!
    n = 2000
    want = sum((-1) ** i * comb(3, i) * (3 - i) ** n for i in range(4))
    assert want % 6 == 0
    assert stirling2(n, 3) == want // 6
    assert stirling2(n, n + 1) == 0 and stirling2(n, 0) == 0 and stirling2(n, n) == 1


def test_faulhaber_matches_direct():
    for m in range(0, 6):
        for k in range(1, 40):
            assert faulhaber_sum_direct(m, k) == sum(a**m for a in range(k)) + (
                1 if m == 0 else 0
            ) * 0 + (0 if m else 0)


def test_faulhaber_zero_power_convention():
    # 0^0 = 1: the m = 0 sum counts the k summands
    assert faulhaber_sum_direct(0, 5) == 5


def test_grid_power_sum_vs_brute_force():
    # integer, zero, negative and rational weights; h = 0 is the origin alone
    pool = [1, 0, -2, 3, Fraction(-5, 6), Fraction(7, 4)]
    for h in range(4):
        for k in range(1, 13):
            ws = [pool[(h + k + i) % len(pool)] for i in range(h)]
            for c in range(6):
                want = sum(
                    sum(w * a for w, a in zip(ws, point)) ** c
                    for point in product(range(k), repeat=h)
                )
                assert grid_power_sum(c, k, ws) == want, (h, k, c, ws)


def test_domain_errors():
    with pytest.raises((DomainError, ValueError)):
        factorize(0)
    with pytest.raises((DomainError, ValueError)):
        moebius(0)


def test_a_warm_cache_refuses_a_float():
    # an untyped lru_cache keys (5.0, 2) as (5, 2): once S(5, 2) was cached,
    # stirling2(5.0, 2) returned 15, though a cold cache raised TypeError
    assert stirling2(5, 2) == 15 and bernoulli(2) == Fraction(1, 6)
    for func, args in ((stirling2, (5.0, 2)), (bernoulli, (2.0,))):
        with pytest.raises(DomainError, match="must be integers"):
            func(*args)


def test_work_caps_raise_one_past_the_limit():
    # B_600 is the largest Bernoulli number; S(n, 1) costs 256 word steps
    # per row against a cap of 2*10^9, so n = 7812500 is the last allowed
    with pytest.raises(ResourceError, match="bernoulli"):
        bernoulli(601)
    for n, j in ((7812501, 1), (10**5, 10), (10**8, 50)):
        with pytest.raises(ResourceError, match="stirling2"):
            stirling2(n, j)
