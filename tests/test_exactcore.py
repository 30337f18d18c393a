from fractions import Fraction
from math import comb, gcd

import pytest

from vpvtotients.errors import DomainError, ResourceError
from vpvtotients.exactcore import (
    bernoulli,
    divisors,
    factorize,
    faulhaber_sum,
    faulhaber_sum_direct,
    gcd_many,
    moebius,
    moebius_sieve,
    stirling2,
)


def test_gcd_many():
    assert gcd_many([12, 18, 30]) == 6
    assert gcd_many([0, 0, 7]) == 7
    assert gcd_many([5]) == 5


def test_factorize_roundtrip():
    for n in list(range(1, 200)) + [2**10 * 3**4, 9973, 10007 * 3]:
        f = factorize(n)
        assert all(e >= 1 for _, e in f.pairs)
        assert list(f.primes()) == sorted(f.primes())
        assert f.value == n


def test_moebius_matches_sieve():
    sieve = moebius_sieve(500)
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
            assert faulhaber_sum(m, k) == faulhaber_sum_direct(m, k)
            assert faulhaber_sum_direct(m, k) == sum(a**m for a in range(k)) + (
                1 if m == 0 else 0
            ) * 0 + (0 if m else 0)


def test_faulhaber_zero_power_convention():
    # 0^0 = 1: the m = 0 sum counts the k summands
    assert faulhaber_sum(0, 5) == 5


def test_domain_errors():
    with pytest.raises((DomainError, ValueError)):
        factorize(0)
    with pytest.raises((DomainError, ValueError)):
        moebius(0)


def test_work_caps_raise_one_past_the_limit():
    # B_600 is the largest Bernoulli number; S(n, 1) costs 256 word steps
    # per row against a cap of 2*10^9, so n = 7812500 is the last allowed
    with pytest.raises(ResourceError, match="bernoulli"):
        bernoulli(601)
    for n, j in ((7812501, 1), (10**5, 10), (10**8, 50)):
        with pytest.raises(ResourceError, match="stirling2"):
            stirling2(n, j)
