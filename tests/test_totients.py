import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

import vpvtotients._kernels as kernels
import vpvtotients.exactcore as exactcore
import vpvtotients.totients as totients
from vpvtotients.analytic import theta_vpv_check
from vpvtotients.errors import DomainError, ResourceError
from vpvtotients.exactcore import divisors, moebius
from vpvtotients.totients import (
    LatticeSelector,
    enumerate_selector,
    jordan,
    m_phi,
    phi_t,
    phi_t_enum,
    ramanujan_cohen,
    ramanujan_cohen_enum,
    selector_size,
    sigma,
    unnormalized_phi,
)


def test_closed_form_matches_enumeration_grid():
    rng = random.Random(2024)
    cases = 0
    for m in (1, 2, 3):
        for k in range(2, 61):
            k_budget = 4 if m < 3 else (2 if k <= 30 else 1)
            for _ in range(k_budget):
                n = [rng.randint(0, 20) for _ in range(m)]
                assert ramanujan_cohen(k, n) == ramanujan_cohen_enum(k, n), (k, n)
                cases += 1
    assert cases >= 500


def test_enumeration_with_huge_n():
    # j * n_i would overflow int64 without reducing n_i mod k first
    for k, n, want in ((30, (2**62 + 6,), -4), (7, (10**19,), -1)):
        assert ramanujan_cohen_enum(k, n) == ramanujan_cohen(k, n) == want


def test_closed_form_factorizes_k_once(monkeypatch):
    # the divisors e of (k, g) and mu(k/e) both come from one factorize(k);
    # the n grid includes 0 (e runs over every divisor of k) and n sharing
    # only some of k's prime powers
    calls = []
    original = exactcore.factorize

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(exactcore, "factorize", counting)
    monkeypatch.setattr(totients, "factorize", counting)
    for k in range(2, 61):
        for n in ([0], [1], [4], [12], [30], [45], [0, 0], [0, 18], [8, 20], [9, 6]):
            calls.clear()
            got = ramanujan_cohen(k, n)
            assert calls == [k], (k, n, calls)
            assert got == ramanujan_cohen_enum(k, n), (k, n)


def test_k1_convention():
    assert ramanujan_cohen(1, [5]) == 1
    assert ramanujan_cohen(1, [0, 0]) == 1


def test_moebius_specialization():
    # c_k(1) = mu(k)
    for k in range(1, 200):
        assert ramanujan_cohen(k, [1]) == moebius(k)


def test_jordan_specialization():
    # all-zero argument gives the Jordan totient
    for m in (1, 2, 3):
        for k in range(1, 60):
            assert ramanujan_cohen(k, [0] * m) == jordan(m, k)


def test_even_in_each_argument():
    rng = random.Random(5)
    for _ in range(100):
        m = rng.randint(1, 3)
        k = rng.randint(2, 40)
        n = [rng.randint(-20, 20) for _ in range(m)]
        flipped = [-v for v in n]
        assert ramanujan_cohen(k, n) == ramanujan_cohen(k, flipped)
        assert ramanujan_cohen(k, n) == ramanujan_cohen(k, [abs(v) for v in n])


def test_multiplicativity_in_k():
    rng = random.Random(9)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = [rng.randint(0, 20) for _ in range(m)]
        k1 = rng.randint(2, 12)
        k2 = rng.choice([k for k in range(2, 12) if gcd(k, k1) == 1])
        assert ramanujan_cohen(k1 * k2, n) == ramanujan_cohen(k1, n) * ramanujan_cohen(k2, n)


def test_jordan_product_equals_selector_count():
    for m in (1, 2, 3):
        for k in range(2, 101):
            assert jordan(m, k) == selector_size(m, k)


def test_jordan_divisor_law():
    for m in (1, 2, 3, 4):
        for k in range(1, 201):
            assert sum(jordan(m, d) for d in divisors(k)) == k**m


def test_phi_t_matches_enumeration():
    for t in (0, 1, 2, 3):
        for m in (1, 2, 3):
            for k in range(1, 25):
                assert phi_t(t, m, k) == phi_t_enum(t, m, k)


def test_phi_0_is_jordan():
    for m in (1, 2, 3):
        for k in range(2, 80):
            assert phi_t(0, m, k) == jordan(m, k)


def test_phi_1_relation():
    # phi_1(2; k) = J_2(k) - J_1(k)
    for k in range(2, 201):
        assert phi_t(1, 2, k) == jordan(2, k) - jordan(1, k)


def test_phi_closed_form_at_a_large_modulus():
    # 30030 = 2*3*5*7*11*13 has 64 divisors; the closed form sums over all
    # of them, each a full-grid power sum of e terms per power
    start = time.perf_counter()
    k = 30030
    assert phi_t(0, 3, k) == jordan(3, k)
    assert phi_t(1, 2, k) == jordan(2, k) - jordan(1, k)
    assert time.perf_counter() - start < 2.0


def test_unnormalized_phi_integral():
    # against the enumeration: phi_t itself is unnormalized_phi / k^t
    for t in (0, 1, 2):
        for k in range(2, 30):
            assert unnormalized_phi(t, 2, k) == phi_t_enum(t, 2, k) * k**t


def test_m_phi_against_brute_force():
    for m_fixed in range(0, 8):
        for k in range(1, 40):
            brute = sum(
                1
                for a in range(k)
                if gcd(gcd(a, m_fixed), k) == 1 and a + m_fixed != 0
            )
            assert m_phi(m_fixed, k) == brute


def test_sigma_values():
    assert sigma(1, 6) == 12
    assert sigma(0, 12) == 6
    assert sigma(-1, 6) == Fraction(2)
    assert sigma(2, 10) == 130


def test_selector_enumeration_matches_size():
    for m in (1, 2):
        for k in (2, 5, 9, 12):
            sel = enumerate_selector(LatticeSelector(m, k))
            assert len(sel) == selector_size(m, k)
            assert len(set(sel)) == len(sel)


def test_selector_array_matches_tuples():
    # the int64 array and the tuple view over it both list the brute-force
    # selector, J_m(k) points in lexicographic order; at k = 1 it is empty
    cases = [(m, k) for m in (1, 2, 3) for k in range(1, 31)] + [(2, 500), (3, 60)]
    for m, k in cases:
        brute = [
            js for js in product(range(k), repeat=m) if any(js) and gcd(k, *js) == 1
        ]
        rows = enumerate_selector(LatticeSelector(m, k))
        assert rows.array.dtype == np.int64, (m, k)
        assert rows.array.shape == (jordan(m, k) if k > 1 else 0, m), (m, k)
        assert [tuple(r) for r in rows.array.tolist()] == brute, (m, k)
        assert list(rows) == brute, (m, k)


def test_selector_cap_raises_before_allocating(monkeypatch):
    # 3162^2 <= 10^7 < 3163^2: one past the cap, every entry point raises
    # before the kernel builds its k^m mask
    def no_mask(m, k):
        raise AssertionError(f"mask built for m={m}, k={k}")

    monkeypatch.setattr(kernels, "_selector_mask", no_mask)
    calls = (
        lambda: enumerate_selector(LatticeSelector(2, 3163)),
        lambda: selector_size(2, 3163),
        lambda: ramanujan_cohen_enum(3163, (1, 1)),
        lambda: phi_t_enum(2, 2, 3163),
        lambda: theta_vpv_check((0j, 0j), 0.1, 0.7, 0.3, K=3163),
        lambda: m_phi(1, 10**7 + 1),
    )
    for call in calls:
        with pytest.raises(ResourceError, match="above cap 10000000"):
            call()


def test_jordan_cap_raises_before_the_power(monkeypatch):
    # J_m(k) has about m * log2(k) bits: 10^6 at m = 10^6, k = 2, and
    # 999998.8 at m = 630929, k = 3. One past, jordan raises before it builds
    # k^m or factorizes k
    def no_factorize(k):
        raise AssertionError(f"factorized {k}")

    monkeypatch.setattr(totients, "factorize", no_factorize)
    # an m past the float range (10^400) must raise too, not overflow
    for m, k in ((10**6 + 1, 2), (630930, 3), (10**12, 3), (5, 10**200001),
                 (10**400, 3)):
        with pytest.raises(ResourceError, match="above cap 1000000"):
            jordan(m, k)


def test_jordan_of_one_for_any_m():
    # J_m(1) = 1 has no bits to cap, however large m is
    assert jordan(10**400, 1) == 1


def test_sigma_cap_raises_before_factorizing(monkeypatch):
    # sigma_s(n) holds the term n^|s|, of about |s| log2(n) bits, and for
    # s < 0 a numerator and a denominator of that size, 2 |s| log2(n) bits;
    # past the Jordan cap it raises before divisors(n) factorizes n, for
    # either sign of s and for an |s| past the float range
    def no_divisors(n):
        raise AssertionError(f"factorized {n}")

    monkeypatch.setattr(totients, "divisors", no_divisors)
    for s, n in ((10**6 + 1, 2), (386853, 6), (-386853, 6), (-193427, 6),
                 (3 * 10**6, 6), (-(10**12), 3), (10**400, 2), (1, 2**(10**6 + 1))):
        with pytest.raises(ResourceError, match="above cap 1000000"):
            sigma(s, n)
    monkeypatch.undo()
    # n = 1 has no bits to cap, and sigma runs at 999998 bits (s = 386852,
    # n = 6), one step of s below the cap
    assert sigma(10**400, 1) == sigma(-(10**400), 1) == 1
    assert sigma(386852, 6) == 1 + 2**386852 + 3**386852 + 6**386852


def test_phi_work_cap_raises_before_the_power_sums(monkeypatch):
    # at the cap in one of t, m, k (the others fixed) phi_t goes on to its
    # first grid power sum; one past, it raises before it
    class Reached(Exception):
        pass

    def no_sums(c, k, ws):
        raise Reached

    monkeypatch.setattr(totients, "grid_power_sum", no_sums)
    for at_cap, past in (
        ((0, 99745, 6), (0, 99746, 6)),
        ((3, 3, 533873), (3, 3, 533874)),
        ((1019, 3, 6), (1020, 3, 6)),
    ):
        with pytest.raises(Reached):
            phi_t(*at_cap)
        with pytest.raises(ResourceError, match="above cap 2000000000"):
            phi_t(*past)
    for big in ((10**12, 1, 2), (0, 10**12, 2), (2, 3, 10**12), (1, 1, 10**400)):
        with pytest.raises(ResourceError, match="above cap"):
            phi_t(*big)


def test_domain_errors():
    with pytest.raises(DomainError):
        ramanujan_cohen(0, [1])
    with pytest.raises(DomainError):
        ramanujan_cohen(4, [])
    with pytest.raises(DomainError):
        ramanujan_cohen_enum(1, [1])
    with pytest.raises(DomainError):
        phi_t(-1, 2, 3)
    with pytest.raises(DomainError):
        sigma(1, 0)
