import random
from fractions import Fraction
from math import gcd

import pytest

import vpvtotients._kernels as kernels
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


def test_unnormalized_phi_integral():
    for t in (0, 1, 2):
        for k in range(2, 30):
            assert unnormalized_phi(t, 2, k) == phi_t(t, 2, k) * k**t


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
        lambda: theta_vpv_check("cor-6.5", {"m": 2}, K=3163),
        lambda: m_phi(1, 10**7 + 1),
    )
    for call in calls:
        with pytest.raises(ResourceError, match="above cap 10000000"):
            call()


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
