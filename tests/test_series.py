import random
import time
from fractions import Fraction

import numpy as np
import pytest

from vpvtotients.audit.registry import _falling_expansion, _finite_stirling_sides
from vpvtotients.errors import DomainError, ResourceError
from vpvtotients.series import (
    PowerSeries,
    check_power_sum_work,
    product_with_exponents,
    ps_exp,
    ps_log,
    ps_mul,
)


def _order(series: PowerSeries) -> int:
    return len(series.coeffs) - 1


# Oracles: the exp and log recurrences in Fraction arithmetic, term by term.


def _fraction_exp(a: list) -> list:
    """b = exp(a) from n*b_n = sum_{j=1}^{n} j*a_j*b_{n-j}."""
    b = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for i in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, i + 1):
            if a[j]:
                acc += j * a[j] * b[i - j]
        b[i] = acc / i
    return b


def _fraction_log(a: list) -> list:
    """l = log(a) from i*a_i = sum_{j=1}^{i} j*l_j*a_{i-j}, a_0 = 1."""
    l = [Fraction(0)] * len(a)
    for i in range(1, len(a)):
        acc = i * a[i]
        for j in range(1, i):
            if l[j] and a[i - j]:
                acc -= j * l[j] * a[i - j]
        l[i] = acc / i
    return l


def _random_coeffs(rng, order, const, max_den):
    return [Fraction(const)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, max_den)) if rng.random() < 0.8
        else Fraction(0)
        for _ in range(order)
    ]


ORACLE_ORDERS = list(range(0, 8)) + [12, 20, 31, 40]


@pytest.mark.parametrize("max_den", [1, 6, 60])
def test_exp_and_log_equal_fraction_oracles(max_den):
    # max_den > 1 makes the lcm D (exp) and E (log) of the denominators > 1
    rng = random.Random(max_den)
    for order in ORACLE_ORDERS:
        a = _random_coeffs(rng, order, 0, max_den)
        assert ps_exp(PowerSeries(tuple(a))).coeffs == tuple(_fraction_exp(a)), order
        f = _random_coeffs(rng, order, 1, max_den)
        assert ps_log(PowerSeries(tuple(f))).coeffs == tuple(_fraction_log(f)), order


def _timed(call, *args):
    start = time.perf_counter()
    out = call(*args)
    return out, time.perf_counter() - start


def test_exp_with_many_large_denominators():
    # 128 coefficients with denominators up to 1000: the scale n! D^n has
    # 48.6 kbit at n = 128, where b_128 has a 2.3 kbit denominator
    a = _random_coeffs(random.Random(128), 128, 0, 1000)
    got, seconds = _timed(ps_exp, PowerSeries(tuple(a)))
    assert got.coeffs == tuple(_fraction_exp(a))
    assert seconds < 0.5


def test_log_with_denominators_up_to_50_and_back():
    f = _random_coeffs(random.Random(50), 128, 1, 50)
    assert ps_log(PowerSeries(tuple(f))).coeffs == tuple(_fraction_log(f))
    # at order 96 exp(log f) is under the work cap
    x = PowerSeries(tuple(f[:97]))
    back, seconds = _timed(lambda: ps_exp(ps_log(x)))
    assert back == x
    assert seconds < 0.5


def _naive_product(exps: dict, order: int) -> list:
    """prod (1 - z^k)^r_k for integer r_k by repeated polynomial products."""
    out = [1] + [0] * order
    for k, r in exps.items():
        for _ in range(abs(r)):
            if r > 0:  # times (1 - z^k)
                out = [c - (out[i - k] if i >= k else 0) for i, c in enumerate(out)]
            else:  # divided by (1 - z^k): prefix sums with stride k
                for i in range(k, order + 1):
                    out[i] += out[i - k]
    return out


def test_product_with_exponents_vs_naive_multiplication():
    rng = random.Random(7)
    for order in ORACLE_ORDERS:
        exps = {
            k: rng.randint(-3, 3) for k in range(1, order + 1) if rng.random() < 0.7
        }
        got = product_with_exponents(exps, order)
        assert got.coeffs == tuple(Fraction(c) for c in _naive_product(exps, order))


def test_product_with_exponents_vs_logs():
    # rational exponents: the Fraction exp of sum_k r_k log(1 - z^k)
    rng = random.Random(11)
    for order in ORACLE_ORDERS:
        exps = {
            k: Fraction(rng.randint(-5, 5), rng.randint(1, 12))
            for k in range(1, order + 1)
            if rng.random() < 0.7
        }
        # log(1 - z^k) = -sum_j z^(jk) / j
        log_sum = [Fraction(0)] * (order + 1)
        for k, r in exps.items():
            for j in range(1, order // k + 1):
                log_sum[j * k] -= r / j
        got = product_with_exponents(exps, order)
        assert got.coeffs == tuple(_fraction_exp(log_sum)), order


def test_product_with_exponents_rejects_keys_outside_order():
    for k in (0, 9, -1):
        with pytest.raises(DomainError):
            product_with_exponents({k: 1}, 8)
    with pytest.raises(DomainError):
        product_with_exponents({}, -1)


def test_product_with_exponents_refuses_non_integer_order_and_keys():
    # these ended in TypeError, or in AttributeError at a numpy int key's
    # bit_length; numpy ints are integers and pass
    with pytest.raises(DomainError, match=r"must be integers, got \(2.5, 1\)"):
        product_with_exponents({1: 1}, 2.5)
    with pytest.raises(DomainError, match=r"must be integers, got \(3, 1.0\)"):
        product_with_exponents({1.0: 1}, 3)
    assert product_with_exponents({np.int64(1): 1}, np.int64(3)) == \
        product_with_exponents({1: 1}, 3)


def test_mul_identity_and_commutativity():
    g = PowerSeries((1,) * 11)
    assert ps_mul(g, PowerSeries((1,) + (0,) * 10)) == g
    m = PowerSeries((0, 0, 3) + (0,) * 8)
    assert ps_mul(g, m) == ps_mul(m, g)


def test_geometric_times_one_minus_z():
    n = 12
    one_minus_z = PowerSeries(
        tuple([Fraction(1), Fraction(-1)] + [Fraction(0)] * (n - 1))
    )
    assert ps_mul(PowerSeries((1,) * (n + 1)), one_minus_z) == PowerSeries((1,) + (0,) * n)


def test_exp_log_roundtrip():
    n = 16
    coeffs = [Fraction(0)] + [Fraction((-1) ** k, k) for k in range(1, n + 1)]
    f = PowerSeries(tuple(coeffs))
    assert ps_log(ps_exp(f)) == f


def test_exp_requires_zero_constant():
    with pytest.raises((DomainError, ValueError)):
        ps_exp(PowerSeries((1, 0, 0, 0, 0)))


def test_empty_series_refused():
    # every series has c_0: an empty one would fail later in ps_exp and
    # ps_log, as an IndexError at coeffs[0]
    with pytest.raises(DomainError, match="c_0"):
        PowerSeries(())


def test_log_one_minus_z_pow():
    # the coefficients -1/j at z^(jk) that the tests build inline are
    # ps_log(1 - z^k), and ps_exp takes them back
    n = 12
    for k in (1, 2, 5):
        want = [Fraction(0)] * (n + 1)
        for j in range(1, n // k + 1):
            want[j * k] = Fraction(-1, j)
        one_minus = PowerSeries(tuple(1 if i == 0 else -(i == k) for i in range(n + 1)))
        assert ps_log(one_minus) == PowerSeries(tuple(want))
        assert ps_exp(PowerSeries(tuple(want))) == one_minus


def test_pow_rational_square_root():
    n = 10
    g = PowerSeries((1,) * (n + 1))
    half = ps_exp(ps_log(g).scale(Fraction(1, 2)))
    assert ps_mul(half, half) == g


def test_partition_product():
    n = 8
    exps = {k: -1 for k in range(1, n + 1)}
    got = product_with_exponents(exps, n)
    # partition numbers p(0)..p(8)
    assert [int(c) for c in got.coeffs] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


# The Stirling displays (eq-4.14, eq-4.15) are audit-registry data; these
# tests check the registry's falling-factorial expansion of k^(m-1).


def _stirling_rhs_series(m, order):
    """sum_j S(m-1, j) j! z^j / (1-z)^(j+1), the eq-4.15 exponent."""
    return PowerSeries(tuple(_falling_expansion(m, k) for k in range(order + 1)))


def test_power_sum_series_values():
    s = _stirling_rhs_series(3, 6)
    assert s.coeffs == tuple(
        Fraction(v) for v in (0, 1, 4, 9, 16, 25, 36)
    )
    assert _stirling_rhs_series(1, 4) == PowerSeries((1, 1, 1, 1, 1))


def test_stirling_rhs_series_low_orders():
    # m = 2: sum_j S(1, j) j! z^j / (1-z)^(j+1) has coefficient n at z^n
    s = _stirling_rhs_series(2, 8)
    assert s.coeffs == tuple(Fraction(n) for n in range(9))


def test_finite_stirling_grid():
    for m in range(1, 7):
        for n in range(1, 13):
            for z in (Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(1, 3)):
                lhs, rhs = _finite_stirling_sides(m, n, z)
                assert lhs == rhs


def test_series_equality_is_exact():
    a = PowerSeries((Fraction(1), Fraction(1, 3)))
    b = PowerSeries((Fraction(1), Fraction(333333, 1000000)))
    assert a != b


def test_series_equality_needs_equal_order():
    # a prefix comparison made (1) equal to both (1, 2) and (1, 3), which
    # differ, and disagreed with the hash on coeffs
    short, two, three = PowerSeries((1,)), PowerSeries((1, 2)), PowerSeries((1, 3))
    assert short != two and short != three and two != three
    assert PowerSeries((1, 2)) == two and hash(PowerSeries((1, 2))) == hash(two)
    assert len({short, two, three, PowerSeries((1, 2))}) == 3


def test_series_work_cap_raises_before_the_recurrence():
    # one coefficient of 10^7 bits at order 1 is predicted far above the cap
    huge = Fraction(2) ** 10**7
    for call, arg in (
        (ps_exp, PowerSeries((0, huge))),
        (ps_log, PowerSeries((1, huge))),
        (ps_log, PowerSeries((1, 1 / huge))),
    ):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="series recurrence"):
            call(arg)
        assert time.perf_counter() - start < 0.5
    with pytest.raises(ResourceError):
        product_with_exponents({1: Fraction(1, 2**10**6)}, 4)


def test_power_sum_cap_matches_the_engine_one_past_the_limit():
    # k^93 z^k at order 512 is the largest admitted power there (about 2 s);
    # at k^94 both the prediction and ps_exp itself refuse at once
    check_power_sum_work(93, 512)
    with pytest.raises(ResourceError):
        check_power_sum_work(94, 512)
    over = PowerSeries(tuple(Fraction(k**94) for k in range(513)))
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        ps_exp(over)
    assert time.perf_counter() - start < 0.5
    # the audit's power sums have power <= 7 at order <= 64
    for power in (0, 4, 12):
        check_power_sum_work(power, 128)
