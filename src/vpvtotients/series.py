"""Truncated univariate formal power series over exact rationals.

The carrier for every infinite-product identity checked coefficientwise.
All arithmetic is exact; there is deliberately no floating-point shortcut,
so a wrong printed coefficient cannot hide inside a tolerance.  Coefficients
are fractions.Fraction.  The exp and log recurrences (and so products
prod (1 - z^k)^{r_k}) are one integer recurrence whose scale grows only by
the denominators it meets, with one Fraction per output coefficient, and
refuse with ResourceError inputs whose predicted work is above a cap.

This module is only that algebra: the Stirling expansions of the
Jordan-totient product (eq-4.14, eq-4.15) are audit-registry data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, log2
from operator import mul

from .errors import DomainError, ResourceError, integers

__all__ = [
    "PowerSeries",
    "ps_mul",
    "ps_exp",
    "ps_log",
    "product_with_exponents",
    "check_power_sum_work",
]


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c_0..c_N of a series truncated at order N.

    Two series are equal only when they have the same order and the same
    coefficients (the dataclass equality and hash, both on `coeffs`).
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs)
        )
        if not self.coeffs:
            raise DomainError("a series needs at least the coefficient c_0")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def scale(self, r) -> "PowerSeries":
        r = _as_fraction(r)
        return PowerSeries(tuple(r * c for c in self.coeffs))


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to min(a.order, b.order)."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, ca in enumerate(a.coeffs[: n + 1]):
        if not ca:
            continue
        for j in range(n + 1 - i):
            cb = b.coeffs[j]
            if cb:
                out[i + j] += ca * cb
    return PowerSeries(tuple(out))


# Work cap for the exp/log recurrences, in predicted 64-bit word steps.
# Fitted on timings of power-sum, random-rational and log inputs at orders
# 2..512, where a step took 1 to 7 ns; power sums at the cap take 2 to 4 s
# through the CLI, output included.
_SERIES_WORK_CAP = 5 * 10**8


def _check_work(order: int, growth: float, num_bits: int, den_bits: int) -> None:
    """Raise ResourceError when a recurrence is predicted above the work cap.

    An upper bound, as `_recurrence` scales the n-th coefficient by at most
    n! D^n: so it has at most order*(growth + den_bits + log2 order + 1)
    bits, where growth bounds log2|x_j|/j; the multipliers have at most
    num_bits + order*den_bits.  Each of the order^2/2 steps multiplies one of
    each (Karatsuba: big * mult^0.585 words), and each coefficient pays one
    conversion quadratic in its words (the exact division or decimal output).
    """
    big = order * (growth + den_bits + order.bit_length() + 1) / 64 + 1
    mult = (num_bits + order * den_bits) / 64 + 1
    work = order * order / 2 * (256 + big * mult**0.585) + order * big * big / 2
    if work > _SERIES_WORK_CAP:
        raise ResourceError(
            f"series recurrence at order {order} needs about {work:.3g} word "
            f"steps, above cap {_SERIES_WORK_CAP:.3g}"
        )


def check_power_sum_work(power: int, order: int) -> None:
    """The work-cap check of ps_exp on sum_{k=1}^{order} k^power z^k, made
    without building any k^power.  Its c_k = k^(power+1) have at most
    (power+1) log2 k + 1 bits and denominator 1."""
    e = max(power + 1, 0)
    _check_work(
        order,
        max(((e * log2(k) + 1) / k for k in range(1, order + 1)), default=0),
        int(e * log2(order)) + 1 if order > 0 else 0,
        1,
    )


def _over_lcm(x: list, extra_growth: int) -> tuple:
    """(D, F) with D the lcm of the denominators of x_1..x_N and F_j = D x_j
    integers (F_0 = 0), after the work-cap check."""
    nums, dens = [v.numerator for v in x[1:]], [v.denominator for v in x[1:]]
    d = lcm(*dens)
    growth = max(
        (max(a.bit_length() - b.bit_length() + 1, 0) / j
         for j, (a, b) in enumerate(zip(nums, dens), start=1)),
        default=0,
    )
    num_bits = max((a.bit_length() for a in nums), default=0)
    _check_work(len(nums), growth + extra_growth, num_bits, d.bit_length())
    return d, [0] + [a * (d // b) for a, b in zip(nums, dens)]


def _recurrence(d: int, w: list, v: list, s: int, y0: int) -> tuple:
    """Integers (Y, Q) with y_n = Y_n/Q_n, where y_0 = y0 and
    d n^s y_n = v_n + sum_{j=1}^{n} w_j y_{n-j} for n = 1..len(w) - 1.

    A_n = Q_{n-1} d n^s y_n is an integer, r_n = d n^s / gcd(d n^s, A_n) and
    Q_n = r_n Q_{n-1} (Q_0 = 1), so Q_n <= n!^s d^n grows only as the answer
    needs.  As Q_{n-1}/Q_k = r_{k+1}..r_{n-1}, A_n is summed by Horner's rule
    up to the last k with r_k > 1, and past it by one convolution; the terms
    past the last nonzero w_j or v_j vanish and are skipped.
    """
    deg = max((j for j, (a, b) in enumerate(zip(w, v)) if a or b), default=0)
    ys, qs, rs = [y0], [1], [1]
    top = 0  # one past the last index n with r_n > 1
    for n in range(1, len(w)):
        lo = n - deg if n > deg else 0  # k < lo has w_{n-k} = 0; lo > 0 has v_n = 0
        mid = top if top > lo else lo
        acc = v[n]
        for k in range(lo, mid):
            acc *= rs[k]
            c = w[n - k]
            if c:
                acc += c * ys[k]
        if mid < n:
            acc += sum(map(mul, w[n - mid:0:-1], ys[mid:]))
        dn = d * n**s
        g = gcd(dn, acc)
        r = dn // g
        ys.append(acc // g if g != 1 else acc)
        qs.append(qs[-1] * r)
        rs.append(r)
        top = n + 1 if r != 1 else top
    return ys, qs


def _exp_from_derivative(c: list) -> PowerSeries:
    """exp(a) to order len(c) - 1 from c_j = j*a_j: n b_n = sum_j c_j b_{n-j}."""
    d, w = _over_lcm(c, 0)
    ys, qs = _recurrence(d, w, [0] * len(w), 1, 1)
    return PowerSeries(tuple(map(Fraction, ys, qs)))


def ps_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term (see `_exp_from_derivative`)."""
    if a.coeffs[0] != 0:
        raise DomainError("ps_exp requires a zero constant term")
    c = [Fraction(j * x.numerator, x.denominator) for j, x in enumerate(a.coeffs)]
    return _exp_from_derivative(c)


def ps_log(a: PowerSeries) -> PowerSeries:
    """log of a series with constant term 1; inverse of ps_exp.

    l = log(a) satisfies a' = l'a: with c_i = i*l_i, E the lcm of the
    denominators of a_1..a_N and a_i = F_i/E, E c_i = i F_i - sum_{j=1}^{i}
    F_j c_{i-j} (c_0 = 0), which `_recurrence` solves with s = 0.
    """
    if a.coeffs[0] != 1:
        raise DomainError("ps_log requires constant term 1")
    # |c_i| grows at most like (2 max_j |a_j|^(1/j))^i: one more bit per index
    e, f = _over_lcm(a.coeffs, 1)
    ys, qs = _recurrence(e, [-x for x in f], list(map(mul, range(len(f)), f)), 0, 0)
    return PowerSeries((0, *map(Fraction, ys[1:], map(mul, range(1, len(qs)), qs[1:]))))


def product_with_exponents(exps: dict, order: int) -> PowerSeries:
    """prod_{k=1}^{order} (1 - z^k)^exps[k], truncated at the given order.

    The log of the product is sum_k exps[k] * log(1 - z^k), whose z^N
    coefficient times N is c_N = -sum_{k | N} k*exps[k]; the c_N are sieved
    straight into the exp recurrence.  Keys above the truncation order are
    rejected: such factors could not affect retained coefficients, so their
    presence signals a caller error.  The order and the keys must be integers.
    """
    order, *keys = integers(order, *exps)
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    c = [0] * (order + 1)
    for k, r in zip(keys, exps.values()):
        if not 1 <= k <= order:
            raise DomainError(f"exponent key {k} outside 1..{order}")
        r = _as_fraction(r)
        # an integer k r sieves as an int, which skips a gcd per addition
        if k % r.denominator == 0:
            kr = k // r.denominator * r.numerator
        else:
            kr = k * r
        for m in range(k, order + 1, k):
            c[m] -= kr
    return _exp_from_derivative(c)
