"""Truncated univariate formal power series over exact rationals.

The carrier for every infinite-product identity checked coefficientwise.
All arithmetic is exact; there is deliberately no floating-point shortcut,
so a wrong printed coefficient cannot hide inside a tolerance.  Coefficients
are fractions.Fraction.  The exp and log recurrences (and so products
prod (1 - z^k)^{r_k}) run on integers scaled by the lcm
of the input denominators, with one exact division per output coefficient,
and refuse with ResourceError inputs whose predicted work is above a cap.

This module is only that algebra.  The Stirling expansions of the
Jordan-totient product (eq-4.14 and eq-4.15) are audit-registry data: the
registry builds their power sums and exponent series from Stirling numbers
and hands them to `ps_exp` here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, log2

from .errors import DomainError, ResourceError

__all__ = [
    "PowerSeries",
    "DEFAULT_ORDER",
    "ps_mul",
    "ps_exp",
    "ps_log",
    "product_with_exponents",
    "check_power_sum_work",
]

DEFAULT_ORDER = 64


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

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def scale(self, r) -> "PowerSeries":
        r = _as_fraction(r)
        return PowerSeries(tuple(r * c for c in self.coeffs))

    def __str__(self) -> str:
        return " + ".join(f"({c})z^{i}" for i, c in enumerate(self.coeffs) if c)


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

    The scaled coefficients have at most order*(growth + den_bits + log2 order
    + 1) bits, where growth bounds log2|x_j|/j; the multipliers have at most
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


def _scaled(x: list, extra_growth: int) -> tuple:
    """(D, s) with D the lcm of the denominators of x_1..x_N and
    s_j = D x_j D^(j-1) integers (s_0 = 0), after the work-cap check."""
    n = len(x) - 1
    d = lcm(*(v.denominator for v in x[1:]))
    growth = max(
        (max(v.numerator.bit_length() - v.denominator.bit_length() + 1, 0) / j
         for j, v in enumerate(x[1:], start=1)),
        default=0,
    )
    num_bits = max((v.numerator.bit_length() for v in x[1:]), default=0)
    _check_work(n, growth + extra_growth, num_bits, d.bit_length())
    s = [0] * (n + 1)
    dpow = 1
    for j in range(1, n + 1):
        s[j] = x[j].numerator * (d // x[j].denominator) * dpow
        dpow *= d
    return d, s


def _exp_from_derivative(c: list) -> PowerSeries:
    """exp(a) truncated at order len(c) - 1, from c_j = j*a_j (c[0] unused).

    b = exp(a) satisfies b' = a'b, i.e. n*b_n = sum_{j=1}^{n} c_j*b_{n-j}.
    With D the lcm of the denominators of c_1..c_N and C_j = D*c_j, the
    integers B_n = n! D^n b_n satisfy B_0 = 1 and
    B_n = sum_{j=1}^{n} C_j D^(j-1) (n-1)!/(n-j)! B_{n-j},
    summed by Horner's rule in j, so each b_n costs one exact division.
    """
    d, t = _scaled(c, 0)
    big = [1]
    b = [Fraction(1)]
    den = 1
    for i in range(1, len(c)):
        acc = 0
        for j in range(i, 0, -1):
            acc *= i - j
            if t[j]:
                acc += t[j] * big[i - j]
        big.append(acc)
        den *= i * d
        b.append(Fraction(acc, den))
    return PowerSeries(tuple(b))


def ps_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term, via the differential recurrence
    b' = a'b in integers (see `_exp_from_derivative`)."""
    if a.coeffs[0] != 0:
        raise DomainError("ps_exp requires a zero constant term")
    return _exp_from_derivative([j * x for j, x in enumerate(a.coeffs)])


def ps_log(a: PowerSeries) -> PowerSeries:
    """log of a series with constant term 1; inverse of ps_exp.

    l = log(a) satisfies a' = l'a, i.e. c_i = i*a_i - sum_{j<i} c_j*a_{i-j}
    with c_i = i*l_i.  With E the lcm of the denominators of a_1..a_N and
    a_i = F_i/E, the integers C_i = E^i c_i satisfy
    C_i = i F_i E^(i-1) - sum_{j<i} C_j F_{i-j} E^(i-j-1),
    so each l_i = C_i/(i E^i) costs one exact division.
    """
    if a.coeffs[0] != 1:
        raise DomainError("ps_log requires constant term 1")
    # |c_i| grows at most like (2 max_j |a_j|^(1/j))^i: one more bit per index
    e, g = _scaled(a.coeffs, 1)
    big = [0]
    l = [Fraction(0)]
    epow = 1
    for i in range(1, len(g)):
        acc = i * g[i]
        for j in range(1, i):
            if g[i - j]:
                acc -= big[j] * g[i - j]
        big.append(acc)
        epow *= e
        l.append(Fraction(acc, i * epow))
    return PowerSeries(tuple(l))


def log_one_minus_z_pow(k: int, order: int) -> PowerSeries:
    """log(1 - z^k) = -sum_{j>=1, jk<=order} z^(jk)/j."""
    if k < 1:
        raise DomainError("log_one_minus_z_pow requires k >= 1")
    c = [Fraction(0)] * (order + 1)
    j = 1
    while j * k <= order:
        c[j * k] = Fraction(-1, j)
        j += 1
    return PowerSeries(tuple(c))


def product_with_exponents(exps: dict, order: int = DEFAULT_ORDER) -> PowerSeries:
    """prod_{k=1}^{order} (1 - z^k)^exps[k], truncated at the given order.

    The log of the product is sum_k exps[k] * log(1 - z^k), whose z^N
    coefficient times N is c_N = -sum_{k | N} k*exps[k]; the c_N are sieved
    straight into the exp recurrence.  Keys above the truncation order are
    rejected: such factors could not affect retained coefficients, so their
    presence signals a caller error.
    """
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    c = [0] * (order + 1)
    for k, r in exps.items():
        if not 1 <= k <= order:
            raise DomainError(f"exponent key {k} outside 1..{order}")
        r = _as_fraction(r)
        # integer exponents sieve as ints, which skips a gcd per addition
        kr = k * r.numerator if r.denominator == 1 else k * r
        for m in range(k, order + 1, k):
            c[m] -= kr
    return _exp_from_derivative(c)
