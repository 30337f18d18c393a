"""Truncated univariate formal power series over exact rationals.

The carrier for every infinite-product identity checked coefficientwise.
All arithmetic is exact (fractions.Fraction); there is deliberately no
floating-point shortcut, so a wrong printed coefficient cannot hide inside
a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import DomainError
from .exactcore import stirling2

__all__ = [
    "PowerSeries",
    "DEFAULT_ORDER",
    "geometric",
    "one",
    "zero",
    "ps_mul",
    "ps_exp",
    "ps_log",
    "ps_pow_rational",
    "product_with_exponents",
    "stirling_rhs_series",
    "finite_stirling_check",
]

DEFAULT_ORDER = 64


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c_0..c_N of a series truncated at order N."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(_as_fraction(c) for c in self.coeffs)
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.coeffs[: order + 1])

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1))
        )

    def scale(self, r) -> "PowerSeries":
        r = _as_fraction(r)
        return PowerSeries(tuple(r * c for c in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self) -> str:
        return " + ".join(f"({c})z^{i}" for i, c in enumerate(self.coeffs) if c)


def zero(order: int = DEFAULT_ORDER) -> PowerSeries:
    return PowerSeries((Fraction(0),) * (order + 1))


def one(order: int = DEFAULT_ORDER) -> PowerSeries:
    return PowerSeries((Fraction(1),) + (Fraction(0),) * order)


def monomial(coeff, power: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    c = [Fraction(0)] * (order + 1)
    if power <= order:
        c[power] = _as_fraction(coeff)
    return PowerSeries(tuple(c))


def geometric(order: int = DEFAULT_ORDER) -> PowerSeries:
    """1/(1-z) truncated at the given order."""
    return PowerSeries((Fraction(1),) * (order + 1))


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


def ps_exp(a: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term, via the differential recurrence.

    b = exp(a) satisfies b' = a'b, i.e. n*b_n = sum_{j=1}^{n} j*a_j*b_{n-j}.
    """
    if a.coeffs[0] != 0:
        raise DomainError("ps_exp requires a zero constant term")
    n = a.order
    b = [Fraction(0)] * (n + 1)
    b[0] = Fraction(1)
    for i in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, i + 1):
            if a.coeffs[j]:
                acc += j * a.coeffs[j] * b[i - j]
        b[i] = acc / i
    return PowerSeries(tuple(b))


def ps_log(a: PowerSeries) -> PowerSeries:
    """log of a series with constant term 1; inverse of ps_exp."""
    if a.coeffs[0] != 1:
        raise DomainError("ps_log requires constant term 1")
    n = a.order
    # l = log(a): a' = l'a, so i*a_i = sum_{j=1}^{i} j*l_j*a_{i-j}
    l = [Fraction(0)] * (n + 1)
    for i in range(1, n + 1):
        acc = i * a.coeffs[i]
        for j in range(1, i):
            if l[j] and a.coeffs[i - j]:
                acc -= j * l[j] * a.coeffs[i - j]
        l[i] = acc / i
    return PowerSeries(tuple(l))


def ps_pow_rational(a: PowerSeries, r) -> PowerSeries:
    """a**r for rational r, as exp(r * log(a)); requires constant term 1."""
    return ps_exp(ps_log(a).scale(_as_fraction(r)))


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

    Computed as exp(sum exps[k] * log(1 - z^k)).  Keys above the truncation
    order are rejected: such factors could not affect retained coefficients,
    so their presence signals a caller error.
    """
    total = zero(order)
    for k, r in exps.items():
        if not 1 <= k <= order:
            raise DomainError(f"exponent key {k} outside 1..{order}")
        total = total + log_one_minus_z_pow(k, order).scale(_as_fraction(r))
    return ps_exp(total)


def power_sum_series(m: int, order: int) -> PowerSeries:
    """sum_{k>=1} k^(m-1) z^k truncated; for m = 1 the k = 0 term (0^0 = 1)
    is included so the series is 1/(1-z)."""
    c = [Fraction(k ** (m - 1)) for k in range(order + 1)]
    if m == 1:
        c[0] = Fraction(1)  # 0^0 = 1
    else:
        c[0] = Fraction(0)
    return PowerSeries(tuple(c))


def stirling_rhs_series(m: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """sum_{j=0}^{m-1} S(m-1, j) j! z^j / (1-z)^(j+1) as a truncated series.

    Coefficient of z^n is sum_j S(m-1, j) j! C(n, j), the falling-factorial
    expansion of n^(m-1); equals power_sum_series(m, order) including the
    n = 0 term under the 0^0 = 1 convention.
    """
    if m < 1:
        raise DomainError("stirling_rhs_series requires m >= 1")
    c = []
    for n in range(order + 1):
        c.append(
            sum(
                stirling2(m - 1, j) * factorial(j) * comb(n, j)
                for j in range(min(m - 1, n) + 1)
            )
        )
    return PowerSeries(tuple(Fraction(v) for v in c))


def _poly_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(coeffs)][1:] or [Fraction(0)]


def _poly_eval(coeffs: list[Fraction], z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def finite_stirling_check(m: int, n: int, z) -> bool:
    """Check sum_{k=0}^{n-1} k^(m-1) z^k against the Stirling-derivative form.

    Right side: sum_j S(m-1, j) z^j d^j/dz^j [1 + z + ... + z^(n-1)], with
    the derivative taken exactly on polynomial coefficients.  0^0 = 1.
    """
    if m < 1 or n < 1:
        raise DomainError("finite_stirling_check requires m >= 1 and n >= 1")
    z = _as_fraction(z)
    if z == 1:
        raise DomainError("z = 1 is outside the identity's domain")
    lhs = sum(
        (Fraction(1 if (k == 0 and m == 1) else k ** (m - 1)) * z**k for k in range(n)),
        Fraction(0),
    )
    poly = [Fraction(1)] * n  # 1 + z + ... + z^(n-1)
    rhs = Fraction(0)
    deriv = poly
    for j in range(m):
        s = stirling2(m - 1, j)
        if s:
            rhs += s * z**j * _poly_eval(deriv, z)
        deriv = _poly_derivative(deriv)
    return lhs == rhs
