"""Generalized Ramanujan-Cohen sums, Jordan totients, and the phi_t family.

Every arithmetic function in this module comes in two routes: a direct
enumeration over the selector set (the m-tuples j in [0,k)^m with
gcd(j_1..j_m, k) = 1 and j != 0) and a closed form obtained by Moebius
inversion over the full grid.  The enumeration routes are the oracles; the
closed forms are what callers should use for large k.

Conventions adopted here:
  * k = 1: the literal selector set is empty, but ramanujan_cohen(1, n) = 1
    (the classical c_1(n) = 1 convention, required by the divisor-sum law).
  * phi_t(t, m, 1) = 0 (the empty sum); jordan(m, 1) = 1 (empty product).
  * Negative n_i are allowed; values depend on n only through gcd(|n_i|).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _kernels
from .errors import ConsistencyError, DomainError, ResourceError
from .exactcore import divisors, factorize, gcd_many, moebius

__all__ = [
    "LatticeSelector",
    "DEFAULT_SELECTOR_CAP",
    "enumerate_selector",
    "selector_size",
    "ramanujan_cohen_enum",
    "ramanujan_cohen",
    "jordan",
    "phi_t",
    "phi_t_enum",
    "grid_power_sum",
    "unnormalized_phi",
    "m_phi",
    "sigma",
]

DEFAULT_SELECTOR_CAP = 10**7

# residual guard for the floating-point cosine enumeration
_ENUM_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class LatticeSelector:
    """The index set of the generalized Ramanujan sum: dimension m, modulus k."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1:
            raise DomainError(f"selector requires m >= 1 and k >= 1, got {self}")


def _check_cap(m: int, k: int) -> None:
    if k**m > DEFAULT_SELECTOR_CAP:
        raise ResourceError(
            f"selector grid for m={m}, k={k} has {k**m} tuples, "
            f"above cap {DEFAULT_SELECTOR_CAP}"
        )


def enumerate_selector(sel: LatticeSelector) -> list[tuple[int, ...]]:
    """The selector set as a lexicographically ordered list of m-tuples."""
    _check_cap(sel.m, sel.k)
    return _kernels.selector_tuples(sel.m, sel.k)


def selector_size(m: int, k: int) -> int:
    """Cardinality of the selector set, by counting."""
    _check_cap(m, k)
    return _kernels.selector_count(m, k)


def ramanujan_cohen_enum(k: int, n: list[int] | tuple[int, ...]) -> int:
    """c_k(n) by direct enumeration: sum of cos(2*pi*(j.n)/k) over the selector.

    Floating point with a rounding-residual guard; the residual before
    rounding must stay below 1e-6.  Enumeration covers k >= 2 only.
    """
    if k < 2:
        raise DomainError("enumeration oracle requires k >= 2; use the k=1 convention")
    if not n:
        raise DomainError("n must be a non-empty tuple")
    _check_cap(len(n), k)
    total = _kernels.selector_cos_sum(k, tuple(int(v) for v in n))
    nearest = round(total)
    if abs(total - nearest) >= _ENUM_RESIDUAL_TOL:
        raise ConsistencyError(
            f"cosine sum residual {abs(total - nearest):.3e} at k={k}, n={tuple(n)}"
        )
    return int(nearest)


def ramanujan_cohen(k: int, n: list[int] | tuple[int, ...]) -> int:
    """c_k(n_1..n_m) by the closed form sum_{e | gcd(k,g)} mu(k/e) e^m.

    g = gcd(|n_1|..|n_m|), with gcd(k, 0) = k so that the all-zero n gives
    the Jordan totient J_m(k).  For k = 1 the value is 1 by convention.
    """
    if k < 1:
        raise DomainError(f"ramanujan_cohen requires k >= 1, got {k}")
    if not n:
        raise DomainError("n must be a non-empty tuple")
    if k == 1:
        return 1
    m = len(n)
    g = gcd_many([abs(int(v)) for v in n])
    total = 0
    for e in divisors(gcd(k, g) if g else k):
        total += moebius(k // e) * e**m
    return total


def jordan(m: int, k: int) -> int:
    """Jordan totient J_m(k) = k^m * prod_{p|k} (1 - p^-m), exactly."""
    if m < 1 or k < 1:
        raise DomainError(f"jordan requires m >= 1 and k >= 1, got m={m}, k={k}")
    value = k**m
    for p in factorize(k).primes():
        value = value // p**m * (p**m - 1)
    return value


def grid_power_sum(t: int, m: int, e: int) -> int:
    """sum over the full grid [0,e)^m of (i_1 + ... + i_m)**t.

    Computed through the coefficient list of (1 + x + ... + x^(e-1))^m:
    coefficient c_s counts the tuples with digit sum s.
    """
    if t < 0 or m < 1 or e < 1:
        raise DomainError("grid_power_sum requires t >= 0, m >= 1, e >= 1")
    coeffs = [1] * e
    for _ in range(m - 1):
        out = [0] * (len(coeffs) + e - 1)
        for i, c in enumerate(coeffs):
            for j in range(e):
                out[i + j] += c
        coeffs = out
    return sum(c * s**t for s, c in enumerate(coeffs))


def phi_t(t: int, m: int, k: int) -> Fraction:
    """phi_t(m; k) = sum over the selector of ((j_1+...+j_m)/k)^t, exact.

    Moebius closed form: sum_{e|k} mu(k/e) * grid_power_sum(t, m, e) / e^t.
    Returns 0 for k = 1 (empty selector).
    """
    if t < 0 or m < 1 or k < 1:
        raise DomainError("phi_t requires t >= 0, m >= 1, k >= 1")
    if k == 1:
        return Fraction(0)
    total = Fraction(0)
    for e in divisors(k):
        mu = moebius(k // e)
        if mu:
            total += mu * Fraction(grid_power_sum(t, m, e), e**t)
    return total


def phi_t_enum(t: int, m: int, k: int) -> Fraction:
    """phi_t by direct enumeration over the selector (the oracle route)."""
    if t < 0 or m < 1 or k < 1:
        raise DomainError("phi_t requires t >= 0, m >= 1, k >= 1")
    if k == 1:
        return Fraction(0)
    _check_cap(m, k)
    return Fraction(_kernels.selector_power_sum(t, m, k), k**t)


def unnormalized_phi(t: int, m: int, k: int) -> int:
    """sum over the selector of (j_1+...+j_m)^t = k^t * phi_t(t,m,k), an integer."""
    value = phi_t(t, m, k) * k**t
    if value.denominator != 1:
        raise ConsistencyError(f"unnormalized phi not integral at t={t}, m={m}, k={k}")
    return int(value)


def m_phi(m_fixed: int, k: int) -> int:
    """Number of a in [0, k) with gcd(a, m_fixed, k) = 1 and a + m_fixed != 0.

    Half-open range, consistent with the selector definition.
    """
    if m_fixed < 0 or k < 1:
        raise DomainError("m_phi requires m_fixed >= 0 and k >= 1")
    _check_cap(1, k)
    return sum(
        1 for a in range(k) if gcd(gcd(a, m_fixed), k) == 1 and a + m_fixed != 0
    )


def sigma(s: int, n: int) -> Fraction:
    """sum of d^s over the divisors d of n; rational for negative s."""
    if n < 1:
        raise DomainError(f"sigma requires n >= 1, got {n}")
    return sum((Fraction(d) ** s for d in divisors(n)), Fraction(0))
