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
from math import gcd, log, log2, sqrt

from . import _kernels
from .errors import ConsistencyError, DomainError, ResourceError
from .exactcore import divisors, factorize, gcd_many, grid_power_sum

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
    "unnormalized_phi",
    "m_phi",
    "sigma",
]

DEFAULT_SELECTOR_CAP = 10**7

# J_m(k) has about m * log2(k) bits. At 10^6 bits, `compute jordan` took
# 2.0-3.9 s end to end (k = 2, 3, 200, 997, 30030, 223092870; most of it the
# quadratic int -> str), and the time grows with the square of the size.
JORDAN_BITS_CAP = 10**6

# The phi_t closed form takes t + 1 power sums of e terms for each divisor e
# of k, and m (t + 1)^2 convolution steps per divisor, on integers of about
# m log2(k) + t log2(mk) bits.  The prediction bounds sigma(k) by k (1 + ln k)
# and the number of divisors by 2 sqrt(k), so it needs no factorization, and
# charges each step 64 words of overhead plus its integer's words.  Inputs
# at the cap in one of t, m or k took 0.27-3.7 s end to end in
# `compute phi`; the slowest have t near 1000, whose steps multiply two
# multi-word integers.
PHI_WORK_CAP = 2 * 10**9

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


def enumerate_selector(sel: LatticeSelector) -> _kernels.SelectorRows:
    """The selector set in lexicographic order, as a read-only sequence of
    m-tuples of Python ints over the (N, m) int64 array it exposes as
    `.array`; callers that need every point at once read the array."""
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
    d = gcd(k, gcd_many([abs(int(v)) for v in n]))  # gcd(k, 0) = k
    # the sum is multiplicative, so one factorization of k splits it into a
    # factor per p^a || k: e takes p^b with b up to the exponent c of p in d,
    # and mu(k/e) = 0 unless b >= a - 1; an empty range makes the factor 0
    total = 1
    for p, a in factorize(k).pairs:
        c = 0
        while d % p == 0:
            d //= p
            c += 1
        total *= sum((-1) ** (a - b) * p ** (b * m) for b in range(a - 1, c + 1))
    return total


def jordan(m: int, k: int) -> int:
    """Jordan totient J_m(k) = k^m * prod_{p|k} (1 - p^-m), exactly."""
    if m < 1 or k < 1:
        raise DomainError(f"jordan requires m >= 1 and k >= 1, got m={m}, k={k}")
    # an m past the cap puts the bits past it for every k >= 2, so clamping
    # keeps the float finite without letting a larger input through
    bits = min(m, JORDAN_BITS_CAP + 1) * log2(k)
    if bits > JORDAN_BITS_CAP:
        raise ResourceError(
            f"J_m(k) for a {m.bit_length()}-bit m and a {k.bit_length()}-bit k has "
            f"about {bits:.3g} bits or more, above cap {JORDAN_BITS_CAP}"
        )
    value = k**m
    for p in factorize(k).primes():
        value = value // p**m * (p**m - 1)
    return value


def _check_phi_work(t: int, m: int, k: int) -> None:
    # any one argument past the cap puts the work past it, so clamping keeps
    # the floats finite without letting a larger input through
    t, m, k = (float(min(v, PHI_WORK_CAP)) for v in (t, m, k))
    steps = (t + 1) * k * (1 + log(k)) + m * (t + 1) ** 2 * 2 * sqrt(k)
    work = steps * (64 + (m * log2(k) + t * log2(m * k)) / 64)
    if work > PHI_WORK_CAP:
        raise ResourceError(
            f"phi_t closed form needs {work:.3g} or more word steps, "
            f"above cap {PHI_WORK_CAP}"
        )


def phi_t(t: int, m: int, k: int) -> Fraction:
    """phi_t(m; k) = sum over the selector of ((j_1+...+j_m)/k)^t, exact:
    `unnormalized_phi(t, m, k)` / k^t."""
    return Fraction(unnormalized_phi(t, m, k), k**t)


def unnormalized_phi(t: int, m: int, k: int) -> int:
    """sum over the selector of (j_1+...+j_m)^t = k^t * phi_t(t, m, k).

    Moebius closed form: sum over the squarefree d | k of mu(d) d^t G(k/d),
    where G(e) is the sum of (i_1 + ... + i_m)^t over the full grid [0, e)^m,
    computed by `exactcore.grid_power_sum(t, e, (1,) * m)`.  A predicted cost
    above PHI_WORK_CAP raises ResourceError before k is factorized.  Returns 0
    for k = 1 (empty selector).
    """
    if t < 0 or m < 1 or k < 1:
        raise DomainError("phi_t requires t >= 0, m >= 1, k >= 1")
    if k == 1:
        return 0
    _check_phi_work(t, m, k)
    squarefree = [(1, 1)]  # (d, mu(d))
    for p in factorize(k).primes():
        squarefree += [(d * p, -mu) for d, mu in squarefree]
    return sum(
        mu * d**t * grid_power_sum(t, k // d, (1,) * m) for d, mu in squarefree
    )


def phi_t_enum(t: int, m: int, k: int) -> Fraction:
    """phi_t by direct enumeration over the selector (the oracle route)."""
    if t < 0 or m < 1 or k < 1:
        raise DomainError("phi_t requires t >= 0, m >= 1, k >= 1")
    if k == 1:
        return Fraction(0)
    _check_cap(m, k)
    return Fraction(_kernels.selector_power_sum(t, m, k), k**t)


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
    # n^|s| has |s| log2(n) bits, and for s < 0 the sum has a numerator and
    # a denominator of that size; checked before n is factorized, as in jordan
    bits = min(abs(s), JORDAN_BITS_CAP + 1) * log2(n) * (2 if s < 0 else 1)
    if bits > JORDAN_BITS_CAP:
        raise ResourceError(
            f"sigma_s(n) for a {abs(s).bit_length()}-bit |s| and a {n.bit_length()}-bit n "
            f"has terms of about {bits:.3g} bits or more, above cap {JORDAN_BITS_CAP}"
        )
    return sum((Fraction(d) ** s for d in divisors(n)), Fraction(0))
