"""Floating-point evaluation: zeta, truncated Dirichlet series, Jacobi theta.

The power-series identities elsewhere in the package are exact; this module
handles the statements that are genuinely analytic — Dirichlet generating
functions checked as partial-sum trends, and the theta-function product
identities checked by matched-index rearrangement.  Each theta factor is
its rotation number theta (x = e^(2 pi i theta)), and the selector weights of
the rearranged side are enumerated by the shared kernel
`_kernels.selector_char_sum`; their Moebius closed form is only the oracle of
the eq-6.7 audit check.

theta1 uses the standard convention 2 q^(1/4) sum_{k>=0} (-1)^k q^(k(k+1))
sin((2k+1)z).  All identities consuming it are ratio identities in which the
q^(1/4) prefactor cancels, so the convention choice is immaterial to them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from . import _kernels
from .errors import DomainError
from .exactcore import bernoulli, divisors, gcd_many, moebius_sieve
from .totients import _check_cap

__all__ = [
    "TruncationControl",
    "zeta",
    "dirichlet_partial_cohen",
    "ramanujan_mean_zero",
    "ramanujan_mean_zero_direct",
    "theta1",
    "theta_log_ratio_check",
    "ThetaVpvResult",
    "theta_vpv_check",
    "THETA_IDENTITIES",
]

_ZETA_CUTOFF = 10**4
_ZETA_CORRECTION_TERMS = 4


@dataclass(frozen=True)
class TruncationControl:
    """Series cutoff K and stopping tolerance for theta evaluations."""

    max_index: int = 10**4
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.max_index < 2:
            raise DomainError("max_index must be >= 2")
        if not 0.0 < self.tolerance < 1.0:
            raise DomainError("tolerance must lie in (0, 1)")


def zeta(s: float, tol: float = 1e-12) -> float:
    """Riemann zeta for real s > 1 via Euler-Maclaurin.

    Direct summation to 10^4 plus the integral tail, the half-term, and four
    Bernoulli correction terms.  The first omitted correction term bounds the
    truncation error below 1e-12 for 1 < s <= 60; float rounding dominates.
    """
    if s <= 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    if tol < 1e-13:
        raise DomainError("tolerance below the documented 1e-12 bound")
    N = _ZETA_CUTOFF
    total = sum(k**-s for k in range(1, N))
    total += N ** (1 - s) / (s - 1) + 0.5 * N**-s
    rising = s  # s(s+1)...(s+2i-2)
    for i in range(1, _ZETA_CORRECTION_TERMS + 1):
        b = float(bernoulli(2 * i))
        total += b / math.factorial(2 * i) * rising * N ** (-s - 2 * i + 1)
        rising *= (s + 2 * i - 1) * (s + 2 * i)
    return total


def _cohen_values(n: list[int] | tuple[int, ...], K: int) -> tuple[int, list[int]]:
    """(g, [c_1(n)..c_K(n)]) via the closed form and a Moebius sieve."""
    m = len(n)
    g = gcd_many([abs(int(v)) for v in n])
    mu = moebius_sieve(K)
    gdivs = divisors(g) if g else None
    out = []
    for k in range(1, K + 1):
        es = (e for e in gdivs if k % e == 0) if gdivs else divisors(k)
        out.append(sum(mu[k // e] * e**m for e in es))
    return g, out


def dirichlet_partial_cohen(
    s: float, n: list[int] | tuple[int, ...], K: int
) -> tuple[float, float]:
    """(partial, companion) for the Dirichlet generating function of c_k(n).

    partial = sum_{k<=K} c_k(n)/k^(s+1); companion = sigma_{m-1-s}(g)/zeta(s+1),
    the limit the partial sums should approach.  The all-zero n (g = 0) makes
    sigma over the divisors of 0 undefined and is rejected.
    """
    if s <= 0:
        raise DomainError(f"dirichlet_partial_cohen requires s > 0, got {s}")
    g, cs = _cohen_values(n, K)
    if g == 0:
        raise DomainError("g = gcd(n) = 0: divisor sum undefined, series divergent")
    m = len(n)
    partial = sum(c / k ** (s + 1.0) for k, c in enumerate(cs, start=1))
    companion = sum(d ** (m - 1.0 - s) for d in divisors(g)) / zeta(s + 1.0)
    return partial, companion


def ramanujan_mean_zero(n: list[int] | tuple[int, ...], K: int) -> float:
    """sum_{k<=K} c_k(n)/k via the rearrangement over divisors of g.

    Each divisor e of g contributes e^(m-1) times the Mertens-type partial
    sum of mu(d)/d up to K/e; the total tends to 0 as K grows.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    m = len(n)
    g = gcd_many([abs(int(v)) for v in n])
    if g == 0:
        raise DomainError("g = gcd(n) = 0: sum diverges")
    mu = moebius_sieve(K)
    total = 0.0
    for e in divisors(g):
        if e > K:
            continue
        total += e ** (m - 1) * sum(mu[d] / d for d in range(1, K // e + 1))
    return total


def ramanujan_mean_zero_direct(n: list[int] | tuple[int, ...], K: int) -> float:
    """Direct-summation oracle for ramanujan_mean_zero."""
    g, cs = _cohen_values(n, K)
    if g == 0:
        raise DomainError("g = gcd(n) = 0: sum diverges")
    return sum(c / k for k, c in enumerate(cs, start=1))


def theta1(z: float, q: float, trunc: TruncationControl | None = None) -> float:
    """Jacobi theta_1(z, q) = 2 q^(1/4) sum_{k>=0} (-1)^k q^(k(k+1)) sin((2k+1)z)."""
    if not 0.0 <= q < 1.0:
        raise DomainError(f"theta1 requires 0 <= q < 1, got {q}")
    if trunc is None:
        trunc = TruncationControl()
    if q == 0.0:
        return 0.0
    pref = 2.0 * q**0.25
    total = 0.0
    for k in range(trunc.max_index):
        term = (-1.0) ** k * q ** (k * (k + 1)) * math.sin((2 * k + 1) * z)
        total += term
        if q ** ((k + 1) * (k + 2)) < trunc.tolerance:
            break
    return pref * total


def _theta_ratio_log(v: int, alpha: float, beta: float, q: float,
                     trunc: TruncationControl) -> float:
    """log of theta1(v(a+b), q^v) sin(v(a-b)) / (theta1(v(a-b), q^v) sin(v(a+b)))."""
    num = theta1(v * (alpha + beta), q**v, trunc) * math.sin(v * (alpha - beta))
    den = theta1(v * (alpha - beta), q**v, trunc) * math.sin(v * (alpha + beta))
    if den == 0.0 or num / den <= 0.0:
        raise DomainError(f"theta ratio not positive at v={v}")
    return math.log(num / den)


def theta_log_ratio_check(
    alpha: float, beta: float, q: float, trunc: TruncationControl | None = None
) -> tuple[float, float]:
    """Both sides of the Lambert-series expansion of the theta_1 log ratio.

    lhs = sum_{k<=K} (1/k) q^(2k)/(1-q^(2k)) sin(2k a) sin(2k b);
    rhs = (1/4) log[theta1(a+b,q) sin(a-b) / (theta1(a-b,q) sin(a+b))].
    The q^(1/4) prefactors cancel in the ratio.
    """
    if trunc is None:
        trunc = TruncationControl(max_index=200, tolerance=1e-15)
    if not 0.0 <= q < 1.0:
        raise DomainError(f"requires 0 <= q < 1, got {q}")
    for name, val in (("alpha+beta", alpha + beta), ("alpha-beta", alpha - beta)):
        if abs(math.sin(val)) < 1e-12:
            raise DomainError(f"sin({name}) vanishes")
    if q == 0.0:
        return 0.0, 0.0
    lhs = 0.0
    for k in range(1, trunc.max_index + 1):
        q2k = q ** (2 * k)
        lhs += q2k / (1.0 - q2k) / k * math.sin(2 * k * alpha) * math.sin(2 * k * beta)
        if q2k < trunc.tolerance:
            break
    rhs = 0.25 * _theta_ratio_log(1, alpha, beta, q, trunc)
    return lhs, rhs


# --- matched-index verification of the theta-product identities ------------


def _left_weight(thetas: tuple[complex, ...], k: int) -> complex:
    """prod over factors of (1-x)/(1-x^(1/k)), as the full-grid geometric sum
    prod_i sum_{A<k} x_i^(A/k), which includes every degenerate case."""
    total = 1.0 + 0.0j
    for th in thetas:
        total *= sum(cmath.exp(2j * math.pi * th * A / k) for A in range(k))
    return total


@dataclass
class ThetaVpvResult:
    identity: str
    params: dict
    lhs: complex
    rhs: complex
    residual: float
    direct_residual: float | None
    status: str
    reason: str = ""
    notes: list[str] = field(default_factory=list)


THETA_IDENTITIES = ("thm-6.1", "cor-6.2", "cor-6.3", "thm-6.4", "cor-6.5", "cor-6.6")


def _factors_for(identity: str, params: dict) -> tuple[complex, ...]:
    """The rotation number theta of each left-side factor, x = e^(2 pi i theta):
    n for a rotation, 0 for the limit x -> 1, log(x)/(2 pi i) for real x."""
    if identity == "thm-6.1":
        xs = (float(params["x"]),)
    elif identity == "thm-6.4":
        xs = tuple(float(x) for x in params["xs"])
    elif identity == "cor-6.2":
        return (complex(int(params["n"])),)
    elif identity == "cor-6.3":
        return (0j,)
    elif identity == "cor-6.5":
        return (0j,) * int(params["m"])
    elif identity == "cor-6.6":
        return tuple(complex(int(v)) for v in params["n"])
    else:
        raise DomainError(f"unknown theta identity {identity!r}")
    for x in xs:
        if not 0.0 < x < 1.0:
            raise DomainError(f"real factor requires 0 < x < 1, got {x}")
    return tuple(cmath.log(x) / (2j * math.pi) for x in xs)


def theta_vpv_check(
    identity: str,
    params: dict,
    K: int = 40,
    tol: float = 1e-8,
) -> ThetaVpvResult:
    """Verify a theta-product identity by matched-index partial sums.

    Both sides are reduced to double sums over (k, j) via the Lambert
    expansion of the theta log ratio and the visible-point bijection; the
    left side is truncated at k <= K and the right side's tail sums S_v are
    taken to convergence, so the residual decays with the left tail as K
    grows.  Naive truncation of the infinite product is not used: the
    constant parts of individual log factors do not decay.

    When every exponent is real, the corrected printed form of the right
    side (theta1 ratios at scaled arguments, product read over k >= 2) is
    also evaluated directly and reported as direct_residual.
    """
    q = float(params.get("q", 0.1))
    alpha = float(params.get("alpha", 0.7))
    beta = float(params.get("beta", 0.3))
    if not 0.0 <= q < 1.0:
        return ThetaVpvResult(identity, params, 0, 0, math.inf, None,
                              "SKIPPED", reason=f"|q| >= 1 (q={q}): not convergent")
    thetas = _factors_for(identity, params)
    _check_cap(len(thetas), K)
    trunc = TruncationControl(max_index=400, tolerance=1e-16)

    def a(k: int) -> float:
        q2k = q ** (2 * k)
        return 4.0 / k * q2k / (1.0 - q2k) * math.sin(2 * k * alpha) * math.sin(2 * k * beta)

    lhs = sum(a(k) * _left_weight(thetas, k) for k in range(1, K + 1))

    def tail(v: int) -> float:
        total = 0.0
        j = 1
        while q ** (2 * j * v) > 1e-18 and j <= 2000:
            total += a(j * v)
            j += 1
        return total

    # the selector weight sum_{j in sel(h, v)} prod_i x_i^(j_i/v) of each
    # visible denominator v, enumerated once and read by both routes
    weights = [_kernels.selector_char_sum(v, thetas) for v in range(2, K + 1)]
    rhs = complex(tail(1))
    for v, w in zip(range(2, K + 1), weights):
        rhs += tail(v) * w
    residual = abs(lhs - rhs)

    direct_residual = None
    if all(abs(w.imag) < 1e-9 for w in weights):
        try:
            direct = _theta_ratio_log(1, alpha, beta, q, trunc)
            for v, w in zip(range(2, K + 1), weights):
                if abs(w.real) > 1e-15:
                    direct += w.real / v * _theta_ratio_log(v, alpha, beta, q, trunc)
            direct_residual = abs(lhs.real - direct)
        except DomainError:
            direct_residual = None

    status = "PASS" if residual < tol else "FAIL"
    return ThetaVpvResult(identity, params, lhs, rhs, residual, direct_residual, status)
