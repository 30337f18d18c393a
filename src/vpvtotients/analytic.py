"""Floating-point evaluation: zeta, truncated Dirichlet series, Jacobi theta.

The power-series identities elsewhere in the package are exact; this module
handles the statements that are genuinely analytic — Dirichlet generating
functions checked as partial-sum trends, and the theta-function product
identities checked by matched-index rearrangement.  `theta_vpv_check` takes
each theta factor as its rotation number theta (x = e^(2 pi i theta)): n for
a rotation, 0 for x -> 1, `real_rotation(x)` for a real 0 < x < 1.  The
selector weights of the rearranged side, `selector_weights(thetas, K)`, are
enumerated by the shared kernel `_kernels.selector_char_sum`; the eq-6.7
audit check reads the same function, and their Moebius closed form is only
its oracle.

The O(K) series are numpy arrays: zeta's 10^4-term head, the Cohen table
c_1(n)..c_K(n), the Dirichlet partial sums and the mean-value sums.  Each
sum is one `np.add.accumulate`, which adds left to right, as `sum()` adds
floats on Python 3.11 and `np.sum`, pairwise, does not; each k^(-s) is
numpy's `power`, which may differ from libm's `pow` in the last bit.  The
Cohen table is int64 while the sum of e^m over the divisors e it sieves,
which bounds every value, is below 2^53, so that each value is exact as a
float and c_k / k is Python's correctly rounded quotient; it holds Python
ints in an object array from there, through the same code.  A cutoff K
that is not an integer or is below 1 is refused as a `DomainError`, and
one past the kernels' cell cap, with every O(K) array, as a `ResourceError`
by `_kernels.check_table`, before the Moebius table is built; g = gcd(n) = 0
is refused before either.

theta1 uses the standard convention 2 q^(1/4) sum_{k>=0} (-1)^k q^(k(k+1))
sin((2k+1)z).  All identities consuming it are ratio identities in which the
q^(1/4) prefactor cancels, so the convention choice is immaterial to them.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import _kernels
from .errors import DomainError, integer_tuple, integers
from .exactcore import bernoulli, divisors

__all__ = [
    "zeta",
    "dirichlet_partial_cohen",
    "ramanujan_mean_zero_table",
    "ramanujan_mean_zero_direct",
    "theta1",
    "theta_log_ratio_check",
    "real_rotation",
    "selector_weights",
    "theta_vpv_check",
]

_ZETA_CUTOFF = 10**4
_ZETA_CORRECTION_TERMS = 4
_THETA_MAX_TERMS = 10**4


def zeta(s: float) -> float:
    """Riemann zeta for real s > 1 via Euler-Maclaurin.

    Direct summation to 10^4 plus the integral tail, the half-term, and four
    Bernoulli correction terms.  The first omitted correction term bounds the
    truncation error below 1e-12 for 1 < s <= 60; float rounding dominates.
    """
    if s <= 1:
        raise DomainError(f"zeta requires s > 1, got {s}")
    N = _ZETA_CUTOFF
    total = _left_to_right(np.arange(1.0, N) ** -s)
    total += N ** (1 - s) / (s - 1) + 0.5 * N**-s
    rising = s  # s(s+1)...(s+2i-2)
    for i in range(1, _ZETA_CORRECTION_TERMS + 1):
        b = float(bernoulli(2 * i))
        total += b / math.factorial(2 * i) * rising * N ** (-s - 2 * i + 1)
        rising *= (s + 2 * i - 1) * (s + 2 * i)
    return total


def _nonzero_gcd(n: list[int] | tuple[int, ...], why: str) -> tuple[tuple, int]:
    """(n read by `integer_tuple`, g = gcd(|n_1|..|n_m|)), refused when n is
    empty or has a non-integer entry, or g = 0, before any O(K) table is built."""
    n = integer_tuple(n)
    g = math.gcd(*n)
    if g == 0:
        raise DomainError(f"g = gcd(n) = 0: {why}")
    return n, g


def _check_cutoff(K: int) -> int:
    """K as a Python int; a cutoff that is not an integer, is below 1, or is
    past the kernels' cell cap is refused before any O(K) table is built."""
    (K,) = integers(K)
    if K < 1:
        raise DomainError(f"K must be >= 1, got {K}")
    _kernels.check_table(K)
    return K


def _left_to_right(terms: np.ndarray) -> float:
    """terms[0] + terms[1] + ... added in that order, as a 3.11 `sum()` adds
    floats; `np.sum` would add pairwise."""
    return float(np.add.accumulate(terms)[-1])


def _cohen_values(n: tuple[int, ...], K: int) -> np.ndarray:
    """[c_1(n)..c_K(n)] by the closed form sum_{e | gcd(k,g)} mu(k/e) e^m.

    Sieved over the divisors e of g (every e <= K when g = 0, which gives the
    Jordan totients): each adds mu(q) e^m to c_(eq) for q <= K/e, so the cost
    is at most K * d(g) additions, with no divisor list per k.  The divisor
    e = 1 adds mu(q) to c_q, so the sieve starts from the Moebius table and
    runs from the second divisor.  n is read by `integer_tuple`; K >= 1.

    The values are int64 while the sum of e^m over the sieved divisors, which
    bounds every |c_k| and every partial sum of the sieve, is below 2^53, so
    that numpy's int-to-float casts are exact, and Python ints in an object
    array from there.
    """
    K = _check_cutoff(K)
    m = len(n)
    g = math.gcd(*n)
    sieved = [e for e in divisors(g) if e <= K] if g else range(1, K + 1)
    dtype = np.int64 if sum(e**m for e in sieved) < 2**53 else object
    mu = _kernels.moebius_table(K)
    out = mu.astype(dtype)
    for e in sieved[1:]:
        # out[e * q] += mu(q) e^m for q = 1..K // e; mu is cast first, since
        # an int8 array times a Python int raises past int8 and wraps below
        out[e::e] += mu[1:K // e + 1].astype(dtype) * e**m
    return out[1:]


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
    n, g = _nonzero_gcd(n, "divisor sum undefined, series divergent")
    cs = _cohen_values(n, K)
    m = len(n)
    partial = _left_to_right(cs / np.arange(1.0, K + 1) ** (s + 1.0))
    companion = sum(d ** (m - 1.0 - s) for d in divisors(g)) / zeta(s + 1.0)
    return partial, companion


def ramanujan_mean_zero_table(ns, Ks) -> list[list[float]]:
    """[[sum_{k<=K} c_k(n)/k for K in Ks] for n in ns], via the rearrangement
    over divisors of g.

    Each divisor e of g contributes e^(m-1) times the Mertens-type partial
    sum of mu(d)/d up to K/e; the total tends to 0 as K grows.  One Moebius
    table at the largest K serves every n and K: the partial sums are read
    from one `np.add.accumulate` of mu(d)/d, which adds left to right, made
    in place in the one float array of the quotients.
    """
    Ks = [_check_cutoff(K) for K in Ks]
    read = [_nonzero_gcd(n, "sum diverges") for n in ns]
    top = max(Ks, default=0)
    mu = _kernels.moebius_table(top)
    partial = np.arange(top + 1.0)
    partial[0] = 1.0  # mu(0) = 0, so partial[0] is 0 / 1
    np.divide(mu, partial, out=partial)
    np.add.accumulate(partial, out=partial)
    table = []
    for n, g in read:
        m, divs = len(n), divisors(g)
        row = []
        for K in Ks:
            total = 0.0
            for e in divs:
                if e > K:
                    break
                total += e ** (m - 1) * float(partial[K // e])
            row.append(total)
        table.append(row)
    return table


def ramanujan_mean_zero_direct(n: list[int] | tuple[int, ...], K: int) -> float:
    """Direct-summation oracle for ramanujan_mean_zero_table: sum_{k<=K}
    c_k(n)/k."""
    n, _ = _nonzero_gcd(n, "sum diverges")
    cs = _cohen_values(n, K)
    return _left_to_right(cs / np.arange(1, K + 1))


def theta1(z: float, q: float, tol: float = 1e-12) -> float:
    """Jacobi theta_1(z, q) = 2 q^(1/4) sum_{k>=0} (-1)^k q^(k(k+1)) sin((2k+1)z)."""
    if not 0.0 <= q < 1.0:
        raise DomainError(f"theta1 requires 0 <= q < 1, got {q}")
    if q == 0.0:
        return 0.0
    pref = 2.0 * q**0.25
    total = 0.0
    for k in range(_THETA_MAX_TERMS):
        term = (-1.0) ** k * q ** (k * (k + 1)) * math.sin((2 * k + 1) * z)
        total += term
        if q ** ((k + 1) * (k + 2)) < tol:
            break
    return pref * total


def _theta_ratio_log(v: int, alpha: float, beta: float, q: float, tol: float) -> float:
    """log of theta1(v(a+b), q^v) sin(v(a-b)) / (theta1(v(a-b), q^v) sin(v(a+b)))."""
    num = theta1(v * (alpha + beta), q**v, tol) * math.sin(v * (alpha - beta))
    den = theta1(v * (alpha - beta), q**v, tol) * math.sin(v * (alpha + beta))
    if den == 0.0 or num / den <= 0.0:
        raise DomainError(f"theta ratio not positive at v={v}")
    return math.log(num / den)


def theta_log_ratio_check(alpha: float, beta: float, q: float) -> tuple[float, float]:
    """Both sides of the Lambert-series expansion of the theta_1 log ratio.

    lhs = sum_{k<=K} (1/k) q^(2k)/(1-q^(2k)) sin(2k a) sin(2k b);
    rhs = (1/4) log[theta1(a+b,q) sin(a-b) / (theta1(a-b,q) sin(a+b))].
    The q^(1/4) prefactors cancel in the ratio.
    """
    if not 0.0 <= q < 1.0:
        raise DomainError(f"requires 0 <= q < 1, got {q}")
    for name, val in (("alpha+beta", alpha + beta), ("alpha-beta", alpha - beta)):
        if abs(math.sin(val)) < 1e-12:
            raise DomainError(f"sin({name}) vanishes")
    if q == 0.0:
        return 0.0, 0.0
    tol = 1e-15
    lhs = 0.0
    for k in range(1, _THETA_MAX_TERMS + 1):
        q2k = q ** (2 * k)
        lhs += q2k / (1.0 - q2k) / k * math.sin(2 * k * alpha) * math.sin(2 * k * beta)
        if q2k < tol:
            break
    rhs = 0.25 * _theta_ratio_log(1, alpha, beta, q, tol)
    return lhs, rhs


# --- matched-index verification of the theta-product identities ------------


def real_rotation(x: float) -> complex:
    """The rotation number theta of a real factor x = e^(2 pi i theta), 0 < x < 1."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"real factor requires 0 < x < 1, got {x}")
    return cmath.log(x) / (2j * math.pi)


def _left_weight(thetas: tuple[complex, ...], k: int) -> complex:
    """prod over factors of (1-x)/(1-x^(1/k)), as the full-grid geometric sum
    prod_i sum_{A<k} x_i^(A/k), which includes every degenerate case."""
    total = 1.0 + 0.0j
    for th in thetas:
        total *= sum(cmath.exp(2j * math.pi * th * A / k) for A in range(k))
    return total


def selector_weights(thetas: tuple[complex, ...], K: int) -> list[complex]:
    """The selector weight sum_{j in sel(h, v)} prod_i x_i^(j_i/v) of each
    visible denominator v = 2..K, h = len(thetas), enumerated by the shared
    kernel; h >= 1.  The selectors are checked against the kernels' cap
    before the first v, the largest, (h, K), alone and all of v = 2..K
    together, since the loop walks every one."""
    if not thetas:
        raise DomainError("need at least one theta factor")
    K = _check_cutoff(K)
    _kernels.check_selectors_upto(len(thetas), K)
    return [_kernels.selector_char_sum(v, thetas) for v in range(2, K + 1)]


def theta_vpv_check(
    thetas: tuple[complex, ...], q: float, alpha: float, beta: float, K: int
) -> tuple[float, float | None]:
    """(residual, direct_residual) of a theta-product identity, verified by
    matched-index partial sums; thetas are the rotation numbers of its
    left-side factors.

    Both sides are reduced to double sums over (k, j) via the Lambert
    expansion of the theta log ratio and the visible-point bijection; the
    left side is truncated at k <= K and the right side's tail sums S_v are
    taken to convergence, so the residual decays with the left tail as K
    grows.  Naive truncation of the infinite product is not used: the
    constant parts of individual log factors do not decay.

    When every exponent is real, the corrected printed form of the right
    side (theta1 ratios at scaled arguments, product read over k >= 2) is
    also evaluated directly and its distance is direct_residual; otherwise
    direct_residual is None.
    """
    if not 0.0 <= q < 1.0:
        raise DomainError(f"theta_vpv_check requires 0 <= q < 1, got {q}")
    # the weights of the rearranged side, read by both routes below
    weights = selector_weights(thetas, K)
    tol = 1e-16

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

    rhs = complex(tail(1))
    for v, w in zip(range(2, K + 1), weights):
        rhs += tail(v) * w
    residual = abs(lhs - rhs)

    direct_residual = None
    if all(abs(w.imag) < 1e-9 for w in weights):
        try:
            direct = _theta_ratio_log(1, alpha, beta, q, tol)
            for v, w in zip(range(2, K + 1), weights):
                if abs(w.real) > 1e-15:
                    direct += w.real / v * _theta_ratio_log(v, alpha, beta, q, tol)
            direct_residual = abs(lhs.real - direct)
        except DomainError:  # a theta ratio is not positive: no direct route
            pass

    return residual, direct_residual
