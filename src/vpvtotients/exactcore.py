"""Exact integer and rational arithmetic primitives.

Everything downstream (totients, power series, identity audits) is built on
the functions here: factorization by trial division into (p, e) pairs (no
sieve table; divisors stop at FACTOR_TRIAL_CAP = 10^7), the Moebius
function, divisor lists, Bernoulli numbers (B1 = -1/2 convention), Stirling
numbers of the second kind, power sums, and the full-grid power sum that
the phi_t closed form and the audit registry's oracle bracket (read by the
grid-power and bracket displays) share.

Rational values are plain ``fractions.Fraction`` instances; the stdlib type
already maintains the normalized-form invariant (gcd(|num|, den) = 1,
den >= 1, zero is 0/1).  Integer arguments are read by `errors.integers`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DomainError, ResourceError, integers

__all__ = [
    "factorize",
    "moebius",
    "divisors",
    "bernoulli",
    "stirling2",
    "faulhaber_sum_direct",
    "grid_power_sum",
]

# Work caps, each a few seconds of CPU.  Trial division stops at divisor
# 10^7, so every n <= 10^14 factors (a prime near 10^14 takes about 1 s).
# B_a costs O(a^2) Fraction steps (B_600 takes about 2 s).  S(n, j) costs
# n*j - j(j-1)/2 row steps, each about 256 64-bit words of interpreter
# overhead plus the words of one entry, and S(n, j) < j^n has at most
# n*ceil(log2 j) bits.
FACTOR_TRIAL_CAP = 10**7
_BERNOULLI_CAP = 600
_STIRLING_WORK_CAP = 2 * 10**9


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (p, e) pairs of a positive integer, primes ascending, with () for
    1, found by trial division, one divisor at a time.

    Divisors run up to FACTOR_TRIAL_CAP; an n whose unfactored part still
    has a possible factor past the cap raises ResourceError, so every
    n <= FACTOR_TRIAL_CAP**2 factors.
    """
    (n,) = integers(n)
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    bits = n.bit_length()
    pairs: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if d > FACTOR_TRIAL_CAP:
            raise ResourceError(
                f"factorizing a {bits}-bit n needs trial divisors "
                f"above cap {FACTOR_TRIAL_CAP}"
            )
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def moebius(n: int) -> int:
    """Moebius mu: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise DomainError(f"moebius requires n >= 1, got {n}")
    pairs = factorize(n)
    if any(e > 1 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise DomainError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None, typed=True)  # else a cached B_2 would answer 2.0
def bernoulli(a: int) -> Fraction:
    """Bernoulli number B_a under the B1 = -1/2 convention.

    Computed from the defining recurrence
    sum_{j=0}^{a} C(a+1, j) B_j = 0 for a >= 1, B_0 = 1.
    """
    (a,) = integers(a)
    if a < 0:
        raise DomainError(f"bernoulli requires a >= 0, got {a}")
    if a > _BERNOULLI_CAP:
        raise ResourceError(f"bernoulli({a}) is above cap a <= {_BERNOULLI_CAP}")
    if a == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(a):
        total += comb(a + 1, j) * bernoulli(j)
    return -total / (a + 1)


@lru_cache(maxsize=None, typed=True)  # else S(5, 2) would answer (5.0, 2)
def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into j blocks,
    built bottom-up one row S(r, 0..j) at a time, so n is not bound by recursion."""
    n, j = integers(n, j)
    if n < 0 or j < 0:
        raise DomainError("stirling2 requires non-negative arguments")
    if j > n:
        return 0
    work = (n * j - j * (j - 1) // 2) * (256 + n * (j - 1).bit_length() // 64)
    if work > _STIRLING_WORK_CAP:
        raise ResourceError(
            f"stirling2({n}, {j}) needs about {work} word steps, "
            f"above cap {_STIRLING_WORK_CAP}"
        )
    row = [1] + [0] * j  # S(0, 0..j)
    for r in range(1, n + 1):
        for i in range(min(r, j), 0, -1):
            row[i] = i * row[i] + row[i - 1]
        row[0] = 0
    return row[j]


def faulhaber_sum_direct(m: int, k: int) -> int:
    """sum_{A=0}^{k-1} A^m by direct summation, with 0^0 = 1."""
    m, k = integers(m, k)
    if m < 0:
        raise DomainError(f"faulhaber_sum_direct requires m >= 0, got {m}")
    if k < 1:
        raise DomainError(f"faulhaber_sum_direct requires k >= 1, got {k}")
    if m == 0:
        return k  # 0^0 = 1 counts the A = 0 term
    return sum(A**m for A in range(1, k))


def grid_power_sum(c: int, k: int, ws) -> int | Fraction:
    """sum over A in [0, k)^h of (A_1 w_1 + ... + A_h w_h)^c, exact, h = len(ws).

    The binomial convolution, one factor at a time, of the sequences
    w^j * sum_{A<k} A^j (0^0 = 1), j = 0..c: c + 1 power sums of k terms,
    then (c + 1)(c + 2)/2 products per factor, each binomial C(n, j) updated
    from C(n, j - 1).  With h = 0 the grid is the origin alone: 0^c.
    """
    c, k = integers(c, k)
    if c < 0:
        raise DomainError(f"grid_power_sum requires c >= 0, got {c}")
    if k < 1:
        raise DomainError(f"grid_power_sum requires k >= 1, got {k}")
    power = [faulhaber_sum_direct(j, k) for j in range(c + 1)]
    acc = [1] + [0] * c
    for w in ws:
        terms = [w**j * power[j] for j in range(c + 1)]
        nxt = []
        for n in range(c + 1):
            total, binom = 0, 1
            for j in range(n + 1):
                total += binom * terms[j] * acc[n - j]
                binom = binom * (n - j) // (j + 1)
            nxt.append(total)
        acc = nxt
    return acc[c]
