"""Exact integer and rational arithmetic primitives.

Everything downstream (totients, power series, identity audits) is built on
the functions here: gcd of tuples, factorization by trial division against a
cached smallest-prime-factor sieve, the Moebius function, divisor lists,
Bernoulli numbers (B1 = -1/2 convention), Stirling numbers of the second
kind, and Faulhaber power sums.

Rational values are plain ``fractions.Fraction`` instances; the stdlib type
already maintains the normalized-form invariant (gcd(|num|, den) = 1,
den >= 1, zero is 0/1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

from .errors import ConsistencyError, DomainError, ResourceError, UsageError

__all__ = [
    "Factorization",
    "gcd_many",
    "factorize",
    "moebius",
    "moebius_sieve",
    "divisors",
    "bernoulli",
    "stirling2",
    "faulhaber_sum",
    "faulhaber_sum_direct",
]

# Smallest-prime-factor sieve, built lazily on first factorization request.
_SPF_LIMIT = 10**6
_spf: list[int] | None = None

# Work caps, each a few seconds of CPU.  B_a costs O(a^2) Fraction steps
# (B_600 takes about 2 s).  S(n, j) costs n*j - j(j-1)/2 row steps, each
# about 256 64-bit words of interpreter overhead plus the words of one entry,
# and S(n, j) < j^n has at most n*ceil(log2 j) bits.
_BERNOULLI_CAP = 600
_STIRLING_WORK_CAP = 2 * 10**9


def _spf_sieve() -> list[int]:
    global _spf
    if _spf is None:
        spf = list(range(_SPF_LIMIT + 1))
        for p in range(2, isqrt(_SPF_LIMIT) + 1):
            if spf[p] == p:  # p prime
                for q in range(p * p, _SPF_LIMIT + 1, p):
                    if spf[q] == q:
                        spf[q] = p
        _spf = spf
    return _spf


def gcd_many(xs: list[int]) -> int:
    """gcd of a non-empty list of non-negative integers; gcd of all zeros is 0."""
    if not xs:
        raise UsageError("gcd_many requires a non-empty list")
    g = 0
    for x in xs:
        if x < 0:
            raise DomainError(f"gcd_many requires non-negative integers, got {x}")
        g = gcd(g, x)
    return g


@dataclass(frozen=True)
class Factorization:
    """Prime-exponent pairs with strictly ascending primes; 1 factors as ()."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.pairs:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


def factorize(n: int) -> Factorization:
    """Factor a positive integer; uses the SPF sieve below 10**6, trial division above."""
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    pairs: list[tuple[int, int]] = []
    if n <= _SPF_LIMIT:
        spf = _spf_sieve()
        while n > 1:
            p = spf[n]
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
    else:
        d = 2
        while d * d <= n:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                pairs.append((d, e))
            d += 1 if d == 2 else 2
        if n > 1:
            pairs.append((n, 1))
    return Factorization(tuple(pairs))


def moebius(n: int) -> int:
    """Moebius mu: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise DomainError(f"moebius requires n >= 1, got {n}")
    f = factorize(n)
    if any(e > 1 for _, e in f.pairs):
        return 0
    return -1 if len(f.pairs) % 2 else 1


def moebius_sieve(limit: int) -> list[int]:
    """mu(0..limit) as a list (mu[0] unused, set to 0)."""
    mu = [1] * (limit + 1)
    mu[0] = 0
    marked = [False] * (limit + 1)
    for p in range(2, limit + 1):
        if not marked[p]:  # p prime: composites were marked by smaller primes
            for q in range(p, limit + 1, p):
                marked[q] = True
                mu[q] = -mu[q]
            for q in range(p * p, limit + 1, p * p):
                mu[q] = 0
    return mu


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise DomainError(f"divisors requires n >= 1, got {n}")
    divs = [1]
    for p, e in factorize(n).pairs:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None)
def bernoulli(a: int) -> Fraction:
    """Bernoulli number B_a under the B1 = -1/2 convention.

    Computed from the defining recurrence
    sum_{j=0}^{a} C(a+1, j) B_j = 0 for a >= 1, B_0 = 1.
    """
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


@lru_cache(maxsize=None)
def stirling2(n: int, j: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into j blocks,
    built bottom-up one row S(r, 0..j) at a time, so n is not bound by recursion."""
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
    if m < 0:
        raise DomainError(f"faulhaber_sum requires m >= 0, got {m}")
    if k < 1:
        raise DomainError(f"faulhaber_sum requires k >= 1, got {k}")
    if m == 0:
        return k  # 0^0 = 1 counts the A = 0 term
    return sum(A**m for A in range(1, k))


def faulhaber_sum(m: int, k: int) -> int:
    """sum_{A=0}^{k-1} A^m via the Bernoulli closed form, cross-checked.

    Closed form: (1/(m+1)) * sum_{a=0}^{m} C(m+1, a) B_a k^(m+1-a), with
    B1 = -1/2.  For k <= 512 the direct sum is computed as well and a
    disagreement raises ConsistencyError.
    """
    if m < 0:
        raise DomainError(f"faulhaber_sum requires m >= 0, got {m}")
    if k < 1:
        raise DomainError(f"faulhaber_sum requires k >= 1, got {k}")
    total = Fraction(0)
    for a in range(m + 1):
        total += comb(m + 1, a) * bernoulli(a) * Fraction(k) ** (m + 1 - a)
    total /= m + 1
    if total.denominator != 1:
        raise ConsistencyError(f"faulhaber closed form not integral at m={m}, k={k}")
    value = int(total)
    if k <= 512 and value != faulhaber_sum_direct(m, k):
        raise ConsistencyError(f"faulhaber routes disagree at m={m}, k={k}")
    return value
