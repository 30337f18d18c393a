"""Selector and visible-point enumeration kernels, vectorized with numpy.

Every selector kernel reads one k^m boolean mask, `_selector_mask(m, k)`.
A point j leaves the selector exactly when some prime p | k divides every
coordinate, so the mask is `ones` with one strided clear, every p-th index on
each axis, per distinct prime of k (at most 8 under the 10^7 cap); the
visible-box mask is sieved the same way, by the primes up to its smallest
bound. A mask costs one byte a point and builds no temporary. The primes are
found here by trial division and a small sieve, not by `exactcore.factorize`,
which the closed form `jordan` uses, so that `selector_count == jordan`
compares two independent factorizations. Values are `np.add.outer` folds
of 1-D vectors, read through the mask; `selector_cos_sum` counts them into a
residue histogram and weights its k bins, so it takes k cosines.

The selector is enumerated one way, in lexicographic order (C order of the
mask). `selector_array` is the nonzero indices of the mask as rows,
`np.array(mask.nonzero()).T` (the values and strides of `np.argwhere`,
without its Python wrapper), an (N, m) int64 array at 8m bytes a selected
point; the one `vpv` regrouping loop takes it, because it forms the dot
products j . b as one matrix product. `selector_tuples` wraps that array in
a `SelectorRows` view, whose items are tuples of Python ints made on demand,
and builds no tuple list; the public `enumerate_selector` returns it. The
library reads the array, takes the view's length, or iterates a small
selector (cor-5.3). A caller that keeps every row of a large selector as a
tuple, as `list(view)` does, pays about 1.2-1.5 times what building a tuple
list took, and shares no Python int between points; a loop that drops each
row as it goes pays less than that build.

`totients`, `vpv` and `analytic` (whose theta checks take every selector
weight from `selector_char_sum`) look each kernel up as a module attribute at
call time (`_kernels.selector_tuples(...)`), so that the traced benchmark and
the tests can count calls by replacing the attribute.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce
from itertools import compress, product

import numpy as np

# read by perfbench/run.py, which records it with every benchmark run
BACKEND = "pure"


def _distinct_primes(k: int) -> list[int]:
    """The distinct primes dividing k >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return primes + [k] if k > 1 else primes


def _primes_upto(n: int) -> list[int]:
    """The primes <= n, by a bytearray sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, prime in enumerate(sieve) if prime]


def _selector_mask(m: int, k: int) -> np.ndarray:
    """The selector as a (k,)*m boolean array: gcd(j_1..j_m, k) = 1, j != 0."""
    mask = np.empty((k,) * m, dtype=bool)
    mask.fill(True)  # np.ones costs about 1 us more, most of a small k's mask
    for p in _distinct_primes(k):
        mask[(slice(None, None, p),) * m] = False  # p divides k and every j_i
    mask[(0,) * m] = False  # the origin has gcd k, so this acts only at k = 1
    return mask


def selector_array(m: int, k: int) -> np.ndarray:
    """Selector points as the rows of an (N, m) int64 array, lexicographic:
    the nonzero indices of the mask, transposed (what `np.argwhere` returns,
    without its Python wrapper)."""
    return np.array(_selector_mask(m, k).nonzero()).T


class SelectorRows(Sequence):
    """The rows of an (N, m) int64 array, `.array`, read as tuples of
    Python ints.

    An index gives one row as a tuple and a slice a `SelectorRows` over
    those rows. Iteration converts the columns to Python-int lists once and
    zips them, about half the time of `map(tuple, array.tolist())`. It
    equals any sequence of the same tuples in the same order. `vpv` builds
    one per visible denominator, so it holds only the array and checks
    nothing.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SelectorRows(self.array[i])
        return tuple(self.array[i].tolist())

    def __iter__(self):
        return zip(*self.array.T.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def selector_tuples(m: int, k: int) -> SelectorRows:
    """The selector array read as tuples of Python ints, lexicographic.

    It enumerates nothing of its own. The name stays because the
    benchmark's traced run and the tests wrap each `_kernels` entry point
    by name, this one included.
    """
    return SelectorRows(selector_array(m, k))


def selector_count(m: int, k: int) -> int:
    return int(np.count_nonzero(_selector_mask(m, k)))


def selector_cos_sum(k: int, n: tuple[int, ...]) -> float:
    """sum over the selector of cos(2*pi*(j . n)/k).

    Each n_i is reduced mod k as a Python int first, so that j * n_i fits in
    int64 for any n_i; j . n mod k is unchanged.  Every selector point is
    counted into a histogram of its residue r = j . n mod k, and the k
    counts are weighted by cos(2*pi*r/k): k cosines, not one per point.
    """
    mask = _selector_mask(len(n), k)
    dots = reduce(np.add.outer, [np.arange(k) * (ni % k) for ni in n])[mask]
    counts = np.bincount(dots % k, minlength=k)
    return float(counts @ np.cos(2.0 * np.pi * np.arange(k) / k))


def selector_char_sum(k: int, thetas: tuple[float, ...]) -> complex:
    """sum over the selector of exp(2*pi*i*(j . theta)/k)."""
    mask = _selector_mask(len(thetas), k)
    phase = reduce(np.add.outer, [np.arange(k) * th for th in thetas])[mask]
    phase *= 2.0 * np.pi / k
    return complex(np.exp(1j * phase).sum())


def selector_power_sum(t: int, m: int, k: int) -> int:
    """Exact sum over the selector of (j_1 + ... + j_m)**t."""
    mask = _selector_mask(m, k)
    sums = reduce(np.add.outer, [np.arange(k)] * m)[mask]
    counts = np.bincount(sums, minlength=1)
    return sum(int(c) * s**t for s, c in enumerate(counts) if c)


def _visible_box_mask(bounds: tuple[int, ...]) -> np.ndarray:
    """The box prod [1, b_i] as a boolean array: coordinate gcd 1."""
    mask = np.ones(bounds, dtype=bool)
    if len(bounds) == 1:
        mask[1:] = False  # gcd(a) = a, so only (1,) is visible
        return mask
    for p in _primes_upto(min(bounds)):
        mask[(slice(p - 1, None, p),) * len(bounds)] = False  # p | every a_i
    return mask


def visible_points_box(bounds: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Lattice points in the box prod [1, b_i] with coordinate gcd 1, lex order."""
    mask = _visible_box_mask(bounds).tobytes()
    return list(compress(product(*(range(1, b + 1) for b in bounds)), mask))


def visible_count_box(bounds: tuple[int, ...]) -> int:
    """Number of lattice points in the box prod [1, b_i] with coordinate gcd 1."""
    return int(np.count_nonzero(_visible_box_mask(bounds)))
