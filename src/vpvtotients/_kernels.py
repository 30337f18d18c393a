"""Selector and visible-point enumeration kernels, vectorized with numpy.

Every selector kernel reads one k^m boolean mask, `_selector_mask(m, k)`,
folded from gcd(arange(k), k) with `np.gcd.outer`, as gcd(j_1..j_m, k) =
gcd(gcd(j_1,k), ..., gcd(j_m,k)); no (m, k^m) coordinate grid is built.
Values are `np.add.outer` folds of 1-D vectors, read through the mask, and
tuples are the C-order (so lexicographic) `np.nonzero` indices, zipped.

`totients`, `vpv` and `analytic` (whose theta checks take every selector
weight from `selector_char_sum`) look each kernel up as a module attribute at
call time (`_kernels.selector_tuples(...)`), so that the traced benchmark and
the tests can count calls by replacing the attribute.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

# read by perfbench/run.py, which records it with every benchmark run
BACKEND = "pure"


def _selector_mask(m: int, k: int) -> np.ndarray:
    """The selector as a (k,)*m boolean array: gcd(j_1..j_m, k) = 1, j != 0."""
    mask = reduce(np.gcd.outer, [np.gcd(np.arange(k), k)] * m) == 1
    mask.flat[0] = False  # the origin has gcd k, so this acts only at k = 1
    return mask


def selector_tuples(m: int, k: int) -> list[tuple[int, ...]]:
    """Selector tuples in lexicographic order, with Python-int coordinates."""
    return list(zip(*(a.tolist() for a in np.nonzero(_selector_mask(m, k)))))


def selector_count(m: int, k: int) -> int:
    return int(np.count_nonzero(_selector_mask(m, k)))


def selector_cos_sum(k: int, n: tuple[int, ...]) -> float:
    """sum over the selector of cos(2*pi*(j . n)/k).

    Each n_i is reduced mod k as a Python int first, so that j * n_i fits in
    int64 for any n_i; j . n mod k is unchanged.
    """
    mask = _selector_mask(len(n), k)
    dots = reduce(np.add.outer, [np.arange(k) * (ni % k) for ni in n])[mask]
    return float(np.cos(2.0 * np.pi * (dots % k) / k).sum())


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


def visible_points_box(bounds: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Lattice points in the box prod [1, b_i] with coordinate gcd 1, lex order."""
    g = reduce(np.gcd.outer, [np.arange(1, b + 1) for b in bounds])
    return list(zip(*((a + 1).tolist() for a in np.nonzero(g == 1))))
