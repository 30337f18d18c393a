"""Selector and visible-point enumeration kernels, vectorized with numpy.

`totients` and `vpv` look each kernel up as a module attribute at call time
(`_kernels.selector_tuples(...)`), so that the traced benchmark can count
calls by replacing the attribute.
"""

from __future__ import annotations

import numpy as np

# read by perfbench/run.py, which records it with every benchmark run
BACKEND = "pure"


def _grid(m: int, k: int) -> np.ndarray:
    """All of [0,k)^m as an (m, k**m) array, columns in lexicographic order."""
    return np.indices((k,) * m, dtype=np.int64).reshape(m, -1)


def _selector_cols(m: int, k: int) -> np.ndarray:
    """Columns of the selector set: gcd(j_1..j_m, k) = 1 and j != 0."""
    cols = _grid(m, k)
    g = cols[0].copy()
    for row in cols[1:]:
        g = np.gcd(g, row)
    mask = np.gcd(g, k) == 1
    if k == 1:
        mask &= cols.sum(axis=0) != 0
    return cols[:, mask]


def selector_tuples(m: int, k: int) -> list[tuple[int, ...]]:
    """Selector tuples in lexicographic order."""
    cols = _selector_cols(m, k)
    return [tuple(int(v) for v in col) for col in cols.T]


def selector_count(m: int, k: int) -> int:
    return int(_selector_cols(m, k).shape[1])


def selector_cos_sum(k: int, n: tuple[int, ...]) -> float:
    """sum over the selector of cos(2*pi*(j . n)/k).

    Each n_i is reduced mod k as a Python int first, so that j * n_i fits in
    int64 for any n_i; j . n mod k is unchanged.
    """
    cols = _selector_cols(len(n), k)
    dots = np.zeros(cols.shape[1], dtype=np.int64)
    for row, ni in zip(cols, n):
        dots += row * (ni % k)
    return float(np.cos(2.0 * np.pi * (dots % k) / k).sum())


def selector_char_sum(k: int, thetas: tuple[float, ...]) -> complex:
    """sum over the selector of exp(2*pi*i*(j . theta)/k)."""
    cols = _selector_cols(len(thetas), k)
    phase = np.zeros(cols.shape[1], dtype=np.float64)
    for row, th in zip(cols, thetas):
        phase += row * th
    phase *= 2.0 * np.pi / k
    return complex(np.exp(1j * phase).sum())


def selector_power_sum(t: int, m: int, k: int) -> int:
    """Exact sum over the selector of (j_1 + ... + j_m)**t."""
    cols = _selector_cols(m, k)
    sums = cols.sum(axis=0)
    counts = np.bincount(sums, minlength=1)
    return sum(int(c) * s**t for s, c in enumerate(counts) if c)


def visible_points_box(bounds: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Lattice points in the box prod [1, b_i] with coordinate gcd 1, lex order."""
    cols = np.indices(bounds, dtype=np.int64).reshape(len(bounds), -1) + 1
    g = cols[0].copy()
    for row in cols[1:]:
        g = np.gcd(g, row)
    cols = cols[:, g == 1]
    return [tuple(int(v) for v in col) for col in cols.T]
