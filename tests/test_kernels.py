import cmath
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections.abc import Sequence
from functools import reduce
from itertools import product

import numpy as np
import pytest

import vpvtotients._kernels as kernels
import vpvtotients.exactcore as exactcore
from vpvtotients.errors import ResourceError

# perfbench/run.py records BACKEND, and perfbench/tracing.py wraps these six
# entry points by name
KERNEL_NAMES = (
    "selector_tuples",
    "selector_count",
    "selector_cos_sum",
    "selector_char_sum",
    "selector_power_sum",
    "visible_points_box",
)


def test_backend_reports_name():
    assert kernels.BACKEND == "pure"
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels, name)), name


def _brute_selector(m, k):
    """The nonzero tuples in [0,k)^m whose gcd with k is 1, lexicographic."""
    return [
        js for js in product(range(k), repeat=m) if any(js) and math.gcd(k, *js) == 1
    ]


def _brute_visible(bounds):
    """The points of prod [1, b_i] with coordinate gcd 1, lexicographic."""
    return [
        p for p in product(*(range(1, b + 1) for b in bounds)) if math.gcd(*p) == 1
    ]


# hand-picked (m, k): k = 1 has an empty selector; then random ones
FIXED_CASES = ((1, 1), (2, 1), (3, 1), (1, 2), (1, 12), (2, 9), (2, 10), (3, 6), (3, 7))
_rng = random.Random(7)
RANDOM_CASES = tuple((_rng.randint(1, 3), _rng.randint(1, 25)) for _ in range(20))
BOXES = ((1,), (10,), (7, 5), (8, 8), (1, 6), (4, 3, 5), (2, 1, 3))

# The *_cross_backend tests below check each kernel against the brute-force
# itertools.product oracle above


def _python_ints(tuples):
    """True when every coordinate is a Python int: callers raise them to
    integer powers, which would wrap silently in int64."""
    return all(type(c) is int for t in tuples for c in t)


def test_selector_definition():
    for m, k in FIXED_CASES:
        got = kernels.selector_tuples(m, k)
        assert got == _brute_selector(m, k) and _python_ints(got), (m, k)


def test_selector_tuples_cross_backend():
    for m, k in RANDOM_CASES:
        got = kernels.selector_tuples(m, k)
        assert got == _brute_selector(m, k) and _python_ints(got), (m, k)


def test_selector_count_cross_backend():
    for m, k in FIXED_CASES + RANDOM_CASES:
        assert kernels.selector_count(m, k) == len(_brute_selector(m, k)), (m, k)


def test_selector_numeric_sums_cross_backend():
    # power sums are exact; the cosine sum takes negative and > 2**63 n
    rng = random.Random(11)
    for m, k in FIXED_CASES + RANDOM_CASES:
        brute = _brute_selector(m, k)
        for t in range(4):
            want = sum(sum(js) ** t for js in brute)
            assert kernels.selector_power_sum(t, m, k) == want, (t, m, k)
        for n in (
            tuple(rng.randint(-30, 30) for _ in range(m)),
            tuple(rng.choice((-1, 1)) * (2**62 + rng.randint(0, 99)) for _ in range(m)),
            (10**19,) * m,
        ):
            want = sum(
                math.cos(2 * math.pi * (sum(j * v for j, v in zip(js, n)) % k) / k)
                for js in brute
            )
            assert abs(kernels.selector_cos_sum(k, n) - want) <= 1e-9, (k, n)
        # real rotation numbers, purely imaginary ones (real factors x =
        # e^(2 pi i theta), as the theta checks pass them) and mixed ones
        for draw in (
            lambda: rng.uniform(-3, 3),
            lambda: 1j * rng.uniform(0.01, 0.5),
            lambda: complex(rng.uniform(-3, 3), rng.uniform(0.01, 0.5)),
        ):
            thetas = tuple(draw() for _ in range(m))
            want = sum(
                cmath.exp(2j * math.pi * sum(j * th for j, th in zip(js, thetas)) / k)
                for js in brute
            )
            assert abs(kernels.selector_char_sum(k, thetas) - want) <= 1e-9, (k, thetas)


def _cos_sum_remainder_per_point(k, n):
    """selector_cos_sum with j . n mod k taken over every selected point: the
    reference for the kernel's folded bins."""
    mask = kernels._selector_mask(len(n), k)
    dots = reduce(np.add.outer, [np.arange(k) * (ni % k) for ni in n])[mask]
    counts = np.bincount(dots % k, minlength=k)
    return float(counts @ np.cos(2.0 * np.pi * np.arange(k) / k))


def test_cos_sum_folded_bins_equal_remainder_per_point():
    # the m*k bins of the reduced axis vectors fold into the same k integer
    # counts as a remainder per point, so the float is the same bit for bit;
    # m = 1..4, n_i of either sign up to 10^12, and k = 1 (an empty selector)
    rng = random.Random(34)
    cases = [(1, (5,)), (3, (0, 0, 0))]
    for m, kmax in ((1, 400), (2, 60), (3, 20), (4, 10)):
        for _ in range(15):
            k = rng.randint(1, kmax)
            cases.append((k, tuple(rng.randint(-(10**12), 10**12) for _ in range(m))))
    for k, n in cases:
        assert kernels.selector_cos_sum(k, n) == _cos_sum_remainder_per_point(k, n), (k, n)


def test_selector_array_is_argwhere():
    # the nonzero rows of the mask as one C-contiguous int64 array, equal to
    # np.argwhere's; a matrix product over it, as vpv forms j . b with the
    # transposed weight rows, rounds bit for bit as one over np.argwhere does
    rng = np.random.default_rng(11)
    for m, k in FIXED_CASES + RANDOM_CASES + ((2, 500), (3, 60)):
        got = kernels.selector_array(m, k)
        want = np.argwhere(kernels._selector_mask(m, k))
        assert got.dtype == np.int64 and got.flags.c_contiguous, (m, k)
        assert np.array_equal(got, want), (m, k)
        for cols in (1, 2, 3):
            weights = rng.uniform(-3.0, 3.0, (cols, m))
            for w in (weights.T, np.ascontiguousarray(weights.T)):
                assert (got @ w).tobytes() == (want @ w).tobytes(), (m, k, cols)
        if k <= 25:
            assert [tuple(r) for r in got.tolist()] == _brute_selector(m, k), (m, k)


def test_selector_rows_contract():
    # enumerate_selector returns this view; the benchmark's kernel battery
    # samples it by index and compares neighbouring rows with >=, which needs
    # tuples of Python ints, never numpy rows
    rows, brute = kernels.selector_tuples(2, 12), _brute_selector(2, 12)
    n = len(brute)
    assert isinstance(rows, Sequence) and len(rows) == n
    for i in (0, 1, n - 1, -1, -n):
        assert type(rows[i]) is tuple and rows[i] == brute[i], i
    for i in (n, -n - 1, 10**6):
        with pytest.raises(IndexError):
            rows[i]
    for part in (slice(3, 9), slice(None, None, -2), slice(5, 2), slice(-4, None)):
        got = rows[part]
        assert isinstance(got, kernels.SelectorRows) and got == brute[part], part
    assert rows == brute and brute == rows and rows == tuple(brute)
    assert rows != brute[:-1] and rows != brute[:-1] + [(0, 0)] and rows != brute[::-1]
    assert rows.__eq__(5) is NotImplemented and rows != 5 and rows != {0: (1, 1)}
    assert (5, 7) in rows and (0, 0) not in rows and (2, 4) not in rows
    assert rows.index(brute[7]) == 7
    assert _python_ints(rows) and _python_ints([rows[0], rows[-1]])
    assert all(rows[i - 1] < rows[i] for i in range(1, n))
    big = kernels.selector_tuples(2, 500)
    assert big[-1] == (499, 499) and _python_ints([big[-1]]) and _python_ints(big[-3:])
    empty = kernels.selector_tuples(3, 1)
    assert len(empty) == 0 and empty == [] and list(empty) == []
    assert empty.array.shape == (0, 3)


def test_visible_points_box_cross_backend():
    for bounds in BOXES:
        got = kernels.visible_points_box(bounds)
        assert got == _brute_visible(bounds) and _python_ints(got), bounds


def test_visible_points_box_is_the_nonzero_rows():
    # the view holds the nonzero rows of the box mask, one C-contiguous
    # int64 (N, d) array shifted to 1-based coordinates, and no tuple list
    for bounds in BOXES + ((1, 40), (300, 300), (1,) * 64):
        got = kernels.visible_points_box(bounds)
        assert isinstance(got, kernels.SelectorRows), bounds
        rows = got.array
        assert rows.dtype == np.int64 and rows.flags.c_contiguous, bounds
        assert rows.shape == (len(got), len(bounds)), bounds
        want = np.argwhere(kernels._visible_box_mask(bounds)) + 1
        assert np.array_equal(rows, want), bounds
        assert _python_ints([got[0], got[-1]]), bounds
        if math.prod(bounds) <= 10**5:
            assert got == _brute_visible(bounds) and _python_ints(got), bounds


def _brute_visible_hyperpyramid(bounds):
    """The points 0 <= a_i < a_d of prod [0, b_i] x [1, b_d] with coordinate
    gcd 1, by apex a_d and lexicographic within an apex."""
    *lead, top = bounds
    return [
        (*p, a)
        for a, *p in product(range(1, top + 1), *(range(b + 1) for b in lead))
        if max(p, default=0) < a and math.gcd(a, *p) == 1
    ]


# one to four axes, with lead bounds above, equal to and below the apex bound
_rng_pyramids = random.Random(11)
HYPERPYRAMIDS = (
    (1,), (2,), (10,), (1, 1), (5, 3), (3, 5), (6, 6), (1, 1, 1), (2, 9, 4),
    (9, 2, 4), (5, 5, 6), (12, 12, 5), (3, 3, 4, 2), (1, 1, 1, 5), (6, 2, 7, 4),
) + tuple(
    tuple(_rng_pyramids.randint(1, 12 // d) for _ in range(d))
    for d in (1, 2, 3, 4) for _ in range(10)
)


def test_visible_points_hyperpyramid_against_brute_oracle():
    # the view holds the nonzero rows of the apex-first mask, apex moved to
    # the last column: the brute gcd filter's tuples, in its order
    for bounds in HYPERPYRAMIDS:
        got = kernels.visible_points_hyperpyramid(bounds)
        assert isinstance(got, kernels.SelectorRows), bounds
        rows = got.array
        assert rows.dtype == np.int64 and rows.flags.c_contiguous, bounds
        brute = _brute_visible_hyperpyramid(bounds)
        assert rows.shape == (len(brute), len(bounds)), bounds
        assert list(got) == brute and _python_ints(got), bounds
        assert kernels.visible_count_hyperpyramid(bounds) == len(brute), bounds


def test_kernels_at_mask_dtype_boundaries():
    # k near 2^8 and at 2^16: a power of 2 is sieved by one stride, 255 =
    # 3 * 5 * 17 by three, and the prime 257 by one that clears only the
    # origin; the boxes sieve by every prime up to their smallest bound, and
    # a one-axis box by none
    rng = random.Random(13)
    cases = [(m, k) for k in (255, 256, 257) for m in (1, 2)] + [(1, 65536)]
    for m, k in cases:
        brute = _brute_selector(m, k)
        got = kernels.selector_tuples(m, k)
        assert got == brute and _python_ints(got), (m, k)
        assert kernels.selector_count(m, k) == len(brute), (m, k)
        n = tuple(rng.randint(-(10**6), 10**6) for _ in range(m))
        want = math.fsum(
            math.cos(2 * math.pi * (sum(j * v for j, v in zip(js, n)) % k) / k)
            for js in brute
        )
        assert abs(kernels.selector_cos_sum(k, n) - want) <= 1e-8, (k, n)
    for bounds in ((255, 3), (256, 2), (257,)):
        got = kernels.visible_points_box(bounds)
        assert got == _brute_visible(bounds) and _python_ints(got), bounds


def test_sieved_masks_against_brute_oracle():
    # many distinct primes, prime powers, the empty selector of k = 1, and
    # boxes with a unit axis or unequal axes
    cases = ((1, 30030), (2, 210), (2, 243), (2, 256), (4, 12)) + tuple(
        (m, 1) for m in range(1, 5)
    )
    for m, k in cases:
        brute = _brute_selector(m, k)
        assert kernels.selector_tuples(m, k) == brute, (m, k)
        assert kernels.selector_count(m, k) == len(brute), (m, k)
    for bounds in ((1, 40), (3, 200), (2, 9, 4)):
        brute = _brute_visible(bounds)
        assert kernels.visible_points_box(bounds) == brute, bounds
        assert kernels.visible_count_box(bounds) == len(brute), bounds


def test_selector_count_at_eight_primes():
    # 9699690 = 2*3*5*7*11*13*17*19, the most distinct primes under the cap;
    # phi is computed here by its own trial division
    k = n = 9699690
    phi = k
    p = 2
    while n > 1:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    assert kernels.selector_count(1, k) == phi == 1658880


def test_one_axis_box_is_not_sieved():
    # gcd(a) = a, so only (1,) is visible; no prime below 10^7 is visited
    start = time.perf_counter()
    assert kernels.visible_count_box((10**7,)) == 1
    assert time.perf_counter() - start < 1.0


def test_moebius_table_against_trial_division():
    # every limit up to 4, where sqrt(n) has no prime or only 2; limits at
    # the prime squares 49 and 121, where p = sqrt(n) sieves and p^2 is the
    # last entry; and 2000. The table is an int8 array, mu[0] = 0.
    for limit in (0, 1, 2, 3, 4, 48, 49, 50, 120, 121, 2000):
        table = kernels.moebius_table(limit)
        assert len(table) == limit + 1 and table[0] == 0, limit
        assert table.dtype == np.int8, limit
        want = [exactcore.moebius(n) for n in range(1, limit + 1)]
        assert table[1:].tolist() == want, limit
    # at 10^5 (primes to 316, cofactors up to 49999): the Mertens sum
    # M(10^5) = -48, and the first and last 2000 entries by trial division
    table = kernels.moebius_table(10**5)
    assert int(table.sum()) == -48
    for n in [*range(1, 2001), *range(10**5 - 1999, 10**5 + 1)]:
        assert table[n] == exactcore.moebius(n), n


def test_mask_kernels_refuse_before_allocating(monkeypatch):
    # each mask builder checks its own shape, so a kernel called directly,
    # one past the cap, raises before numpy allocates anything: 3163^2 and
    # 10^4 (10^4 + 1) cells, and the (10^3,)*3 hyperpyramid's 10^9
    def no_alloc(shape, *args, **kwargs):
        raise AssertionError(f"array of shape {shape} allocated")

    monkeypatch.setattr(np, "empty", no_alloc)
    monkeypatch.setattr(np, "ones", no_alloc)
    for call in (
        lambda: kernels.selector_count(2, 3163),
        lambda: kernels.selector_cos_sum(3163, (1, 1)),
        lambda: kernels.visible_count_box((10**4, 10**4 + 1)),
        lambda: kernels.visible_points_hyperpyramid((10**3,) * 3),
        lambda: kernels.moebius_table(10**7 + 1),
    ):
        with pytest.raises(ResourceError, match="cap 10000000"):
            call()


def test_kernel_peak_memory_per_grid_point():
    # Each kernel holds one k^m boolean mask and at most one k^m value array
    # at a time; an (m, k^m) int64 coordinate grid alone would cost 24 B/point
    # at m = 3. The masks are sieved in place, with no temporary, so counting
    # costs 1 B/point at every k and in every box; a gcd fold would hold its
    # uint8/16/32 grid beside the mask. The int64 array costs 24 B per
    # selected point at m = 3, 84 % of the grid at k = 60; nonzero fills it
    # once and selector_array keeps it without a second copy: about
    # 21 B/point with the mask; restacking the nonzero columns, as
    # np.argwhere does, would hold two copies: about 41. selector_tuples
    # wraps that array, so it has the array's bound; a list of its tuples
    # would cost about 61 B/point (a 64 B tuple and an 8 B list slot per
    # selected point). A box's visible points are the same kind of array,
    # 16 B per visible point in two dimensions, 61 % of the grid: about
    # 11 B/point with the mask, where their tuple list held about 40. A
    # hyperpyramid's mask is its bounding array, cleared above the apex by
    # open-grid comparisons; 28 % of the (100,) * 3 one is visible, 24 B a
    # point, and moving the apex column last in place adds 8 B a point, about
    # 9 B a cell in all, where a rotated copy would add 24 B a point more.
    cases = (
        (lambda: kernels.selector_count(3, 100), 100**3, 1.5),
        (lambda: kernels.selector_count(1, 510510), 510510, 1.5),
        (lambda: kernels.visible_count_box((1000, 1000)), 1000**2, 1.5),
        (lambda: kernels.visible_count_hyperpyramid((100,) * 3), 100 * 101**2, 1.5),
        (lambda: kernels.visible_count_hyperpyramid((10**6,)), 10**6, 1.5),
        (lambda: kernels.selector_power_sum(2, 3, 100), 100**3, 32),
        (lambda: kernels.selector_cos_sum(100, (7, 11, 13)), 100**3, 32),
        (lambda: kernels.selector_tuples(3, 60), 60**3, 24),
        (lambda: kernels.selector_array(3, 60), 60**3, 24),
        (lambda: kernels.visible_points_box((1000, 1000)), 1000**2, 12),
        (lambda: kernels.visible_points_hyperpyramid((100,) * 3), 100 * 101**2, 11),
    )
    for run, points, bound in cases:
        run()  # numpy's lazy set-up is not the kernel's cost
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * points, peak / points


def test_factorize_peak_memory():
    # factorize keeps no table: a sieve of smallest prime factors up to 10^6,
    # built as a Python list on the first call, peaked at about 40 MB. A
    # fresh interpreter is needed because such a table would be cached by
    # any earlier test; its traced peak is read, not ru_maxrss, because a
    # child's ru_maxrss starts from the forking process's high-water mark
    code = (
        "import tracemalloc\n"
        "from vpvtotients.exactcore import factorize\n"
        "tracemalloc.start()\n"
        "factorize(999983)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(exactcore.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    peak = int(proc.stdout)
    assert peak < 4 * 2**20, peak
