import cmath
import math
import random
import tracemalloc
from itertools import product

import vpvtotients._kernels as kernels

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


def test_visible_points_box_cross_backend():
    for bounds in BOXES:
        got = kernels.visible_points_box(bounds)
        assert got == _brute_visible(bounds) and _python_ints(got), bounds


def test_kernel_peak_memory_per_grid_point():
    # Each kernel holds one k^m boolean mask and at most one k^m value array
    # at a time; an (m, k^m) int64 coordinate grid alone would cost 24 B/point
    # at m = 3, and its gcd temporaries ran the peak to about 61 B/point.
    cases = (
        (lambda: kernels.selector_count(3, 100), 100**3),
        (lambda: kernels.selector_power_sum(2, 3, 100), 100**3),
        (lambda: kernels.selector_cos_sum(100, (7, 11, 13)), 100**3),
    )
    for run, points in cases:
        run()  # numpy's lazy set-up is not the kernel's cost
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * points, peak / points
