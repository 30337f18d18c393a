import cmath
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import vpvtotients._kernels as kernels
from vpvtotients import vpv
from vpvtotients.audit import registry, run_audit
from vpvtotients.audit.registry import (
    _bracket,
    _bracket_sides,
    _cor_5_3_check,
    _hyperpyramid_log_check,
    _multiples_partition_check,
    _printed_t,
    _q1,
    _q2,
)
from vpvtotients.errors import DomainError, ResourceError
from vpvtotients.exactcore import divisors, grid_power_sum, moebius
from vpvtotients.series import PowerSeries, product_with_exponents, ps_exp, ps_mul
from vpvtotients.totients import (
    LatticeSelector,
    enumerate_selector,
    jordan,
    m_phi,
    unnormalized_phi,
)
from vpvtotients.vpv import (
    FiniteSequence,
    RadialRegion,
    lemma_3_2_check,
    power_regroup_check,
    thm_5_1_check,
    thm_5_2_check,
    thm_5_8_check,
    thm_5_10_check,
    visible_count,
    visible_points,
    weighted_regroup_check,
)


def _rand_seq(rng, n, nonzero=False):
    vals = []
    for _ in range(n):
        num = rng.randint(-5, 5)
        if nonzero:
            num = rng.choice([v for v in range(-5, 6) if v])
        vals.append(Fraction(num, rng.randint(1, 6)))
    return FiniteSequence.from_values(vals)


def _delta(k):
    return FiniteSequence({k: Fraction(1)}, k)


# sequences of bound 6 with no term at k >= 2, and with k = 5 the only
# term past 1, so that 5 is the only denominator with a multiple
_SPARSE = (FiniteSequence({1: Fraction(3, 2)}, 6),
           FiniteSequence({1: Fraction(1), 5: Fraction(-2, 3)}, 6))


def _powers(n, e):
    """a_k = k^e for k <= n, ints where they can be."""
    return FiniteSequence.from_values(
        [k**e if e >= 0 else Fraction(1, k**-e) for k in range(1, n + 1)]
    )


def _jordan_sides(a, m):
    """sum_k a_k k^m against sum_v J_m(v) S_v."""
    return weighted_regroup_check(a, lambda k: k**m, lambda v: jordan(m, v))


def _phi_u(t, s, scale=1):
    """The weight v -> scale * (selector sum of (j1 + j2)^t) / v^s."""
    return lambda v: Fraction(scale * unnormalized_phi(t, 2, v), v**s)


def _grid_sides(c, a, x, y):
    """eq-4.2/4.3/4.7: sum_k a_k k^(-c) sum_grid (A x + B y)^c against the
    c-th powers over each selector, weights (x, y)."""
    return power_regroup_check(
        a, lambda k: grid_power_sum(c, k, (x, y)) / Fraction(k) ** c, lambda k: (x, y), 2, c
    )


def _oracle_bracket(m):
    return lambda k, *b: _bracket(m, k, b)


# cor-5.12 and cor-5.13 as (bracket, p), printed and corrected
_PRINTED_FIRST = (lambda k, b1, b2: b1 / (3 * k), 1)
_CORRECTED_FIRST = (_q1, 1)
_PRINTED_SECOND = (lambda k, b1, b2: _q2(k, b1, b2) / 4, 1)
_CORRECTED_SECOND = (_q2, 2)


def _printed_quadratic(k):
    return Fraction(7, 12) * k * k - k + Fraction(5, 12)


def _corrected_quadratic(k):
    return Fraction(7, 6) * k * k - 2 * k + Fraction(5, 6)


def test_finite_sequence_drops_zeros():
    seq = FiniteSequence.from_values([Fraction(1), Fraction(0), Fraction(2)])
    assert seq(1) == 1 and seq(2) == 0 and seq(3) == 2
    assert 2 not in seq.support


def test_finite_sequence_refuses_a_non_integral_bound():
    with pytest.raises(DomainError, match="bound must be a positive integer"):
        FiniteSequence({1: Fraction(1)}, 2.5)


def test_finite_sequence_refuses_a_non_integral_key():
    with pytest.raises(DomainError, match="support index 1.0"):
        FiniteSequence({1.0: Fraction(1)}, 2)


def test_exact_engines_refuse_float_terms():
    a = FiniteSequence({1: Fraction(1), 2: 0.5}, 2)
    with pytest.raises(DomainError, match="ints or Fractions"):
        weighted_regroup_check(a, lambda k: k, lambda v: v)
    with pytest.raises(DomainError, match="ints or Fractions"):
        power_regroup_check(a, lambda k: k, lambda k: (1,), 1, 1)
    # a_1 has no selector term, but it is a term of the left side
    a1 = FiniteSequence({1: 0.5, 2: Fraction(1)}, 2)
    with pytest.raises(DomainError, match="ints or Fractions"):
        power_regroup_check(a1, lambda k: k, lambda k: (1,), 1, 1)
    # the float engine sums float terms as floats, not through the lcm
    lhs, rhs = thm_5_1_check(a, FiniteSequence({1: 1, 2: 1}, 2), 0.5)
    assert abs(lhs - rhs) < 1e-12


def test_multiples_partition_on_regions():
    for region in (
        RadialRegion(2, (8, 8)),
        RadialRegion(1, (10,)),
        RadialRegion(3, (4, 4, 4)),
        RadialRegion(3, (5, 5, 6), constraint="hyperpyramid"),
    ):
        assert _multiples_partition_check(region)


def test_multiples_partition_refuses_a_wrong_visible_set(monkeypatch):
    # a visible set with an extra non-visible point of the region, a missing
    # point or a repeated point is not the set of the points p / gcd(p)
    real = registry.visible_points
    for region, extra in (
        (RadialRegion(2, (8, 8)), (2, 2)),
        (RadialRegion(3, (5, 5, 6), constraint="hyperpyramid"), (0, 0, 2)),
    ):
        assert extra in region.points()
        pts = list(real(region))
        for wrong in ([*pts, extra], pts[1:], [*pts, pts[0]]):
            monkeypatch.setattr(registry, "visible_points", lambda r, wrong=wrong: wrong)
            assert not _multiples_partition_check(region), (region, len(wrong))


def test_visible_points_are_coprime():
    region = RadialRegion(2, (12, 12))
    pts = visible_points(region)
    assert all(math.gcd(*p) == 1 for p in pts)
    assert (1, 1) in pts and (2, 4) not in pts


def test_region_size_cap():
    # the cap is checked before anything is allocated; a hyperpyramid is
    # charged its mask, `kernels.region_shape`: b_d prod_{i<d}
    # (min(b_i, b_d - 1) + 1) cells (the second region's is 10^9)
    for region in (
        RadialRegion(2, (10**4, 10**4 + 1)),
        RadialRegion(3, (10**3, 10**3, 10**3), constraint="hyperpyramid"),
        RadialRegion(31, (1,) * 30 + (2,), constraint="hyperpyramid"),
    ):
        for enumerate_region in (visible_points, RadialRegion.points):
            with pytest.raises(ResourceError, match="exceeds cap 10000000"):
                enumerate_region(region)


def test_hyperpyramid_charged_its_mask_size(monkeypatch):
    # a (c, c, c) hyperpyramid holds sum_{a<=c} a^2 points, but its mask is
    # c^3 cells, since a lead axis holds a_i < a_d <= c; the (300,) * 3 one,
    # 9,045,050 points in 27,000,000 cells, is checked without building it
    big = RadialRegion(3, (300,) * 3, "hyperpyramid")
    with pytest.raises(ResourceError, match="lattice size 27000000 exceeds cap 10000000"):
        big.points()
    monkeypatch.setattr(kernels, "MAX_CELLS", 27_000_000)
    assert kernels.region_shape("hyperpyramid", big.bounds) == (300, 300, 300)
    monkeypatch.setattr(kernels, "MAX_CELLS", 26_999_999)
    for build in (big.points, lambda: visible_points(big), lambda: visible_count(big)):
        with pytest.raises(ResourceError, match="lattice size 27000000 exceeds cap 26999999"):
            build()
    # the (6, 6, 6) one: 91 points in 6^3 = 216 cells
    small = RadialRegion(3, (6, 6, 6), "hyperpyramid")
    monkeypatch.setattr(kernels, "MAX_CELLS", 216)
    assert len(small.points()) == 91
    assert len(visible_points(small)) == visible_count(small) == 72
    monkeypatch.setattr(kernels, "MAX_CELLS", 215)
    with pytest.raises(ResourceError, match="lattice size 216 exceeds cap 215"):
        small.points()
    # a lead bound at or above the apex bound b_d holds only a_i < b_d, so
    # (10^7, 2) is 3 points in a 2 x 2 mask, not 2 x (10^7 + 1) cells
    monkeypatch.setattr(kernels, "MAX_CELLS", 4)
    region = RadialRegion(2, (10**7, 2), "hyperpyramid")
    assert kernels.region_shape("hyperpyramid", region.bounds) == (2, 2)
    assert region.points() == [(0, 1), (0, 2), (1, 2)]
    assert visible_points(region) == [(0, 1), (1, 2)]
    assert visible_count(region) == 2
    monkeypatch.setattr(kernels, "MAX_CELLS", 3)
    with pytest.raises(ResourceError, match="lattice size 4 exceeds cap 3"):
        visible_count(region)


def test_box_axes_cap():
    # a region's mask has one axis per dimension, and numpy allows 64
    assert visible_points(RadialRegion(64, (1,) * 64)) == [(1,) * 64]
    for constraint in ("box", "hyperpyramid"):
        region = RadialRegion(65, (1,) * 65, constraint)
        for build in (visible_points, visible_count, RadialRegion.points):
            with pytest.raises(ResourceError, match=f"a {constraint} of 65 axes exceeds 64"):
                build(region)


def test_visible_count_builds_no_point(monkeypatch):
    regions = [RadialRegion(d, b) for d, b in (
        (1, (1,)), (1, (9,)), (2, (6, 10)), (3, (4, 7, 5)), (4, (3, 3, 4, 2)),
        (64, (1,) * 64),
    )] + [RadialRegion(d, b, "hyperpyramid") for d, b in (
        (1, (1,)), (1, (9,)), (2, (6, 10)), (3, (4, 5, 6)), (3, (9, 2, 4)),
        (4, (3, 3, 4, 2)),
    )]
    want = [len(visible_points(region)) for region in regions]

    def no_points(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(kernels, "visible_points_box", no_points)
    monkeypatch.setattr(kernels, "visible_points_hyperpyramid", no_points)
    monkeypatch.setattr(RadialRegion, "points", no_points)
    assert [visible_count(region) for region in regions] == want
    for region in (
        RadialRegion(2, (10**4, 10**4 + 1)),
        RadialRegion(65, (1,) * 65),
        RadialRegion(3, (300,) * 3, "hyperpyramid"),
        RadialRegion(65, (1,) * 65, "hyperpyramid"),
    ):
        with pytest.raises(ResourceError, match="exceeds"):
            visible_count(region)


def test_lemma_3_2_randomized():
    rng = random.Random(3)
    for m in (1, 2, 3):
        for _ in range(10):
            a = _rand_seq(rng, rng.randint(8, 24))
            q = [rng.uniform(0.05, 0.9) for _ in range(m)]
            lhs, rhs = lemma_3_2_check(a, q)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_one_factor_resolved_vs_printed():
    rng = random.Random(4)
    a, b = _rand_seq(rng, 16), _rand_seq(rng, 16, nonzero=True)
    lhs, rhs = thm_5_1_check(a, b, 0.6)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
    # the printed index set, registry data, does not balance
    lhs_p, rhs_p = registry._printed_one_factor(
        FiniteSequence({2: Fraction(1)}, 2),
        FiniteSequence({1: Fraction(1), 2: Fraction(1)}, 2),
        1.0,
    )
    assert abs(lhs_p - rhs_p) > 1e-3


def test_float_checks_need_an_exponent_sequence():
    # the engine refuses h = 0 before it evaluates either side
    a = FiniteSequence({1: Fraction(1), 3: Fraction(-2)}, 3)
    for check in (lambda: lemma_3_2_check(a, []), lambda: thm_5_10_check(a, [], 0.5)):
        with pytest.raises(DomainError, match="need at least one exponent sequence"):
            check()


def test_power_regroup_check_needs_an_exponent_sequence():
    # h = 0 is refused before either side is evaluated: with support at k = 1
    # alone no selector is enumerated, and a selector of m = 0 is refused
    def f(k):
        raise AssertionError(f"f evaluated at k={k}")

    for a in (FiniteSequence({1: Fraction(1)}, 1),
              FiniteSequence({1: Fraction(1), 3: Fraction(-2)}, 3)):
        with pytest.raises(DomainError, match="need at least one exponent sequence"):
            power_regroup_check(a, f, lambda k: (), 0, 1)


def test_power_regroup_check_needs_h_weights():
    # a weight vector of another length than h is refused before either side
    # is summed; zipped with the selector rows, (1,) would act as (1, 0) and
    # (1, 1, 1) as (1, 1)
    def f(k):
        raise AssertionError(f"f evaluated at k={k}")

    for weights in ((1,), (1, 1, 1)):
        with pytest.raises(DomainError, match="need h = 2"):
            power_regroup_check(_delta(4), f, lambda k: weights, 2, 1)


def _brute_selector_exp_sum(h, v, b, x):
    """sum over j in [0, v)^h with gcd(j, v) = 1 of exp((j . b) x / v), by a
    scalar loop over the whole grid."""
    return sum(
        cmath.exp(sum(bl * j for bl, j in zip(b, js)) * x / v)
        for js in product(range(v), repeat=h)
        if math.gcd(v, *js) == 1
    )


def _moebius_selector_exp_sum(h, v, b, x):
    """The same sum factored by Moebius inversion over d = gcd(j, v):
    sum_{d | v} mu(d) prod_L sum_{i < v/d} exp(b_L d i x / v)."""
    return sum(
        moebius(d) * math.prod(
            sum(cmath.exp(bl * d * i * x / v) for i in range(v // d)) for bl in b
        )
        for d in divisors(v)
    )


def test_regrouping_inner_sum_three_routes():
    # the float kernel of the regrouping loop, given the selector's dot
    # products and the identity as coefficients, so that it returns one
    # selector sum per weight row, against two routes that share none of its
    # code
    rng = random.Random(14)
    for h in (1, 2, 3):
        for v in range(2, 31):
            bs = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(h)]
                for _ in range(2)
            ]
            if h == 2:  # thm-5.8's weights (b, 0)
                bs.append([Fraction(rng.randint(-5, 5), rng.randint(1, 6)), 0])
            x = rng.uniform(0.2, 1.2)
            js = enumerate_selector(LatticeSelector(h, v)).array
            dots = js @ np.array(bs, dtype=float).T
            got = vpv._exp_kernel(x)(np.eye(len(bs)), dots, v)
            for b, value in zip(bs, got):
                fb = [float(bl) for bl in b]
                for route in (_brute_selector_exp_sum, _moebius_selector_exp_sum):
                    want = route(h, v, fb, x)
                    assert abs(value - want) <= 1e-12 * abs(want), (route, h, v, b)


def test_checks_enumerate_each_selector_once(monkeypatch):
    # perfbench's traced run wraps vpv.enumerate_selector by name and divides
    # by its call count; a repeated (m, k) within one check is wasted work.
    # The registry's cor-5.3 product looks up its own enumerate_selector
    # (eq-4.16 reads a hyperpyramid region and enumerates no selector)
    calls = []
    original = vpv.enumerate_selector

    def counting(sel):
        calls.append((sel.m, sel.k))
        return original(sel)

    monkeypatch.setattr(vpv, "enumerate_selector", counting)
    monkeypatch.setattr(registry, "enumerate_selector", counting)
    rng = random.Random(15)
    a, b, c, d = (_rand_seq(rng, 12, nonzero=True) for _ in range(4))
    checks = {
        "lemma-3.2": lambda: lemma_3_2_check(a, [0.3, 0.6]),
        "thm-5.1": lambda: thm_5_1_check(a, b, 0.5),
        "thm-5.2": lambda: thm_5_2_check(a, b, c, 0.5),
        "thm-5.8": lambda: thm_5_8_check(a, b, 0.5),
        "thm-5.10": lambda: thm_5_10_check(a, [b, c, d], 0.5),
        "cor-5.12 printed": lambda: _bracket_sides(a, [b, c], *_PRINTED_FIRST),
        "cor-5.12 corrected": lambda: _bracket_sides(a, [b, c], *_CORRECTED_FIRST),
        "cor-5.13 printed": lambda: _bracket_sides(a, [b, c], *_PRINTED_SECOND),
        "cor-5.13 corrected": lambda: _bracket_sides(a, [b, c], *_CORRECTED_SECOND),
        "cor-5.3": lambda: _cor_5_3_check(0.3, 0.2, 0.25, 20),
    }
    for p in (1, 2, 3, 4):
        checks[f"grid-power c={p}"] = lambda p=p: _grid_sides(
            p, a, Fraction(1, 2), Fraction(-2, 3)
        )
    for h in (1, 2, 3):
        checks[f"cor-5.11 h={h}"] = lambda h=h: _bracket_sides(
            a, [b, c, d][:h], _oracle_bracket(2), 2
        )
    for name, check in checks.items():
        calls.clear()
        check()
        assert calls, name
        assert len(calls) == len(set(calls)), (name, calls)
    # a denominator with no multiple in the support enumerates nothing
    sparse = _SPARSE[1]
    for check in (lambda: thm_5_2_check(sparse, b, c, 0.5),
                  lambda: _grid_sides(2, sparse, Fraction(1, 2), Fraction(-2, 3))):
        calls.clear()
        check()
        assert calls == [(2, 5)], calls


# --------------------------------------------------------------------------
# the float engine, pinned bit for bit to a frozen reference

# The reference is the float regrouping engine and its left sides as they
# stood while every term was converted with float() at each use, S_1 was
# summed as Fractions and each v picked its multiples with a boolean mask;
# the selector array is np.argwhere of the gcd mask.  The engine must give
# the same floats, so that the audit report bytes do not move.


def _ref_selector_exp_sums(h, v, bs, x):
    js = np.argwhere(kernels._selector_mask(h, v))
    return np.exp((js @ bs.T) * (x / v)).sum(axis=0)


def _ref_exp_rhs(a, weights, x, n, h):
    rhs = float(sum(a(k) for k in range(1, n + 1)))
    ks = [k for k in range(2, n + 1) if a(k)]
    kv = np.array(ks, dtype=np.int64)
    af = np.array([float(a(k)) for k in ks])
    bf = np.array([[float(c) for c in weights(k)] for k in ks])
    for v in range(2, n + 1):
        at_v = kv % v == 0
        if at_v.any():
            rhs += af[at_v] @ _ref_selector_exp_sums(h, v, bf[at_v], x)
    return rhs


def _ref_exp_factor(b, x, k):
    den = 1.0 - cmath.exp(complex(float(b) * x / k))
    return (1.0 - cmath.exp(complex(float(b) * x))) / den


def _ref_lemma_3_2(a, q):
    q = [float(v) for v in q]
    n = a.bound
    lhs = 0.0
    for k in range(1, n + 1):
        ak = a(k)
        if not ak:
            continue
        term = float(ak)
        for v in q:
            term *= (1.0 - v) / (1.0 - v ** (1.0 / k))
        lhs += term
    logq = [math.log(v) for v in q]
    return lhs, float(_ref_exp_rhs(a, lambda k: logq, 1.0, n, len(q)))


def _ref_thm_5_8(a, b, x, n=None):
    n = a.bound if n is None else n
    lhs = sum(k * a(k) * _ref_exp_factor(b(k), x, k) for k in range(1, n + 1) if a(k))
    return lhs, complex(_ref_exp_rhs(a, lambda k: (b(k), 0), x, n, 2))


def _ref_thm_5_10(a, bs, x, n=None):
    n = a.bound if n is None else n
    lhs = 0.0 + 0.0j
    for k in range(1, n + 1):
        ak = a(k)
        if not ak:
            continue
        term = complex(ak)
        for b in bs:
            term *= _ref_exp_factor(b(k), x, k)
        lhs += term
    return lhs, complex(_ref_exp_rhs(a, lambda k: [b(k) for b in bs], x, n, len(bs)))


def _ref_thm_5_1(a, b, x, n=None, as_printed=False):
    if not as_printed:
        return _ref_thm_5_10(a, [b], x, n)
    n = a.bound if n is None else n
    lhs = sum(a(k) * _ref_exp_factor(b(k), x, k) for k in range(1, n + 1) if a(k))
    rhs = complex(sum(a(k) for k in range(1, n + 1)))
    for v in range(2, n + 1):
        for w in range(1, n // v + 1):
            avw = a(v * w)
            if not avw:
                continue
            inner = sum(cmath.exp(complex(b(v * w) * j * x / w))
                        for j in range(1, w) if math.gcd(j, v) == 1)
            rhs += avw * inner
    return lhs, rhs


def _truncated(a, n):
    """a with its terms past n dropped and bound n: the sequence that the
    reference reads when it is given n."""
    return FiniteSequence({k: c for k, c in a.support.items() if k <= n}, n)


def _shuffled(a, rng):
    """a with its support dict in a random insertion order, a stored zero
    term added where there is room."""
    items = list(a.support.items())
    free = [k for k in range(1, a.bound + 1) if k not in a.support]
    if free:
        items.append((rng.choice(free), Fraction(0)))
    rng.shuffle(items)
    return FiniteSequence(dict(items), a.bound)


def _float_engine_cases(rng):
    """(a, weights, x, n, h) for the engine: zero terms, shuffled support,
    a cut n below the bound, Fraction, int, float and numpy-float
    weights, and int and float terms."""
    for h in (1, 2, 3):
        for _ in range(6):
            bound = rng.randint(6, {1: 30, 2: 20, 3: 12}[h])
            a = _shuffled(_rand_seq(rng, bound), rng)
            bs = [_rand_seq(rng, bound, nonzero=True) for _ in range(h)]
            x = rng.uniform(0.2, 1.0)
            for n in (bound, rng.randint(2, bound)):
                yield a, lambda k, bs=bs: [b(k) for b in bs], x, n, h
            logq = [math.log(rng.uniform(0.05, 0.9)) for _ in range(h)]
            yield a, lambda k, logq=logq: logq, 1.0, bound, h
            nq = np.log(np.array([rng.uniform(0.05, 0.9) for _ in range(h)]))
            yield a, lambda k, nq=nq: list(nq), 1.0, bound, h
            ints = FiniteSequence({k: rng.randint(-9, 9) or 1 for k in range(1, bound + 1)}, bound)
            yield ints, lambda k: [k * (i + 2) % 7 - 3 for i in range(h)], x, bound, h
            floats = FiniteSequence({k: rng.uniform(-2, 2) for k in range(bound, 0, -1)}, bound)
            yield floats, lambda k, logq=logq: logq, x, bound, h
            # weights so negative that the selector sums are below the last
            # bit of S_1, whose rounding then shows in the result
            yield a, lambda k: [-60.0] * h, 1.0, bound, h
        for a in _SPARSE:
            yield a, lambda k: [Fraction(1, 2), Fraction(-1, 3), 0.25][:h], 0.5, 6, h


def test_regroup_rhs_matches_reference_bit_for_bit():
    rng = random.Random(21)
    for a, weights, x, n, h in _float_engine_cases(rng):
        got = vpv._exp_regroup(_truncated(a, n), lambda k: (0,), weights, h, x)[1]
        assert got == _ref_exp_rhs(a, weights, x, n, h), (h, n, a.support)


def test_float_left_sides_match_reference_bit_for_bit():
    rng = random.Random(22)
    for _ in range(8):
        bound = rng.randint(6, 16)
        a = _shuffled(_rand_seq(rng, bound), rng)
        b, c, d = (_rand_seq(rng, bound, nonzero=True) for _ in range(3))
        x = rng.uniform(0.2, 1.0)
        for m in (1, 2, 3):
            q = [rng.uniform(0.05, 0.9) for _ in range(m)]
            assert lemma_3_2_check(a, q) == _ref_lemma_3_2(a, q)
        q = [np.float64(rng.uniform(0.05, 0.9)) for _ in range(2)]
        assert lemma_3_2_check(a, q) == _ref_lemma_3_2(a, q)
        for n in (bound, rng.randint(2, bound)):
            t = _truncated(a, n)
            assert thm_5_1_check(t, b, x) == _ref_thm_5_1(a, b, x, n)
            assert thm_5_2_check(t, b, c, x) == _ref_thm_5_10(a, [b, c], x, n)
            assert thm_5_8_check(t, b, x) == _ref_thm_5_8(a, b, x, n)
            assert thm_5_10_check(t, [b, c, d], x) == _ref_thm_5_10(a, [b, c, d], x, n)
        assert (registry._printed_one_factor(a, b, x)
                == _ref_thm_5_1(a, b, x, as_printed=True))


def test_exp_kernel_matches_frozen_expression_at_audit_sizes():
    # the engine's cases stop at bound 12 for h = 3; this pins the kernel on
    # the selectors of the audit and benchmark sizes, one to four columns,
    # with thm-5.8's zero weight column among them
    rng = random.Random(24)
    for h, top in ((1, 30), (2, 30), (3, 24)):
        js = {v: enumerate_selector(LatticeSelector(h, v)).array for v in range(2, top + 1)}
        for v, cols, zero in product(range(2, top + 1), (1, 2, 3, 4), (False, True)):
            if zero and h == 1:
                continue
            W = np.array([[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(h)]
                          for _ in range(cols)], dtype=float)
            if zero:
                W[:, -1] = 0.0
            c = np.array([float(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                          for _ in range(cols)])
            x = rng.uniform(0.2, 1.2)
            dots = js[v] @ W.T
            before = dots.copy()
            got = vpv._exp_kernel(x)(c, dots, v)
            assert got == c @ np.exp(dots * (x / v)).sum(axis=0), (h, v, cols, zero)
            assert np.array_equal(dots, before)


def test_complex_x_matches_reference_bit_for_bit():
    rng = random.Random(25)
    x = 0.5 + 0.3j
    for bound in (9, 14):
        a = _shuffled(_rand_seq(rng, bound), rng)
        b, c, d = (_rand_seq(rng, bound, nonzero=True) for _ in range(3))
        assert thm_5_1_check(a, b, x) == _ref_thm_5_1(a, b, x)
        assert thm_5_2_check(a, b, c, x) == _ref_thm_5_10(a, [b, c], x)
        assert thm_5_8_check(a, b, x) == _ref_thm_5_8(a, b, x)
        assert thm_5_10_check(a, [b, c, d], x) == _ref_thm_5_10(a, [b, c, d], x)
        lhs, rhs = thm_5_10_check(a, [b, c, d], x)
        assert lhs.imag and abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_rearrangement_ids_report_bytes_match_reference(monkeypatch):
    # the lemma-3.2 ids (eq-3.1..3.4, eq-4.1) and the exponential-factor ids
    ids = ["eq-3.1", "eq-3.2", "eq-3.3", "eq-3.4", "eq-4.1",
           "thm-5.1", "thm-5.2", "eq-5.11", "eq-5.14"]
    engine = run_audit(ids, seed=0).to_json()
    for name, ref in (("lemma_3_2_check", _ref_lemma_3_2),
                      ("thm_5_1_check", _ref_thm_5_1),
                      ("thm_5_2_check", lambda a, b, c, x, n=None: _ref_thm_5_10(a, [b, c], x, n)),
                      ("thm_5_8_check", _ref_thm_5_8),
                      ("thm_5_10_check", _ref_thm_5_10)):
        monkeypatch.setattr(registry, name, ref)
    assert run_audit(ids, seed=0).to_json() == engine


def test_real_is_float():
    rng = random.Random(23)
    for _ in range(200):
        c = Fraction(rng.getrandbits(1000) * rng.choice((-1, 1)), rng.getrandbits(1000) | 1)
        assert vpv._real(c) == float(c), c
    tiny = Fraction(1, 2**1070 + 1)  # subnormal, rounded once
    for c in (tiny, -tiny, Fraction(2**53 + 1), 3, -7, True, 0.1, np.float64(0.3)):
        got = vpv._real(c)
        assert got == float(c) and type(got) is float, c


def _brute_power_sum(h, v, b, p):
    """sum over j in [0, v)^h with gcd(j, v) = 1 of ((j . b) / v)^p, one
    Fraction at a time over the whole grid."""
    return sum(
        (sum(bl * j for bl, j in zip(b, js)) / Fraction(v)) ** p
        for js in product(range(v), repeat=h)
        if math.gcd(v, *js) == 1
    )


def _moebius_power_sum(h, v, b, p):
    """The same sum factored by Moebius inversion over d = gcd(j, v):
    sum_{d | v} mu(d) sum_{i in [0, v/d)^h} ((d i . b) / v)^p."""
    return sum(
        moebius(d) * sum(
            (sum(bl * d * i for bl, i in zip(b, js)) / Fraction(v)) ** p
            for js in product(range(v // d), repeat=h)
        )
        for d in divisors(v)
    )


def test_power_regroup_three_routes():
    # the exact engine against two routes that share none of its code; the
    # 2^40 denominator puts (j . b)^p far past int64 once scaled to integers,
    # and the second pool's integers put j . b itself past int64 from v = 3
    rng = random.Random(16)
    pools = (
        [0, 1, -3, Fraction(-5, 6), Fraction(7, 4), Fraction(-1, 2**40)],
        [0, 1, 2**62 + 1, -(2**61 + 3)],
    )
    for pool, (h, n) in product(pools, ((1, 20), (2, 20), (3, 12))):
        seq = _rand_seq(rng, n)
        slots = [pool[i % len(pool)] for i in range(n * h)]
        rng.shuffle(slots)
        weights = {k: slots[(k - 1) * h:k * h] for k in range(1, n + 1)}
        for a, p in product((seq, *_SPARSE), (1, 2, 3, 4)):
            lhs, got = power_regroup_check(a, lambda k: 0, weights.get, h, p)
            assert lhs == 0 and isinstance(got, Fraction)
            for route in (_brute_power_sum, _moebius_power_sum):
                want = sum(
                    a(v * w) * route(h, v, weights[v * w], p)
                    for v in range(2, n + 1)
                    for w in range(1, n // v + 1) if a(v * w)
                )
                assert got == want, (route.__name__, h, p)


def test_grid_power_identities_exact():
    rng = random.Random(6)
    for c in (0, 1, 2, 3, 4):
        a = _rand_seq(rng, 12)
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        y = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        if c == 0:  # the grid count is k^2, regrouped by J_2 (eq-4.4)
            lhs, rhs = _jordan_sides(a, 2)
        else:
            lhs, rhs = _grid_sides(c, a, x, y)
        assert lhs == rhs
    with pytest.raises(DomainError):
        power_regroup_check(a, lambda k: k * k, lambda k: (x, y), 2, 0)


def test_power_regroup_skips_zero_terms():
    # f is never evaluated where a_k = 0, a stored zero included
    a = FiniteSequence({1: Fraction(0), 3: Fraction(2), 6: Fraction(-1), 7: 0}, 8)
    seen = []
    lhs, _ = power_regroup_check(
        a, lambda k: seen.append(k) or k * k, lambda k: (1, Fraction(1, 2)), 2, 1
    )
    assert sorted(seen) == [3, 6] and lhs == 2 * 9 - 36


def test_square_pyramidal_identity():
    for n in range(1, 101):
        lhs, rhs = _jordan_sides(_powers(n, 0), 2)
        assert lhs == rhs == n * (n + 1) * (2 * n + 1) // 6


def test_jordan_weighted_partial_sums():
    rng = random.Random(8)
    for m in (1, 2, 3, 4):
        a = _rand_seq(rng, 40)
        lhs, rhs = _jordan_sides(a, m)
        assert lhs == rhs
    for n in (1, 7, 50, 120):
        for m in (1, 2, 3):
            assert _jordan_sides(_powers(n, -m), m) == (n, n)  # eq-5.7
            lhs, rhs = _jordan_sides(_powers(n, 0), m)  # eq-5.9
            assert lhs == rhs == sum(k**m for k in range(1, n + 1))
        lhs, rhs = _jordan_sides(_powers(n, -1), 3)  # eq-5.8: a_k = k^(a-m), a = 2
        assert lhs == rhs == sum(k**2 for k in range(1, n + 1))


def test_weighted_regroup_moebius_oracle():
    # an arbitrary integer f and its Moebius inverse w = mu * f, so that
    # f(k) = sum_{d|k} w(d) holds by construction, not by a totient law
    rng = random.Random(17)
    n = 40
    f = {k: rng.randint(-50, 50) for k in range(1, n + 1)}
    w = {v: sum(moebius(v // d) * f[d] for d in divisors(v)) for v in f}
    for _ in range(20):
        lhs, rhs = weighted_regroup_check(_rand_seq(rng, rng.randint(1, n)), f.get, w.get)
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
        assert lhs == rhs
    # a change of w at v shows at a = delta_v, whose tails are nonzero at
    # the divisors of v only, and w is evaluated nowhere else
    for v in range(1, n + 1):
        off = dict(w)
        off[v] += 1
        seen = []
        lhs, rhs = weighted_regroup_check(_delta(v), f.get, lambda d: seen.append(d) or off[d])
        assert lhs != rhs and seen == divisors(v)


def test_weighted_regroup_integer_tails():
    # int and Fraction terms with unlike denominators and a stored zero,
    # against the tails summed as Fractions; f and w may be Fraction-valued
    a = FiniteSequence({9: Fraction(-3, 8), 1: 2, 4: 0, 6: Fraction(5, 12), 2: -7}, 10)
    f = _corrected_quadratic
    w = _phi_u(1, 1)
    seen_f, seen_w = [], []
    lhs, rhs = weighted_regroup_check(
        a, lambda k: seen_f.append(k) or f(k), lambda v: seen_w.append(v) or w(v)
    )
    tails = {v: sum(Fraction(a(k)) for k in range(v, 11, v)) for v in range(1, 11)}
    assert lhs == sum(Fraction(a(k)) * f(k) for k in range(1, 11))
    assert rhs == sum(w(v) * s for v, s in tails.items())
    assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
    assert sorted(seen_f) == [1, 2, 6, 9]
    assert seen_w == [v for v, s in tails.items() if s]


def test_geometric_block_display_counterexample():
    # eq-5.10 over a_k = z^k: the tails are the geometric blocks, which the
    # printed display divides by z^v
    z = Fraction(1, 2)

    def geometric(n):
        return FiniteSequence.from_values([z**k for k in range(1, n + 1)])

    lhs, rhs = weighted_regroup_check(geometric(2), lambda k: k, lambda v: jordan(1, v) / z**v)
    assert (lhs, rhs) == (1, Fraction(5, 2))
    for m in (1, 2):
        for n in (2, 9, 20):
            cl, cr = _jordan_sides(geometric(n), m)
            assert cl == cr == sum(z**k * k**m for k in range(1, n + 1))


def test_bracket_oracle_vs_printed_form():
    bs = [Fraction(1), Fraction(1)]
    # the printed generator's x^1 coefficient at h = 2, b = (1, 1)
    assert 2 * _printed_t(1, 5) * _printed_t(2, 5) != _bracket(1, 5, bs)
    # at k = 1 the grid is the origin alone, so the bracket is 0^m = 0
    for h, m in ((1, 1), (2, 3), (3, 2)):
        got = _bracket(m, 1, [Fraction(3, 2)] * h)
        assert isinstance(got, Fraction) and got == 0
    # first-order oracle equals (k(k-1)/2)(b1+b2)
    for k in range(2, 20):
        want = Fraction(k * (k - 1), 2) * 2
        assert _bracket(1, k, bs) == want
    # with the oracle bracket the h-factor bracket identity balances exactly
    rng = random.Random(11)
    a = _rand_seq(rng, 12)
    for h in (1, 2, 3):
        for m in (1, 2, 3):
            bs = [_rand_seq(rng, 12) for _ in range(h)]
            lhs, rhs = _bracket_sides(a, bs, _oracle_bracket(m), m)
            assert lhs == rhs, (h, m)


def test_linear_bracket_identity_printed_vs_corrected():
    d2 = FiniteSequence({2: Fraction(1)}, 2)
    lhs, rhs = _bracket_sides(d2, [d2, d2], *_PRINTED_FIRST)
    assert lhs != rhs
    rng = random.Random(10)
    a, b1, b2 = (_rand_seq(rng, 10) for _ in range(3))
    cl, cr = _bracket_sides(a, [b1, b2], *_CORRECTED_FIRST)
    assert cl == cr


def test_totient_weighted_displays():
    # cor-5.14a, and cor-5.14b printed and corrected
    rng = random.Random(12)
    a = _rand_seq(rng, 14)
    lhs, rhs = weighted_regroup_check(a, lambda k: k * (k - 1), _phi_u(1, 1))
    assert lhs == rhs
    lp, rp = weighted_regroup_check(_delta(3), _printed_quadratic, _phi_u(2, 1))
    assert lp != rp
    lc, rc = weighted_regroup_check(a, _corrected_quadratic, _phi_u(2, 2))
    assert lc == rc


def test_closed_displays():
    # cor-5.15a..d over a_k = k^e, k <= n, as (e, f, w); b, c and d corrected
    for n in (2, 5, 17, 30):
        lhs, rhs = weighted_regroup_check(_powers(n, 0), lambda k: k * (k - 1), _phi_u(1, 1))
        assert lhs == rhs
    lp, rp = weighted_regroup_check(_powers(3, 0), _printed_quadratic, _phi_u(2, 1))
    assert lp != rp
    corrected = (
        (0, _corrected_quadratic, _phi_u(2, 2)),
        (1, lambda k: k * (k - 1), _phi_u(1, 1)),
        (1, _corrected_quadratic, _phi_u(2, 2)),
    )
    for e, f, w in corrected:
        for n in (2, 5, 17):
            cl, cr = weighted_regroup_check(_powers(n, e), f, w)
            assert cl == cr


def test_dirichlet_divisor_law_displays():
    # cor-5.16a/b: at a = delta_n the sides are f(n) and sum_{d|n} w(d)
    for n in range(1, 101):
        lhs, rhs = weighted_regroup_check(_delta(n), lambda k: k * k - k, _phi_u(1, 1))
        assert lhs == rhs
    quadratic = [
        weighted_regroup_check(_delta(n), lambda k: 7 * k**3 - 12 * k**2 + 5 * k,
                               _phi_u(2, 1, scale=12))
        for n in range(1, 21)
    ]
    assert any(lhs != rhs for lhs, rhs in quadratic)


# --------------------------------------------------------------------------
# the product displays, pinned to a frozen reference

# The reference is cor-5.17a/b and cor-5.9 as library functions with a
# reading option, before the displays became registry data: the right sides
# multiplied out as exp(z/(1-z)^2) and (1-z)^(-5/d) exp(...), the left side
# of cor-5.9 summed one log factor at a time.  The series helpers it used
# (z, 1/(1-z), the zero series and series addition) are written out here.


def _ref_add(a, b):
    return PowerSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def _log_one_minus_z(order):
    """log(1 - z) = -sum_{j>=1} z^j / j, truncated at the order."""
    return PowerSeries((Fraction(0), *(Fraction(-1, j) for j in range(1, order + 1))))


def _ref_cor_5_17(which, order, reading):
    shift = 2 if (which == "a" or reading == "printed") else 3
    t = 1 if which == "a" else 2
    lhs = product_with_exponents(
        {k: Fraction(-unnormalized_phi(t, 2, k), k**shift) for k in range(2, order + 1)},
        order,
    )
    z = PowerSeries((0, 1) + (0,) * (order - 1))
    geometric = PowerSeries((1,) * (order + 1))
    inv1z2 = ps_mul(geometric, geometric)
    if which == "a":
        num = z if reading == "printed" else ps_mul(z, z)
        rhs = ps_exp(ps_mul(num, inv1z2))
    else:
        den = 12 if reading == "printed" else 6
        linear = PowerSeries(
            (Fraction(-5, den), Fraction(12, den)) + (Fraction(0),) * (order - 1)
        )
        rhs = ps_exp(ps_mul(ps_mul(z, linear), inv1z2))
        log1z = _log_one_minus_z(order)
        rhs = ps_mul(rhs, ps_exp(log1z.scale(Fraction(-5, den))))
    return lhs, rhs


def _ref_m_phi_closed(m_fixed, k):
    return sum(
        1
        for a in range(0, k + 1)
        if math.gcd(math.gcd(a, m_fixed), k) == 1 and a + m_fixed != 0
    )


def _ref_cor_5_9(x, order, reading):
    def log_factor(m, v, count):
        coeffs = [Fraction(0)] * (order + 1)
        j = 1
        while j * v <= order:
            coeffs[j * v] += Fraction(count, v) * x ** (m * j) / j
            j += 1
        return PowerSeries(tuple(coeffs))

    log_lhs = PowerSeries((0,) * (order + 1))
    if reading == "derived":
        log_lhs = _ref_add(log_lhs, _log_one_minus_z(order).scale(-1))
        for v in range(2, order + 1):
            for m in range(v):
                cnt = m_phi(m, v)
                if cnt:
                    log_lhs = _ref_add(log_lhs, log_factor(m, v, cnt))
    else:
        closed = reading == "printed-closed"
        for v in range(1, order + 1):
            cnt = _ref_m_phi_closed(1, v) if closed else m_phi(1, v)
            if cnt:
                log_lhs = _ref_add(log_lhs, log_factor(1, v, cnt))
    lhs = ps_exp(log_lhs)

    rhs_exp = [Fraction(0)] * (order + 1)
    pref = 1 / (1 - x)
    for j in range(1, order + 1):
        rhs_exp[j] = pref * (1 - x**j)
    return lhs, ps_exp(PowerSeries(tuple(rhs_exp)))


def _totient_product(which, reading, order):
    return registry._product_sides(*registry._TOTIENT_PRODUCTS[which, reading], order)


def _mixed_product(x, reading, order):
    counts = registry._MIXED_PRODUCT_COUNTS[reading](order)
    return registry._mixed_product_sides(x, order, counts)


def test_product_display_data_matches_reference():
    for which, reading, order in product("ab", ("printed", "corrected"), (8, 16, 40)):
        got = _totient_product(which, reading, order)
        assert got == _ref_cor_5_17(which, order, reading), (which, reading, order)
    readings = ("derived", "printed-halfopen", "printed-closed")
    for x, reading, order in product((Fraction(1, 3), Fraction(-2, 5)), readings, (8, 24)):
        got = _mixed_product(x, reading, order)
        assert got == _ref_cor_5_9(x, order, reading), (x, reading, order)


def test_product_displays():
    lhs, rhs = _totient_product("a", "printed", 16)
    assert lhs != rhs
    for which in ("a", "b"):
        cl, cr = _totient_product(which, "corrected", 16)
        assert cl == cr


def test_mixed_product_derived_reading():
    lhs, rhs = _mixed_product(Fraction(1, 3), "derived", 20)
    assert lhs == rhs
    lp, rp = _mixed_product(Fraction(1, 3), "printed-halfopen", 6)
    assert lp != rp


def test_hyperpyramid_log_truncation():
    lhs, rhs = _hyperpyramid_log_check(
        (0.4, 0.3), (Fraction(1, 2), Fraction(1, 2)), 24
    )
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
    # the points are those of a hyperpyramid region, whose bounds are >= 1
    with pytest.raises(DomainError, match="bounds must be >= 1"):
        _hyperpyramid_log_check((0.4, 0.3), (Fraction(1, 2), Fraction(1, 2)), 0)


def test_region_refuses_non_integral_bounds():
    with pytest.raises(DomainError, match=r"must be integers, got \(2.7, 3\)"):
        RadialRegion(2, (2.7, 3))
    region = RadialRegion(2, (np.int64(2), np.int32(3)))
    assert region.bounds == (2, 3) and all(type(b) is int for b in region.bounds)


def test_region_validation():
    with pytest.raises(DomainError):
        RadialRegion(0, ())
    with pytest.raises(DomainError):
        RadialRegion(2, (3,))
    with pytest.raises(DomainError):
        RadialRegion(2, (3, 3), constraint="sphere")
