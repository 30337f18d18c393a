import math
import random
from fractions import Fraction

import pytest

from vpvtotients.errors import DomainError, ResourceError
from vpvtotients.vpv import (
    FiniteSequence,
    RadialRegion,
    bracket_polynomial,
    bracket_polynomial_oracle,
    cor_5_7_check,
    cor_5_9_check,
    cor_5_12_check,
    cor_5_14_check,
    cor_5_15_check,
    cor_5_16_check,
    cor_5_17_check,
    eq_5_5_check,
    eq_5_7_check,
    eq_5_8_check,
    eq_5_9_check,
    grid_power_identity_check,
    hyperpyramid_log_check,
    lemma_3_2_check,
    multiples_partition_check,
    thm_5_1_check,
    thm_5_5_check,
    visible_points,
)


def _rand_seq(rng, n, nonzero=False):
    vals = []
    for _ in range(n):
        num = rng.randint(-5, 5)
        if nonzero:
            num = rng.choice([v for v in range(-5, 6) if v])
        vals.append(Fraction(num, rng.randint(1, 6)))
    return FiniteSequence.from_values(vals)


def test_finite_sequence_drops_zeros():
    seq = FiniteSequence.from_values([Fraction(1), Fraction(0), Fraction(2)])
    assert seq(1) == 1 and seq(2) == 0 and seq(3) == 2
    assert 2 not in seq.support


def test_multiples_partition_on_regions():
    for region in (
        RadialRegion(2, (8, 8)),
        RadialRegion(1, (10,)),
        RadialRegion(3, (4, 4, 4)),
        RadialRegion(3, (5, 5, 6), constraint="hyperpyramid"),
    ):
        assert multiples_partition_check(region)


def test_visible_points_are_coprime():
    region = RadialRegion(2, (12, 12))
    pts = visible_points(region)
    assert all(math.gcd(*p) == 1 for p in pts)
    assert (1, 1) in pts and (2, 4) not in pts


def test_region_size_cap():
    # the cap is checked before anything is allocated
    for region in (
        RadialRegion(2, (10**4, 10**4 + 1)),
        RadialRegion(3, (10**3, 10**3, 11), constraint="hyperpyramid"),
    ):
        for enumerate_region in (visible_points, RadialRegion.points):
            with pytest.raises(ResourceError, match="exceeds cap 10000000"):
                enumerate_region(region)


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
    # the printed index set does not balance
    lhs_p, rhs_p = thm_5_1_check(
        FiniteSequence({2: Fraction(1)}, 2),
        FiniteSequence({1: Fraction(1), 2: Fraction(1)}, 2),
        1.0,
        as_printed=True,
    )
    assert abs(lhs_p - rhs_p) > 1e-3


def test_grid_power_identities_exact():
    rng = random.Random(6)
    for c in (0, 1, 2, 3, 4):
        a = _rand_seq(rng, 12)
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        y = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        lhs, rhs = grid_power_identity_check(c, a, x, y)
        assert lhs == rhs


def test_square_pyramidal_identity():
    for n in range(1, 101):
        lhs, rhs = eq_5_5_check(n)
        assert lhs == rhs


def test_jordan_weighted_partial_sums():
    rng = random.Random(8)
    for m in (1, 2, 3, 4):
        a = _rand_seq(rng, 40)
        lhs, rhs = thm_5_5_check(a, m)
        assert lhs == rhs
    for n in (1, 7, 50, 120):
        for m in (1, 2, 3):
            assert eq_5_7_check(m, n)[0] == eq_5_7_check(m, n)[1]
            assert eq_5_9_check(m, n)[0] == eq_5_9_check(m, n)[1]
        assert eq_5_8_check(3, 2, n)[0] == eq_5_8_check(3, 2, n)[1]


def test_geometric_block_display_counterexample():
    lhs, rhs = cor_5_7_check(1, 2, Fraction(1, 2), as_printed=True)
    assert lhs != rhs
    for m in (1, 2):
        for n in (2, 9, 20):
            cl, cr = cor_5_7_check(m, n, Fraction(1, 2), as_printed=False)
            assert cl == cr


def test_bracket_oracle_vs_printed_form():
    bs = [Fraction(1), Fraction(1)]
    assert bracket_polynomial(2, 1, 5, bs) != bracket_polynomial_oracle(2, 1, 5, bs)
    # first-order oracle equals (k(k-1)/2)(b1+b2)
    for k in range(2, 20):
        want = Fraction(k * (k - 1), 2) * 2
        assert bracket_polynomial_oracle(2, 1, k, bs) == want


def test_linear_bracket_identity_printed_vs_corrected():
    d2 = FiniteSequence({2: Fraction(1)}, 2)
    lhs, rhs = cor_5_12_check(d2, d2, d2, as_printed=True)
    assert lhs != rhs
    rng = random.Random(10)
    a, b1, b2 = (_rand_seq(rng, 10) for _ in range(3))
    cl, cr = cor_5_12_check(a, b1, b2, as_printed=False)
    assert cl == cr


def test_totient_weighted_displays():
    rng = random.Random(12)
    a = _rand_seq(rng, 14)
    lhs, rhs = cor_5_14_check(1, a)
    assert lhs == rhs
    d3 = FiniteSequence({3: Fraction(1)}, 3)
    lp, rp = cor_5_14_check(2, d3, as_printed=True)
    assert lp != rp
    lc, rc = cor_5_14_check(2, a, as_printed=False)
    assert lc == rc


def test_closed_displays():
    for n in (2, 5, 17, 30):
        lhs, rhs = cor_5_15_check("a", n, as_printed=True)
        assert lhs == rhs
    assert cor_5_15_check("b", 3, as_printed=True)[0] != cor_5_15_check(
        "b", 3, as_printed=True
    )[1]
    for display in ("b", "c", "d"):
        for n in (2, 5, 17):
            cl, cr = cor_5_15_check(display, n, as_printed=False)
            assert cl == cr


def test_dirichlet_divisor_law_displays():
    ok, ce = cor_5_16_check("a", 100, reading="unnormalized")
    assert ok and ce is None
    ok_b, ce_b = cor_5_16_check("b", 20, reading="unnormalized")
    assert not ok_b and ce_b is not None


def test_product_displays():
    lhs, rhs = cor_5_17_check("a", 16, reading="printed")
    assert lhs != rhs
    for which in ("a", "b"):
        cl, cr = cor_5_17_check(which, 16, reading="corrected")
        assert cl == cr


def test_mixed_product_derived_reading():
    lhs, rhs = cor_5_9_check(Fraction(1, 3), 20, reading="derived")
    assert lhs == rhs
    lp, rp = cor_5_9_check(Fraction(1, 3), 6, reading="printed-halfopen")
    assert lp != rp


def test_hyperpyramid_log_truncation():
    lhs, rhs = hyperpyramid_log_check(
        (0.4, 0.3), (Fraction(1, 2), Fraction(1, 2)), 24
    )
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
    with pytest.raises(DomainError):
        hyperpyramid_log_check((1.2, 0.3), (Fraction(1, 2), Fraction(1, 2)), 10)


def test_region_validation():
    with pytest.raises(DomainError):
        RadialRegion(0, ())
    with pytest.raises(DomainError):
        RadialRegion(2, (3,))
    with pytest.raises(DomainError):
        RadialRegion(2, (3, 3), constraint="sphere")
