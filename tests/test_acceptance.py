"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N: PASS" line on success (visible with
pytest -v -s or in captured output); a failure shows up as the usual pytest
failure for that one test.
"""

import random
import time
from fractions import Fraction

from vpvtotients.analytic import dirichlet_partial_cohen, theta_log_ratio_check, theta_vpv_check
from vpvtotients.audit import REGISTRY, discover_linear_relation, run_audit
from vpvtotients.audit.registry import (
    _cor_5_3_check,
    _falling_expansion,
    _finite_stirling_sides,
)
from vpvtotients.exactcore import divisors
from vpvtotients.series import PowerSeries, product_with_exponents, ps_exp
from vpvtotients.totients import (
    jordan,
    phi_t,
    ramanujan_cohen,
    ramanujan_cohen_enum,
    selector_size,
)
from vpvtotients.vpv import (
    FiniteSequence,
    lemma_3_2_check,
    thm_5_1_check,
    thm_5_2_check,
    thm_5_10_check,
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


def _jordan_product_series(m, order):
    exps = {1: Fraction(-1)}
    for k in range(2, order + 1):
        exps[k] = Fraction(-jordan(m, k), k)
    return product_with_exponents(exps, order)


def test_criterion_01_closed_form_vs_enumeration():
    t0 = time.time()
    rng = random.Random(101)
    cases = 0
    for m in (1, 2, 3):
        for k in range(2, 61):
            budget = 4 if m < 3 else (2 if k <= 30 else 1)
            for _ in range(budget):
                n = [rng.randint(0, 20) for _ in range(m)]
                assert ramanujan_cohen(k, n) == ramanujan_cohen_enum(k, n)
                cases += 1
    elapsed = time.time() - t0
    assert cases >= 500 and elapsed < 10.0
    print(f"criterion 1: PASS ({cases} cases, {elapsed:.1f}s)")


def test_criterion_02_cohen_product_series_exact():
    t0 = time.time()
    order = 64
    for m in (1, 2, 3):
        for g in range(1, 13):
            n = [g * (i + 1) for i in range(m)]
            exps = {
                k: Fraction(-ramanujan_cohen(k, n), k)
                for k in range(1, order + 1)
            }
            lhs = product_with_exponents(exps, order)
            coeffs = [Fraction(0)] * (order + 1)
            for k in range(1, order + 1):
                if g % k == 0:
                    coeffs[k] = Fraction(k ** (m - 1))
            assert lhs == ps_exp(PowerSeries(tuple(coeffs))), (m, g)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"criterion 2: PASS ({elapsed:.1f}s)")


def test_criterion_03_dirichlet_truncation_trend():
    for s, n in ((1.0, (4, 6)), (2.0, (3, 5)), (1.0, (2, 4, 6)), (1.0, (9,))):
        errs = []
        for K in (100, 1000, 10000):
            partial, companion = dirichlet_partial_cohen(s, n, K)
            errs.append(abs(partial - companion))
        assert errs[0] > errs[1] > errs[2], (s, n, errs)
        assert errs[2] < 1e-2
    print("criterion 3: PASS")


def test_criterion_04_jordan_laws():
    for m in (1, 2, 3):
        for k in range(2, 101):
            assert jordan(m, k) == selector_size(m, k)
    for m in (1, 2, 3, 4):
        for k in range(1, 201):
            assert sum(jordan(m, d) for d in divisors(k)) == k**m
    order = 64
    for m in (1, 2, 3, 4):
        coeffs = [Fraction(0)] + [
            Fraction(k ** (m - 1)) for k in range(1, order + 1)
        ]
        assert _jordan_product_series(m, order) == ps_exp(PowerSeries(tuple(coeffs)))
    print("criterion 4: PASS")


def test_criterion_05_stirling_identities():
    order = 32
    for m in range(2, 9):
        assert _jordan_product_series(m, order) == ps_exp(
            PowerSeries(tuple(_falling_expansion(m, k) for k in range(order + 1)))
        )
    for m in range(1, 7):
        for n in range(1, 13):
            for z in (Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(1, 3)):
                lhs, rhs = _finite_stirling_sides(m, n, z)
                assert lhs == rhs
    print("criterion 5: PASS")


def test_criterion_06_section5_exact_identities():
    # every display is sum_k a_k k^m = sum_v J_m(v) S_v for its own a
    def sides(a, m):
        return weighted_regroup_check(a, lambda k: k**m, lambda v: jordan(m, v))

    def powers(n, e):  # a_k = k^e for k <= n, ints where they can be
        return FiniteSequence.from_values(
            [k**e if e >= 0 else Fraction(1, k**-e) for k in range(1, n + 1)]
        )

    for n in range(1, 501):  # eq-5.5
        assert sides(powers(n, 0), 2) == (n * (n + 1) * (2 * n + 1) // 6,) * 2
    rng = random.Random(106)
    for _ in range(50):  # eq-5.6
        m = rng.randint(1, 4)
        a = _rand_seq(rng, rng.randint(10, 100))
        lhs, rhs = sides(a, m)
        assert lhs == rhs
    for n in list(range(1, 41)) + [100, 157, 200]:
        for m in (1, 2, 3):  # eq-5.7
            assert sides(powers(n, -m), m) == (n, n)
        for m, a in ((2, 1), (3, 1), (3, 2)):  # eq-5.8
            assert sides(powers(n, a - m), m) == (sum(k**a for k in range(1, n + 1)),) * 2
        for m in (1, 2, 3, 4):  # eq-5.9
            assert sides(powers(n, 0), m) == (sum(k**m for k in range(1, n + 1)),) * 2
    print("criterion 6: PASS")


def test_criterion_07_randomized_rearrangements():
    def rel(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)

    for seed in range(100):
        rng = random.Random(seed)
        m = rng.randint(1, 3)
        a = _rand_seq(rng, rng.randint(8, 24))
        q = [rng.uniform(0.05, 0.9) for _ in range(m)]
        assert rel(*lemma_3_2_check(a, q)) < 1e-9, ("lemma", seed)
    for seed in range(100):
        rng = random.Random(1000 + seed)
        n = rng.randint(8, 40)
        a, b = _rand_seq(rng, n), _rand_seq(rng, n, nonzero=True)
        assert rel(*thm_5_1_check(a, b, rng.uniform(0.2, 1.0))) < 1e-9, seed
    for seed in range(100):
        rng = random.Random(2000 + seed)
        n = rng.randint(8, 32)
        a = _rand_seq(rng, n)
        b, c = _rand_seq(rng, n, nonzero=True), _rand_seq(rng, n, nonzero=True)
        assert rel(*thm_5_2_check(a, b, c, rng.uniform(0.2, 0.9))) < 1e-9, seed
    for seed in range(100):
        rng = random.Random(3000 + seed)
        n = rng.randint(8, 24)
        a = _rand_seq(rng, n)
        bs = [_rand_seq(rng, n, nonzero=True) for _ in range(3)]
        assert rel(*thm_5_10_check(a, bs, rng.uniform(0.2, 0.8))) < 1e-8, seed
    print("criterion 7: PASS")


def test_criterion_08_companion_product_numeric():
    l40, r40 = _cor_5_3_check(0.3, 0.2, 0.25, 40)
    l20, r20 = _cor_5_3_check(0.3, 0.2, 0.25, 20)
    assert abs(l40 - r40) < 1e-6
    assert abs(l40 - r40) < abs(l20 - r20)
    print("criterion 8: PASS")


def test_criterion_09_relation_discovery():
    for k in range(2, 201):
        assert phi_t(1, 2, k) == jordan(2, k) - jordan(1, k)
    printed = (Fraction(7, 12), Fraction(-1), Fraction(5, 12))
    combo3 = sum(
        c * j for c, j in zip(printed, (jordan(3, 3), jordan(2, 3), jordan(1, 3)))
    )
    assert phi_t(2, 2, 3) == Fraction(16, 3) and combo3 == 8  # refuted at k=3
    target = lambda k: phi_t(2, 2, k)  # noqa: E731
    basis = [lambda k: Fraction(jordan(2, k)), lambda k: Fraction(jordan(1, k))]
    coeffs = discover_linear_relation(target, basis, [2, 3], 200)
    assert coeffs == (Fraction(7, 6), Fraction(-2))
    print("criterion 9: PASS")


def test_criterion_10_theta_checks():
    worst = 0.0
    for alpha in (0.4, 0.7, 1.1):
        for beta in (0.1, 0.3, 0.55):
            for q in (0.05, 0.1, 0.3):
                lhs, rhs = theta_log_ratio_check(alpha, beta, q)
                worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    # cor-6.2 at n = 2: one factor of rotation number 2
    r20 = theta_vpv_check((2 + 0j,), 0.1, 0.7, 0.3, K=20)[0]
    r40 = theta_vpv_check((2 + 0j,), 0.1, 0.7, 0.3, K=40)[0]
    r80 = theta_vpv_check((2 + 0j,), 0.1, 0.7, 0.3, K=80)[0]
    assert r40 < 1e-8 and r80 <= r20
    print("criterion 10: PASS")


def test_criterion_11_full_audit():
    t0 = time.time()
    report = run_audit(seed=0)
    elapsed = time.time() - t0
    assert {e.id for e in report.entries} == set(REGISTRY)
    assert elapsed < 300.0
    unexpected = [e.id for e in report.entries if not e.as_expected]
    assert not unexpected, unexpected
    print(f"criterion 11: PASS ({len(report.entries)} checks, {elapsed:.1f}s)")
