import cmath
import math
import time

import mpmath
import numpy as np
import pytest

import vpvtotients._kernels as kernels
import vpvtotients.analytic as analytic
from vpvtotients.analytic import (
    dirichlet_partial_cohen,
    ramanujan_mean_zero_direct,
    ramanujan_mean_zero_table,
    real_rotation,
    selector_weights,
    theta1,
    theta_log_ratio_check,
    theta_vpv_check,
    zeta,
)
from vpvtotients.audit.registry import _selector_weight
from vpvtotients.errors import DomainError, ResourceError
from vpvtotients.totients import jordan, ramanujan_cohen, ramanujan_cohen_enum


def test_zeta_against_mpmath():
    for s in (1.5, 2.0, 3.0, 4.0, 7.5):
        assert abs(zeta(s) - float(mpmath.zeta(s))) < 1e-10


def test_theta1_against_mpmath():
    # mpmath jtheta(1, z, q) uses the same 2 q^(1/4) sin z convention
    for q in (0.05, 0.1, 0.3):
        for z in (0.3, 0.7, 1.4, 2.2):
            want = float(mpmath.jtheta(1, z, q))
            assert abs(theta1(z, q) - want) < 1e-12


def test_theta1_oddness_and_antiperiodicity():
    for q in (0.1, 0.4):
        for z in (0.2, 1.0, 2.5):
            assert abs(theta1(-z, q) + theta1(z, q)) < 1e-12
            assert abs(theta1(z + math.pi, q) + theta1(z, q)) < 1e-12


def test_dirichlet_partial_trend():
    for s, n in ((1.0, (4, 6)), (2.0, (3, 5)), (1.0, (2, 4, 6))):
        errs = []
        for K in (100, 1000, 10000):
            partial, companion = dirichlet_partial_cohen(s, n, K)
            errs.append(abs(partial - companion))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2


def _mean_zero_one_sieve_per_cutoff(n, K):
    """The rearranged mean-value sum with its own Moebius table and an
    explicit left-to-right loop over mu(d)/d per divisor: the reference for
    the shared table. A `sum()` would not do: from Python 3.12 it
    compensates float rounding, so it no longer adds left to right."""
    mu = kernels.moebius_table(K).tolist()
    total = 0.0
    for e in analytic.divisors(math.gcd(*n)):
        if e <= K:
            mertens = 0.0
            for d in range(1, K // e + 1):
                mertens += mu[d] / d
            total += e ** (len(n) - 1) * mertens
    return total


def test_mean_zero_table_matches_one_sieve_per_cutoff(monkeypatch):
    # one Moebius table for every n and K, partial sums added in the same
    # order, so every entry equals the per-cutoff sum bit for bit
    ns = ((4, 6), (9,), (2, 4, 8), (1,), (12, 18, 30))
    Ks = (100, 1000, 2000, 1, 37, 5000)
    want = [[_mean_zero_one_sieve_per_cutoff(n, K) for K in Ks] for n in ns]
    built = []
    table = kernels.moebius_table
    monkeypatch.setattr(kernels, "moebius_table", lambda K: built.append(K) or table(K))
    assert analytic.ramanujan_mean_zero_table(ns, Ks) == want
    assert built == [5000]
    with pytest.raises(DomainError, match="K must be"):
        analytic.ramanujan_mean_zero_table(ns, (10, 0))


def test_mean_zero_rearranged_vs_direct():
    for n in ((4, 6), (9,), (1,)):
        a = ramanujan_mean_zero_table([n], [2000])[0][0]
        b = ramanujan_mean_zero_direct(n, 2000)
        assert abs(a - b) < 1e-9


def test_theta_log_ratio_grid():
    worst = 0.0
    for alpha in (0.4, 0.7, 1.1):
        for beta in (0.1, 0.3, 0.55):
            for q in (0.05, 0.1, 0.3):
                lhs, rhs = theta_log_ratio_check(alpha, beta, q)
                worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10


# the rotation numbers of the left-side factors of each section-6 display,
# all at q = 0.1, alpha = 0.7, beta = 0.3
THETAS = {
    "thm-6.1": (real_rotation(0.5),),
    "cor-6.2": (2 + 0j,),
    "cor-6.3": (0j,),
    "thm-6.4": (real_rotation(0.5), real_rotation(0.25)),
    "cor-6.5": (0j, 0j),
    "cor-6.6": (2 + 0j, 3 + 0j),
}


@pytest.mark.parametrize("identity", THETAS)
def test_theta_identities_matched_index(identity):
    residual, direct_residual = theta_vpv_check(THETAS[identity], 0.1, 0.7, 0.3, K=40)
    assert residual < 1e-8
    if direct_residual is not None:
        assert direct_residual < 1e-6


@pytest.mark.parametrize("identity", THETAS)
def test_theta_residual_shrinks_with_truncation(identity):
    r20 = theta_vpv_check(THETAS[identity], 0.1, 0.7, 0.3, K=20)[0]
    r80 = theta_vpv_check(THETAS[identity], 0.1, 0.7, 0.3, K=80)[0]
    assert r80 <= r20


def test_theta_weights_enumerated_once_per_v(monkeypatch):
    # every right-side selector weight comes from the shared kernel, one call
    # per visible denominator v = 2..K, read by both routes
    kernel, seen = kernels.selector_char_sum, []

    def counted(k, thetas):
        seen.append(k)
        return kernel(k, thetas)

    monkeypatch.setattr(kernels, "selector_char_sum", counted)
    for identity, thetas in THETAS.items():
        seen.clear()
        theta_vpv_check(thetas, 0.1, 0.7, 0.3, K=20)
        assert seen == list(range(2, 21)), identity


def test_selector_weight_kernel_vs_moebius_oracle():
    # rotation, unit and real factors, alone and mixed; every term has
    # modulus <= 1, so the error is measured against the term count J_h(v)
    r = real_rotation
    cases = (
        (2 + 0j,), (0j,), (r(0.5),),
        (2 + 0j, 3 + 0j), (0j, 0j), (r(0.5), r(0.25)),
        (2 + 0j, r(0.3)), (0j, r(0.7)),
        (1 + 0j, 0j, r(0.5)),
    )
    for thetas in cases:
        h = len(thetas)
        for v in range(2, 81):
            got = kernels.selector_char_sum(v, thetas)
            want = _selector_weight(thetas, v)
            assert abs(got - want) <= 1e-12 * jordan(h, v), (thetas, v)


def test_theta_real_factor_domain():
    for x in (0.5, 0.25, 1e-9, 0.999):
        assert abs(cmath.exp(2j * math.pi * real_rotation(x)) - x) <= 1e-15
    for x in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError, match="0 < x < 1"):
            real_rotation(x)


def test_theta_q_out_of_range_raises():
    with pytest.raises(DomainError, match="0 <= q < 1"):
        theta_vpv_check((2 + 0j,), 1.2, 0.7, 0.3, K=40)


def test_cutoff_below_one_is_refused():
    # a cutoff K < 1 is refused before any O(K) table is built, as
    # ramanujan_mean_zero_table refuses it
    for K in (0, -5):
        with pytest.raises(DomainError, match="K must be"):
            dirichlet_partial_cohen(2.0, (4, 6), K)
        with pytest.raises(DomainError, match="K must be"):
            ramanujan_mean_zero_direct((4, 6), K)
        with pytest.raises(DomainError, match="K must be"):
            theta_vpv_check(THETAS["thm-6.1"], 0.1, 0.7, 0.3, K)


@pytest.mark.parametrize("call", [
    lambda K: dirichlet_partial_cohen(2.0, (4, 6), K),
    lambda K: ramanujan_mean_zero_direct((4, 6), K),
    lambda K: ramanujan_mean_zero_table([(4, 6)], [K]),
    lambda K: selector_weights((0.1 + 0j,), K),
    lambda K: theta_vpv_check(THETAS["thm-6.1"], 0.1, 0.7, 0.3, K),
], ids=["dirichlet_partial_cohen", "ramanujan_mean_zero_direct",
        "ramanujan_mean_zero_table", "selector_weights", "theta_vpv_check"])
def test_non_integer_cutoff_is_refused(call):
    # K = 10.5 ended in a TypeError inside the tables; a numpy int is an
    # integer and gives the Python int's value
    with pytest.raises(DomainError, match="must be integers, got \\(10.5,\\)"):
        call(10.5)
    assert call(np.int64(100)) == call(100)


def test_cutoff_past_the_cap_is_refused_before_the_table(monkeypatch):
    # K above the kernels' cell cap is refused as a ResourceError before the
    # Moebius table is built; K at the cap is admitted
    built = []
    table = kernels.moebius_table
    monkeypatch.setattr(kernels, "moebius_table", lambda K: built.append(K) or table(K))
    monkeypatch.setattr(kernels, "MAX_CELLS", 100)
    for call in (
        lambda K: dirichlet_partial_cohen(2.0, (4, 6), K),
        lambda K: ramanujan_mean_zero_direct((4, 6), K),
        lambda K: ramanujan_mean_zero_table([(4, 6)], [10, K]),
    ):
        with pytest.raises(ResourceError, match="table up to 101 exceeds cap 100"):
            call(101)
        assert built == []
        call(100)
        assert built == [100]
        built.clear()
    # at the real cap, past it by one: refused at once
    monkeypatch.undo()
    with pytest.raises(ResourceError, match="exceeds cap 10000000"):
        dirichlet_partial_cohen(2.0, (4, 6), 10**7 + 1)


def test_selector_weights_charged_their_total_grid(monkeypatch):
    # every v = 2..K is enumerated, so the sum of v^h is held to the cap
    # before the first kernel call: h = 2 is admitted to K = 310 (9,978,434
    # cells) and refused from 311 (10,075,155), h = 1 to 4471 and from 4472
    seen = []
    monkeypatch.setattr(kernels, "selector_char_sum", lambda k, thetas: seen.append(k) or 0j)
    for thetas, K in (((0j, 0j), 310), ((0j,), 4471)):
        seen.clear()
        assert len(selector_weights(thetas, K)) == K - 1
        assert seen == list(range(2, K + 1))
    for thetas, K in (((0j, 0j), 311), ((0j,), 4472), ((0j, 0j), 3162), ((0j,) * 3, 80)):
        seen.clear()
        with pytest.raises(ResourceError, match="in all, above cap 10000000"):
            selector_weights(thetas, K)
        with pytest.raises(ResourceError, match="in all, above cap 10000000"):
            theta_vpv_check(thetas, 0.1, 0.7, 0.3, K)
        assert seen == [], (thetas, K)
    # the audit's own theta sizes stay admitted: h <= 2 and K <= 80
    seen.clear()
    selector_weights((0j, 0j), 80)
    assert seen == list(range(2, 81))


def test_selector_weights_refuses_cutoff_below_one():
    # a public name: it refused nothing below K = 1 and returned []
    for K in (0, -3):
        with pytest.raises(DomainError, match="K must be"):
            selector_weights(THETAS["thm-6.1"], K)


def test_theta_needs_a_factor():
    # refused before any kernel call (the kernel's outer-product reduce
    # has nothing to reduce)
    for call in (lambda: selector_weights((), 5),
                 lambda: theta_vpv_check((), 0.1, 0.7, 0.3, K=5)):
        with pytest.raises(DomainError, match="need at least one theta factor"):
            call()


def test_dirichlet_domain_errors():
    with pytest.raises(DomainError):
        dirichlet_partial_cohen(0.0, (4,), 100)
    with pytest.raises(DomainError):
        dirichlet_partial_cohen(1.0, (0, 0), 100)
    # an empty n is refused before its gcd is taken, as ramanujan_cohen does
    with pytest.raises(DomainError, match="n must be a non-empty tuple"):
        dirichlet_partial_cohen(1.0, (), 100)


def test_zero_gcd_rejected_before_the_table(monkeypatch):
    # g = 0 is known from n alone; the O(K) Moebius table is never built
    def no_table(limit):
        raise AssertionError(f"Moebius table built up to {limit}")

    monkeypatch.setattr(kernels, "moebius_table", no_table)
    for call in (
        lambda: dirichlet_partial_cohen(1.0, (0, 0), 10**7),
        lambda: ramanujan_mean_zero_direct((0, 0, 0), 10**7),
        lambda: ramanujan_mean_zero_table([(0,)], [10**7]),
    ):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="g = gcd"):
            call()
        assert time.perf_counter() - start < 0.5


def test_empty_n_is_refused():
    # an empty n has no gcd to speak of; it is refused before g is formed
    for call in (
        lambda: dirichlet_partial_cohen(1.0, (), 10),
        lambda: ramanujan_mean_zero_direct((), 10),
        lambda: ramanujan_mean_zero_table([()], [10]),
    ):
        with pytest.raises(DomainError, match="n must be a non-empty tuple"):
            call()


def test_non_integral_n_is_refused():
    # int() would read n = (2.5,) as (2,); numpy ints are integers and pass
    for call in (
        lambda n: ramanujan_cohen(6, n),
        lambda n: ramanujan_cohen_enum(6, n),
        lambda n: dirichlet_partial_cohen(1.0, n, 10),
    ):
        with pytest.raises(DomainError, match="tuple of integers, got \\(2.5,\\)"):
            call((2.5,))
        assert call((np.int64(2),)) == call((2,))
        assert call((np.int64(4), np.int32(6))) == call((4, 6))


# m = 1..3, with negative, zero and all-zero n, and a g with divisors above K
COHEN_NS = (
    (5,), (-12,), (0,), (360,), (1000,),
    (12, -18), (0, 7), (0, 0), (-4, -6), (600, 900),
    (6, 0, -9), (0, 0, 0), (30, 45, 60), (-1, 1, 1), (0, -8, 0),
)


def test_cohen_table_vs_closed_form():
    for n in COHEN_NS:
        want = [ramanujan_cohen(k, n) for k in range(1, 301)]
        assert analytic._cohen_values(n, 300).tolist() == want, n


def test_cohen_table_from_the_first_divisor():
    # the sieve starts from mu, the e = 1 term, and adds only e >= 2: at
    # K = 1 nothing is added, at K = 2 only e = 2, and at K = 97 every
    # divisor of g, or every e <= 97 for the all-zero n (the Jordan case)
    for n in ((0, 0), (6,), (12, 18), (4, 6, 8)):
        for K in (1, 2, 97):
            got = analytic._cohen_values(n, K)
            want = [ramanujan_cohen(k, n) for k in range(1, K + 1)]
            assert got.dtype == np.int64 and got.tolist() == want, (n, K)


def test_cohen_table_vs_enumeration():
    for n in COHEN_NS:
        # c_1(n) = 1 by convention; the enumeration covers k >= 2
        want = [1] + [ramanujan_cohen_enum(k, n) for k in range(2, 41)]
        assert analytic._cohen_values(n, 40).tolist() == want, n


def test_cohen_table_past_int64_is_exact():
    # g = 6, m = 30: the bound 1 + 2^30 + 3^30 + 6^30 is past 2^63, so the
    # table holds Python ints, each equal to the closed form
    n = (6,) * 30
    got = analytic._cohen_values(n, 50)
    assert got.dtype == object and max(map(abs, got)) >= 2**63
    assert list(got) == [ramanujan_cohen(k, n) for k in range(1, 51)]
    assert all(type(c) is int for c in got)
    # the table is int64 only while every value is exact as a float: the
    # bound 1 + 2^m + 3^m + 6^m is below 2^53 at m = 20 and past it at 21
    assert analytic._cohen_values((6,) * 20, 50).dtype == np.int64
    assert analytic._cohen_values((6,) * 21, 50).dtype == object


def test_series_sums_against_python_int_loops():
    # the closed form in Python ints, added left to right in a loop: the
    # mean-value sum c_k/k has the same arithmetic, so it is equal; each
    # k^(s+1) of the partial sum is numpy's power, which may differ from
    # libm's in the last bit, so that sum is held to 4 ulps of its terms'
    # absolute sum. (6,)*30 is past int64 and (6,)*24 and (6,)*22 are past
    # 2^53, where int64 values would lose bits in a cast to float; the
    # others are int64.
    eps = np.finfo(float).eps
    for n, K in (((6,) * 30, 50), ((6,) * 24, 50), ((6,) * 22, 200),
                 ((12, 18), 2000), ((-4, 6, 8), 500)):
        cs = [ramanujan_cohen(k, n) for k in range(1, K + 1)]
        mean = 0.0
        for k, c in enumerate(cs, start=1):
            mean += c / k
        assert ramanujan_mean_zero_direct(n, K) == mean, n
        for s in (0.5, 1.0, 2.0):
            want, scale = 0.0, 0.0
            for k, c in enumerate(cs, start=1):
                want += c / k ** (s + 1.0)
                scale += abs(c) / k ** (s + 1.0)
            partial, _ = dirichlet_partial_cohen(s, n, K)
            assert abs(partial - want) <= 4 * eps * scale, (n, s, partial, want)
