import cmath
import math

import mpmath
import pytest

import vpvtotients._kernels as kernels
from vpvtotients.analytic import (
    THETA_IDENTITIES,
    dirichlet_partial_cohen,
    ramanujan_mean_zero,
    ramanujan_mean_zero_direct,
    theta1,
    theta_log_ratio_check,
    theta_vpv_check,
    zeta,
)
from vpvtotients.audit.registry import _selector_weight
from vpvtotients.errors import DomainError
from vpvtotients.totients import jordan


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


def test_mean_zero_rearranged_vs_direct():
    for n in ((4, 6), (9,), (1,)):
        a = ramanujan_mean_zero(n, 2000)
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


_PARAMS = {
    "thm-6.1": {"x": 0.5, "q": 0.1, "alpha": 0.7, "beta": 0.3},
    "cor-6.2": {"n": 2, "q": 0.1, "alpha": 0.7, "beta": 0.3},
    "cor-6.3": {"q": 0.1, "alpha": 0.7, "beta": 0.3},
    "thm-6.4": {"xs": (0.5, 0.25), "q": 0.1, "alpha": 0.7, "beta": 0.3},
    "cor-6.5": {"m": 2, "q": 0.1, "alpha": 0.7, "beta": 0.3},
    "cor-6.6": {"n": (2, 3), "q": 0.1, "alpha": 0.7, "beta": 0.3},
}


@pytest.mark.parametrize("identity", THETA_IDENTITIES)
def test_theta_identities_matched_index(identity):
    res = theta_vpv_check(identity, _PARAMS[identity], K=40)
    assert res.status == "PASS", res.reason
    assert res.residual < 1e-8
    if res.direct_residual is not None:
        assert res.direct_residual < 1e-6


@pytest.mark.parametrize("identity", THETA_IDENTITIES)
def test_theta_residual_shrinks_with_truncation(identity):
    r20 = theta_vpv_check(identity, _PARAMS[identity], K=20).residual
    r80 = theta_vpv_check(identity, _PARAMS[identity], K=80).residual
    assert r80 <= r20


def test_theta_weights_enumerated_once_per_v(monkeypatch):
    # every right-side selector weight comes from the shared kernel, one call
    # per visible denominator v = 2..K, read by both routes
    kernel, seen = kernels.selector_char_sum, []

    def counted(k, thetas):
        seen.append(k)
        return kernel(k, thetas)

    monkeypatch.setattr(kernels, "selector_char_sum", counted)
    for identity in THETA_IDENTITIES:
        seen.clear()
        theta_vpv_check(identity, _PARAMS[identity], K=20)
        assert seen == list(range(2, 21)), identity


def _real(x):
    """The rotation number theta of a real factor x = e^(2 pi i theta)."""
    return cmath.log(x) / (2j * math.pi)


def test_selector_weight_kernel_vs_moebius_oracle():
    # rotation, unit and real factors, alone and mixed; every term has
    # modulus <= 1, so the error is measured against the term count J_h(v)
    cases = (
        (2 + 0j,), (0j,), (_real(0.5),),
        (2 + 0j, 3 + 0j), (0j, 0j), (_real(0.5), _real(0.25)),
        (2 + 0j, _real(0.3)), (0j, _real(0.7)),
        (1 + 0j, 0j, _real(0.5)),
    )
    for thetas in cases:
        h = len(thetas)
        for v in range(2, 81):
            got = kernels.selector_char_sum(v, thetas)
            want = _selector_weight(thetas, v)
            assert abs(got - want) <= 1e-12 * jordan(h, v), (thetas, v)


def test_theta_real_factor_domain():
    for x in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError, match="0 < x < 1"):
            theta_vpv_check("thm-6.1", {"x": x})


def test_theta_q_out_of_range_skips():
    res = theta_vpv_check("cor-6.2", {"n": 2, "q": 1.2, "alpha": 0.7, "beta": 0.3})
    assert res.status == "SKIPPED"


def test_dirichlet_domain_errors():
    with pytest.raises(DomainError):
        dirichlet_partial_cohen(0.0, (4,), 100)
    with pytest.raises(DomainError):
        dirichlet_partial_cohen(1.0, (0, 0), 100)
