import ast
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from vpvtotients.audit import (
    REGISTRY,
    STATUSES,
    Outcome,
    discover_linear_relation,
    registry,
    run_audit,
)
from vpvtotients.errors import UsageError
from vpvtotients.exactcore import divisors
from vpvtotients.totients import jordan, phi_t

# the documented coverage ledger: every numbered display maps to exactly one
# of these ids
DOCUMENTED_IDS = [
    "eq-2.3", "eq-2.4", "eq-2.5", "cor-2.3", "eq-2.6", "eq-2.7", "eq-2.8",
    "lem-3.1", "eq-3.1", "eq-3.2", "eq-3.3", "eq-3.4",
    "eq-4.1", "eq-4.2", "eq-4.3", "eq-4.4", "eq-4.7", "eq-4.9", "eq-4.10",
    "eq-4.11", "eq-4.12", "eq-4.13", "eq-4.14", "eq-4.15", "eq-4.16",
    "thm-5.1", "thm-5.2", "cor-5.3", "eq-5.4", "eq-5.5", "eq-5.6", "eq-5.7",
    "eq-5.8", "eq-5.9", "eq-5.10", "eq-5.11", "cor-5.9", "eq-5.14",
    "cor-5.11", "eq-5.16", "eq-5.17", "cor-5.12", "cor-5.13",
    "cor-5.14a", "cor-5.14b",
    "cor-5.15a", "cor-5.15b", "cor-5.15c", "cor-5.15d",
    "cor-5.16a", "cor-5.16b", "cor-5.17a", "cor-5.17b",
    "cor-5.18a", "cor-5.18b",
    "eq-6.1", "eq-6.2", "eq-6.3", "eq-6.4", "eq-6.5", "eq-6.6", "eq-6.7",
    "eq-6.8", "eq-6.9",
]


def test_registry_completeness():
    assert sorted(REGISTRY) == sorted(DOCUMENTED_IDS)
    assert len(DOCUMENTED_IDS) == len(set(DOCUMENTED_IDS))


def test_registry_invariants():
    for check in REGISTRY.values():
        words = check.anchor.split()
        assert 3 <= len(words) <= 6, check.id
        assert check.expected in STATUSES, check.id
        assert check.provenance.startswith(("[DERIVED", "[TRIVIAL")), check.id
        assert check.params, check.id


def test_single_id_outcomes():
    report = run_audit(["eq-4.13"], seed=1)
    assert report.entries[0].status == "PASS"
    report = run_audit(["eq-2.6"])
    entry = report.entries[0]
    assert entry.status == "FLAGGED"
    # FLAGGED requires a note quoting the problematic display
    assert any("=0 f((m,n))" in note for note in entry.notes)


def test_fails_as_printed_entries_carry_counterexamples():
    ids = [i for i, c in REGISTRY.items() if c.expected == "FAILS_AS_PRINTED"]
    assert ids
    report = run_audit(ids, seed=0)
    for entry in report.entries:
        assert entry.status == "FAILS_AS_PRINTED", entry.id
        assert entry.counterexample, entry.id


def test_reports_are_byte_identical():
    ids = ["eq-3.1", "eq-5.5", "cor-5.18a", "eq-6.7"]
    a = run_audit(ids, seed=7)
    b = run_audit(ids, seed=7)
    assert a.to_json() == b.to_json()
    assert a.to_text() == b.to_text()


def test_grid_power_sum_ids_report_bytes_pinned():
    # every id whose values pass through exactcore.grid_power_sum (phi_t's
    # closed form, the grid-power identities, the bracket oracle) or the
    # phi_t enumeration; the entries hold exact values only (max_residual
    # 0.0 or None), so the bytes do not depend on the float platform
    ids = [
        "eq-4.2", "eq-4.3", "eq-4.7", "eq-4.9", "cor-5.11", "eq-5.16",
        "eq-5.17", "cor-5.14a", "cor-5.14b", "cor-5.15a", "cor-5.15b",
        "cor-5.15c", "cor-5.15d", "cor-5.16a", "cor-5.16b", "cor-5.17a",
        "cor-5.17b", "cor-5.18a", "cor-5.18b",
    ]
    body = run_audit(ids, seed=0).to_json()
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "0cf442d16821cd4cc492fa4db8c91dbf24f87fd1c42532b038481a259694a61b"
    )


def test_report_sorted_and_schema():
    report = run_audit(["eq-5.5", "cor-5.3", "eq-2.6"], seed=0)
    ids = [e.id for e in report.entries]
    assert ids == sorted(ids)
    payload = json.loads(report.to_json())
    assert set(payload) == {"seed", "version", "entries"}
    for entry in payload["entries"]:
        assert set(entry) == {
            "id", "anchor", "status", "params", "max_residual",
            "counterexample", "notes",
        }
        assert entry["status"] in STATUSES  # no UNKNOWN possible


def test_unknown_id_is_usage_error():
    with pytest.raises(UsageError):
        run_audit(["no-such-id"])


def test_discover_linear_relation_examples():
    target = lambda k: phi_t(1, 2, k)  # noqa: E731
    basis = [lambda k: Fraction(jordan(2, k)), lambda k: Fraction(jordan(1, k))]
    assert discover_linear_relation(target, basis, [2, 3], 200) == (
        Fraction(1),
        Fraction(-1),
    )
    # trivial self-relation
    j2 = lambda k: Fraction(jordan(2, k))  # noqa: E731
    assert discover_linear_relation(j2, [j2], [2], 50) == (Fraction(1),)
    # singular system: duplicated basis function
    assert discover_linear_relation(target, [j2, j2], [2, 3], 50) is None


def test_discover_linear_relation_rejects_bad_fit_points():
    j1 = lambda k: Fraction(jordan(1, k))  # noqa: E731
    with pytest.raises(UsageError):
        discover_linear_relation(j1, [j1], [2, 2], 10)
    with pytest.raises(UsageError):
        discover_linear_relation(j1, [j1, j1], [2], 10)


def test_discover_linear_relation_verification_failure():
    # fits on the points but fails the sweep: phi_2(2;k) is not a multiple
    # of J_2 alone
    target = lambda k: phi_t(2, 2, k)  # noqa: E731
    j2 = lambda k: Fraction(jordan(2, k))  # noqa: E731
    assert discover_linear_relation(target, [j2], [2], 20) is None


# Failure paths that no seeded run reaches. Each case rebinds layer names in
# the registry module (the checks look them up when they run) so that one
# call returns a changed result, and pins the whole Outcome the check then
# returns: its status, residual, counterexample and notes.


def _divisor_law_by_divisors(f, w, n_max):
    """The divisor law summed over each n's divisor list, the reference for
    the sieve in `registry._divisor_law`."""
    for n in range(1, n_max + 1):
        total = sum(w(d) for d in divisors(n))
        if total != f(n):
            return False, (n, total, f(n))
    return True, None


def test_divisor_law_sieve_matches_divisor_sums():
    # a passing law, a law that fails at a divisor it shares with larger n,
    # and a Fraction-valued weight; w is evaluated once per d
    def phi_u(v):
        return Fraction(phi_t(1, 2, v) if v > 1 else 0, v)

    laws = [(lambda k, m=m: k**m, lambda d, m=m: jordan(m, d), 200) for m in (1, 4)]
    laws += [
        (lambda k: k, lambda d: jordan(1, d) + (d == 28), 200),
        (lambda k: k, lambda d: jordan(1, d) + (d % 35 == 0), 100),
        (lambda k: Fraction(k * (k - 1), 2), phi_u, 60),
    ]
    for f, w, n_max in laws:
        seen = []
        got = registry._divisor_law(f, lambda d: seen.append(d) or w(d), n_max)
        assert got == _divisor_law_by_divisors(f, w, n_max), n_max
        assert seen == list(range(1, n_max + 1))
    assert registry._divisor_law(*laws[0]) == (True, None)
    assert registry._divisor_law(*laws[2]) == (False, (28, 29, 28))


def _off_at(real, call, off):
    """`real`, except that call number `call` (every call when None) returns
    off(result) instead of its result."""
    count = 0

    def wrapped(*args, **kwargs):
        nonlocal count
        count += 1
        result = real(*args, **kwargs)
        return off(result) if call in (None, count) else result

    return wrapped


# what the changed call returns in place of its result


def _split(sides):
    return 0, 1


def _balance(sides):
    return sides[0], sides[0]


def _plus_one(value):
    return value + 1


def _negate(ok):
    return not ok


def _off(series):
    return "OFF"  # equal to no series


def _one(value):
    return 1  # patched into both sides, it balances them


def _oracle_bracket(t_2):
    return 20  # as T_2 in 2 T_1 T_2 (T_1 = 1/2): the oracle bracket at k=5, b=(1,1)


def _half(sides):
    return 1.0, 2.0  # relative residual 0.5


def _bump_z3(series):
    c = series.coeffs
    return type(series)(c[:3] + (c[3] + 1,) + c[4:])


def _nothing(result):
    return None


def _inflate_residual(residuals):
    return 1.0, residuals[1]


def _inf(value):
    return math.inf


def _milli_apart(sides):
    return 0.0, 1e-3  # a residual above the c_max = 20 one, so not shrinking


def _flat_errors(sides):
    return 0.0, 1.0  # error 1.0 at every K: no decay


FAILURE_PATHS = [
    # (id, ((layer name, call number, change), ...), the Outcome it returns)
    ("cor-2.3", (("ramanujan_cohen", 50, _plus_one),),
     Outcome("FAILS_AS_PRINTED", None, "n=[10], k1=4, k2=11: 2 vs 1")),
    ("eq-2.3", (("dirichlet_partial_cohen", None, _flat_errors),),
     Outcome("FAILS_AS_PRINTED", 1.0, "s=1.0, n=(6,): errors [1.0, 1.0, 1.0]")),
    ("eq-2.4", (("dirichlet_partial_cohen", None, _flat_errors),),
     Outcome("FAILS_AS_PRINTED", 1.0, "s=1.0, n=(4, 6): errors [1.0, 1.0, 1.0]")),
    ("eq-2.5", (("ps_exp", 5, _bump_z3),),
     Outcome("FAILS_AS_PRINTED", None,
             "m=1, g=5: coefficient 3 is 1/6 vs 7/6")),
    ("lem-3.1", (("_multiples_partition_check", 3, _negate),),
     Outcome("FAILS_AS_PRINTED", None,
             "region RadialRegion(dims=1, bounds=(10,), constraint='box')")),
    ("eq-3.1", (("lemma_3_2_check", 7, _half),),
     Outcome("FAILS_AS_PRINTED", 0.5)),
    ("eq-3.4", (("lemma_3_2_check", 4, _half),),
     Outcome("FAILS_AS_PRINTED", 0.5)),
    ("eq-4.1", (("lemma_3_2_check", 5, _half),),
     Outcome("FAILS_AS_PRINTED", 0.5)),
    ("eq-4.2", (("power_regroup_check", 6, _split),),
     Outcome("FAILS_AS_PRINTED", None, "c=2: 0 vs 1")),
    ("eq-4.3", (("power_regroup_check", 6, _split),),
     Outcome("FAILS_AS_PRINTED", None, "c=4: 0 vs 1")),
    ("eq-4.4", (("selector_size", 7, _plus_one),),
     Outcome("FAILS_AS_PRINTED", None, "k=8")),
    ("eq-4.4", (("weighted_regroup_check", 3, _split),),
     Outcome(
         "FAILS_AS_PRINTED",
         None,
         "a={1: Fraction(3, 5), 2: Fraction(1, 1), 3: Fraction(1, 1), "
         "4: Fraction(-3, 5), 5: Fraction(-2, 1), 6: Fraction(1, 1), "
         "7: Fraction(-1, 1), 8: Fraction(5, 3), 9: Fraction(2, 1), "
         "10: Fraction(-5, 2), 11: Fraction(-1, 1), 12: Fraction(1, 1), "
         "13: Fraction(4, 5), 14: Fraction(1, 1), 16: Fraction(-1, 5)}: "
         "0 vs 1",
     )),
    ("eq-4.7", (("power_regroup_check", 10, _split),),
     Outcome("FAILS_AS_PRINTED", None, "c=3: 0 vs 1")),
    ("eq-4.9", (("weighted_regroup_check", 2, _split),),
     Outcome("SKIPPED", None, None, ("unexpected t=0 imbalance at m=3",))),
    ("eq-4.9", (("weighted_regroup_check", 3, _balance),),
     Outcome("PASS", 0.0)),
    ("eq-4.10", (("weighted_regroup_check", 2, _split),),
     Outcome("FAILS_AS_PRINTED", None, "m=2: 0 vs 1")),
    ("eq-4.10", (("jordan", 78, _plus_one),),
     Outcome("FAILS_AS_PRINTED", None, "m=1, k=28")),
    ("eq-4.11", (("jordan", 28, _plus_one),),
     Outcome("FAILS_AS_PRINTED", None, "m=1, k=28")),
    ("eq-4.12", (("selector_size", 70, _plus_one),),
     Outcome("FAILS_AS_PRINTED", None, "m=2, k=12")),
    ("eq-4.13", (("ps_exp", 2, _off),),
     Outcome("FAILS_AS_PRINTED", None, "m=2")),
    ("eq-4.14", (("_finite_stirling_sides", 100, _split),),
     Outcome("FAILS_AS_PRINTED", None, "m=3, n=1, z=1/3")),
    ("eq-4.15", (("ps_exp", 3, _off),),
     Outcome("FAILS_AS_PRINTED", None, "m=4")),
    ("eq-4.16", (("_hyperpyramid_log_check", 2, _half),),
     Outcome("FAILS_AS_PRINTED", 0.5)),
    ("thm-5.1", (("thm_5_1_check", 3, _half),),
     Outcome("FAILS_AS_PRINTED", 0.5)),
    ("thm-5.2", (("thm_5_2_check", 3, _half),),
     Outcome("FAILS_AS_PRINTED", 0.5)),
    # _cor_5_3_check call 1 is c_max = 40, call 2 c_max = 20; a failing
    # check carries no note that the residual shrinks
    ("cor-5.3", (("_cor_5_3_check", 1, _milli_apart),),
     Outcome("FAILS_AS_PRINTED", 1e-3)),
    ("eq-5.4", (("weighted_regroup_check", 4, _split),),
     Outcome("FAILS_AS_PRINTED", None, "0 vs 1")),
    ("eq-5.5", (("weighted_regroup_check", 42, _split),),
     Outcome("FAILS_AS_PRINTED", None, "n=42")),
    ("eq-5.6", (("weighted_regroup_check", 17, _split),),
     Outcome("FAILS_AS_PRINTED", None, "m=4: 0 vs 1")),
    ("eq-5.7", (("weighted_regroup_check", 50, _split),),
     Outcome("FAILS_AS_PRINTED", None, "m=2, n=17")),
    ("eq-5.8", (("weighted_regroup_check", 50, _split),),
     Outcome("FAILS_AS_PRINTED", None, "m=3, a=1, n=17")),
    ("eq-5.9", (("weighted_regroup_check", 50, _split),),
     Outcome("FAILS_AS_PRINTED", None, "m=2, n=13")),
    ("eq-5.10", (("weighted_regroup_check", 1, _balance),),
     Outcome("PASS", 0.0)),
    # call 1 is the printed probe, calls 2-25 the corrected sweep
    ("eq-5.10", (("weighted_regroup_check", 5, _split),),
     Outcome("SKIPPED", None, None, ("corrected form fails at m=1, n=30, z=1/2",))),
    ("eq-5.10", (("weighted_regroup_check", 25, _split),),
     Outcome("SKIPPED", None, None, ("corrected form fails at m=3, n=30, z=-1/3",))),
    ("eq-5.11", (("thm_5_8_check", 3, _half),),
     Outcome("FAILS_AS_PRINTED", 0.5)),
    # ps_exp calls 1-2 are the sides at x = 1/3, calls 3-4 those at x = -2/5
    ("cor-5.9", (("ps_exp", 3, _off),),
     Outcome("FAILS_AS_PRINTED", None, "derived reading fails at x=-2/5")),
    ("eq-5.14", (("thm_5_10_check", 3, _half),),
     Outcome("FAILS_AS_PRINTED", 0.5)),
    ("cor-5.11", (("power_regroup_check", 4, _split),),
     Outcome("SKIPPED", None, None,
             ("oracle bracket imbalance at h=2, m=1",))),
    # _printed_t calls 1-2 are T_1 and T_2 of the printed probe 2 T_1 T_2
    ("cor-5.11", (("_printed_t", 2, _oracle_bracket),),
     Outcome("PASS", 0.0)),
    # _bracket call 10 is the first oracle case at k=5 (three per k from 2)
    ("eq-5.16", (("_bracket", 10, _plus_one),),
     Outcome("SKIPPED", None, None, ("first-order oracle mismatch at k=5",))),
    ("eq-5.17", (("_bracket", 10, _plus_one),),
     Outcome("SKIPPED", None, None, ("second-order oracle mismatch at k=5",))),
    ("cor-5.12", (("power_regroup_check", 1, _balance),),
     Outcome("PASS", 0.0)),
    ("cor-5.12", (("power_regroup_check", 3, _split),),
     Outcome("SKIPPED", None, None,
             ("corrected first-order identity imbalance",))),
    ("cor-5.13", (("power_regroup_check", 3, _split),),
     Outcome("SKIPPED", None, None,
             ("corrected second-order identity imbalance",))),
    ("cor-5.14a", (("weighted_regroup_check", 5, _split),),
     Outcome("FAILS_AS_PRINTED", None, "0 vs 1")),
    ("cor-5.14b", (("weighted_regroup_check", 2, _split),),
     Outcome("SKIPPED", None, None,
             ("corrected quadratic weighting imbalance",))),
    ("cor-5.15a", (("weighted_regroup_check", 5, _split),),
     Outcome("FAILS_AS_PRINTED", None, "n=6 (printed): lhs=0, rhs=1",
             ("the corrected reading balances exactly for n <= 40",))),
    ("cor-5.15b", (("weighted_regroup_check", 10, _split),),
     Outcome("SKIPPED", None, None,
             ("corrected display b imbalance at n=10",))),
    ("cor-5.15c", (("weighted_regroup_check", 20, _split),),
     Outcome("SKIPPED", None, None,
             ("corrected display c imbalance at n=20",))),
    ("cor-5.15d", (("weighted_regroup_check", 30, _split),),
     Outcome("SKIPPED", None, None,
             ("corrected display d imbalance at n=30",))),
    # _divisor_law call 1 is the unnormalized law, call 2 the normalized note's
    ("cor-5.16a", (("_divisor_law", 1, lambda r: (False, (6, 29, 30))),),
     Outcome("FAILS_AS_PRINTED", None, "unnormalized reading fails")),
    ("cor-5.16a", (("_divisor_law", 2, lambda r: (True, None)),),
     Outcome("PASS", 0.0, None,
             ("multiplying through by zeta(s+2) reduces the display to the "
              "divisor law sum_(d|n) phi1u(d)/d = n^2 - n, exact for n <= 120",))),
    ("cor-5.16b", (("_divisor_law", 1, lambda r: (True, None)),),
     Outcome("PASS", 0.0)),
    # the printed sides are product_with_exponents and ps_exp call 1, the
    # corrected ones call 2 of each
    ("cor-5.17a", (("product_with_exponents", 1, _one), ("ps_exp", 1, _one)),
     Outcome("PASS", 0.0)),
    ("cor-5.17a", (("ps_exp", 2, _off),),
     Outcome("SKIPPED", None, None, ("corrected product display imbalance",))),
    ("cor-5.17b", (("ps_exp", 2, _off),),
     Outcome("SKIPPED", None, None, ("corrected product display imbalance",))),
    ("cor-5.18a", (("discover_linear_relation", None, _nothing),),
     Outcome("FAILS_AS_PRINTED", None, "discovered coefficients None")),
    ("eq-6.1", (("theta1", 5, _inf),),
     Outcome("FAILS_AS_PRINTED", math.inf)),
    ("eq-6.2", (("theta_log_ratio_check", 5, _split),),
     Outcome("FAILS_AS_PRINTED", 1)),
    ("eq-6.3", (("theta_vpv_check", 2, _inflate_residual),),
     Outcome("FAILS_AS_PRINTED", 1.0,
             "residuals over K=20,40,80: [3.469446951953614e-18, 1.0, "
             "3.469446951953614e-18], direct 1.0998146837692957e-15")),
    ("eq-6.7", (("_selector_weight", 7, _inf),),
     Outcome("FAILS_AS_PRINTED", math.inf)),
    ("eq-6.9", (("theta_vpv_check", 2, _inflate_residual),),
     Outcome("FAILS_AS_PRINTED", 1.0,
             "residuals over K=20,40,80: [3.469447534549392e-18, 1.0, "
             "3.469447534549392e-18], direct 4.85722573273506e-17")),
    ("cor-5.18b", (("discover_linear_relation", None, _nothing),),
     Outcome(
         "FAILS_AS_PRINTED",
         None,
         "k=3: phi_2(2;k) = 16/3 but (7/12)J_3 - J_2 + (5/12)J_1 = 8",
         ("no substitute relation survived verification",),
     )),
]


@pytest.mark.parametrize(
    "id_, patches, expected", FAILURE_PATHS,
    ids=[f"{id_}-{patches[0][0]}-{patches[0][1]}"
         for id_, patches, _ in FAILURE_PATHS],
)
def test_check_failure_paths(monkeypatch, id_, patches, expected):
    for name, call, off in patches:
        real = getattr(registry, name)
        monkeypatch.setattr(registry, name, _off_at(real, call, off))
    assert REGISTRY[id_].procedure(random.Random(f"0:{id_}")) == expected


def test_only_the_helpers_and_flow_checks_decide_a_verdict():
    # every exact verdict goes through the three helpers; only the float
    # trends over a K grid and the one constant FLAGGED keep their own flow
    tree = ast.parse(Path(registry.__file__).read_text())
    deciding = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        if any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
               and call.func.id in ("Outcome", "_pass_if")
               for call in ast.walk(node))
    }
    assert deciding == {
        "_pass_if", "_first_mismatch", "_worst_residual", "_printed_or_corrected",
        "_dirichlet_trend", "_check_mean_zero", "_check_moebius_mean_zero",
        "_check_jordan_dirichlet", "_check_companion_product",
        "_check_theta_identity", "_check_garbled_functional_equation",
    }


def test_exact_ids_report_bytes_pinned():
    # every id whose entry carries no float (max_residual 0.0 or None and no
    # float in a note), so the bytes do not depend on the float platform
    ids = [
        "cor-2.3", "cor-5.9", "cor-5.11", "cor-5.12", "cor-5.13", "cor-5.14a",
        "cor-5.14b", "cor-5.15a", "cor-5.15b", "cor-5.15c", "cor-5.15d",
        "cor-5.16a", "cor-5.16b", "cor-5.17a", "cor-5.17b", "cor-5.18a",
        "cor-5.18b", "eq-2.5", "eq-2.6", "eq-4.2", "eq-4.3", "eq-4.4",
        "eq-4.7", "eq-4.9", "eq-4.10", "eq-4.12", "eq-4.13", "eq-4.14",
        "eq-4.15", "eq-5.4", "eq-5.5", "eq-5.6", "eq-5.7", "eq-5.8", "eq-5.9",
        "eq-5.10", "eq-5.16", "eq-5.17", "lem-3.1",
    ]
    body = run_audit(ids, seed=0).to_json()
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "f6d303cec9bd37695fb6f77231d8b49b5ddd3e1422b670b897893a2087952440"
    )
