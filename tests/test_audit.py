import hashlib
import json
from fractions import Fraction

import pytest

from vpvtotients.audit import (
    REGISTRY,
    STATUSES,
    discover_linear_relation,
    run_audit,
)
from vpvtotients.errors import UsageError
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
        "7c26d9a98bb4e5eee338b991e65cb9ba38826cf6222b84363a8a2f2567d86dd2"
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
