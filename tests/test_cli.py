import dataclasses
import json
import sys
import time
from math import gcd

import pytest

from vpvtotients.audit import REGISTRY
from vpvtotients.cli import main
from vpvtotients.totients import jordan, phi_t


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_ramanujan(capsys):
    code, out, _ = run(capsys, "compute", "ramanujan", "--k", "2", "--n", "1,1")
    assert code == 0 and out.strip() == "-1"


def test_compute_jordan(capsys):
    code, out, _ = run(capsys, "compute", "jordan", "--m", "2", "--k", "4")
    assert code == 0 and out.strip() == "12"


def test_compute_result_above_int_str_digit_limit(capsys):
    # J_10000(3) has 4772 digits, past the default int -> str limit of 4300
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "compute", "jordan", "--m", "10000", "--k", "3")
    assert sys.get_int_max_str_digits() == limit  # restored after the command
    sys.set_int_max_str_digits(0)
    try:
        want = str(jordan(10000, 3))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and not err
    assert out.strip() == want


def test_compute_stirling_large_n(capsys):
    code, out, _ = run(capsys, "compute", "stirling", "--n-arg", "900", "--j", "3")
    assert code == 0 and int(out) == (3**900 - 3 * 2**900 + 3) // 6


def test_compute_work_caps_exit_2_at_once(capsys):
    # each input is one past its cap, or one that used to run for minutes
    for argv in (
        ("mphi", "--m", "1", "--k", "10000001"),
        ("mphi", "--m", "1", "--k", "1000000000"),
        ("stirling", "--n-arg", "7812501", "--j", "1"),
        ("stirling", "--n-arg", "100000000", "--j", "50"),
        ("bernoulli", "--a", "601"),
        ("bernoulli", "--a", "3000"),
        ("jordan", "--m", "630930", "--k", "3"),
        ("jordan", "--m", "1000000000000", "--k", "3"),
        ("jordan", "--m", str(10**400), "--k", "3"),
        ("phi", "--t", "0", "--m", "99746", "--k", "6"),
        ("phi", "--t", "3", "--m", "3", "--k", "533874"),
        ("phi", "--t", "1020", "--m", "3", "--k", "6"),
        ("phi", "--t", "2", "--m", "3", "--k", "1000000000000"),
        ("phi", "--t", "1000000000000", "--m", "1000000000000", "--k", "2"),
        ("sigma", "--s", "3000000", "--n", "6"),
        ("sigma", "--s", "-193427", "--n", "6"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 2 and not out and err.startswith("usage error: "), argv


def test_compute_factorization_cap_exit_2(capsys):
    # 2^61 - 1 is prime, so trial division runs to the 10^7 divisor cap
    # before it refuses: bounded work, not an at-once check
    for argv in (
        ("sigma", "--s", "1", "--n", "2305843009213693951"),
        ("ramanujan", "--k", "2305843009213693951", "--n", "1"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", *argv)
        assert time.perf_counter() - start < 3.0, argv
        assert code == 2 and not out, argv
        assert err.startswith("usage error: ") and "above cap 10000000" in err, argv


def test_compute_phi(capsys):
    code, out, _ = run(capsys, "compute", "phi", "--t", "2", "--m", "2", "--k", "2")
    assert code == 0 and out.strip() == "3/2"
    start = time.perf_counter()
    code, out, _ = run(capsys, "compute", "phi", "--t", "2", "--m", "3", "--k", "30030")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out.strip() == str(phi_t(2, 3, 30030))


def test_compute_negative_n_uses_absolute_values(capsys):
    code_neg, out_neg, _ = run(capsys, "compute", "ramanujan", "--k", "6", "--n=-4,8")
    code_pos, out_pos, _ = run(capsys, "compute", "ramanujan", "--k", "6", "--n", "4,8")
    assert code_neg == code_pos == 0
    assert out_neg == out_pos


def test_compute_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "compute", "ramanujan", "--k", "0", "--n", "1")
    assert code == 2 and err


def test_compute_sigma_takes_one_n_exit_2(capsys):
    code, out, err = run(capsys, "compute", "sigma", "--s", "1", "--n", "6,7")
    assert code == 2 and not out and "single --n" in err


def test_compute_empty_list_field_exit_2(capsys):
    # "1,,2" must not be read as (1, 2), nor "0," as (0,)
    for n in ("1,,2", "0,", ",3", "", " , "):
        code, out, err = run(capsys, "compute", "ramanujan", "--k", "5", "--n", n)
        assert code == 2 and err and not out, n
    code, out, err = run(capsys, "compute", "sigma", "--s", "1", "--n", "6,")
    assert code == 2 and err and not out


def test_lattice_grid_matches_visibility(capsys):
    code, out, _ = run(capsys, "lattice", "--dims", "2", "--max", "8")
    assert code == 0
    rows = out.strip().splitlines()
    grid, summary = rows[:-1], rows[-1]
    assert len(grid) == 8
    for r, line in enumerate(grid):
        y = 8 - r  # top row is y = 8
        cells = line.split()
        assert len(cells) == 8
        for x, cell in enumerate(cells, start=1):
            assert cell == ("•" if gcd(x, y) == 1 else "x")
    assert summary.startswith("43 visible of 64")


def test_lattice_single_point(capsys):
    code, out, _ = run(capsys, "lattice", "--dims", "2", "--max", "1")
    assert code == 0
    assert out.splitlines()[0].strip() == "•"


def test_lattice_3d_counts_only(capsys):
    code, out, _ = run(capsys, "lattice", "--dims", "3", "--max", "5")
    assert code == 0
    assert "visible of 125" in out
    assert "•" not in out


def test_lattice_oversize_exit_2(capsys):
    code, _, err = run(capsys, "lattice", "--dims", "2", "--max", "100000")
    assert code == 2 and err
    # 216^3 is one past the lattice cap of 10^7 points
    code, out, err = run(capsys, "lattice", "--dims", "3", "--max", "216")
    assert code == 2 and not out
    assert err == "usage error: lattice size 10077696 exceeds cap 10000000\n"


@pytest.mark.parametrize("dims, bound", [
    ("65", "1"),  # one axis past what numpy arrays hold
    ("1000000000000", "1"),  # the bounds tuple alone would not fit in memory
    ("1000000", "2"),  # the lattice size alone has 301030 digits
])
def test_lattice_oversize_dims_exit_2(capsys, dims, bound):
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", "--dims", dims, "--max", bound)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert err == f"usage error: --dims {dims} exceeds 64, the most axes of a grid\n"


def test_lattice_oversize_bound_exit_2(capsys):
    # any one axis longer than the cap puts the lattice past it; the box
    # kernel refuses its mask, and the CLI has no cap of its own
    code, out, err = run(capsys, "lattice", "--dims", "1", "--max", str(10**7 + 1))
    assert code == 2 and not out
    assert err == "usage error: lattice size 10000001 exceeds cap 10000000\n"


def test_series_partition_numbers(capsys):
    code, out, _ = run(capsys, "series", "--product", "partition", "--order", "5")
    assert code == 0
    values = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert values == ["1", "1", "2", "3", "5", "7"]


def test_series_products_at_order_zero(capsys):
    # order 0 keeps only the constant term of each product, 1
    for name in ("partition", "jordan"):
        code, out, err = run(capsys, "series", "--product", name, "--order", "0")
        assert (code, out, err) == (0, "z^0\t1\n", ""), name
    # a bad m is refused at every order, 0 included
    for m in ("0", "-3"):
        for order in ("0", "1", "4"):
            code, out, err = run(
                capsys, "series", "--product", "jordan", "--m", m, "--order", order
            )
            assert (code, out, err) == (
                2, "", "usage error: jordan requires m >= 1\n"), (m, order)


def test_series_exp_sum(capsys):
    code, out, _ = run(capsys, "series", "--exp-sum", "k^0 z^k", "--order", "4")
    assert code == 0
    values = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert values == ["1", "1", "3/2", "13/6", "73/24"]


def test_series_work_caps_exit_2_at_once(capsys):
    # k^94 at order 512 is one past the cap (the product is exp(sum k^(m-1) z^k));
    # the others ran for more than 20 s, or would build k^(10^12)
    for argv in (
        ("--exp-sum", "k^94 z^k", "--order", "512"),
        ("--product", "jordan", "--m", "95", "--order", "512"),
        ("--exp-sum", "k^2000 z^k", "--order", "512"),
        ("--product", "jordan", "--m", "2000", "--order", "512"),
        ("--exp-sum", "k^1000000000000 z^k", "--order", "2"),
        ("--product", "jordan", "--m", "1000000000000", "--order", "40"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "series", *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 2 and not out and err.startswith("usage error: "), argv


def test_series_order_out_of_range_exit_2(capsys):
    for order in ("513", "-1"):
        code, out, err = run(capsys, "series", "--exp-sum", "k^0 z^k", "--order", order)
        assert code == 2 and not out and "--order must be in 0..512" in err, order


def test_series_invalid_spec_exit_2(capsys):
    code, _, err = run(capsys, "series", "--exp-sum", "nonsense")
    assert code == 2 and err
    code, _, err = run(capsys, "series")
    assert code == 2


def test_audit_expected_statuses_exit_0(capsys):
    code, out, _ = run(capsys, "audit", "--id", "eq-4.13")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "audit", "--id", "eq-2.6")
    assert code == 0 and "FLAGGED" in out


def test_audit_unknown_id_exit_2(capsys):
    code, _, err = run(capsys, "audit", "--id", "no-such")
    assert code == 2 and err


def test_audit_json_round_trip(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "audit", "--id", "eq-5.5", "--id", "cor-5.3",
                     "--format", "json", "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["seed"] == 0
    assert [e["id"] for e in payload["entries"]] == ["cor-5.3", "eq-5.5"]
    for entry in payload["entries"]:
        assert entry["status"] == "PASS"


def test_audit_unexpected_status_exit_1(capsys, monkeypatch):
    entry = REGISTRY["eq-5.10"]
    assert entry.expected != "PASS"
    monkeypatch.setitem(REGISTRY, "eq-5.10", dataclasses.replace(entry, expected="PASS"))
    code, _, err = run(capsys, "audit", "--id", "eq-5.10")
    assert code == 1 and "eq-5.10" in err


def test_audit_json_to_stdout(capsys):
    # only the first line: the report, one line of JSON with no newline of its own
    code, out, _ = run(capsys, "audit", "--id", "eq-5.5", "--format", "json")
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert [e["id"] for e in payload["entries"]] == ["eq-5.5"]


def test_audit_io_failure_exit_3(capsys):
    code, _, err = run(capsys, "audit", "--id", "eq-5.5",
                       "--out", "/nonexistent-dir/report.txt")
    assert code == 3 and err
