import json
import sys
import time
from math import gcd

import pytest

from vpvtotients.cli import main
from vpvtotients.totients import jordan


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
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", *argv)
        assert time.perf_counter() - start < 0.5, argv
        assert code == 2 and not out and err.startswith("usage error: "), argv


def test_compute_phi(capsys):
    code, out, _ = run(capsys, "compute", "phi", "--t", "2", "--m", "2", "--k", "2")
    assert code == 0 and out.strip() == "3/2"


def test_compute_negative_n_uses_absolute_values(capsys):
    code_neg, out_neg, _ = run(capsys, "compute", "ramanujan", "--k", "6", "--n=-4,8")
    code_pos, out_pos, _ = run(capsys, "compute", "ramanujan", "--k", "6", "--n", "4,8")
    assert code_neg == code_pos == 0
    assert out_neg == out_pos


def test_compute_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "compute", "ramanujan", "--k", "0", "--n", "1")
    assert code == 2 and err


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


def test_series_partition_numbers(capsys):
    code, out, _ = run(capsys, "series", "--product", "partition", "--order", "5")
    assert code == 0
    values = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert values == ["1", "1", "2", "3", "5", "7"]


def test_series_exp_sum(capsys):
    code, out, _ = run(capsys, "series", "--exp-sum", "k^0 z^k", "--order", "4")
    assert code == 0
    values = [line.split("\t")[1] for line in out.strip().splitlines()]
    assert values == ["1", "1", "3/2", "13/6", "73/24"]


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


def test_audit_io_failure_exit_3(capsys):
    code, _, err = run(capsys, "audit", "--id", "eq-5.5",
                       "--out", "/nonexistent-dir/report.txt")
    assert code == 3 and err
