"""Command-line front end.

Subcommands:
  compute  evaluate a single arithmetic function exactly
  audit    run identity checks and report outcomes
  lattice  render visible lattice points (2-D grid) or count them
  series   print exact rational coefficients of generating products

Exit codes: 0 success (audit: every status as expected), 1 unexpected audit
status, 2 usage error (an input above a size or work cap included), 3 I/O
error.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from ._kernels import MAX_DIMS
from .audit import run_audit
from .errors import DomainError, ResourceError, UsageError
from .exactcore import bernoulli, stirling2
from .series import PowerSeries, check_power_sum_work, product_with_exponents, ps_exp
from .totients import jordan, m_phi, phi_t, ramanujan_cohen, sigma
from .vpv import RadialRegion, visible_count, visible_points

_RENDER_MAX = 64


def _parse_int_list(text: str) -> list:
    """Comma-separated integers; an empty field is a usage error, because
    skipping it would silently change the number of arguments."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


# --------------------------------------------------------------------------
# compute


def _cmd_compute(args) -> int:
    kind = args.kind
    if kind == "ramanujan":
        n = [abs(v) for v in _parse_int_list(args.n)]
        print(ramanujan_cohen(args.k, n))
    elif kind == "jordan":
        print(jordan(args.m, args.k))
    elif kind == "phi":
        print(phi_t(args.t, args.m, args.k))
    elif kind == "mphi":
        print(m_phi(args.m, args.k))
    elif kind == "sigma":
        n = _parse_int_list(args.n)
        if len(n) != 1:
            raise UsageError("sigma takes a single --n value")
        print(sigma(args.s, n[0]))
    elif kind == "stirling":
        print(stirling2(args.n_arg, args.j))
    elif kind == "bernoulli":
        print(bernoulli(args.a))
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown compute kind {kind!r}")
    return 0


# --------------------------------------------------------------------------
# audit


def _cmd_audit(args) -> int:
    report = run_audit(args.id or None, seed=args.seed)
    body = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(body)
        if not body.endswith("\n"):
            print()
    unexpected = [e.id for e in report.entries if not e.as_expected]
    if unexpected:
        print(f"unexpected status for: {', '.join(unexpected)}", file=sys.stderr)
        return 1
    print(f"{len(report.entries)} identities audited, all outcomes as expected")
    return 0


# --------------------------------------------------------------------------
# lattice


def _cmd_lattice(args) -> int:
    dims, bound = args.dims, args.max
    if dims < 1 or bound < 1:
        raise UsageError("--dims and --max must be positive")
    # refused before the bounds tuple is built, whose length is dims; the
    # kernel that builds the mask refuses a lattice past its cell cap
    if dims > MAX_DIMS:
        raise UsageError(f"--dims {dims} exceeds {MAX_DIMS}, the most axes of a grid")
    region = RadialRegion(dims, (bound,) * dims)
    if dims == 2:
        if bound > _RENDER_MAX:
            raise UsageError(
                f"grid too large to render: --max {bound} exceeds {_RENDER_MAX}"
            )
        # visible points as bullets, proper multiples as crosses; the y axis
        # increases upward so the top row is y = bound
        visible = set(visible_points(region))
        for y in range(bound, 0, -1):
            row = " ".join(
                "•" if (x, y) in visible else "x" for x in range(1, bound + 1)
            )
            print(row)
        print(f"{len(visible)} visible of {bound * bound} points")
        return 0
    count = visible_count(region)
    print(f"dims={dims} max={bound}: {count} visible of {bound**dims} points")
    return 0


# --------------------------------------------------------------------------
# series


_EXP_SUM_RE = re.compile(r"^\s*k\^(\d+)\s*z\^k\s*$")


def _cmd_series(args) -> int:
    order = args.order
    if order < 0 or order > 512:
        raise UsageError("--order must be in 0..512")
    if (args.product is None) == (args.exp_sum is None):
        raise UsageError("give exactly one of --product or --exp-sum")
    if args.product == "partition":
        exps = {k: -1 for k in range(1, order + 1)}
        result = product_with_exponents(exps, order)
    elif args.product == "jordan":
        m = args.m
        if m < 1:
            raise UsageError("jordan requires m >= 1")
        # the product is exp(sum k^(m-1) z^k), the exp-sum below at power m-1
        check_power_sum_work(m - 1, order)
        exps = {k: Fraction(-jordan(m, k), k) for k in range(1, order + 1)}
        result = product_with_exponents(exps, order)
    elif args.product is not None:  # pragma: no cover - argparse restricts
        raise UsageError(f"unknown product {args.product!r}")
    else:
        match = _EXP_SUM_RE.match(args.exp_sum)
        if not match:
            raise UsageError(
                f'--exp-sum must look like "k^2 z^k", got {args.exp_sum!r}'
            )
        power = int(match.group(1))
        check_power_sum_work(power, order)
        coeffs = [Fraction(0)] + [
            Fraction(k**power) for k in range(1, order + 1)
        ]
        result = ps_exp(PowerSeries(tuple(coeffs)))
    for i, c in enumerate(result.coeffs):
        print(f"z^{i}\t{c}")
    return 0


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpvtotients",
        description="exact generalized totients, identity audit, and "
        "visible-point lattice tools",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one function exactly")
    p_compute.add_argument(
        "kind",
        choices=["ramanujan", "jordan", "phi", "mphi", "sigma", "stirling",
                 "bernoulli"],
    )
    p_compute.add_argument("--k", type=int, default=1)
    p_compute.add_argument("--m", type=int, default=1)
    p_compute.add_argument("--t", type=int, default=0)
    p_compute.add_argument("--s", type=int, default=1)
    p_compute.add_argument("--n", type=str, default="1",
                           help="comma-separated integers (sign ignored)")
    p_compute.add_argument("--n-arg", type=int, default=0,
                           help="first Stirling argument")
    p_compute.add_argument("--j", type=int, default=0)
    p_compute.add_argument("--a", type=int, default=0)
    p_compute.set_defaults(func=_cmd_compute)

    p_audit = sub.add_parser("audit", help="run identity checks")
    p_audit.add_argument("--id", action="append", default=[],
                         help="identity id (repeatable); default: all")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--format", choices=["text", "json"], default="text")
    p_audit.add_argument("--out", type=str, default=None,
                         help="write the report to this path")
    p_audit.set_defaults(func=_cmd_audit)

    p_lattice = sub.add_parser("lattice", help="visible-point grid or counts")
    p_lattice.add_argument("--dims", type=int, default=2)
    p_lattice.add_argument("--max", type=int, default=8)
    p_lattice.set_defaults(func=_cmd_lattice)

    p_series = sub.add_parser("series", help="exact series coefficients")
    p_series.add_argument("--product", choices=["jordan", "partition"],
                          default=None)
    p_series.add_argument("--exp-sum", type=str, default=None,
                          help='exponent sum such as "k^0 z^k"')
    p_series.add_argument("--m", type=int, default=1)
    p_series.add_argument("--order", type=int, default=64)
    p_series.set_defaults(func=_cmd_series)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact results such as jordan(10000, 3) pass the 4300-digit int -> str limit
    max_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (UsageError, DomainError, ResourceError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(max_digits)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
