"""Property tests: closed forms against enumeration, and CLI exit codes.

Each property runs under one fixed `derandomize=True` profile, so a run
draws the same examples every time and writes no example database.
"""

import contextlib
import io
from datetime import timedelta
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vpvtotients.audit import REGISTRY
from vpvtotients.cli import main
from vpvtotients.series import PowerSeries, ps_exp, ps_log
from vpvtotients.totients import (
    jordan,
    phi_t,
    phi_t_enum,
    ramanujan_cohen,
    ramanujan_cohen_enum,
    selector_size,
)

DETERMINISTIC = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)

# the selector is empty at k = 1, where the closed forms take conventions
ks = st.integers(min_value=2, max_value=40)
ms = st.integers(min_value=1, max_value=3)


@DETERMINISTIC
@given(k=ks, n=st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=3))
def test_ramanujan_cohen_closed_form_vs_enumeration(k, n):
    assert ramanujan_cohen(k, n) == ramanujan_cohen_enum(k, n)


@DETERMINISTIC
@given(t=st.integers(min_value=0, max_value=4), m=ms, k=ks)
def test_phi_t_closed_form_vs_enumeration(t, m, k):
    assert phi_t(t, m, k) == phi_t_enum(t, m, k)


@DETERMINISTIC
@given(m=ms, k=ks)
def test_jordan_closed_form_vs_selector_count(m, k):
    assert jordan(m, k) == selector_size(m, k)


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@DETERMINISTIC
@given(tail=st.lists(rationals, max_size=40))
def test_exp_inverts_log(tail):
    f = PowerSeries((Fraction(1), *tail))
    assert ps_exp(ps_log(f)) == f


# --------------------------------------------------------------------------
# CLI argv fuzz: every argument vector ends in exit 0 or 2, never a traceback


def _int(lo, hi):
    return st.integers(lo, hi).map(str)


# well-formed lists, and lists with empty, signed, spaced or non-digit fields
int_lists = st.one_of(
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=4).map(
        lambda v: ",".join(map(str, v))
    ),
    st.text(alphabet="0123456789,- +x.", max_size=8),
)


def _options(**flags):
    """Any subset of the given flags, each with a value from its strategy."""
    return st.fixed_dictionaries({}, optional=flags).map(
        lambda chosen: [tok for flag, value in chosen.items() for tok in (flag, value)]
    )


# sizes up to 10^12 reach far past every cap, which must refuse them before
# the cost is paid
compute_argv = st.tuples(
    st.sampled_from(
        ["ramanujan", "jordan", "phi", "mphi", "sigma", "stirling", "bernoulli"]
    ),
    _options(
        **{
            "--k": _int(-3, 10**12),
            "--m": _int(-3, 10**12),
            "--t": _int(-3, 5),
            "--s": _int(-(10**12), 10**12),
            "--n": int_lists,
            "--n-arg": _int(-3, 10**12),
            "--j": _int(-3, 10**12),
            "--a": _int(-3, 10**12),
        }
    ),
).map(lambda kind_opts: ["compute", kind_opts[0], *kind_opts[1]])

lattice_argv = _options(
    **{"--dims": _int(-2, 10**12), "--max": _int(-2, 10**12)}
).map(lambda opts: ["lattice", *opts])

exp_sums = st.one_of(
    st.integers(0, 4).map(lambda p: f"k^{p} z^k"),
    st.text(alphabet="kz^ 0123456789", max_size=10),
)
series_argv = _options(
    **{
        "--product": st.sampled_from(["jordan", "partition", "bogus"]),
        "--exp-sum": exp_sums,
        "--m": _int(-2, 4),
        "--order": _int(-3, 40),
    }
).map(lambda opts: ["series", *opts])

# powers up to 10^12 reach far past the series work cap, which must refuse
# them before any k^P is built
big_power_argv = st.tuples(
    st.one_of(
        st.integers(0, 10**12).map(lambda p: ["--exp-sum", f"k^{p} z^k"]),
        st.integers(-2, 10**12).map(lambda m: ["--product", "jordan", "--m", str(m)]),
    ),
    st.integers(0, 64),
).map(lambda spec_order: ["series", *spec_order[0], "--order", str(spec_order[1])])

# the same for J_m(k), whose size cap must refuse it before k^m is built
big_jordan_argv = st.tuples(st.integers(-2, 10**12), st.integers(-3, 200)).map(
    lambda mk: ["compute", "jordan", "--m", str(mk[0]), "--k", str(mk[1])]
)

# and for phi_t, whose work cap must refuse it before k is factorized
big_phi_argv = st.tuples(
    st.integers(-2, 10**12), st.integers(-2, 10**12), st.integers(-3, 10**12)
).map(
    lambda tmk: ["compute", "phi", "--t", str(tmk[0]), "--m", str(tmk[1]),
                 "--k", str(tmk[2])]
)

# and for the trial division behind sigma(n) and c_k(n), which factors any
# n <= 10^14 and refuses larger ones past its divisor cap, and for the size
# cap on sigma_s(n), which must refuse n^|s| before n is factorized
big_factor_argv = st.one_of(
    st.tuples(_int(-(10**12), 10**12), st.integers(-2, 10**12)).map(
        lambda sn: ["compute", "sigma", "--s", sn[0], "--n", str(sn[1])]
    ),
    st.tuples(st.integers(-2, 10**12), int_lists).map(
        lambda kn: ["compute", "ramanujan", "--k", str(kn[0]), "--n", kn[1]]
    ),
)

# one or two registry ids, or an unknown one, under any seed; an unknown id
# must exit 2, and every check must give its expected status (exit 0)
UNKNOWN_ID = "no-such-id"
audit_argv = st.tuples(
    st.lists(st.sampled_from([*sorted(REGISTRY), UNKNOWN_ID]), min_size=1, max_size=2),
    st.integers(-(10**12), 10**12),
).map(
    lambda ids_seed: ["audit", *(tok for id_ in ids_seed[0] for tok in ("--id", id_)),
                      "--seed", str(ids_seed[1])]
)


@settings(DETERMINISTIC, max_examples=300, deadline=timedelta(seconds=5))
@given(
    argv=st.one_of(
        compute_argv, lattice_argv, series_argv, big_power_argv, big_jordan_argv,
        big_phi_argv, big_factor_argv, audit_argv,
    )
)
def test_cli_argv_fuzz_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            assert exc.code == 2, (argv, exc.code)
            return
    assert code in (0, 2), (argv, code, err.getvalue())
    if UNKNOWN_ID in argv:
        assert code == 2, argv
