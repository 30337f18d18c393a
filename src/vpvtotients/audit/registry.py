"""Identity registry: every catalogued display bound to an executable check.

Each entry records:
  id         stable key such as "eq-2.4" or "cor-5.18b"
  anchor     short verbatim quote locating the display in the source text
  params     description of the parameter grid the check runs on
  procedure  callable taking a seeded random.Random, returning an Outcome
  expected   the status the check is expected to produce
  provenance how the expectation was established: [DERIVED: <oracle>] or
             [TRIVIAL: <reason>]

Statuses:
  PASS                  balances as printed on the whole grid
  PASS_WITH_CORRECTION  a typo-level repair (index set, misprinted symbol)
                        is needed; the repaired form balances
  FAILS_AS_PRINTED      refuted by a recorded concrete counterexample; any
                        corrected form is checked alongside, never in place
                        of, the printed one
  FLAGGED               not a well-formed equation; the note quotes it
  SKIPPED               parameters outside the checkable domain

Every expectation of FAILS_AS_PRINTED ships with a machine-checked
counterexample produced by an oracle in this package.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional, Sequence

from .. import _kernels
from ..analytic import (
    dirichlet_partial_cohen,
    ramanujan_mean_zero,
    ramanujan_mean_zero_direct,
    theta1,
    theta_log_ratio_check,
    theta_vpv_check,
    zeta,
)
from ..errors import UsageError
from ..exactcore import divisors, moebius
from ..series import PowerSeries, product_with_exponents, ps_exp, finite_stirling_check, stirling_rhs_series
from ..totients import (
    jordan,
    phi_t,
    ramanujan_cohen,
    selector_size,
)
from ..vpv import (
    FiniteSequence,
    RadialRegion,
    _q1,
    _q2,
    bracket_polynomial,
    bracket_polynomial_oracle,
    cor_5_3_check,
    cor_5_7_check,
    cor_5_9_check,
    cor_5_11_check,
    cor_5_12_check,
    cor_5_13_check,
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
    phi_weight_identity_check,
    printed_t,
    thm_5_1_check,
    thm_5_2_check,
    thm_5_5_check,
    thm_5_8_check,
    thm_5_10_check,
)

STATUSES = ("PASS", "PASS_WITH_CORRECTION", "FAILS_AS_PRINTED", "FLAGGED", "SKIPPED")


@dataclass(frozen=True)
class Outcome:
    status: str
    max_residual: Optional[float] = None
    counterexample: Optional[str] = None
    notes: tuple = ()


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    anchor: str
    params: str
    procedure: Callable[[random.Random], Outcome]
    expected: str
    provenance: str


# --------------------------------------------------------------------------
# linear-relation discovery (exact, over Fraction)


def discover_linear_relation(
    target: Callable[[int], Fraction],
    basis: Sequence[Callable[[int], Fraction]],
    k_fit: Sequence[int],
    k_verify_max: int,
) -> Optional[tuple]:
    """Solve target(k) = sum_i c_i basis_i(k) exactly on the fit points and
    verify the solution at every k from min(k_fit) through k_verify_max.

    Returns the coefficient tuple, or None when the fit system is singular /
    inconsistent or the verification sweep finds a violation.
    """
    pts = list(k_fit)
    if len(set(pts)) != len(pts):
        raise UsageError("fit points must be distinct")
    if len(pts) < len(basis):
        raise UsageError("need at least as many fit points as basis functions")

    rows = [
        [Fraction(b(k)) for b in basis] + [Fraction(target(k))] for k in pts
    ]
    ncols = len(basis)
    # Gaussian elimination with exact pivots.
    rank, pivot_rows = 0, []
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return None  # singular: no unique relation
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        pr[:] = [v / pr[col] for v in pr]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        pivot_rows.append(col)
        rank += 1
    if any(row[-1] for row in rows[rank:]):
        return None  # overdetermined and inconsistent
    coeffs = tuple(rows[i][-1] for i in range(ncols))
    for k in range(min(pts), k_verify_max + 1):
        if sum(c * Fraction(b(k)) for c, b in zip(coeffs, basis)) != target(k):
            return None
    return coeffs


# --------------------------------------------------------------------------
# shared helpers


def _frac(rng: random.Random, lo: int = -5, hi: int = 5, den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _rand_seq(rng: random.Random, n: int) -> FiniteSequence:
    return FiniteSequence.from_values([_frac(rng) for _ in range(n)])


def _rand_seq_nonzero(rng: random.Random, n: int) -> FiniteSequence:
    """Random sequence with no zero terms, for exponent positions where a
    zero would make the factor (1-e^(bx))/(1-e^(bx/k)) indeterminate."""
    vals = []
    for _ in range(n):
        num = rng.choice([v for v in range(-5, 6) if v])
        vals.append(Fraction(num, rng.randint(1, 6)))
    return FiniteSequence.from_values(vals)


def _delta(k: int) -> FiniteSequence:
    return FiniteSequence({k: Fraction(1)}, k)


def _rel_residual(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale


def _pass_if(ok: bool, residual=None, counterexample=None, notes=()) -> Outcome:
    status = "PASS" if ok else "FAILS_AS_PRINTED"
    return Outcome(status, residual, counterexample, tuple(notes))


_TREND_KS = (100, 1000, 10000)


def _trend_errors(values: list) -> tuple:
    """(monotone decrease?, final error) for a list of absolute errors."""
    ok = all(a > b for a, b in zip(values, values[1:]))
    return ok, values[-1]


# --------------------------------------------------------------------------
# section 2: Dirichlet generating functions


def _check_dirichlet_m1(rng: random.Random) -> Outcome:
    errs = [
        abs(p - c) for p, c in
        (dirichlet_partial_cohen(1.0, (6,), K) for K in _TREND_KS)
    ]
    mono, final = _trend_errors(errs)
    return _pass_if(mono and final < 1e-2, final)


def _check_dirichlet_general(rng: random.Random) -> Outcome:
    worst = 0.0
    for s, n in ((1.0, (4, 6)), (2.0, (3, 5)), (1.0, (2, 4, 6)), (1.5, (12, 18))):
        errs = [abs(p - c) for p, c in
                (dirichlet_partial_cohen(s, n, K) for K in _TREND_KS)]
        mono, final = _trend_errors(errs)
        if not mono or final >= 1e-2:
            return _pass_if(False, final, f"s={s}, n={n}: errors {errs}")
        worst = max(worst, final)
    return _pass_if(True, worst)


def _check_cohen_product_series(rng: random.Random) -> Outcome:
    order = 64
    for m in (1, 2, 3):
        for g in range(1, 13):
            n = [g * (i + 1) for i in range(m)]
            exps = {
                k: Fraction(-ramanujan_cohen(k, n), k) for k in range(1, order + 1)
            }
            lhs = product_with_exponents(exps, order)
            coeffs = [Fraction(0)] * (order + 1)
            for k in range(1, order + 1):
                if g % k == 0:
                    coeffs[k] = Fraction(k ** (m - 1))
            rhs = ps_exp(PowerSeries(tuple(coeffs)))
            if lhs != rhs:
                bad = next(i for i in range(order + 1)
                           if lhs.coeffs[i] != rhs.coeffs[i])
                return _pass_if(
                    False, None,
                    f"m={m}, g={g}: coefficient {bad} is "
                    f"{lhs.coeffs[bad]} vs {rhs.coeffs[bad]}",
                )
    return _pass_if(True, 0.0)


def _check_multiplicative(rng: random.Random) -> Outcome:
    pairs = [(k1, k2) for k1 in range(2, 13) for k2 in range(2, 13)
             if gcd(k1, k2) == 1]
    for m in (1, 2, 3):
        for _ in range(5):
            n = [rng.randint(0, 20) for _ in range(m)]
            for k1, k2 in pairs:
                lhs = ramanujan_cohen(k1 * k2, n)
                rhs = ramanujan_cohen(k1, n) * ramanujan_cohen(k2, n)
                if lhs != rhs:
                    return _pass_if(False, None,
                                    f"n={n}, k1={k1}, k2={k2}: {lhs} vs {rhs}")
    return _pass_if(True, 0.0)


def _check_garbled_functional_equation(rng: random.Random) -> Outcome:
    return Outcome(
        "FLAGGED",
        notes=(
            'display ends with "=0 f((m,n))": the middle member repeats an '
            "unrelated infinite series and the right member multiplies 0 by "
            "f((m,n)), so no equation can be extracted as printed",
            "the functional-equation property F(mn)F((m,n)) = F(m)F(n)f((m,n)) "
            "it alludes to is exercised separately by the multiplicativity "
            "check (cor-2.3)",
        ),
    )


def _check_mean_zero(rng: random.Random) -> Outcome:
    worst = 0.0
    for n in ((4, 6), (9,), (2, 4, 8)):
        errs = [abs(ramanujan_mean_zero(n, K))
                for K in (100, 1000, 10000, 100000)]
        # mean-value partial sums oscillate, so ask for overall decay
        # rather than strict term-by-term monotonicity
        final = errs[-1]
        if final >= min(1e-2, errs[0]):
            return _pass_if(False, final, f"n={n}: partial sums {errs}")
        worst = max(worst, final)
        agree = abs(
            ramanujan_mean_zero(n, 2000) - ramanujan_mean_zero_direct(n, 2000)
        )
        if agree > 1e-9:
            return _pass_if(False, agree,
                            f"n={n}: rearranged and direct sums differ")
    return _pass_if(True, worst,
                    notes=("rearranged sum cross-checked against direct "
                           "summation at K=2000",))


def _check_moebius_mean_zero(rng: random.Random) -> Outcome:
    errs = [abs(ramanujan_mean_zero((1,), K)) for K in _TREND_KS]
    mono, final = _trend_errors(errs)
    return _pass_if(mono and final < 1e-2, final,
                    notes=("c_k(1) = mu(k), so this is the Moebius mean-value "
                           "partial sum",))


# --------------------------------------------------------------------------
# section 3: the partition lemma and its analytic restatement


def _check_multiples_partition(rng: random.Random) -> Outcome:
    regions = [
        RadialRegion(2, (8, 8)),
        RadialRegion(3, (5, 5, 5)),
        RadialRegion(1, (10,)),
        RadialRegion(3, (5, 5, 6), constraint="hyperpyramid"),
    ]
    for region in regions:
        if not multiples_partition_check(region):
            return _pass_if(False, None, f"region {region}")
    return _pass_if(True, 0.0,
                    notes=("every lattice point decomposes uniquely as a "
                           "positive multiple of a visible point, on boxes in "
                           "1-3 dimensions and a hyperpyramid",))


def _check_radical_rearrangement(ms: tuple, cases: int):
    def run(rng: random.Random) -> Outcome:
        worst = 0.0
        for m in ms:
            for _ in range(cases):
                a = _rand_seq(rng, rng.randint(8, 24))
                q = [rng.uniform(0.05, 0.9) for _ in range(m)]
                lhs, rhs = lemma_3_2_check(a, q)
                worst = max(worst, _rel_residual(lhs, rhs))
        return _pass_if(worst < 1e-9, worst)

    return run


# --------------------------------------------------------------------------
# section 4: grid-power identities, Jordan laws, Stirling series


def _check_exp_grid_expansion(rng: random.Random) -> Outcome:
    worst = 0.0
    for _ in range(10):
        a = _rand_seq(rng, rng.randint(8, 20))
        x, y, z = (rng.uniform(-1.2, -0.2), rng.uniform(-1.2, -0.2),
                   rng.uniform(0.2, 0.8))
        lhs, rhs = lemma_3_2_check(a, [math.exp(x * z), math.exp(y * z)])
        worst = max(worst, _rel_residual(lhs, rhs))
    return _pass_if(worst < 1e-9, worst)


def _check_grid_coefficients(cs: tuple, corrected_note: str = ""):
    def run(rng: random.Random) -> Outcome:
        for c in cs:
            for _ in range(4):
                a = _rand_seq(rng, rng.randint(6, 16))
                lhs, rhs = grid_power_identity_check(
                    c, a, _frac(rng), _frac(rng)
                )
                if lhs != rhs:
                    return _pass_if(False, None, f"c={c}: {lhs} vs {rhs}")
        notes = (corrected_note,) if corrected_note else ()
        status = "PASS_WITH_CORRECTION" if corrected_note else "PASS"
        return Outcome(status, 0.0, None, notes)

    return run


def _check_phi0_count(rng: random.Random) -> Outcome:
    # k = 1 is excluded: the selector there is empty while the closed form
    # gives J_2(1) = 1 (same boundary convention as c_1 = 1)
    for k in range(2, 61):
        if selector_size(2, k) != jordan(2, k):
            return _pass_if(False, None, f"k={k}")
    for _ in range(4):
        a = _rand_seq(rng, rng.randint(6, 16))
        lhs, rhs = grid_power_identity_check(0, a, Fraction(1), Fraction(1))
        if lhs != rhs:
            return _pass_if(False, None, f"a={a.support}: {lhs} vs {rhs}")
    return _pass_if(True, 0.0)


def _check_phi_weight(rng: random.Random) -> Outcome:
    # t = 0 balances; t >= 1 is refuted by the delta probe.
    for m in (2, 3):
        a = _rand_seq(rng, 12)
        lhs, rhs = phi_weight_identity_check(0, m, a)
        if lhs != rhs:
            return Outcome("SKIPPED", None, None,
                           (f"unexpected t=0 imbalance at m={m}",))
    lhs, rhs = phi_weight_identity_check(1, 2, _delta(2))
    if lhs == rhs:
        return _pass_if(True, 0.0)
    notes = ["the t = 0 case (Jordan weights) balances exactly",
             "the display claims a t-independent left side; for t >= 1 the "
             "selector weights phi_t(m;k) are not the Jordan totients"]
    for t in (1, 2):
        a = _rand_seq(rng, 10)
        l2, r2 = phi_weight_identity_check(t, 2, a)
        if l2 == r2:
            notes.append(f"random probe unexpectedly balanced at t={t}")
    return Outcome("FAILS_AS_PRINTED", None,
                   f"t=1, m=2, a=delta_2: lhs={lhs}, rhs={rhs}", tuple(notes))


def _jordan_divisor_law(m_max: int, k_max: int) -> Optional[str]:
    for m in range(1, m_max + 1):
        for k in range(1, k_max + 1):
            if sum(jordan(m, d) for d in divisors(k)) != k**m:
                return f"m={m}, k={k}"
    return None


def _check_jordan_weighted_sum(rng: random.Random) -> Outcome:
    for m in (1, 2, 3):
        a = _rand_seq(rng, rng.randint(10, 24))
        lhs, rhs = thm_5_5_check(a, m)
        if lhs != rhs:
            return _pass_if(False, None, f"m={m}: {lhs} vs {rhs}")
    bad = _jordan_divisor_law(4, 200)
    return _pass_if(bad is None, 0.0, bad)


def _check_jordan_dirichlet(rng: random.Random) -> Outcome:
    bad = _jordan_divisor_law(4, 200)
    if bad is not None:
        return _pass_if(False, None, bad)
    K = 4000
    partial = sum(jordan(1, k) / k**4.0 for k in range(1, K + 1))
    err = abs(partial - zeta(3.0) / zeta(4.0))
    return _pass_if(err < 1e-4, err,
                    notes=("coefficient level: divisor law for m <= 4, "
                           "k <= 200; float spot check at m=1, s=4",))


def _check_jordan_enumeration(rng: random.Random) -> Outcome:
    for m in (1, 2, 3):
        for k in range(2, 61):
            if selector_size(m, k) != jordan(m, k):
                return _pass_if(False, None, f"m={m}, k={k}")
    return _pass_if(True, 0.0,
                    notes=("k >= 2: the k = 1 selector is empty while the "
                           "product formula gives 1",))


def _jordan_product_series(m: int, order: int) -> PowerSeries:
    exps = {1: Fraction(-1)}
    for k in range(2, order + 1):
        exps[k] = Fraction(-jordan(m, k), k)
    return product_with_exponents(exps, order)


def _check_jordan_product(rng: random.Random) -> Outcome:
    order = 64
    for m in (1, 2, 3, 4):
        coeffs = [Fraction(0)] + [Fraction(k ** (m - 1)) for k in range(1, order + 1)]
        rhs = ps_exp(PowerSeries(tuple(coeffs)))
        if _jordan_product_series(m, order) != rhs:
            return _pass_if(False, None, f"m={m}")
    return _pass_if(True, 0.0)


def _check_finite_stirling(rng: random.Random) -> Outcome:
    zs = (Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(1, 3))
    for m in range(1, 7):
        for n in range(1, 13):
            for z in zs:
                if not finite_stirling_check(m, n, z):
                    return _pass_if(False, None, f"m={m}, n={n}, z={z}")
    return _pass_if(True, 0.0)


def _check_stirling_product(rng: random.Random) -> Outcome:
    order = 32
    for m in range(2, 9):
        if _jordan_product_series(m, order) != ps_exp(stirling_rhs_series(m, order)):
            return _pass_if(False, None, f"m={m}")
    return _pass_if(
        True, 0.0,
        notes=("m = 1 is excluded: there the falling-factorial exponent "
               "gains the constant 0^0 = 1 term, shifting the right side by "
               "a factor of e; for m >= 2 both exponents agree term by term",),
    )


def _check_hyperpyramid(rng: random.Random) -> Outcome:
    cases = [
        ((0.4, 0.3), (Fraction(1, 2), Fraction(1, 2)), 24),
        ((0.5, 0.35), (Fraction(-1), Fraction(2)), 24),
        ((0.4, 0.3, 0.5), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), 14),
    ]
    worst = 0.0
    for xs, bs, cutoff in cases:
        lhs, rhs = hyperpyramid_log_check(xs, bs, cutoff)
        worst = max(worst, _rel_residual(lhs, rhs))
    if worst >= 1e-9:
        return _pass_if(False, worst)
    return Outcome(
        "PASS_WITH_CORRECTION", worst, None,
        ("the printed product allows leading coordinates a_i = 0, whose "
         "weight a_i^(-b_i) is undefined and which no right-side term "
         "generates; restricting to a_i >= 1 the matched-index truncations "
         "agree",),
    )


# --------------------------------------------------------------------------
# section 5: rearrangement theorems and totient corollaries


def _check_one_factor(rng: random.Random) -> Outcome:
    worst = 0.0
    for _ in range(20):
        n = rng.randint(8, 30)
        a, b = _rand_seq(rng, n), _rand_seq_nonzero(rng, n)
        x = rng.uniform(0.2, 1.2)
        lhs, rhs = thm_5_1_check(a, b, x)
        worst = max(worst, _rel_residual(lhs, rhs))
    if worst >= 1e-9:
        return _pass_if(False, worst)
    lhs_p, rhs_p = thm_5_1_check(_delta(2), FiniteSequence({1: 1, 2: 1}, 2),
                                 1.0, as_printed=True)
    notes = [
        "the printed inner sum reads 0 < j < k with (j, m) = 1 and exponent "
        "b_mk j x / k, mixing the multiple index with the visible denominator",
        "resolved reading: j runs over the coprime residues of the visible "
        "denominator and the exponent divides by it",
    ]
    if abs(lhs_p - rhs_p) > 1e-9:
        notes.append(
            f"as printed, a = delta_2, b = 1, x = 1 gives lhs = "
            f"{lhs_p.real:.6f} (= 1 + e^(1/2)) but rhs = {rhs_p.real:.6f}"
        )
    return Outcome("PASS_WITH_CORRECTION", worst, None, tuple(notes))


def _check_two_factor(rng: random.Random) -> Outcome:
    worst = 0.0
    for _ in range(20):
        n = rng.randint(8, 24)
        a = _rand_seq(rng, n)
        b, c = _rand_seq_nonzero(rng, n), _rand_seq_nonzero(rng, n)
        lhs, rhs = thm_5_2_check(a, b, c, rng.uniform(0.2, 1.0))
        worst = max(worst, _rel_residual(lhs, rhs))
    return _pass_if(worst < 1e-9, worst)


def _check_companion_product(rng: random.Random) -> Outcome:
    l40, r40 = cor_5_3_check(0.3, 0.2, 0.25, 40)
    l20, r20 = cor_5_3_check(0.3, 0.2, 0.25, 20)
    e40, e20 = abs(l40 - r40), abs(l20 - r20)
    return _pass_if(e40 < 1e-6 and e40 < e20, e40,
                    notes=(f"truncation residual shrinks {e20:.3e} -> {e40:.3e} "
                           "as c_max doubles",))


def _check_jordan_weighted_m2(rng: random.Random) -> Outcome:
    for _ in range(10):
        a = _rand_seq(rng, rng.randint(10, 30))
        lhs, rhs = thm_5_5_check(a, 2)
        if lhs != rhs:
            return _pass_if(False, None, f"{lhs} vs {rhs}")
    return _pass_if(True, 0.0)


def _check_square_pyramidal(rng: random.Random) -> Outcome:
    for n in list(range(1, 101)) + [200, 333, 500]:
        lhs, rhs = eq_5_5_check(n)
        if lhs != rhs:
            return _pass_if(False, None, f"n={n}")
    return _pass_if(True, 0.0)


def _check_jordan_weighted_general(rng: random.Random) -> Outcome:
    for _ in range(50):
        m = rng.randint(1, 4)
        a = _rand_seq(rng, rng.randint(10, 100))
        lhs, rhs = thm_5_5_check(a, m)
        if lhs != rhs:
            return _pass_if(False, None, f"m={m}: {lhs} vs {rhs}")
    return _pass_if(True, 0.0)


def _check_partial_sum_family(which: str):
    def run(rng: random.Random) -> Outcome:
        ns = list(range(1, 41)) + [100, 157, 200]
        for n in ns:
            if which == "n":
                for m in (1, 2, 3):
                    lhs, rhs = eq_5_7_check(m, n)
                    if lhs != rhs:
                        return _pass_if(False, None, f"m={m}, n={n}")
            elif which == "power":
                for m, a in ((2, 1), (3, 1), (3, 2)):
                    lhs, rhs = eq_5_8_check(m, a, n)
                    if lhs != rhs:
                        return _pass_if(False, None, f"m={m}, a={a}, n={n}")
            else:
                for m in (1, 2, 3, 4):
                    lhs, rhs = eq_5_9_check(m, n)
                    if lhs != rhs:
                        return _pass_if(False, None, f"m={m}, n={n}")
        return _pass_if(True, 0.0)

    return run


def _check_geometric_blocks(rng: random.Random) -> Outcome:
    lhs, rhs = cor_5_7_check(1, 2, Fraction(1, 2), as_printed=True)
    if lhs == rhs:
        return _pass_if(True, 0.0)
    notes = ["the printed geometric blocks start at z^0; each needs its "
             "leading factor (z on the first, z^j on the j-th)"]
    for m in (1, 2, 3):
        for z in (Fraction(1, 2), Fraction(-1, 3)):
            for n in (2, 7, 19, 30):
                cl, cr = cor_5_7_check(m, n, z, as_printed=False)
                if cl != cr:
                    notes.append(f"corrected form fails at m={m}, n={n}, z={z}")
    notes.append("corrected form verified exactly for m <= 3, n <= 30, "
                 "z in {1/2, -1/3}")
    return Outcome("FAILS_AS_PRINTED", None,
                   f"m=1, n=2, z=1/2: lhs={lhs}, rhs={rhs}", tuple(notes))


def _check_weighted_one_factor(rng: random.Random) -> Outcome:
    worst = 0.0
    for _ in range(20):
        n = rng.randint(8, 30)
        a, b = _rand_seq(rng, n), _rand_seq_nonzero(rng, n)
        lhs, rhs = thm_5_8_check(a, b, rng.uniform(0.2, 1.0))
        worst = max(worst, _rel_residual(lhs, rhs))
    return _pass_if(worst < 1e-9, worst)


def _check_mixed_product(rng: random.Random) -> Outcome:
    order = 24
    for x in (Fraction(1, 3), Fraction(-2, 5)):
        lhs, rhs = cor_5_9_check(x, order, reading="derived")
        if lhs != rhs:
            return _pass_if(False, None, f"derived reading fails at x={x}")
    notes = ["derived reading: the full double product over denominators v "
             "and residues m < v, times 1/(1-z), balances exactly to "
             "order 24"]
    for reading in ("printed-halfopen", "printed-closed"):
        lhs, rhs = cor_5_9_check(Fraction(1, 3), 8, reading=reading)
        bad = next((i for i in range(9) if lhs.coeffs[i] != rhs.coeffs[i]), None)
        if bad is not None:
            notes.append(
                f"single-product reading ({reading.split('-')[1]} residue "
                f"range) already fails at z^{bad}: "
                f"{lhs.coeffs[bad]} vs {rhs.coeffs[bad]}"
            )
    return Outcome("PASS_WITH_CORRECTION", 0.0, None, tuple(notes))


def _check_h_factor(rng: random.Random) -> Outcome:
    worst = 0.0
    for _ in range(20):
        n = rng.randint(8, 20)
        a = _rand_seq(rng, n)
        bs = [_rand_seq_nonzero(rng, n) for _ in range(3)]
        lhs, rhs = thm_5_10_check(a, bs, rng.uniform(0.2, 0.8))
        worst = max(worst, _rel_residual(lhs, rhs))
    return _pass_if(worst < 1e-8, worst)


def _check_bracket_corollary(rng: random.Random) -> Outcome:
    for h in (1, 2, 3):
        for m in (1, 2, 3):
            n = rng.randint(8, 14)
            a = _rand_seq(rng, n)
            bs = [
                FiniteSequence.from_values([_frac(rng, -3, 3, 4) for _ in range(n)])
                for _ in range(h)
            ]
            lhs, rhs = cor_5_11_check(a, bs, m)
            if lhs != rhs:
                return Outcome("SKIPPED", None, None,
                               (f"oracle bracket imbalance at h={h}, m={m}",))
    printed = bracket_polynomial(2, 1, 5, [Fraction(1), Fraction(1)])
    oracle = bracket_polynomial_oracle(2, 1, 5, [Fraction(1), Fraction(1)])
    if printed == oracle:
        return _pass_if(True, 0.0)
    return Outcome(
        "FAILS_AS_PRINTED", None,
        f"h=2, m=1, k=5, b=(1,1): printed bracket {printed}, oracle {oracle}",
        ("the printed bracket generator misses the power-sum normalisation: "
         "the factor for exponent b is sum_j b^j (sum_(A<k) A^j)/(j! k^j), "
         "and the first-order term is k(k-1)/2, not -B_1 C(1,1)",
         "with the oracle bracket (m! times the x^m coefficient of the "
         "product of exponential power sums) the rearrangement balances "
         "exactly for h, m <= 3 on random rational sequences"),
    )


def _check_first_bracket_display(rng: random.Random) -> Outcome:
    ks = range(2, 31)
    for k in ks:
        for _ in range(3):
            b1, b2 = _frac(rng, -3, 3, 4), _frac(rng, -3, 3, 4)
            if _q1(k, b1, b2) != bracket_polynomial_oracle(2, 1, k, [b1, b2]):
                return Outcome("SKIPPED", None, None,
                               (f"first-order oracle mismatch at k={k}",))
    k = 5
    printed = 2 * printed_t(1, k) * printed_t(2, k) * 1 * 1
    true_val = _q1(k, Fraction(1), Fraction(1))
    if printed == true_val:
        return _pass_if(True, 0.0)
    return Outcome(
        "FAILS_AS_PRINTED", None,
        f"k=5, b=(1,1): printed 2 T_1 T_2 b_1 b_2 = {printed}, "
        f"true coefficient {true_val}",
        ("the true first-order bracket is (k(k-1)/2)(b_1 + b_2), confirmed "
         "against the exponential-sum oracle for k <= 30",),
    )


def _check_second_bracket_display(rng: random.Random) -> Outcome:
    ks = range(2, 31)
    for k in ks:
        for _ in range(3):
            b1, b2 = _frac(rng, -3, 3, 4), _frac(rng, -3, 3, 4)
            if _q2(k, b1, b2) != bracket_polynomial_oracle(2, 2, k, [b1, b2]):
                return Outcome("SKIPPED", None, None,
                               (f"second-order oracle mismatch at k={k}",))
    k, b1, b2 = 5, Fraction(1), Fraction(2)
    t1, t2, t3 = (printed_t(mu, k) for mu in (1, 2, 3))
    printed = t1 * t3 * b1 * b2 * (b1**2 + b2**2) + t2**2 * b1**2 * b2**2
    true_val = _q2(k, b1, b2)
    if printed == true_val:
        return _pass_if(True, 0.0)
    return Outcome(
        "FAILS_AS_PRINTED", None,
        f"k=5, b=(1,2): printed T-form = {printed}, true coefficient "
        f"{true_val} (= 2! times the oracle x^2 coefficient)",
        ("the true second-order bracket is "
         "(k^2/3 - k/2 + 1/6)(b_1^2 + b_2^2) + ((k-1)^2/2) b_1 b_2, "
         "confirmed against the exponential-sum oracle for k <= 30",),
    )


def _check_linear_bracket_identity(rng: random.Random) -> Outcome:
    lhs, rhs = cor_5_12_check(_delta(2), _delta(2), _delta(2), as_printed=True)
    if lhs == rhs:
        return _pass_if(True, 0.0)
    for _ in range(6):
        n = rng.randint(6, 14)
        a, b1, b2 = (_rand_seq(rng, n) for _ in range(3))
        cl, cr = cor_5_12_check(a, b1, b2, as_printed=False)
        if cl != cr:
            return Outcome("SKIPPED", None, None,
                           ("corrected first-order identity imbalance",))
    return Outcome(
        "FAILS_AS_PRINTED", None,
        f"a = b_1 = b_2 = delta_2 (printed): lhs={lhs}, rhs={rhs}",
        ("printed left side (1/3) sum (1/k) a_k b1_k has the wrong weight "
         "and omits b2; with left side sum a_k (k(k-1)/2)(b1_k + b2_k) the "
         "identity is exact on random rational sequences",),
    )


def _check_quadratic_bracket_identity(rng: random.Random) -> Outcome:
    lhs, rhs = cor_5_13_check(_delta(2), _delta(2), _delta(2), as_printed=True)
    if lhs == rhs:
        return _pass_if(True, 0.0)
    for _ in range(6):
        n = rng.randint(6, 14)
        a, b1, b2 = (_rand_seq(rng, n) for _ in range(3))
        cl, cr = cor_5_13_check(a, b1, b2, as_printed=False)
        if cl != cr:
            return Outcome("SKIPPED", None, None,
                           ("corrected second-order identity imbalance",))
    return Outcome(
        "FAILS_AS_PRINTED", None,
        f"a = b_1 = b_2 = delta_2 (printed): lhs={lhs}, rhs={rhs}",
        ("printed left side halves the true quadratic bracket and its right "
         "side repeats the first-power selector sums; corrected form (full "
         "bracket against second-power sums with 1/v^2) is exact",),
    )


def _check_totient_weighted_linear(rng: random.Random) -> Outcome:
    for _ in range(8):
        a = _rand_seq(rng, rng.randint(6, 20))
        lhs, rhs = cor_5_14_check(1, a)
        if lhs != rhs:
            return _pass_if(False, None, f"{lhs} vs {rhs}")
    return _pass_if(
        True, 0.0,
        notes=("phi_1 is read as the unnormalized selector sum of (j_1+j_2) "
               "over modulus n; under that reading the display is exact",),
    )


def _check_totient_weighted_quadratic(rng: random.Random) -> Outcome:
    lhs, rhs = cor_5_14_check(2, _delta(3), as_printed=True)
    if lhs == rhs:
        return _pass_if(True, 0.0)
    for _ in range(6):
        a = _rand_seq(rng, rng.randint(6, 20))
        cl, cr = cor_5_14_check(2, a, as_printed=False)
        if cl != cr:
            return Outcome("SKIPPED", None, None,
                           ("corrected quadratic weighting imbalance",))
    return Outcome(
        "FAILS_AS_PRINTED", None,
        f"a = delta_3 (printed): lhs={lhs}, rhs={rhs}",
        ("printed polynomial (7/12)k^2 - k + 5/12 with 1/v weights does not "
         "balance; doubling the polynomial and using 1/v^2 weights does",),
    )


def _check_closed_display(display: str, expected_pass: bool):
    def run(rng: random.Random) -> Outcome:
        first_bad = None
        for n in range(2, 41):
            lhs, rhs = cor_5_15_check(display, n, as_printed=True)
            if lhs != rhs:
                first_bad = (n, lhs, rhs)
                break
        if first_bad is None:
            return _pass_if(True, 0.0)
        for n in range(2, 41):
            cl, cr = cor_5_15_check(display, n, as_printed=False)
            if cl != cr:
                return Outcome("SKIPPED", None, None,
                               (f"corrected display {display} imbalance at n={n}",))
        n, lhs, rhs = first_bad
        return Outcome(
            "FAILS_AS_PRINTED", None,
            f"n={n} (printed): lhs={lhs}, rhs={rhs}",
            ("the corrected reading balances exactly for n <= 40",),
        )

    return run


def _check_dirichlet_linear(rng: random.Random) -> Outcome:
    ok, _ = cor_5_16_check("a", 120, reading="unnormalized")
    if not ok:
        return _pass_if(False, None, "unnormalized reading fails")
    ok_n, ce = cor_5_16_check("a", 20, reading="normalized")
    notes = ["multiplying through by zeta(s+2) reduces the display to the "
             "divisor law sum_(d|n) phi1u(d)/d = n^2 - n, exact for n <= 120"]
    if not ok_n and ce:
        notes.append(
            f"the normalized reading (weights phi1u(d)/d^2) fails at "
            f"n={ce[0]}: {ce[1]} vs {ce[2]}"
        )
    return Outcome("PASS", 0.0, None, tuple(notes))


def _check_dirichlet_quadratic(rng: random.Random) -> Outcome:
    ok_u, ce_u = cor_5_16_check("b", 20, reading="unnormalized")
    ok_n, ce_n = cor_5_16_check("b", 20, reading="normalized")
    if ok_u or ok_n:
        return _pass_if(True, 0.0)
    return Outcome(
        "FAILS_AS_PRINTED", None,
        f"normalized reading: n={ce_n[0]}, divisor sum {ce_n[1]} vs "
        f"{ce_n[2]}; unnormalized: n={ce_u[0]}, {ce_u[1]} vs {ce_u[2]}",
        ("both residue-power normalizations of phi_2 miss the divisor law "
         "implied by the zeta quotient (the exponent shift of k is off by "
         "one, as in the product display audited under cor-5.17b)",),
    )


def _check_product_display(which: str):
    def run(rng: random.Random) -> Outcome:
        order = 40
        lhs, rhs = cor_5_17_check(which, order, reading="printed")
        bad = next(
            (i for i in range(order + 1) if lhs.coeffs[i] != rhs.coeffs[i]),
            None,
        )
        if bad is None:
            return _pass_if(True, 0.0)
        cl, cr = cor_5_17_check(which, order, reading="corrected")
        if cl != cr:
            return Outcome("SKIPPED", None, None,
                           ("corrected product display imbalance",))
        fix = ("exponents phi1u(k)/k^2 with right side exp(z^2/(1-z)^2)"
               if which == "a" else
               "exponents phi2u(k)/k^3 with the 5/6 and 6(1-z)^2 constants")
        return Outcome(
            "FAILS_AS_PRINTED", None,
            f"printed series differ first at z^{bad}: "
            f"{lhs.coeffs[bad]} vs {rhs.coeffs[bad]}",
            (f"the corrected form ({fix}) matches exactly to order {order}",),
        )

    return run


def _check_linear_totient_relation(rng: random.Random) -> Outcome:
    target = lambda k: phi_t(1, 2, k)  # noqa: E731
    basis = [lambda k: Fraction(jordan(2, k)), lambda k: Fraction(jordan(1, k))]
    coeffs = discover_linear_relation(target, basis, [2, 3], 200)
    if coeffs == (Fraction(1), Fraction(-1)):
        return _pass_if(True, 0.0,
                        notes=("phi_1(2;k) = J_2(k) - J_1(k) verified "
                               "exactly for 2 <= k <= 200",))
    return _pass_if(False, None, f"discovered coefficients {coeffs}")


def _check_quadratic_totient_relation(rng: random.Random) -> Outcome:
    target = lambda k: phi_t(2, 2, k)  # noqa: E731
    j = [lambda k: Fraction(jordan(3, k)),
         lambda k: Fraction(jordan(2, k)),
         lambda k: Fraction(jordan(1, k))]
    printed = (Fraction(7, 12), Fraction(-1), Fraction(5, 12))
    bad = None
    for k in range(2, 51):
        combo = sum(c * b(k) for c, b in zip(printed, j))
        if combo != target(k):
            bad = (k, target(k), combo)
            break
    if bad is None:
        return _pass_if(True, 0.0)
    full = discover_linear_relation(target, j, [2, 3, 4], 200)
    two = discover_linear_relation(target, j[:2], [2, 3], 200)
    notes = []
    if full is not None:
        notes.append(f"discovery over (J_3, J_2, J_1) with fit points 2, 3, 4 "
                     f"yields {tuple(str(c) for c in full)}, verified for "
                     f"k <= 200")
    if two is not None:
        notes.append(f"discovery over (J_2, J_1) yields "
                     f"{tuple(str(c) for c in two)}, verified for k <= 200")
    if not notes:
        notes.append("no substitute relation survived verification")
    k, want, got = bad
    return Outcome(
        "FAILS_AS_PRINTED", None,
        f"k={k}: phi_2(2;k) = {want} but (7/12)J_3 - J_2 + (5/12)J_1 = {got}",
        tuple(notes),
    )


# --------------------------------------------------------------------------
# section 6: theta-product identities


_THETA_CORRECTIONS = (
    "theta ratios read with arguments scaled by the product index "
    "(sin(k(a-b)) / sin(k(a+b)), not the unscaled sines)",
    "product read over k >= 2: its k = 1 factor duplicates the standalone "
    "base ratio",
)


def _check_theta_convention(rng: random.Random) -> Outcome:
    worst = 0.0
    for q in (0.05, 0.2, 0.5):
        for z in (0.3, 1.1, 2.0):
            worst = max(
                worst,
                abs(theta1(-z, q) + theta1(z, q)),
                abs(theta1(z + math.pi, q) + theta1(z, q)),
            )
    q = 1e-4
    lead = abs(theta1(0.7, q) - 2.0 * q**0.25 * math.sin(0.7))
    worst = max(worst, lead)
    if worst >= 1e-8:
        return _pass_if(False, worst)
    return Outcome(
        "PASS_WITH_CORRECTION", worst, None,
        ("printed prefactor 2q^(1/2) with the sum from k = 1 omits the "
         "leading sin z term; the standard convention 2q^(1/4) with the sum "
         "from k = 0 is used (odd, pi-antiperiodic, leading term "
         "2q^(1/4) sin z), and prefactors cancel in every ratio below",),
    )


def _check_theta_log_ratio(rng: random.Random) -> Outcome:
    worst = 0.0
    for alpha in (0.4, 0.7, 1.1):
        for beta in (0.1, 0.3, 0.55):
            for q in (0.05, 0.1, 0.3):
                lhs, rhs = theta_log_ratio_check(alpha, beta, q)
                worst = max(worst, abs(lhs - rhs))
    if worst >= 1e-10:
        return _pass_if(False, worst)
    return Outcome(
        "PASS_WITH_CORRECTION", worst, None,
        ('the summand prints "sin 2k alpha sin 2k alpha"; the second factor '
         "must read sin 2k beta (the display is otherwise independent of "
         "beta while its right side is not)",),
    )


def _check_theta_identity(identity: str, params: dict, extra_notes: tuple = ()):
    def run(rng: random.Random) -> Outcome:
        residuals = []
        direct = None
        for K in (20, 40, 80):
            res = theta_vpv_check(identity, params, K=K)
            if res.status == "SKIPPED":
                return Outcome("SKIPPED", None, None, (res.reason,))
            residuals.append(res.residual)
            if res.direct_residual is not None:
                direct = res.direct_residual
        shrinking = residuals[0] >= residuals[-1]
        ok = residuals[1] < 1e-8 and shrinking
        if direct is not None:
            ok = ok and direct < 1e-6
        if not ok:
            return _pass_if(False, max(residuals),
                            f"residuals over K=20,40,80: {residuals}, "
                            f"direct {direct}")
        notes = _THETA_CORRECTIONS + extra_notes
        if direct is not None:
            notes = notes + (
                f"independent route through the theta-quotient logs agrees "
                f"to {direct:.2e}",
            )
        return Outcome("PASS_WITH_CORRECTION", residuals[1], None, notes)

    return run


def _geo(y: complex, L: int) -> complex:
    """1 + y + ... + y^(L-1), exact branch-free finite sum."""
    total = 1.0 + 0.0j
    p = 1.0 + 0.0j
    for _ in range(L - 1):
        p *= y
        total += p
    return total


def _selector_weight(thetas: tuple, v: int) -> complex:
    """Selector sum of prod_i x_i^(j_i/v), x_i = e^(2 pi i theta_i), via
    Moebius inversion on the grid: the oracle for the enumerated weights.

    For integer rotation numbers this equals ramanujan_cohen(v, n); for all
    unit factors it equals the Jordan totient.
    """
    total = 0.0 + 0.0j
    for d in divisors(v):
        mu = moebius(d)
        if not mu:
            continue
        term = 1.0 + 0.0j
        for th in thetas:
            term *= _geo(cmath.exp(2j * math.pi * th * d / v), v // d)
        total += mu * term
    return total


def _check_selector_weight_def(rng: random.Random) -> Outcome:
    half = cmath.log(0.5) / (2j * math.pi)  # the real factor x = 1/2
    cases = [(2.0, 3.0), (0.0, 0.0), (half,), (half, 0.0)]
    worst = 0.0
    for thetas in cases:
        for v in range(2, 21):
            enumerated = _kernels.selector_char_sum(v, thetas)
            worst = max(worst, abs(enumerated - _selector_weight(thetas, v)))
    return _pass_if(
        worst < 1e-8, worst,
        notes=("the defining selector sum matches the Moebius-inverted "
               "closed form for rotation, unit, and real factors, v <= 20; "
               "at integer rotations it reproduces c_v(n) and at unit "
               "factors the Jordan totient",),
    )


# --------------------------------------------------------------------------
# the registry


def _entry(id_, anchor, params, procedure, expected, provenance):
    return IdentityCheck(id_, anchor, params, procedure, expected, provenance)


_ENTRIES = [
    # -- section 2 ---------------------------------------------------------
    _entry(
        "eq-2.3", "powers of the divisors of",
        "s=1, n=(6,), K in {1e2, 1e3, 1e4}",
        _check_dirichlet_m1, "PASS",
        "[DERIVED: partial sums against sigma_{-s}(n)/zeta(s+1) with "
        "Euler-Maclaurin zeta]",
    ),
    _entry(
        "eq-2.4", "is a positive integer then",
        "(s, n) in {(1,(4,6)), (2,(3,5)), (1,(2,4,6)), (1.5,(12,18))}, "
        "K in {1e2, 1e3, 1e4}",
        _check_dirichlet_general, "PASS",
        "[DERIVED: monotone truncation-error decay to "
        "sigma_{m-1-s}(g)/zeta(s+1)]",
    ),
    _entry(
        "eq-2.5", "many results similar to",
        "m in 1..3, gcd g in 1..12, order 64",
        _check_cohen_product_series, "PASS",
        "[DERIVED: exact coefficient comparison, both sides expanded over "
        "Fraction]",
    ),
    _entry(
        "cor-2.3", "multiplicativity generalize in the new versions",
        "coprime k1, k2 with k1 k2 <= 144; m in 1..3, random n_i in 0..20",
        _check_multiplicative, "PASS",
        "[DERIVED: closed-form evaluation on both sides]",
    ),
    _entry(
        "eq-2.6", "common arithmetical functions satisfy",
        "none (not executable)",
        _check_garbled_functional_equation, "FLAGGED",
        "[TRIVIAL: unparseable as printed]",
    ),
    _entry(
        "eq-2.7", "sum of powers of divisors",
        "n in {(4,6), (9,), (2,4,8)}, K in {1e2, 1e3, 1e4, 1e5}",
        _check_mean_zero, "PASS",
        "[DERIVED: rearranged Mertens-type sum cross-checked against direct "
        "summation]",
    ),
    _entry(
        "eq-2.8", "the well known convergence of",
        "n=(1,), K in {1e2, 1e3, 1e4}",
        _check_moebius_mean_zero, "PASS",
        "[DERIVED: Moebius partial sums shrink monotonically on the K grid]",
    ),
    # -- section 3 ---------------------------------------------------------
    _entry(
        "lem-3.1", "positive integer multiples of the visible",
        "boxes 8x8, 5x5x5, length-10 segment; hyperpyramid (5,5,6) "
        "(the 8x8 box is the depicted grid)",
        _check_multiples_partition, "PASS",
        "[DERIVED: exhaustive decomposition check on finite regions]",
    ),
    _entry(
        "eq-3.1", "is an arbitrary sequence and",
        "m in {1,2,3}, 10 random sequences each, q_h in (0.05, 0.9)",
        _check_radical_rearrangement((1, 2, 3), 10), "PASS",
        "[DERIVED: finite-support evaluation of both sides]",
    ),
    _entry(
        "eq-3.2", "cases of (3.1) with",
        "m=1, 10 random sequences",
        _check_radical_rearrangement((1,), 10), "PASS",
        "[DERIVED: finite-support evaluation of both sides]",
    ),
    _entry(
        "eq-3.3", "The proof of each of",
        "m=2, 10 random sequences",
        _check_radical_rearrangement((2,), 10), "PASS",
        "[DERIVED: finite-support evaluation of both sides]",
    ),
    _entry(
        "eq-3.4", "seen as interpreting lemma 3.1",
        "m=3, 10 random sequences",
        _check_radical_rearrangement((3,), 10), "PASS",
        "[DERIVED: finite-support evaluation of both sides]",
    ),
    # -- section 4 ---------------------------------------------------------
    _entry(
        "eq-4.1", "We have therefore the analysis",
        "10 random sequences; q = (e^(xz), e^(yz)) with x, y < 0 < z",
        _check_exp_grid_expansion, "PASS",
        "[DERIVED: instance of the radical rearrangement at exponential "
        "variables]",
    ),
    _entry(
        "eq-4.2", "gives us the summation formulae",
        "c in {1,2,3}, random rational sequences and x, y",
        _check_grid_coefficients(
            (1, 2, 3),
            "the expansion index C and the exponent c must be the same "
            "letter; with c = C each coefficient identity is exact",
        ),
        "PASS_WITH_CORRECTION",
        "[DERIVED: exact coefficient identities after unifying the index]",
    ),
    _entry(
        "eq-4.3", "equating coefficients of like powers",
        "c in {0,2,4}, random rational sequences and x, y",
        _check_grid_coefficients(
            (2, 4),
            "same index repair as the preceding display (C vs c); the "
            "separated constant term is the c = 0 identity",
        ),
        "PASS_WITH_CORRECTION",
        "[DERIVED: exact coefficient identities after unifying the index]",
    ),
    _entry(
        "eq-4.4", "number of non-negative integer solutions",
        "selector count vs J_2 for k <= 60; c = 0 grid identity on random "
        "sequences",
        _check_phi0_count, "PASS",
        "[DERIVED: direct enumeration against the Jordan product formula]",
    ),
    _entry(
        "eq-4.7", "analogous manner for the general",
        "n-th powers c in {1,2,3,4}, random rational sequences and x, y",
        _check_grid_coefficients((1, 2, 3, 4)), "PASS",
        "[DERIVED: exact rational evaluation of both sides]",
    ),
    _entry(
        "eq-4.9", "and suitably chosen functions",
        "t in {0,1,2}, m in {2,3}; delta probe a = delta_2",
        _check_phi_weight, "FAILS_AS_PRINTED",
        "[DERIVED: brute-force probe at t=1, m=2, k <= 6: lhs 4, rhs 3]",
    ),
    _entry(
        "eq-4.10", "whilst for $t=0$ we have",
        "m in {1,2,3} random sequences; divisor law m <= 4, k <= 200",
        _check_jordan_weighted_sum, "PASS",
        "[DERIVED: equivalent to the Jordan divisor-sum law]",
    ),
    _entry(
        "eq-4.11", "Therefore if $a^k=k^{-z}$ we have",
        "divisor law m <= 4, k <= 200; float spot m=1, s=4, K=4000",
        _check_jordan_dirichlet, "PASS",
        "[DERIVED: coefficient-level divisor law plus zeta-quotient spot "
        "check]",
    ),
    _entry(
        "eq-4.12", "as a product over primes",
        "m in {1,2,3}, k <= 60",
        _check_jordan_enumeration, "PASS",
        "[DERIVED: selector enumeration against the product formula]",
    ),
    _entry(
        "eq-4.13", "This is new, and related",
        "m in 1..4, order 64",
        _check_jordan_product, "PASS",
        "[DERIVED: exact series identity, product vs exp of power sums]",
    ),
    _entry(
        "eq-4.14", "easily reduced by using the",
        "m <= 6, n <= 12, z in {2, 1/2, -1, 1/3}",
        _check_finite_stirling, "PASS",
        "[DERIVED: finite falling-factorial expansion evaluated exactly]",
    ),
    _entry(
        "eq-4.15", "Hence we have the",
        "m in 2..8, order 32",
        _check_stirling_product, "PASS",
        "[DERIVED: exact series identity via Stirling-number exponent]",
    ),
    _entry(
        "eq-4.16", "limiting case of the hyperpyramid",
        "n in {2,3}; b rational (including a negative exponent), "
        "cutoffs 24 and 14",
        _check_hyperpyramid, "PASS_WITH_CORRECTION",
        "[DERIVED: matched-index truncation with the a_i >= 1 restriction]",
    ),
    # -- section 5 ---------------------------------------------------------
    _entry(
        "thm-5.1", "led to many new results",
        "20 random sequences, n <= 30, x in (0.2, 1.2)",
        _check_one_factor, "PASS_WITH_CORRECTION",
        "[DERIVED: resolved index set balances; printed set refuted at "
        "a=delta_2, b=1, x=1]",
    ),
    _entry(
        "thm-5.2", "the 3-D version of theorem",
        "20 random sequences, n <= 24",
        _check_two_factor, "PASS",
        "[DERIVED: finite-support evaluation of both sides]",
    ),
    _entry(
        "cor-5.3", "dividing up the first hyperquadrant",
        "x=0.3, y=0.2, z=0.25, c_max in {20, 40}",
        _check_companion_product, "PASS",
        "[DERIVED: truncated product against the closed form, shrinking "
        "residual]",
    ),
    _entry(
        "eq-5.4", "we get the new result",
        "10 random sequences, m=2",
        _check_jordan_weighted_m2, "PASS",
        "[DERIVED: exact rational evaluation of both sides]",
    ),
    _entry(
        "eq-5.5", "An obvious example is",
        "n <= 100 exhaustive, plus n in {200, 333, 500}",
        _check_square_pyramidal, "PASS",
        "[DERIVED: exact rational evaluation of both sides]",
    ),
    _entry(
        "eq-5.6", "we rate here as a",
        "50 random rational sequences, m <= 4, n <= 100",
        _check_jordan_weighted_general, "PASS",
        "[DERIVED: exact rational evaluation of both sides]",
    ),
    _entry(
        "eq-5.7", "Partial sums of this generating",
        "m in {1,2,3}, n <= 40 exhaustive plus {100, 157, 200}",
        _check_partial_sum_family("n"), "PASS",
        "[DERIVED: exact rational evaluation of both sides]",
    ),
    _entry(
        "eq-5.8", "appropriate convergence restrictions are in",
        "(m, a) in {(2,1), (3,1), (3,2)}, n <= 40 plus {100, 157, 200}",
        _check_partial_sum_family("power"), "PASS",
        "[DERIVED: exact rational evaluation of both sides]",
    ),
    _entry(
        "eq-5.9", "as $z$ approaches unity in",
        "m in 1..4, n <= 40 plus {100, 157, 200}",
        _check_partial_sum_family("m"), "PASS",
        "[DERIVED: exact rational evaluation of both sides]",
    ),
    _entry(
        "eq-5.10", "essentially the logarithmic derivative of",
        "printed probe m=1, n=2, z=1/2; corrected sweep m <= 3, n <= 30",
        _check_geometric_blocks, "FAILS_AS_PRINTED",
        "[DERIVED: hand case m=1, n=2, z=1/2 gives lhs 5/2, printed rhs 1]",
    ),
    _entry(
        "eq-5.11", "Another related yet distinct summation",
        "20 random sequences, n <= 30",
        _check_weighted_one_factor, "PASS",
        "[DERIVED: finite-support evaluation of both sides]",
    ),
    _entry(
        "cor-5.9", "number of solutions in integers",
        "x in {1/3, -2/5}, order 24; printed readings probed to order 8",
        _check_mixed_product, "PASS_WITH_CORRECTION",
        "[DERIVED: exact z-series; single-product readings refuted at z^1]",
    ),
    _entry(
        "eq-5.14", "write down the generalized version",
        "h=3, 20 random sequences, n <= 20",
        _check_h_factor, "PASS",
        "[DERIVED: finite-support evaluation of both sides]",
    ),
    _entry(
        "cor-5.11", "general derivative with respect to",
        "h, m in {1,2,3}, random rational sequences; printed probe "
        "h=2, m=1, k=5",
        _check_bracket_corollary, "FAILS_AS_PRINTED",
        "[DERIVED: exponential-sum oracle bracket balances; printed bracket "
        "gives 29/30 where the oracle gives 20]",
    ),
    _entry(
        "eq-5.16", "simplest cases of corollary 5.11",
        "oracle sweep k <= 30 with random rational b; printed probe k=5, "
        "b=(1,1)",
        _check_first_bracket_display, "FAILS_AS_PRINTED",
        "[DERIVED: first-order bracket oracle (k(k-1)/2)(b1+b2)]",
    ),
    _entry(
        "eq-5.17", "applying (5.16) and then (5.17)",
        "oracle sweep k <= 30 with random rational b; printed probe k=5, "
        "b=(1,2)",
        _check_second_bracket_display, "FAILS_AS_PRINTED",
        "[DERIVED: second-order bracket oracle value 46 at k=5, b=(1,2)]",
    ),
    _entry(
        "cor-5.12", "positive integers greater than",
        "printed probe a=b1=b2=delta_2; corrected sweep on 6 random "
        "sequence triples",
        _check_linear_bracket_identity, "FAILS_AS_PRINTED",
        "[DERIVED: delta-sequence probe against the selector sums]",
    ),
    _entry(
        "cor-5.13", "the same conditions as corollary",
        "printed probe a=b1=b2=delta_2; corrected sweep on 6 random "
        "sequence triples",
        _check_quadratic_bracket_identity, "FAILS_AS_PRINTED",
        "[DERIVED: delta-sequence probe against the selector sums]",
    ),
    _entry(
        "cor-5.14a", "natural occurrence in the right sides",
        "8 random rational sequences, n <= 20",
        _check_totient_weighted_linear, "PASS",
        "[DERIVED: exact under the unnormalized selector-sum reading of "
        "phi_1]",
    ),
    _entry(
        "cor-5.14b", "power of the sum of",
        "printed probe a=delta_3; corrected sweep on 6 random sequences",
        _check_totient_weighted_quadratic, "FAILS_AS_PRINTED",
        "[DERIVED: delta-sequence probe, lhs 8/3 vs rhs 16]",
    ),
    _entry(
        "cor-5.15a", "We next state some examples",
        "n in 2..40",
        _check_closed_display("a", True), "PASS",
        "[DERIVED: exact rational evaluation of both sides]",
    ),
    _entry(
        "cor-5.15b", "cases are fairly obvious given",
        "n in 2..40, printed and corrected readings",
        _check_closed_display("b", False), "FAILS_AS_PRINTED",
        "[DERIVED: first failing n recorded; corrected polynomial/weights "
        "balance]",
    ),
    _entry(
        "cor-5.15c", "given the previous analysis",
        "n in 2..40, printed and corrected readings",
        _check_closed_display("c", False), "FAILS_AS_PRINTED",
        "[DERIVED: first failing n recorded; corrected cubic left side "
        "balances]",
    ),
    _entry(
        "cor-5.15d", "akin to those in Campbell",
        "n in 2..40, printed and corrected readings",
        _check_closed_display("d", False), "FAILS_AS_PRINTED",
        "[DERIVED: first failing n recorded; corrected quartic left side "
        "balances]",
    ),
    _entry(
        "cor-5.16a", "permit $n$ to increase indefinitely",
        "divisor law for n <= 120 (unnormalized); normalized probe n <= 20",
        _check_dirichlet_linear, "PASS",
        "[DERIVED: coefficient extraction reduces the display to "
        "sum_(d|n) phi1u(d)/d = n^2 - n]",
    ),
    _entry(
        "cor-5.16b", "the Dirichlet generating functions given",
        "divisor-law probes n <= 20 under both normalizations",
        _check_dirichlet_quadratic, "FAILS_AS_PRINTED",
        "[DERIVED: coefficient extraction; both normalizations refuted at "
        "small n]",
    ),
    _entry(
        "cor-5.17a", "we have the infinite products",
        "order 40, printed and corrected readings",
        _check_product_display("a"), "FAILS_AS_PRINTED",
        "[DERIVED: printed series differ at z^1 (0 vs 1); corrected form "
        "exact]",
    ),
    _entry(
        "cor-5.17b", "if $n$ too increases indefinitely",
        "order 40, printed and corrected readings",
        _check_product_display("b"), "FAILS_AS_PRINTED",
        "[DERIVED: printed series differ at z^2 (3/2 vs 3/8); corrected "
        "form exact]",
    ),
    _entry(
        "cor-5.18a", "and its ensuing paragraph",
        "fit points {2, 3}, verification k <= 200",
        _check_linear_totient_relation, "PASS",
        "[DERIVED: selector enumeration oracle for phi_1(2;k)]",
    ),
    _entry(
        "cor-5.18b", "sum when compared to corollary",
        "printed combination probed for k <= 50; discovery fits {2,3,4} "
        "and {2,3}, verification k <= 200",
        _check_quadratic_totient_relation, "FAILS_AS_PRINTED",
        "[DERIVED: phi_2(2;3) = 16/3 but the printed combination gives 8]",
    ),
    # -- section 6 ---------------------------------------------------------
    _entry(
        "eq-6.1", "terminology for the theta function",
        "q in {1e-4, 0.05, 0.2, 0.5}, z in {0.3, 1.1, 2.0}",
        _check_theta_convention, "PASS_WITH_CORRECTION",
        "[DERIVED: oddness, pi-antiperiodicity, and the small-q leading "
        "term under the standard convention]",
    ),
    _entry(
        "eq-6.2", "Application of (6.2) to (3.2)",
        "27-point grid: alpha in {0.4,0.7,1.1}, beta in {0.1,0.3,0.55}, "
        "q in {0.05,0.1,0.3}",
        _check_theta_log_ratio, "PASS_WITH_CORRECTION",
        "[DERIVED: Lambert expansion against direct theta evaluation; "
        "second sine factor read as sin 2k beta]",
    ),
    _entry(
        "eq-6.3", "gives us the result",
        "x=0.5, q=0.1, alpha=0.7, beta=0.3, K in {20,40,80}",
        _check_theta_identity("thm-6.1",
                              {"x": 0.5, "q": 0.1, "alpha": 0.7, "beta": 0.3}),
        "PASS_WITH_CORRECTION",
        "[DERIVED: matched-index truncation plus direct theta-quotient "
        "route]",
    ),
    _entry(
        "eq-6.4", "is Ramanujan's trigonometrical function",
        "n=2, q=0.1, alpha=0.7, beta=0.3, K in {20,40,80}",
        _check_theta_identity("cor-6.2",
                              {"n": 2, "q": 0.1, "alpha": 0.7, "beta": 0.3}),
        "PASS_WITH_CORRECTION",
        "[DERIVED: matched-index truncation plus direct theta-quotient "
        "route]",
    ),
    _entry(
        "eq-6.5", "allow $x$ to approach unity",
        "q=0.1, alpha=0.7, beta=0.3, K in {20,40,80}",
        _check_theta_identity(
            "cor-6.3", {"q": 0.1, "alpha": 0.7, "beta": 0.3},
            extra_notes=("printed exponent phi(n)/k names a variable not in "
                         "scope after x -> 1; the Euler-totient exponent is "
                         "phi(k)/k",),
        ),
        "PASS_WITH_CORRECTION",
        "[DERIVED: matched-index truncation plus direct theta-quotient "
        "route]",
    ),
    _entry(
        "eq-6.6", "but from starting with lemma",
        "xs=(0.5, 0.25), q=0.1, alpha=0.7, beta=0.3, K in {20,40,80}",
        _check_theta_identity(
            "thm-6.4", {"xs": (0.5, 0.25), "q": 0.1, "alpha": 0.7, "beta": 0.3}
        ),
        "PASS_WITH_CORRECTION",
        "[DERIVED: matched-index truncation plus direct theta-quotient "
        "route]",
    ),
    _entry(
        "eq-6.7", "We state two relevant corollaries",
        "rotation, unit, real and mixed factor tuples, v <= 20",
        _check_selector_weight_def, "PASS",
        "[DERIVED: brute-force selector sums against the Moebius closed "
        "form]",
    ),
    _entry(
        "eq-6.8", "bearing in mind our work",
        "m=2, q=0.1, alpha=0.7, beta=0.3, K in {20,40,80}",
        _check_theta_identity("cor-6.5",
                              {"m": 2, "q": 0.1, "alpha": 0.7, "beta": 0.3}),
        "PASS_WITH_CORRECTION",
        "[DERIVED: matched-index truncation plus direct theta-quotient "
        "route]",
    ),
    _entry(
        "eq-6.9", "new generalized Ramanujan totient function",
        "n=(2,3), q=0.1, alpha=0.7, beta=0.3, K in {20,40,80}",
        _check_theta_identity(
            "cor-6.6", {"n": (2, 3), "q": 0.1, "alpha": 0.7, "beta": 0.3},
            extra_notes=("for m >= 2 the printed left side also needs the "
                         "weight k^(m-1) inside the divisor-restricted sum",),
        ),
        "PASS_WITH_CORRECTION",
        "[DERIVED: matched-index truncation plus direct theta-quotient "
        "route]",
    ),
]

REGISTRY = {e.id: e for e in _ENTRIES}

if len(REGISTRY) != len(_ENTRIES):  # pragma: no cover - construction guard
    raise RuntimeError("duplicate registry id")
