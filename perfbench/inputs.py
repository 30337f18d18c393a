"""Seeded inputs for the workloads, and the benchmark's own oracles.

Everything the package is asked to compute is generated here from a
``random.Random``; nothing is taken from the package's registry or tests.
The oracles are written here from the definitions (brute force, textbook
recurrences, Moebius inversion) so that a gate never trusts the code it is
measuring.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# --------------------------------------------------------------------------
# independent oracles


def _mobius(n: int) -> int:
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def mobius_table(limit: int) -> list[int]:
    """mu(0..limit) by trial division of each n (mu[0] unused)."""
    return [0] + [_mobius(n) for n in range(1, limit + 1)]


def jordan_oracle(m: int, k: int) -> int:
    """J_m(k): number of m-tuples in [0, k)^m whose gcd with k is 1."""
    value, n, p = k**m, k, 2
    while p * p <= n:
        if n % p == 0:
            value = value // p**m * (p**m - 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        value = value // n**m * (n**m - 1)
    return value


def _selector(m: int, k: int):
    for js in itertools.product(range(k), repeat=m):
        if math.gcd(math.gcd(*js), k) == 1 and any(js):
            yield js


def ramanujan_oracle(k: int, n: tuple[int, ...]) -> int:
    """c_k(n) = sum over d dividing k and every n_i of mu(k/d) d^m: the
    exponential sum over the selector, by Moebius inversion over gcd."""
    g = math.gcd(k, *n)
    return sum(_mobius(k // d) * d ** len(n) for d in range(1, g + 1) if g % d == 0)


def phi_oracle(t: int, m: int, k: int) -> Fraction:
    """phi_t(m; k) as the exact sum of ((j_1 + ... + j_m)/k)^t (k >= 2)."""
    return Fraction(sum(sum(js) ** t for js in _selector(m, k)), k**t)


def visible_count_oracle(bounds: tuple[int, ...]) -> int:
    """Points of prod [1, b_i] with coordinate gcd 1, by Moebius inversion:
    sum over d of mu(d) prod floor(b_i / d)."""
    mu = mobius_table(min(bounds))
    return sum(mu[d] * math.prod(b // d for b in bounds) for d in range(1, min(bounds) + 1))


def partition_numbers(order: int) -> list[int]:
    """p(0..order) by the coin-change recurrence."""
    p = [1] + [0] * order
    for part in range(1, order + 1):
        for total in range(part, order + 1):
            p[total] += p[total - part]
    return p


def product_oracle(exps: dict, order: int) -> list[int]:
    """Coefficients of prod (1 - z^k)^e_k for integer e_k, by polynomial
    multiplication: (1 - z^k) directly, 1/(1 - z^k) as a running sum."""
    c = [1] + [0] * order
    for k, e in exps.items():
        for _ in range(abs(e)):
            if e > 0:
                for i in range(order, k - 1, -1):
                    c[i] -= c[i - k]
            else:
                for i in range(k, order + 1):
                    c[i] += c[i - k]
    return c


def cohen_partial_oracle(s: float, n: tuple[int, ...], K: int) -> float:
    """sum_{k<=K} c_k(n)/k^(s+1), with c_k(n) as in ``ramanujan_oracle``."""
    return sum(ramanujan_oracle(k, n) / k ** (s + 1.0) for k in range(1, K + 1))


def rel_residual(lhs, rhs) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


# --------------------------------------------------------------------------
# rearrange: one sweep of the five rearrangement checks


def rand_seq(rng, n: int):
    """A random FiniteSequence a_1..a_n of nonzero small rationals."""
    from vpvtotients.vpv import FiniteSequence

    vals = [Fraction(rng.choice([v for v in range(-5, 6) if v]), rng.randint(1, 6))
            for _ in range(n)]
    return FiniteSequence.from_values(vals)


#: (family, largest n, residual gate): the audit's and the acceptance
#: tests' sizes and tolerances
FAMILIES = (
    ("lemma_3_2", 24, 1e-9),
    ("thm_5_1", 40, 1e-9),
    ("thm_5_2", 32, 1e-9),
    ("thm_5_8", 30, 1e-9),
    ("thm_5_10", 24, 1e-8),
)


def rearrange_sweep(rng) -> list:
    """[(family, gate, thunk)]: each family once at every even n from 8 to
    its largest n (lemma 3.2 cycling m through 1, 2, 3), with seeded values.

    The sizes are a fixed sweep rather than random draws, and no term is
    zero, because a check's cost grows like n^(h+1) and a zero a_k skips its
    terms: drawn sizes or zeros would make the work per run depend on the
    seed.
    """
    from vpvtotients import vpv

    seq = lambda n: rand_seq(rng, n)  # noqa: E731
    checks = []
    for family, largest, gate in FAMILIES:
        for n in range(8, largest + 1, 2):
            if family == "lemma_3_2":
                args = (seq(n), [rng.uniform(0.05, 0.9) for _ in range(1 + n % 3)])
            elif family == "thm_5_1":
                args = (seq(n), seq(n), rng.uniform(0.2, 1.0))
            elif family == "thm_5_2":
                args = (seq(n), seq(n), seq(n), rng.uniform(0.2, 0.9))
            elif family == "thm_5_8":
                args = (seq(n), seq(n), rng.uniform(0.2, 1.0))
            else:
                args = (seq(n), [seq(n) for _ in range(3)], rng.uniform(0.2, 0.8))
            check = getattr(vpv, f"{family}_check")
            checks.append((family, gate, lambda check=check, args=args: check(*args)))
    return checks


# --------------------------------------------------------------------------
# exact: one pass over the battery


def exact_round(rng) -> list:
    """[(case, thunk, gate)] for one battery round; gate(result) -> bool.

    The six kernel cases keep the parameters of benchmarks/bench_kernels.py;
    the other cases draw their arguments from the seed.
    """
    from vpvtotients import analytic as A, series as S, totients as T, vpv as V

    sel = lambda m, k: T.enumerate_selector(T.LatticeSelector(m, k))  # noqa: E731
    cos_n = (rng.randint(1, 60), rng.randint(1, 60))
    cos_expected, power_expected = ramanujan_oracle(400, cos_n), phi_oracle(2, 3, 50)
    cases = [
        ("kernels.selector_m2_k500", lambda: sel(2, 500),
         lambda r: len(r) == jordan_oracle(2, 500) and _coprime_sample(r, 500, rng)),
        ("kernels.selector_m3_k60", lambda: sel(3, 60),
         lambda r: len(r) == jordan_oracle(3, 60) and _coprime_sample(r, 60, rng)),
        ("kernels.selector_count_m3_k80", lambda: T.selector_size(3, 80),
         lambda r: r == jordan_oracle(3, 80)),
        ("kernels.cos_sum_k400", lambda: T.ramanujan_cohen_enum(400, cos_n),
         lambda r: r == cos_expected),
        ("kernels.power_sum_t2_m3_k50", lambda: T.phi_t_enum(2, 3, 50),
         lambda r: r == power_expected),
        ("kernels.visible_box_300x300",
         lambda: V.visible_points(V.RadialRegion(2, (300, 300))),
         lambda r: len(r) == visible_count_oracle((300, 300))),
    ]
    for _ in range(4):
        m = rng.randint(1, 3)
        k = rng.randint(2, {1: 400, 2: 40, 3: 24}[m])
        n = tuple(rng.randint(-60, 60) for _ in range(m))
        t = rng.randint(0, 3)
        rc, phi, jordan = ramanujan_oracle(k, n), phi_oracle(t, m, k), jordan_oracle(m, k)
        # each closed form equals the package's enumeration and the oracle
        cases += [
            ("totients.rc_closed", lambda k=k, n=n: T.ramanujan_cohen(k, n),
             lambda r, k=k, n=n, rc=rc: r == T.ramanujan_cohen_enum(k, n) == rc),
            ("totients.phi_t_closed", lambda t=t, m=m, k=k: T.phi_t(t, m, k),
             lambda r, t=t, m=m, k=k, phi=phi: r == T.phi_t_enum(t, m, k) == phi),
            ("totients.jordan", lambda m=m, k=k: T.jordan(m, k),
             lambda r, m=m, k=k, jordan=jordan: r == T.selector_size(m, k) == jordan),
        ]
    for order in (64, 128):
        exps = {k: rng.randint(-2, 2) for k in range(1, order + 1)}
        cases.append((
            f"series.product_o{order}",
            lambda exps=exps, order=order: S.product_with_exponents(exps, order),
            lambda r, exps=exps, order=order: list(r.coeffs) == product_oracle(exps, order),
        ))
    f = S.PowerSeries(tuple([1] + [rng.randint(-3, 3) for _ in range(128)]))
    cases.append(("series.exp_log_o128", lambda: S.ps_exp(S.ps_log(f)), lambda r: r == f))
    s, n = rng.uniform(0.5, 2.0), (rng.randint(1, 30), rng.randint(1, 30))
    expected = cohen_partial_oracle(s, n, 10**4)
    cases.append((
        "analytic.dirichlet_K10000",
        lambda: A.dirichlet_partial_cohen(s, n, 10**4),
        lambda r: rel_residual(r[0], expected) < 1e-9,
    ))
    return cases


#: selector tuples checked against the definition per kernel case
SAMPLE = 64


def _coprime_sample(tuples: list, k: int, rng) -> bool:
    """A random sample of the selector satisfies its definition, in lex order."""
    for i in sorted(rng.randrange(len(tuples)) for _ in range(SAMPLE)):
        js = tuples[i]
        if math.gcd(math.gcd(*js), k) != 1 or not 0 <= min(js) <= max(js) < k:
            return False
        if i and tuples[i - 1] >= js:
            return False
    return True


# --------------------------------------------------------------------------
# cli: one cycle of fresh CLI commands


def cli_commands(rng) -> list:
    """[(command name, CLI arguments, expected stdout)] for one cycle."""
    m, k = rng.randint(1, 4), rng.randint(1, 2000)
    jordan = (["compute", "jordan", "--m", str(m), "--k", str(k)],
              f"{jordan_oracle(m, k)}\n")
    k, n = rng.randint(2, 40), (rng.randint(0, 100), rng.randint(0, 100))
    ramanujan = (["compute", "ramanujan", "--k", str(k), "--n", f"{n[0]},{n[1]}"],
                 f"{ramanujan_oracle(k, n)}\n")
    t, m, k = rng.randint(0, 3), rng.randint(1, 3), rng.randint(2, 12)
    phi = (["compute", "phi", "--t", str(t), "--m", str(m), "--k", str(k)],
           f"{phi_oracle(t, m, k)}\n")
    p = partition_numbers(64)
    partition = (["series", "--product", "partition", "--order", "64"],
                 "".join(f"z^{i}\t{c}\n" for i, c in enumerate(p)))
    b = rng.randint(2, 10)
    count = visible_count_oracle((b, b, b))
    lattice = (["lattice", "--dims", "3", "--max", str(b)],
               f"dims=3 max={b}: {count} visible of {b**3} points\n")
    return [
        ("compute_jordan", *jordan),
        ("compute_ramanujan", *ramanujan),
        ("compute_phi", *phi),
        ("series_partition", *partition),
        ("lattice_3d", *lattice),
    ]
