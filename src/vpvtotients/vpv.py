"""Visible-point enumeration and finite lattice-rearrangement identities.

A lattice point is *visible* (from the origin) when the gcd of its
coordinates is 1; every nonzero lattice point in a radial region is a unique
positive multiple of a visible point.  That bijection turns sums over a grid
index k into sums over visible denominators v with tail weights
S_v = sum_{j>=1} a_{jv}, and every check in this module is an instance of it
evaluated with finitely supported sequences, so both sides are finite and
(where the inputs are rational) exact.

Two engines compute the regrouped right sides; each check passes only the
weights of its factors.  The floating-point rearrangements (lemma 3.2 and
theorems 5.1, 5.2, 5.8 and 5.10) share `_regroup_rhs`, a sum of exponentials
over each selector.  The exact grid-power and bracket identities (eq-4.1..4.3,
eq-4.7 and corollaries 5.11, 5.12 and 5.13) share `_regroup_power`, a sum of
rational p-th powers over each selector.

Function names carry the audit-registry ids they certify (thm-5.1,
cor-5.3, ...); the registry module maps those ids to statuses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, gcd
from operator import mul

import numpy as np

from . import _kernels
from .errors import DomainError, ResourceError
from .exactcore import bernoulli, divisors, faulhaber_sum
from .series import (
    PowerSeries,
    geometric,
    log_one_minus_z_pow,
    monomial,
    ps_exp,
    ps_mul,
    zero,
)
from .totients import (
    DEFAULT_SELECTOR_CAP,
    LatticeSelector,
    enumerate_selector,
    jordan,
    m_phi,
    phi_t,
    unnormalized_phi,
)


def _selector(m: int, k: int) -> list:
    return enumerate_selector(LatticeSelector(m, k))

__all__ = [
    "FiniteSequence",
    "RadialRegion",
    "visible_points",
    "multiples_partition_check",
    "lemma_3_2_check",
    "thm_5_1_check",
    "thm_5_2_check",
    "thm_5_8_check",
    "thm_5_10_check",
    "printed_t",
    "bracket_polynomial",
    "bracket_polynomial_oracle",
    "cor_5_11_check",
    "cor_5_3_check",
    "thm_5_5_check",
    "eq_5_5_check",
    "eq_5_7_check",
    "eq_5_8_check",
    "eq_5_9_check",
    "cor_5_7_check",
    "grid_power_identity_check",
    "phi_weight_identity_check",
    "cor_5_12_check",
    "cor_5_13_check",
    "cor_5_14_check",
    "cor_5_15_check",
    "cor_5_16_check",
    "cor_5_17_check",
    "cor_5_9_check",
    "hyperpyramid_log_check",
]


# --------------------------------------------------------------------------
# sequences and regions


@dataclass(frozen=True)
class FiniteSequence:
    """Finitely supported sequence a_1, a_2, ...; indices past `bound` are 0."""

    support: dict
    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise DomainError("bound must be a positive integer")
        for k in self.support:
            if not 1 <= k <= self.bound:
                raise DomainError(f"support index {k} outside 1..{self.bound}")

    @classmethod
    def from_values(cls, values) -> "FiniteSequence":
        """Build from a list giving a_1..a_n."""
        vals = list(values)
        return cls({k: v for k, v in enumerate(vals, start=1) if v}, len(vals))

    def __call__(self, k: int):
        return self.support.get(k, 0)

    def tail(self, k: int):
        """S_k = sum of a_{jk} over j >= 1 (finite because the support is)."""
        if k < 1:
            raise DomainError("index must be a positive integer")
        return sum(self(j) for j in range(k, self.bound + 1, k))


_REGION_CONSTRAINTS = ("box", "hyperpyramid")


@dataclass(frozen=True)
class RadialRegion:
    """A bounded radial lattice region: a box [1..b_i]^d, or the hyperpyramid
    0 <= a_i < a_d (i < d), 1 <= a_d <= b_d.  Both are unions of rays from the
    origin, so scaling a point by a positive integer keeps it in the region
    while within bounds."""

    dims: int
    bounds: tuple
    constraint: str = "box"

    def __post_init__(self):
        if self.dims < 1:
            raise DomainError("dims must be >= 1")
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))
        if len(self.bounds) != self.dims:
            raise DomainError("bounds must give one extent per axis")
        if any(b < 1 for b in self.bounds):
            raise DomainError("bounds must be >= 1")
        if self.constraint not in _REGION_CONSTRAINTS:
            raise DomainError(f"constraint must be one of {_REGION_CONSTRAINTS}")

    def lattice_size(self) -> int:
        size = 1
        for b in self.bounds:
            size *= b
        return size

    def _check_size(self) -> None:
        """Raise ResourceError when the region has more points than the cap."""
        if self.lattice_size() > DEFAULT_SELECTOR_CAP:
            raise ResourceError(
                f"lattice size {self.lattice_size()} exceeds cap {DEFAULT_SELECTOR_CAP}"
            )

    def points(self):
        """All lattice points of the region, lexicographic order."""
        self._check_size()
        if self.constraint == "box":
            out = []
            pt = [1] * self.dims
            while True:
                out.append(tuple(pt))
                i = self.dims - 1
                while i >= 0:
                    if pt[i] < self.bounds[i]:
                        pt[i] += 1
                        break
                    pt[i] = 1
                    i -= 1
                if i < 0:
                    return out
        # hyperpyramid: leading coordinates in [0, a_d), apex coordinate >= 1
        out = []

        def rec(prefix, i):
            last_max = self.bounds[-1]
            if i == self.dims - 1:
                lo = max(prefix) + 1 if prefix else 1
                for ad in range(lo, last_max + 1):
                    out.append(prefix + (ad,))
                return
            for v in range(0, min(self.bounds[i], last_max - 1) + 1):
                rec(prefix + (v,), i + 1)

        rec((), 0)
        out.sort()
        return out


def visible_points(region: RadialRegion) -> list:
    """Lattice points of the region with coordinate gcd 1, lexicographic."""
    if region.constraint == "box":
        region._check_size()
        return _kernels.visible_points_box(region.bounds)
    return [p for p in region.points() if math.gcd(*p) == 1]


def multiples_partition_check(region: RadialRegion) -> bool:
    """True iff every lattice point of the region is j * v for exactly one
    visible point v and positive integer j."""
    visible = set(visible_points(region))
    seen = set()
    for p in region.points():
        g = math.gcd(*p) if len(p) > 1 else p[0]
        if g == 0:
            return False
        v = tuple(c // g for c in p)
        if v not in visible or p in seen:
            return False
        seen.add(p)
    # every visible point must itself be in the region (j = 1 case)
    return visible <= seen


# --------------------------------------------------------------------------
# the basic rearrangement with explicit radicals (floats)


def lemma_3_2_check(a: FiniteSequence, q) -> tuple:
    """Both sides of the m-factor rearrangement with q_h^(1/k) radicals.

    lhs = sum_k a_k prod_h (1-q_h)/(1-q_h^(1/k));
    rhs = S_1 + sum_{k>=2} S_k * sum over the selector of prod_h q_h^(j_h/k).
    Equal for any finitely supported a; returns (lhs, rhs) as floats.  The
    right side is `_regroup_rhs` with weights log q_h at every k and x = 1,
    since prod_h q_h^(j_h/k) = exp((j . log q) / k).
    """
    q = [float(v) for v in q]
    if any(not 0.0 < v < 1.0 for v in q):
        raise DomainError("each q_h must lie in (0, 1)")
    n = a.bound
    lhs = 0.0
    for k in range(1, n + 1):
        ak = a(k)
        if not ak:
            continue
        term = float(ak)
        for v in q:
            term *= (1.0 - v) / (1.0 - v ** (1.0 / k))
        lhs += term
    logq = [math.log(v) for v in q]
    rhs = _regroup_rhs(a, lambda k: logq, 1.0, n, len(q))
    return lhs, float(rhs)


# --------------------------------------------------------------------------
# exponential-factor rearrangements (thm-5.1 family)


def _exp_factor(b, x: float, k: int) -> complex:
    """(1 - exp(b x)) / (1 - exp(b x / k)) evaluated as written."""
    den = 1.0 - _cexp(float(b) * x / k)
    if abs(den) < 1e-13:
        raise DomainError(f"vanishing denominator: exp({b}*{x}/{k}) = 1")
    return (1.0 - _cexp(float(b) * x)) / den


def _cexp(v) -> complex:
    return cmath.exp(complex(v))


def _regroup_rhs(a: FiniteSequence, weights, x, n: int, h: int):
    """The right side shared by the visible-point rearrangements:

        S_1 + sum_{v=2..n} sum_{w<=n/v} a_{vw} sum_{j in sel(h, v)} exp((j . b_{vw}) x / v)

    with S_1 = a_1 + ... + a_n and b_k = weights(k), a vector of h numbers.
    The selector of each v is enumerated once and all of v's multiples are
    summed in one matrix product.  This stays an enumeration: factoring the
    selector sum by Moebius inversion would make the checks circular.
    """
    rhs = float(sum(a(k) for k in range(1, n + 1)))
    for v in range(2, n + 1):
        ks = [v * w for w in range(1, n // v + 1) if a(v * w)]
        if not ks:
            continue
        avw = np.array([float(a(k)) for k in ks])
        bvw = np.array([[float(c) for c in weights(k)] for k in ks])
        rhs += avw @ _selector_exp_sums(h, v, bvw, x)
    return rhs


def _selector_exp_sums(h: int, v: int, bs: np.ndarray, x) -> np.ndarray:
    """For each row b of the (W, h) array bs, the sum over the h-dimensional
    selector of v of exp((j . b) x / v)."""
    sel = _selector(h, v)
    # fromiter over the flattened tuples builds the array ~2.5x faster than
    # np.array(sel), which must discover the nesting first
    js = np.fromiter(chain.from_iterable(sel), dtype=np.int64, count=h * len(sel))
    return np.exp((js.reshape(-1, h) @ bs.T) * (x / v)).sum(axis=0)


def _regroup_power(a: FiniteSequence, weights, n: int, h: int, p: int) -> Fraction:
    """The exact right side shared by the grid-power and bracket identities:

        sum_{v=2..n} sum_{w<=n/v} a_{vw} sum_{j in sel(h, v)} ((j . b_{vw}) / v)^p

    with b_k = weights(k), a vector of h rationals.  The selector of each v is
    enumerated once.  For each multiple the weights are scaled to integer
    numerators over their common denominator D, the p-th powers are summed
    as Python ints (numpy int64 overflows at h = 3, p = 3) and the total is
    divided once by (D v)^p.  This stays an enumeration, like `_regroup_rhs`.
    """
    rhs = Fraction(0)
    for v in range(2, n + 1):
        ks = [v * w for w in range(1, n // v + 1) if a(v * w)]
        if not ks:
            continue
        sel = _selector(h, v)
        for k in ks:
            bk = [Fraction(c) for c in weights(k)]
            den = math.lcm(*(c.denominator for c in bk))
            nums = [c.numerator * (den // c.denominator) for c in bk]
            total = sum(sum(map(mul, js, nums)) ** p for js in sel)
            rhs += a(k) * Fraction(total, (den * v) ** p)
    return rhs


def thm_5_1_check(
    a: FiniteSequence, b: FiniteSequence, x: float, n: int | None = None,
    as_printed: bool = False,
) -> tuple:
    """One-factor rearrangement (audit id thm-5.1).

    lhs = sum_{k<=n} a_k (1-exp(b_k x))/(1-exp(b_k x/k)).  The resolved right
    side groups terms by visible denominator v: the inner sum runs over
    0 < j < v with (j, v) = 1 (the 1-dimensional selector of v) and the
    exponent is b_{vw} j x / v; it is `_regroup_rhs` with weights (b_k,),
    through thm_5_10_check with h = 1.  With as_printed=True the inner sum
    is taken literally from the source display ((j, v) = 1 but 0 < j < w,
    exponent j x / w), which does not balance.
    """
    if not as_printed:
        return thm_5_10_check(a, [b], x, n)
    n = a.bound if n is None else n
    lhs = sum(a(k) * _exp_factor(b(k), x, k) for k in range(1, n + 1) if a(k))
    rhs = complex(sum(a(k) for k in range(1, n + 1)))
    for v in range(2, n + 1):
        for w in range(1, n // v + 1):
            avw = a(v * w)
            if not avw:
                continue
            bvw = b(v * w)
            inner = sum(_cexp(bvw * j * x / w) for j in range(1, w) if gcd(j, v) == 1)
            rhs += avw * inner
    return lhs, rhs


def thm_5_2_check(
    a: FiniteSequence, b: FiniteSequence, c: FiniteSequence, x: float,
    n: int | None = None,
) -> tuple:
    """Two-factor rearrangement (audit id thm-5.2): the inner sum runs over
    the 2-dimensional selector of v with exponent (b j1 + c j2) x / v; it is
    `_regroup_rhs` with weights (b_k, c_k), through thm_5_10_check."""
    return thm_5_10_check(a, [b, c], x, n)


def thm_5_8_check(
    a: FiniteSequence, b: FiniteSequence, x: float, n: int | None = None
) -> tuple:
    """Weighted one-factor rearrangement (audit id thm-5.8/eq-5.11).

    lhs = sum_k k a_k (1-exp(b_k x))/(1-exp(b_k x/k)); the right side's inner
    sum runs over the 2-dimensional selector but only j1 enters the exponent
    (the j2 count supplies the factor k): `_regroup_rhs` with weights (b_k, 0).
    """
    n = a.bound if n is None else n
    lhs = sum(k * a(k) * _exp_factor(b(k), x, k) for k in range(1, n + 1) if a(k))
    return lhs, complex(_regroup_rhs(a, lambda k: (b(k), 0), x, n, 2))


def thm_5_10_check(
    a: FiniteSequence, bs: list, x: float, n: int | None = None
) -> tuple:
    """h-factor rearrangement (audit id thm-5.10/eq-5.14); h=1 is the
    resolved thm_5_1_check and h=2 is thm_5_2_check.  The right side is
    `_regroup_rhs` with weights (b_1(k), ..., b_h(k))."""
    h = len(bs)
    if h < 1:
        raise DomainError("need at least one exponent sequence")
    n = a.bound if n is None else n
    lhs = 0.0 + 0.0j
    for k in range(1, n + 1):
        ak = a(k)
        if not ak:
            continue
        term = complex(ak)
        for b in bs:
            term *= _exp_factor(b(k), x, k)
        lhs += term
    return lhs, complex(_regroup_rhs(a, lambda k: [b(k) for b in bs], x, n, h))


# --------------------------------------------------------------------------
# the coefficient bracket of the h-factor rearrangement


def printed_t(mu: int, k: int) -> Fraction:
    """The printed bracket coefficient
    T_mu = -sum_{alpha=1..mu} C(mu, alpha) B_alpha / k^(alpha-1) (B_1 = -1/2)."""
    return -sum(
        comb(mu, alpha) * bernoulli(alpha) / Fraction(k) ** (alpha - 1)
        for alpha in range(1, mu + 1)
    )


def bracket_polynomial(h: int, m: int, k: int, bs_at_k) -> Fraction:
    """Printed bracket: coefficient of x^m in
    prod_{L=1..h} sum_{mu>=1} T_mu (b_L x)^(mu-1), T_mu = printed_t(mu, k).
    Compare with bracket_polynomial_oracle."""
    if k < 1 or m < 1 or h < 1:
        raise DomainError("h, m, k must be positive")
    bs = [Fraction(b) for b in bs_at_k]
    if len(bs) != h:
        raise DomainError("need one b value per factor")
    ts = [printed_t(mu, k) for mu in range(1, m + 2)]
    # factor L has coefficient T_{j+1} * b_L^j at x^j
    polys = [[ts[j] * b**j for j in range(m + 1)] for b in bs]
    return _poly_product_coeff(polys, m)


def bracket_polynomial_oracle(h: int, m: int, k: int, bs_at_k) -> Fraction:
    """The bracket that actually balances the h-factor rearrangement:
    m! times the coefficient of x^m in prod_L sum_{A=0}^{k-1} exp(b_L A x / k).

    Factor L has x^j coefficient b_L^j * (sum_{A<k} A^j) / (j! k^j).
    """
    if k < 1 or m < 1 or h < 1:
        raise DomainError("h, m, k must be positive")
    bs = [Fraction(b) for b in bs_at_k]
    if len(bs) != h:
        raise DomainError("need one b value per factor")
    if k == 1:
        return Fraction(0)
    power_sums = [faulhaber_sum(j, k) for j in range(m + 1)]
    polys = [
        [b**j * power_sums[j] / (math.factorial(j) * Fraction(k) ** j)
         for j in range(m + 1)]
        for b in bs
    ]
    return _poly_product_coeff(polys, m) * math.factorial(m)


def _poly_product_coeff(polys: list, m: int) -> Fraction:
    acc = [Fraction(0)] * (m + 1)
    acc[0] = Fraction(1)
    for p in polys:
        nxt = [Fraction(0)] * (m + 1)
        for i, ai in enumerate(acc):
            if not ai:
                continue
            for j in range(m + 1 - i):
                nxt[i + j] += ai * p[j]
        acc = nxt
    return acc[m]


def cor_5_11_check(a: FiniteSequence, bs: list, m: int) -> tuple:
    """The m-th order bracket identity of the h-factor rearrangement (audit
    id cor-5.11), exact, with the bracket that balances it:

        sum_k a_k bracket_polynomial_oracle(h, m, k, b(k))
        = sum_{v>=2} sum_w a_{vw} sum_{j in sel(h, v)} ((j . b_{vw}) / v)^m,

    where bs lists the h exponent sequences; the right side is
    `_regroup_power` with weights (b_1(k), ..., b_h(k)) and p = m.
    """
    h, n = len(bs), a.bound
    lhs = sum(
        a(k) * bracket_polynomial_oracle(h, m, k, [b(k) for b in bs])
        for k in range(1, n + 1)
        if a(k)
    )
    rhs = _regroup_power(a, lambda k: [b(k) for b in bs], n, h, m)
    return Fraction(lhs), rhs


# --------------------------------------------------------------------------
# the trivariate visible-point product (cor-5.3)


def cor_5_3_check(x: float, y: float, z: float, c_max: int) -> tuple:
    """Truncated visible-point product against its closed form (cor-5.3).

    lhs = product over visible (a, b, c), 0 <= a, b < c <= c_max, of
    (1 - x^a y^b z^c)^(-1/c); rhs = [(1-xz)(1-yz)/((1-z)(1-xyz))]
    raised to 1/((1-x)(1-y)).  Truncation error decays like |z|^c_max.
    """
    for name, v in (("x", x), ("xz", x * z), ("yz", y * z),
                    ("xyz", x * y * z), ("z", z)):
        if abs(v) >= 1.0:
            raise DomainError(f"|{name}| must be < 1")
    log_lhs = 0.0
    for c in range(1, c_max + 1):
        for a in range(c):
            for b in range(c):
                if math.gcd(a, b, c) != 1:
                    continue
                log_lhs -= math.log(1.0 - x**a * y**b * z**c) / c
    base = (1.0 - x * z) * (1.0 - y * z) / ((1.0 - z) * (1.0 - x * y * z))
    log_rhs = math.log(base) / ((1.0 - x) * (1.0 - y))
    return math.exp(log_lhs), math.exp(log_rhs)


# --------------------------------------------------------------------------
# exact rational identities: Jordan-weighted partial sums


def thm_5_5_check(a: FiniteSequence, m: int, n: int | None = None) -> tuple:
    """sum_{k<=n} a_k k^m versus sum_j J_m(j) (sum_{k<=n/j} a_{jk}), exact
    rationals (audit ids eq-5.4 and eq-5.6; J_m(1) = 1 absorbs the lead term)."""
    n = a.bound if n is None else n
    lhs = sum(a(k) * Fraction(k) ** m for k in range(1, n + 1))
    rhs = sum(
        jordan(m, j) * sum(a(j * k) for k in range(1, n // j + 1))
        for j in range(1, n + 1)
    )
    return Fraction(lhs), Fraction(rhs)


def eq_5_5_check(n: int) -> tuple:
    """n(n+1)(2n+1)/6 versus n + sum_{j>=2} [n/j] J_2(j) (audit id eq-5.5)."""
    lhs = Fraction(n * (n + 1) * (2 * n + 1), 6)
    rhs = n + sum((n // j) * jordan(2, j) for j in range(2, n + 1))
    return lhs, Fraction(rhs)


def eq_5_7_check(m: int, n: int) -> tuple:
    """n versus sum_j (J_m(j)/j^m) sum_{k<=n/j} k^(-m), exact (audit id eq-5.7)."""
    lhs = Fraction(n)
    rhs = sum(
        Fraction(jordan(m, j), j**m)
        * sum(Fraction(1, k**m) for k in range(1, n // j + 1))
        for j in range(1, n + 1)
    )
    return lhs, rhs


def eq_5_8_check(m: int, a: int, n: int) -> tuple:
    """sum k^a versus sum_j (J_m(j)/j^(m-a)) sum_{k<=n/j} k^(a-m) (eq-5.8)."""
    lhs = Fraction(sum(k**a for k in range(1, n + 1)))
    rhs = sum(
        jordan(m, j) * Fraction(j) ** (a - m)
        * sum(Fraction(k) ** (a - m) for k in range(1, n // j + 1))
        for j in range(1, n + 1)
    )
    return lhs, rhs


def eq_5_9_check(m: int, n: int) -> tuple:
    """sum_{k<=n} k^m versus n + sum_{j>=2} [n/j] J_m(j) (audit id eq-5.9)."""
    lhs = Fraction(sum(k**m for k in range(1, n + 1)))
    rhs = n + sum((n // j) * jordan(m, j) for j in range(2, n + 1))
    return lhs, Fraction(rhs)


def cor_5_7_check(m: int, n: int, z: Fraction, as_printed: bool = True) -> tuple:
    """sum_{k<=n} z^k k^m against the Jordan-weighted geometric sums
    (audit id cor-5.7/eq-5.10).

    As printed the right side is (1-z^n)/(1-z) + sum_j J_m(j)
    (1-z^(j[n/j]))/(1-z^j), whose geometric blocks start at z^0; the
    corrected form carries the missing leading factors z and z^j.
    """
    z = Fraction(z)
    if z == 1:
        raise DomainError("z = 1 makes the geometric denominators vanish")
    lhs = sum(z**k * Fraction(k) ** m for k in range(1, n + 1))
    lead = (1 - z**n) / (1 - z)
    rhs = lead if as_printed else z * lead
    for j in range(2, n + 1):
        block = (1 - z ** (j * (n // j))) / (1 - z**j)
        rhs += jordan(m, j) * (block if as_printed else z**j * block)
    return Fraction(lhs), Fraction(rhs)


# --------------------------------------------------------------------------
# exact grid-power identities (eq-4.1..4.4, eq-4.7, eq-4.9)


def _grid_weighted_sum(c: int, k: int, x: Fraction, y: Fraction) -> Fraction:
    """sum over 0 <= A, B < k, (A,B) != (0,0), of (A x + B y)^c, exact.

    Expands by the binomial theorem into products of power sums; the excluded
    origin term is 0 for c >= 1.
    """
    if c < 1:
        raise DomainError("c must be >= 1")
    power = [faulhaber_sum(j, k) for j in range(c + 1)]
    return sum(
        comb(c, i) * x**i * y ** (c - i) * power[i] * power[c - i]
        for i in range(c + 1)
    )


def grid_power_identity_check(
    c: int, a: FiniteSequence, x: Fraction, y: Fraction
) -> tuple:
    """Exact check of the grid-power rearrangement (audit ids eq-4.1..4.3,
    eq-4.7; c = 0 is eq-4.4).

    c >= 1:  sum_k a_k k^(-c) sum_grid (A x + B y)^c
           = sum_{v>=2} (S_v / v^c) sum_selector (j1 x + j2 y)^c,
             the right side being `_regroup_power` with weights (x, y), p = c.
    c = 0:   sum_k k^2 a_k = S_1 + sum_{v>=2} S_v J_2(v).
    """
    n = a.bound
    x, y = Fraction(x), Fraction(y)
    if c == 0:
        lhs = sum(a(k) * k * k for k in range(1, n + 1))
        rhs = a.tail(1) + sum(a.tail(v) * jordan(2, v) for v in range(2, n + 1))
        return Fraction(lhs), Fraction(rhs)
    lhs = sum(
        a(k) * _grid_weighted_sum(c, k, x, y) / Fraction(k) ** c
        for k in range(1, n + 1)
        if a(k)
    )
    return Fraction(lhs), _regroup_power(a, lambda k: (x, y), n, 2, c)


def phi_weight_identity_check(t: int, m: int, a: FiniteSequence) -> tuple:
    """sum_k k^m a_k versus S_1 + sum_v S_v phi_t(m; v) (audit id eq-4.9).

    True for t = 0 (Jordan weights); audited for t >= 1, where the printed
    claim of t-independence fails.
    """
    n = a.bound
    lhs = sum(a(k) * Fraction(k) ** m for k in range(1, n + 1))
    rhs = a.tail(1) + sum(a.tail(v) * phi_t(t, m, v) for v in range(2, n + 1))
    return Fraction(lhs), Fraction(rhs)


# --------------------------------------------------------------------------
# the h = 2 bracket corollaries (cor-5.12..cor-5.15)


def _q1(k: int, b1: Fraction, b2: Fraction) -> Fraction:
    return Fraction(k * (k - 1), 2) * (b1 + b2)


def _q2(k: int, b1: Fraction, b2: Fraction) -> Fraction:
    quad = Fraction(k * k, 3) - Fraction(k, 2) + Fraction(1, 6)
    return quad * (b1 * b1 + b2 * b2) + Fraction((k - 1) ** 2, 2) * b1 * b2


def cor_5_12_check(
    a: FiniteSequence, b1: FiniteSequence, b2: FiniteSequence,
    as_printed: bool = True,
) -> tuple:
    """First-order two-factor bracket identity (audit id cor-5.12).

    rhs = sum_v (1/v) sum_w a_{vw} sum_selector (b1 j1 + b2 j2), which is
    `_regroup_power` with weights (b1_k, b2_k) and p = 1.  The printed left
    side (1/3) sum (1/k) a_k b1_k does not balance it; the corrected left
    side is sum a_k (k(k-1)/2)(b1_k + b2_k).
    """
    n = a.bound
    if as_printed:
        lhs = Fraction(1, 3) * sum(
            Fraction(a(k), 1) * Fraction(b1(k)) / k for k in range(1, n + 1)
        )
    else:
        lhs = sum(a(k) * _q1(k, Fraction(b1(k)), Fraction(b2(k)))
                  for k in range(1, n + 1))
    return Fraction(lhs), _regroup_power(a, lambda k: (b1(k), b2(k)), n, 2, 1)


def cor_5_13_check(
    a: FiniteSequence, b1: FiniteSequence, b2: FiniteSequence,
    as_printed: bool = True,
) -> tuple:
    """Second-order two-factor bracket identity (audit id cor-5.13).

    Corrected: sum a_k Q2(k) = sum_v (1/v^2) sum_w a_{vw}
    sum_selector (b1 j1 + b2 j2)^2.  As printed the left side is Q2/4 and the
    right side repeats cor-5.12's first-power sum with weight 1/v.  Either
    right side is `_regroup_power` with weights (b1_k, b2_k), p = 1 as
    printed and p = 2 corrected.
    """
    n = a.bound
    rhs = _regroup_power(a, lambda k: (b1(k), b2(k)), n, 2, 1 if as_printed else 2)
    if as_printed:
        lhs = Fraction(1, 2) * sum(
            a(k)
            * (
                (Fraction(k * k, 6) - Fraction(k, 4) + Fraction(1, 12))
                * (Fraction(b1(k)) ** 2 + Fraction(b2(k)) ** 2)
                + Fraction((k - 1) ** 2, 4) * Fraction(b1(k)) * Fraction(b2(k))
            )
            for k in range(1, n + 1)
        )
    else:
        lhs = sum(a(k) * _q2(k, Fraction(b1(k)), Fraction(b2(k)))
                  for k in range(1, n + 1))
    return Fraction(lhs), rhs


def _phi_u(t: int, v: int) -> Fraction:
    """Selector sum of (j1 + j2)^t for modulus v (0 for v = 1)."""
    return Fraction(0) if v == 1 else Fraction(unnormalized_phi(t, 2, v))


def cor_5_14_check(t: int, a: FiniteSequence, as_printed: bool = True) -> tuple:
    """Totient-weighted partial-sum identities (audit ids cor-5.14a, t=1,
    and cor-5.14b, t=2).

    t=1 (printed, balances): sum a_k k(k-1) = sum_v (1/v) phi1u(v) sum_w a_{vw}
    with phi1u(v) = selector sum of (j1+j2).
    t=2 printed: sum a_k ((7/12)k^2 - k + 5/12) = sum_v (1/v) phi2u(v) ... ;
    corrected: sum a_k ((7/6)k^2 - 2k + 5/6) = sum_v (1/v^2) phi2u(v) ... .
    """
    if t not in (1, 2):
        raise DomainError("t must be 1 or 2")
    n = a.bound
    if t == 1:
        lhs = sum(a(k) * Fraction(k * (k - 1)) for k in range(1, n + 1))
        rhs = sum(
            _phi_u(1, v) / v * sum(a(v * w) for w in range(1, n // v + 1))
            for v in range(2, n + 1)
        )
        return Fraction(lhs), Fraction(rhs)
    if as_printed:
        lhs = sum(
            a(k) * (Fraction(7, 12) * k * k - k + Fraction(5, 12))
            for k in range(1, n + 1)
        )
        rhs = sum(
            _phi_u(2, v) / v * sum(a(v * w) for w in range(1, n // v + 1))
            for v in range(2, n + 1)
        )
    else:
        lhs = sum(
            a(k) * (Fraction(7, 6) * k * k - 2 * k + Fraction(5, 6))
            for k in range(1, n + 1)
        )
        rhs = sum(
            _phi_u(2, v) / v**2 * sum(a(v * w) for w in range(1, n // v + 1))
            for v in range(2, n + 1)
        )
    return Fraction(lhs), Fraction(rhs)


def cor_5_15_check(display: str, n: int, as_printed: bool = True) -> tuple:
    """The four closed partial-sum displays (audit ids cor-5.15a..d).

    a: sum k(k-1) = sum (1/v) phi1u(v) [n/v]  (balances as printed).
    b: printed with (7/12)k^2 - k + 5/12 and 1/v weights; corrected uses
       (7/6)k^2 - 2k + 5/6 and 1/v^2.
    c: printed repeats display a's left side against triangular-number
       weights; corrected left side is sum k^2 (k-1) with weights
       phi1u(v) [n/v]([n/v]+1)/2.
    d: cubic analogue of c for t = 2.
    """
    if display not in "abcd" or len(display) != 1:
        raise DomainError("display must be one of 'a', 'b', 'c', 'd'")
    ks = range(1, n + 1)
    vs = range(2, n + 1)
    if display == "a":
        lhs = Fraction(sum(k * (k - 1) for k in ks))
        rhs = sum(_phi_u(1, v) / v * (n // v) for v in vs)
        return lhs, Fraction(rhs)
    if display == "b":
        if as_printed:
            lhs = sum(Fraction(7, 12) * k * k - k + Fraction(5, 12) for k in ks)
            rhs = sum(_phi_u(2, v) / v * (n // v) for v in vs)
        else:
            lhs = sum(Fraction(7, 6) * k * k - 2 * k + Fraction(5, 6) for k in ks)
            rhs = sum(_phi_u(2, v) / v**2 * (n // v) for v in vs)
        return Fraction(lhs), Fraction(rhs)

    def tri(v: int) -> Fraction:
        q = n // v
        return Fraction(q * (q + 1), 2)

    if display == "c":
        if as_printed:
            lhs = Fraction(sum(k * (k - 1) for k in ks))
            rhs = sum(_phi_u(1, v) / v * 2 * tri(v) for v in vs)
        else:
            lhs = Fraction(sum(k * k * (k - 1) for k in ks))
            rhs = sum(_phi_u(1, v) * tri(v) for v in vs)
        return Fraction(lhs), Fraction(rhs)
    if as_printed:
        lhs = sum(k * (Fraction(7, 12) * k * k - k + Fraction(5, 12)) for k in ks)
        rhs = sum(_phi_u(2, v) / v * 2 * tri(v) for v in vs)
    else:
        lhs = sum(k * (Fraction(7, 6) * k * k - 2 * k + Fraction(5, 6)) for k in ks)
        rhs = sum(_phi_u(2, v) / v * tri(v) for v in vs)
    return Fraction(lhs), Fraction(rhs)


def cor_5_16_check(which: str, n_max: int, reading: str = "unnormalized"):
    """Coefficient-level audit of the Dirichlet displays (cor-5.16a/b).

    Multiplying both sides by the zeta factor reduces each display to a
    divisor-sum law; this returns (ok, counterexample) where the
    counterexample is (n, lhs_coeff, rhs_coeff) at the first mismatch.

    which='a': needs sum_{d|n} w(d) = n^2 - n with w(d) = phi1u(d)/d under
    the unnormalized reading (true: w = J2 - J1) or phi1u(d)/d^2 under the
    normalized one (fails).
    which='b': needs sum_{d|n} 12 w(d) = 7n^3 - 12n^2 + 5n with
    w(d) = phi2u(d)/d^2 (normalized) or phi2u(d)/d (unnormalized); both fail.
    """
    if which not in ("a", "b"):
        raise DomainError("which must be 'a' or 'b'")
    if reading not in ("unnormalized", "normalized"):
        raise DomainError("reading must be 'unnormalized' or 'normalized'")
    for n in range(1, n_max + 1):
        if which == "a":
            shift = 1 if reading == "unnormalized" else 2
            got = sum(_phi_u(1, d) / Fraction(d) ** shift for d in divisors(n))
            want = Fraction(n * n - n)
        else:
            shift = 1 if reading == "unnormalized" else 2
            got = sum(12 * _phi_u(2, d) / Fraction(d) ** shift for d in divisors(n))
            want = Fraction(7 * n**3 - 12 * n**2 + 5 * n)
        if got != want:
            return False, (n, got, want)
    return True, None


def cor_5_17_check(which: str, order: int, reading: str = "printed") -> tuple:
    """Infinite-product displays as exact power series (cor-5.17a/b).

    which='a': product over k of (1-z^k)^(-e_k); printed e_k = phi1u(k)/k^2
    with right side exp(z/(1-z)^2); the corrected right side is
    exp(z^2/(1-z)^2).
    which='b': printed e_k = phi2u(k)/k^2 with right side
    (1-z)^(-5/12) exp(z(12z-5)/(12(1-z)^2)); corrected uses e_k =
    phi2u(k)/k^3 and (1-z)^(-5/6) exp(z(12z-5)/(6(1-z)^2)).
    Returns the two series truncated to `order`.
    """
    if which not in ("a", "b"):
        raise DomainError("which must be 'a' or 'b'")
    if reading not in ("printed", "corrected"):
        raise DomainError("reading must be 'printed' or 'corrected'")
    shift = 2 if (which == "a" or reading == "printed") else 3
    t = 1 if which == "a" else 2
    log_lhs = zero(order)
    for k in range(2, order + 1):
        e = _phi_u(t, k) / Fraction(k) ** shift
        if e:
            log_lhs = log_lhs - log_one_minus_z_pow(k, order).scale(e)
    lhs = ps_exp(log_lhs)

    z = monomial(1, 1, order)
    inv1z2 = ps_mul(geometric(order), geometric(order))
    if which == "a":
        num = z if reading == "printed" else ps_mul(z, z)
        rhs = ps_exp(ps_mul(num, inv1z2))
    else:
        den = 12 if reading == "printed" else 6
        linear = PowerSeries(
            (Fraction(-5, den), Fraction(12, den)) + (Fraction(0),) * (order - 1)
        )
        rhs = ps_exp(ps_mul(ps_mul(z, linear), inv1z2))
        log1z = log_one_minus_z_pow(1, order)
        rhs = ps_mul(rhs, ps_exp(log1z.scale(Fraction(-5, den))))
    return lhs, rhs


def cor_5_9_check(x: Fraction, order: int, reading: str = "derived") -> tuple:
    """The mixed-variable product identity as exact z-series (cor-5.9).

    rhs = exp{(1/(1-x)) (z/(1-z) - xz/(1-xz))} for rational x.
    reading='derived': lhs = 1/(1-z) times the double product over v >= 2 and
    m in [0, v) of (1 - x^m z^v)^(-mphi(m,v)/v) — this balances.
    reading='printed-halfopen' / 'printed-closed': the single product over
    k >= 1 at fixed m = 1 with half-open or closed residue ranges; neither
    balances.
    Each factor starts at z^v, so order-limited truncation is exact.
    """
    x = Fraction(x)
    if x == 1:
        raise DomainError("x = 1 makes the right side undefined")
    readings = ("derived", "printed-halfopen", "printed-closed")
    if reading not in readings:
        raise DomainError(f"reading must be one of {readings}")

    def log_factor(m: int, v: int, count: int) -> PowerSeries:
        # -count/v * log(1 - x^m z^v) as a z-series
        coeffs = [Fraction(0)] * (order + 1)
        j = 1
        while j * v <= order:
            coeffs[j * v] += Fraction(count, v) * x ** (m * j) / j
            j += 1
        return PowerSeries(tuple(coeffs))

    log_lhs = zero(order)
    if reading == "derived":
        log_lhs = log_lhs - log_one_minus_z_pow(1, order)  # the 1/(1-z) factor
        for v in range(2, order + 1):
            for m in range(v):
                cnt = m_phi(m, v)
                if cnt:
                    log_lhs = log_lhs + log_factor(m, v, cnt)
    else:
        closed = reading == "printed-closed"
        for v in range(1, order + 1):
            cnt = _m_phi_closed(1, v) if closed else m_phi(1, v)
            if cnt:
                log_lhs = log_lhs + log_factor(1, v, cnt)
    lhs = ps_exp(log_lhs)

    rhs_exp = [Fraction(0)] * (order + 1)
    pref = 1 / (1 - x)
    for j in range(1, order + 1):
        rhs_exp[j] = pref * (1 - x**j)
    rhs = ps_exp(PowerSeries(tuple(rhs_exp)))
    return lhs, rhs


def _m_phi_closed(m_fixed: int, k: int) -> int:
    """Count of (a, m_fixed, k) = 1 with 0 <= a <= k and a + m_fixed != 0,
    the closed-range reading of the residue condition."""
    return sum(
        1
        for a in range(0, k + 1)
        if gcd(gcd(a, m_fixed), k) == 1 and a + m_fixed != 0
    )


# --------------------------------------------------------------------------
# the hyperpyramid product (eq-4.16)


def hyperpyramid_log_check(xs, bs, cutoff: int) -> tuple:
    """Matched-index check of the hyperpyramid product (audit id eq-4.16),
    restricted to real 0 < x_i < 1 and rational b_i with sum(b_i) = 1.

    lhs = sum over visible points (a_1..a_n), all a_i >= 1,
    a_1..a_{n-1} < a_n <= cutoff, of the log-series terms
    sum_{l <= cutoff/a_n} (1/l) (prod x_i^(a_i))^l / prod a_i^(b_i);
    rhs = sum_{k<=cutoff} prod_{i<n} (sum_{j=1}^{k-1} x_i^j / j^(b_i))
    x_n^k / k^(b_n).  The index bijection (j_i, k) = l (a_i, a_n) makes the
    two truncations cover the identical set, so they agree to rounding.

    Points with a coordinate equal to 0 are excluded: 0^(b_i) is undefined
    for fractional b_i, and no right-side term maps to such a point.
    """
    xs = [float(v) for v in xs]
    bs = [Fraction(v) for v in bs]
    if len(xs) != len(bs):
        raise DomainError("need one exponent b_i per variable x_i")
    if any(not 0.0 < v < 1.0 for v in xs):
        raise DomainError("each x_i must lie in (0, 1)")
    if sum(bs) != 1:
        raise DomainError("the exponents b_i must sum to 1")
    n = len(xs)
    bsf = [float(v) for v in bs]

    lhs = 0.0
    for pt in _hyperpyramid_visible(n, cutoff):
        xpow = math.prod(v**a for v, a in zip(xs, pt))
        weight = math.prod(float(a) ** b for a, b in zip(pt, bsf))
        term = 0.0
        p = 1.0
        for ell in range(1, cutoff // pt[-1] + 1):
            p *= xpow
            term += p / ell
        lhs += term / weight

    rhs = 0.0
    for k in range(1, cutoff + 1):
        term = xs[-1] ** k / float(k) ** bsf[-1]
        for i in range(n - 1):
            term *= sum(xs[i] ** j / float(j) ** bsf[i] for j in range(1, k))
        rhs += term
    return lhs, rhs


def _hyperpyramid_visible(n: int, cutoff: int):
    """Visible points with all coordinates >= 1 and a_1..a_{n-1} < a_n <= cutoff:
    for each apex a_n, the (n-1)-dimensional selector tuples of a_n with no
    zero coordinate."""
    if n == 1:
        return [(1,)] if cutoff >= 1 else []
    return [
        js + (an,)
        for an in range(2, cutoff + 1)
        for js in _selector(n - 1, an)
        if all(js)
    ]
