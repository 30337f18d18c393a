"""Visible-point enumeration and finite lattice-rearrangement identities.

A lattice point is *visible* (from the origin) when the gcd of its
coordinates is 1; every nonzero lattice point in a radial region is a unique
positive multiple of a visible point.  That bijection turns sums over a grid
index k into sums over visible denominators v with tail weights
S_v = sum_{j>=1} a_{jv}, and every check in this module is an instance of it
evaluated with finitely supported sequences, so both sides are finite and
(where the inputs are rational) exact.

Each family of displays is one function.  The floating-point
rearrangements (lemma 3.2 and theorems 5.1, 5.2, 5.8 and 5.10) are calls of
`_exp_regroup(a, f, weights, h, x)`, the left factors f of each term (its
exact coefficient first) against a sum of exponentials over each selector
(`_regroup_rhs`); each check passes only its factors and the weights of its
exponentials, and the printed thm-5.1 reading is audit-registry data.  The
exact grid-power identities (eq-4.2, eq-4.3, eq-4.7) and bracket corollaries
(cor-5.11..5.13) are one function, `power_regroup_check(a, f, weights, h, p)`,
a left factor f against a sum of rational p-th powers over each selector; the
audit registry passes each display's f, weights and p, printed and corrected
forms alike.  Both right sides are one loop over the visible denominators,
`_visible_regroup`, which takes each selector once as the (N, h) int64 array
that `enumerate_selector(...).array` exposes; cor-5.3 iterates the same
selector's rows, and eq-4.16 reads the visible points of a hyperpyramid.
The brackets themselves are registry data: every bracket display reads one
oracle bracket, a full-grid power sum, and the registry holds the printed
T-coefficients beside it, so this module has no bracket code.

The exact displays that need no selector, only the tails S_v and a weight
w(v), are one function, `weighted_regroup_check(a, f, w)`: the Jordan- and
phi_t-weighted sums of eq-4.4, eq-4.9, eq-4.10, eq-5.4..5.10 and
cor-5.14..5.15 are each a sequence a, a left factor f and a weight w, passed
in by the audit registry, printed and corrected forms alike.  The terms are
scaled once to integers over their common denominator, so every tail is a
Python-int sum.  Such a display balances for every a exactly when
f(k) = sum_{d|k} w(d), the divisor law that the registry checks for
eq-4.10, eq-4.11 and cor-5.16.

The exact z-series product displays (eq-2.5, eq-4.13, eq-4.15, cor-5.9,
cor-5.17a/b) are audit registry data, each side an exponent series or a
product over (1 - z^k) evaluated by the series module; vpv has no series code.

Function names carry the audit-registry ids they certify (thm-5.1,
cor-5.3, ...); the registry module maps those ids to statuses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

from . import _kernels
from .errors import DomainError, ResourceError
from .totients import (
    DEFAULT_SELECTOR_CAP,
    LatticeSelector,
    enumerate_selector,
)

__all__ = [
    "FiniteSequence",
    "RadialRegion",
    "visible_points",
    "visible_count",
    "multiples_partition_check",
    "lemma_3_2_check",
    "thm_5_1_check",
    "thm_5_2_check",
    "thm_5_8_check",
    "thm_5_10_check",
    "cor_5_3_check",
    "weighted_regroup_check",
    "power_regroup_check",
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


_REGION_CONSTRAINTS = ("box", "hyperpyramid")

# the visible points of a box are read from one numpy boolean mask with an
# axis per dimension, and numpy arrays have at most 64 axes
MAX_BOX_DIMS = 64


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

    def _check_size(self) -> None:
        """Raise ResourceError, before any point is built, when points() would
        build more than the cap: prod b_i for a box; for a hyperpyramid the sum
        over a <= b_d of prod_{i<d} min(b_i + 1, a), constant once a > every
        b_i and stopped once past the cap, so a refusal gives a lower bound."""
        *lead, top = self.bounds
        if self.constraint == "box":
            size, least = math.prod(self.bounds), ""
        else:
            flat, least = min(top, max(lead, default=0) + 1), "at least "
            size = (top - flat) * math.prod(b + 1 for b in lead)
            for a in range(1, flat + 1):
                size += math.prod(min(b + 1, a) for b in lead)
                if size > DEFAULT_SELECTOR_CAP:
                    break
        if size > DEFAULT_SELECTOR_CAP:
            raise ResourceError(f"lattice size {least}{size} exceeds cap {DEFAULT_SELECTOR_CAP}")

    def points(self):
        """All lattice points of the region: lexicographic for a box; for a
        hyperpyramid, by apex coordinate a_d, lexicographic within an apex."""
        self._check_size()
        *lead, top = self.bounds
        if self.constraint == "box":
            return list(product(*(range(1, b + 1) for b in self.bounds)))
        return [p for a in range(1, top + 1)
                for p in product(*(range(min(b + 1, a)) for b in lead), (a,))]


def _box_bounds(region: RadialRegion) -> tuple:
    """The bounds of a box region, refused past the axis and size caps."""
    if region.dims > MAX_BOX_DIMS:
        raise ResourceError(f"a box of {region.dims} axes exceeds {MAX_BOX_DIMS}")
    region._check_size()
    return region.bounds


def visible_points(region: RadialRegion) -> list:
    """Lattice points of the region with coordinate gcd 1, in the order of
    `RadialRegion.points`."""
    if region.constraint == "box":
        return _kernels.visible_points_box(_box_bounds(region))
    return [p for p in region.points() if math.gcd(*p) == 1]


def visible_count(region: RadialRegion) -> int:
    """len(visible_points(region)); a box is counted on its sieved mask, with
    no point built."""
    if region.constraint == "box":
        return _kernels.visible_count_box(_box_bounds(region))
    return len(visible_points(region))


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
# the float rearrangements: lemma 3.2 and the exponential-factor theorems


def _real(c) -> float:
    """float(c); an int or Fraction as numerator / denominator, the same
    correctly rounded int division that float(Fraction) does, without its
    Python-level wrapper.  Floats, numpy floats included, keep float()."""
    if isinstance(c, (int, Fraction)):
        return c.numerator / c.denominator
    return float(c)


def _exp_factor(b, x: float, k: int) -> complex:
    """(1 - exp(b x)) / (1 - exp(b x / k)) evaluated as written."""
    bf = _real(b)
    den = 1.0 - cmath.exp(bf * x / k)
    if abs(den) < 1e-13:
        raise DomainError(f"vanishing denominator: exp({b}*{x}/{k}) = 1")
    return (1.0 - cmath.exp(bf * x)) / den


def _exp_regroup(a: FiniteSequence, f, weights, h: int, x) -> tuple:
    """Both sides of the float visible-point rearrangement

        sum_k f_0(k) f_1(k) ...
        = S_1 + sum_{v>=2} sum_{w<=n/v} a_{vw} sum_{j in sel(h, v)} exp((j . b_{vw}) x / v)

    with f(k) the factors of the k-th term, f_0(k) its exact coefficient
    (a_k, or k a_k for thm-5.8), and b_k = weights(k), a vector of h
    numbers.  The left side runs over the support of a in k order where
    a_k != 0, as float(f_0(k)) times each further factor, left to right; the
    right side is `_regroup_rhs`.  Returns (lhs, rhs) as complex numbers.
    """
    if h < 1:
        raise DomainError("need at least one exponent sequence")
    lhs = 0j
    for k, ak in sorted(a.support.items()):
        if ak:
            first, *rest = f(k)
            term = _real(first)
            for g in rest:
                term *= g
            lhs += term
    return lhs, complex(_regroup_rhs(a, weights, x, h))


def _regroup_rhs(a: FiniteSequence, weights, x, h: int):
    """The right side of `_exp_regroup`, with n = a.bound,
    S_1 = a_1 + ... + a_n and b_k = weights(k), h numbers.  The support of a
    is read once, in k order.  For rational terms S_1 is one Python-int sum
    of numerators over the lcm D of the denominators (`_over_lcm`), divided
    once by D (the float of the exact sum); float terms are added in k
    order.  a_k and b_k are converted to floats once (`_real`), for the
    k >= 2 with a_k != 0, and `_visible_regroup` adds the selector sums of
    `_exp_kernel(x)` onto S_1.
    """
    terms = [(k, c) for k, c in sorted(a.support.items()) if c]
    vals = [c for _, c in terms]
    if all(isinstance(c, (int, Fraction)) for c in vals):
        den, nums = _over_lcm(vals)
        rhs = sum(nums) / den
    else:
        rhs = float(sum(vals))
    terms = [(k, c) for k, c in terms if k >= 2]
    coef = np.array([_real(c) for _, c in terms])
    rows = np.array([[_real(c) for c in weights(k)] for k, _ in terms])
    return _visible_regroup(a.bound, [k for k, _ in terms], coef, rows, h, rhs,
                            _exp_kernel(x))


def _exp_kernel(x):
    """The float kernel of `_visible_regroup`: c against the sums over the
    selector of exp(dots x / v), one for each column of dots."""
    return lambda c, dots, v: c @ np.exp(dots * (x / v)).sum(axis=0)


def _visible_regroup(n: int, ks: list, coef, rows, h: int, total, kernel):
    """total plus kernel(c, dots, v) for each v = 2..n with a multiple among
    the distinct indices ks (all >= 2): c holds those multiples' coefficients
    coef[i] and dots the products js @ rows[i].T of the selector array js
    with their rows of h weights.  Each point A != 0 of the grid [0, k)^h is (k / v) j for
    exactly one divisor v of k and one j in sel(h, v), so this regroups the
    grid sums of every k by v.  The selector of each v is enumerated once, as
    an (N, h) int64 array, and all of v's multiples share one matrix product.
    This stays an enumeration: factoring the selector sum by Moebius
    inversion would make the checks circular.
    """
    pos = {k: i for i, k in enumerate(ks)}
    for v in range(2, n + 1):
        at = [pos[k] for k in range(v, n + 1, v) if k in pos]
        if at:
            # the selector array and dot products stay temporaries, freed before
            # the next v's: bound to names, two of each would be held at once
            sel = LatticeSelector(h, v)
            total += kernel(coef[at], enumerate_selector(sel).array @ rows[at].T, v)
    return total


def lemma_3_2_check(a: FiniteSequence, q) -> tuple:
    """Both sides of the m-factor rearrangement with q_h^(1/k) radicals
    (audit ids eq-3.1..3.4, eq-4.1):

        sum_k a_k prod_h (1-q_h)/(1-q_h^(1/k))
        = S_1 + sum_{k>=2} S_k * sum over the selector of prod_h q_h^(j_h/k),

    equal for any finitely supported a; returns (lhs, rhs) as floats.  It is
    `_exp_regroup` with weights log q_h at every k and x = 1, since
    prod_h q_h^(j_h/k) = exp((j . log q) / k).
    """
    q = [float(v) for v in q]
    if any(not 0.0 < v < 1.0 for v in q):
        raise DomainError("each q_h must lie in (0, 1)")
    logq = [math.log(v) for v in q]
    lhs, rhs = _exp_regroup(
        a, lambda k: [a(k), *((1.0 - v) / (1.0 - v ** (1.0 / k)) for v in q)],
        lambda k: logq, len(q), 1.0,
    )
    return lhs.real, rhs.real


def thm_5_1_check(a: FiniteSequence, b: FiniteSequence, x: float) -> tuple:
    """One-factor rearrangement (audit id thm-5.1), resolved reading:
    lhs = sum_k a_k (1-exp(b_k x))/(1-exp(b_k x/k)), and the right side's
    inner sum runs over 0 < j < v with (j, v) = 1 (the 1-dimensional
    selector of v) with exponent b_{vw} j x / v.  It is thm_5_10_check with
    h = 1; the printed reading is registry data."""
    return thm_5_10_check(a, [b], x)


def thm_5_2_check(
    a: FiniteSequence, b: FiniteSequence, c: FiniteSequence, x: float
) -> tuple:
    """Two-factor rearrangement (audit id thm-5.2): the inner sum runs over
    the 2-dimensional selector of v with exponent (b j1 + c j2) x / v; it is
    thm_5_10_check with h = 2."""
    return thm_5_10_check(a, [b, c], x)


def thm_5_8_check(a: FiniteSequence, b: FiniteSequence, x: float) -> tuple:
    """Weighted one-factor rearrangement (audit id thm-5.8/eq-5.11):
    lhs = sum_k k a_k (1-exp(b_k x))/(1-exp(b_k x/k)); the right side's inner
    sum runs over the 2-dimensional selector but only j1 enters the exponent
    (the j2 count supplies the factor k): `_exp_regroup` with coefficient
    k a_k and weights (b_k, 0)."""
    return _exp_regroup(
        a, lambda k: (k * a(k), _exp_factor(b(k), x, k)), lambda k: (b(k), 0), 2, x
    )


def thm_5_10_check(a: FiniteSequence, bs: list, x: float) -> tuple:
    """h-factor rearrangement (audit id thm-5.10/eq-5.14), h = len(bs):
    lhs = sum_k a_k prod_L (1-exp(b_L(k) x))/(1-exp(b_L(k) x/k)), and the
    right side is `_exp_regroup` with weights (b_1(k), ..., b_h(k))."""
    return _exp_regroup(
        a, lambda k: [a(k), *(_exp_factor(b(k), x, k) for b in bs)],
        lambda k: [b(k) for b in bs], len(bs), x,
    )


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
    if c_max < 1:
        raise DomainError(f"c_max must be >= 1, got {c_max}")
    # c = 1 contributes the point (0, 0, 1), which the empty selector of 1
    # omits; for c >= 2 the visible (a, b, c) are the selector of c
    log_lhs = -math.log(1.0 - z)
    for c in range(2, c_max + 1):
        for a, b in enumerate_selector(LatticeSelector(2, c)):
            log_lhs -= math.log(1.0 - x**a * y**b * z**c) / c
    base = (1.0 - x * z) * (1.0 - y * z) / ((1.0 - z) * (1.0 - x * y * z))
    log_rhs = math.log(base) / ((1.0 - x) * (1.0 - y))
    return math.exp(log_lhs), math.exp(log_rhs)


# --------------------------------------------------------------------------
# exact rational identities: weighted and selector-power regrouping


def _over_lcm(xs: list) -> tuple:
    """(D, nums): D the lcm of the denominators of the ints and Fractions xs,
    and nums the integers D x."""
    # folded pairwise: math.lcm(*xs) builds an argument tuple per call, and
    # over a long run those kept CPython's tuple free lists full, about
    # 1.8 MB more peak RSS in the rearrange benchmark
    den = reduce(math.lcm, [x.denominator for x in xs], 1)
    return den, [x.numerator * (den // x.denominator) for x in xs]


def weighted_regroup_check(a: FiniteSequence, f, w) -> tuple:
    """Both sides of sum_k a_k f(k) = sum_v w(v) S_v, exact, with the tails
    S_v = a_v + a_{2v} + ... (audit ids eq-4.4, eq-4.9, eq-4.10, eq-5.4..5.10,
    cor-5.14a/b and cor-5.15a..d).

    Every k <= a.bound is j v for one pair per divisor v of k, so the sides
    agree for every finitely supported a exactly when f(k) = sum_{d|k} w(d):
    w = J_m with f(k) = k^m, or a phi_t weight with its polynomial.  f is
    evaluated only where a_k != 0 and w only where S_v != 0; returns
    (lhs, rhs) as Fractions.

    The terms a_k (ints or Fractions) are scaled once to integer numerators
    over the lcm D of their denominators, so each side is a sum of Python
    ints times the values of f or w, divided once by D.
    """
    n = a.bound
    den, nums = _over_lcm([a(k) for k in range(n + 1)])
    lhs = sum(nums[k] * f(k) for k, ak in a.support.items() if ak)
    rhs = 0
    for v in range(1, n + 1):
        s = sum(nums[v::v])
        if s:
            rhs += w(v) * s
    return Fraction(lhs) / den, Fraction(rhs) / den


def power_regroup_check(a: FiniteSequence, f, weights, h: int, p: int) -> tuple:
    """Both sides of the exact selector-power rearrangement (audit ids
    eq-4.2, eq-4.3, eq-4.7 and cor-5.11..5.13):

        sum_k a_k f(k)
        = sum_{v=2..n} sum_{w<=n/v} a_{vw} sum_{j in sel(h, v)} ((j . b_{vw}) / v)^p

    with b_k = weights(k), a vector of h >= 1 rationals, read once for each
    k >= 2 with a_k != 0; a vector of another length is refused before
    either side is summed.  f is evaluated only where a_k != 0; returns
    (lhs, rhs) as Fractions.  p >= 1: at p = 0 the origin of each grid adds
    0^0 = 1, which no selector of v >= 2 holds (that count, eq-4.4, is
    `weighted_regroup_check` with w = J_h).

    The terms a_k and the weights b_k are scaled once to integer numerators
    over the lcm A of the terms' and B of the weights' denominators.  The
    loop's dot products with the weight numerators are exact Python ints in
    an object array (int64 would overflow), and the kernel sums their p-th
    powers against the term numerators and divides once by A (B v)^p.
    """
    if h < 1:
        raise DomainError("need at least one exponent sequence")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    terms = [(k, ak) for k, ak in a.support.items() if ak and k >= 2]
    bs = [[Fraction(c) for c in weights(k)] for k, _ in terms]
    for (k, _), b in zip(terms, bs):
        if len(b) != h:
            raise DomainError(f"weights({k}) has {len(b)} values, need h = {h}")
    lhs = sum(ak * f(k) for k, ak in a.support.items() if ak)
    den_a, coef = _over_lcm([ak for _, ak in terms])
    den_b, nums = _over_lcm([c for b in bs for c in b])
    return Fraction(lhs), _visible_regroup(
        a.bound, [k for k, _ in terms], np.array(coef, dtype=object),
        np.array(nums, dtype=object).reshape(len(terms), h), h, Fraction(0),
        lambda c, dots, v: Fraction(c @ (dots**p).sum(axis=0),
                                    den_a * (den_b * v) ** p),
    )


# --------------------------------------------------------------------------
# the hyperpyramid product (eq-4.16)


def hyperpyramid_log_check(xs, bs, cutoff: int) -> tuple:
    """Matched-index check of the hyperpyramid product (audit id eq-4.16),
    restricted to real 0 < x_i < 1 and rational b_i with sum(b_i) = 1.

    lhs = sum over the visible points (a_1..a_n) of the hyperpyramid region
    a_1..a_{n-1} < a_n <= cutoff with all a_i >= 1, of the log-series terms
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

    region = RadialRegion(n, (cutoff,) * n, "hyperpyramid")
    # summed by apex, lexicographic within an apex: the order of points()
    points = [pt for pt in visible_points(region) if all(pt)]
    lhs = 0.0
    for pt in points:
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
