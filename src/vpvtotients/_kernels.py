"""Selector and visible-point enumeration kernels, vectorized with numpy.

Every selector kernel reads one k^m boolean mask, `_selector_mask(m, k)`.
A point j leaves the selector exactly when some prime p | k divides every
coordinate, so the mask is `ones` with one strided clear, every p-th index on
each axis, per distinct prime of k (at most 8 under the 10^7 cap). The
visible-point masks of the two radial regions are sieved the same way: a
box's by the primes up to its smallest bound, and a hyperpyramid's, over its
bounding array with the apex axis first and each lead axis cut to the
b_d values that a_i < a_d <= b_d leaves, by the primes below the largest
lead axis, after open-grid comparisons clear a_i >= a_d and one line clears
the lead coordinates all 0. A mask costs one byte a cell and builds no
temporary of its size. The primes are found here by trial division and a
small sieve, not by `exactcore.factorize`, which the closed form `jordan`
uses, so that `selector_count == jordan` compares two independent
factorizations. Values are `np.add.outer` folds of 1-D vectors, read through
the mask; `selector_cos_sum` reduces each axis vector mod k, counts the
selected dots into m*k bins, folds them into k residue bins and weights
those, so it takes k cosines and no remainder per point.

The grid cap lives here and nowhere else: at most MAX_DIMS = 64 axes (what a
numpy array holds) and MAX_CELLS = 10^7 cells. Each mask builder refuses its
own shape with `ResourceError` before it allocates, so a kernel called
directly is refused as its public callers are. The selector's check,
`check_selector(m, k)`, is three comparisons, m first, so that k**m is never
built for an m past 64; a region's shape and its check are one function,
`region_shape(constraint, bounds)`, which `vpv.RadialRegion.points` reads
too. The two callers that loop over grids with no mask check them before
their loops: `totients.m_phi` calls `check_selector`, and
`analytic.selector_weights`, which enumerates every selector v = 2..K, calls
`check_selectors_upto`, which holds the sum of their cells to the cap. A
table of the values at 0..n, `moebius_table` and the `analytic` arrays
read beside it, is checked by `check_table(n)`.

The selector is enumerated one way, in lexicographic order (C order of the
mask). `selector_array` is the nonzero indices of the mask as rows: the
C-order (N, m) int64 array that `nonzero` fills and hands out as m column
views, taken back as the views' `.base` (`np.argwhere`'s values, without its
copy), at 8m bytes a selected point; the one `vpv` regrouping loop takes it,
because it forms the dot products j . b as one matrix product.
`selector_tuples` wraps that array in a `SelectorRows` view, whose items are
tuples of Python ints made on demand, and builds no tuple list; the public
`enumerate_selector` returns it. `visible_points_box` and
`visible_points_hyperpyramid` give a region's visible points the same form:
the nonzero rows of its mask behind a `SelectorRows` view, at 8d bytes a
visible point beside the mask's one byte a cell. A box's rows are shifted in
place to 1-based coordinates. A hyperpyramid's come apex-major and
lexicographic within an apex, the order of `vpv.RadialRegion.points`,
because the apex axis is first; its apex column is moved last in place.
`visible_count_box` and `visible_count_hyperpyramid` count the same masks.
No kernel returns a tuple list. The library reads the array, takes the
view's length, or iterates a small selector (the registry's cor-5.3
product) or a small region (the registry's lem-3.1 partition and eq-4.16
sum, and the CLI's 2-D lattice, at most 64 x 64). A caller that keeps every
row of a large selector or region as a tuple, as `list(view)` does, pays
about 1.2-1.9 times what building a tuple list took, and shares no Python
int between points; a loop that drops each row as it goes pays less than
that build.

`moebius_table(n)` is the one Moebius table, mu(0..n) as an int8 array,
sieved by prime strides: the primes up to sqrt(n) flip signs and clear
multiples of p^2 over whole slices, and a cofactor left above 1 is one
larger prime. `analytic` reads it, as an array, for its Dirichlet and
mean-value sums; `exactcore.moebius`, by trial division, is its per-n
oracle.

`totients`, `vpv` and `analytic` (whose theta checks take every selector
weight from `selector_char_sum`) look each kernel up as a module attribute at
call time (`_kernels.selector_tuples(...)`), so that the traced benchmark and
the tests can count calls by replacing the attribute.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce

import numpy as np

from .errors import ResourceError

# read by perfbench/run.py, which records it with every benchmark run
BACKEND = "pure"

# every kernel reads one numpy boolean mask with an axis per dimension, and
# numpy arrays have at most 64 axes
MAX_DIMS = 64

# the most cells of any grid that a kernel builds or a caller walks
MAX_CELLS = 10**7


def _decimal(k: int, m: int = 1) -> str:
    """k**m in decimal; where that is past the interpreter's int-to-str
    digit limit, its size as a power of two, and when k alone is past it
    the power is never built."""
    try:
        str(k)
        return str(k**m)
    except ValueError:
        return f"about 2^{m * math.log2(k):.0f}"


def check_selector(m: int, k: int) -> None:
    """Refuse the selector grid (k,)*m past MAX_DIMS axes or MAX_CELLS cells.

    Three comparisons and no shape tuple, since every selector passes here:
    m is refused before k**m is built (3**(10**7) alone takes seconds), and
    past the cap the power is built only for a k short enough to print."""
    if m > MAX_DIMS:
        raise ResourceError(f"selector grid for m={_decimal(m)} has more than {MAX_DIMS} axes")
    if k > MAX_CELLS or k**m > MAX_CELLS:
        raise ResourceError(f"selector grid for m={m}, k={_decimal(k)} has "
                            f"{_decimal(k, m)} tuples, above cap {MAX_CELLS}")


def check_selectors_upto(m: int, k: int) -> None:
    """Refuse the selectors (v,)*m of v = 2..k, walked one after another,
    past MAX_CELLS cells in all, as `check_selector` refuses the largest.

    The sum of v**m stops at the first v that passes the cap, which is at
    most v = 4472 for m >= 1, so no check walks far."""
    check_selector(m, k)
    cells = 0
    for v in range(2, k + 1):
        cells += v**m
        if cells > MAX_CELLS:
            raise ResourceError(f"selector grids for m={m}, v=2..{k} have at "
                                f"least {cells} tuples in all, above cap {MAX_CELLS}")


def check_table(n: int) -> None:
    """Refuse a table of the values at 0..n, n past MAX_CELLS."""
    if n > MAX_CELLS:
        raise ResourceError(f"table up to {_decimal(n)} exceeds cap {MAX_CELLS}")


def region_shape(constraint: str, bounds: tuple[int, ...]) -> tuple[int, ...]:
    """The shape of a region's mask, refused past MAX_DIMS axes or MAX_CELLS
    cells. A box's is the box. A hyperpyramid's has the apex axis first,
    (b_d, c_1, ..., c_{d-1}) with c_i = min(b_i, b_d - 1) + 1, since
    a_i < a_d <= b_d leaves a lead axis at most b_d values."""
    if len(bounds) > MAX_DIMS:
        raise ResourceError(f"a {constraint} of {len(bounds)} axes exceeds {MAX_DIMS}")
    *lead, top = bounds
    shape = bounds if constraint == "box" else (top, *(min(b, top - 1) + 1 for b in lead))
    size = math.prod(shape)
    if size > MAX_CELLS:
        raise ResourceError(f"lattice size {_decimal(size)} exceeds cap {MAX_CELLS}")
    return shape


def _distinct_primes(k: int) -> list[int]:
    """The distinct primes dividing k >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    return primes + [k] if k > 1 else primes


def _primes_upto(n: int) -> list[int]:
    """The primes <= n, by a bytearray sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, prime in enumerate(sieve) if prime]


def _selector_mask(m: int, k: int) -> np.ndarray:
    """The selector as a (k,)*m boolean array: gcd(j_1..j_m, k) = 1, j != 0."""
    check_selector(m, k)
    mask = np.empty((k,) * m, dtype=bool)
    mask.fill(True)  # np.ones costs about 1 us more, most of a small k's mask
    for p in _distinct_primes(k):
        mask[(slice(None, None, p),) * m] = False  # p divides k and every j_i
    mask[(0,) * m] = False  # the origin has gcd k, so this acts only at k = 1
    return mask


def selector_array(m: int, k: int) -> np.ndarray:
    """Selector points as the rows of a C-order (N, m) int64 array,
    lexicographic: the nonzero indices of the mask, what `np.argwhere`
    returns."""
    # nonzero fills one C-order (N, m) intp array and returns its m columns
    # as strided views of it (for m = 1 and an empty mask too), so the
    # views' base is the array of rows: restacking the columns would copy
    # every selected point a second time
    return _selector_mask(m, k).nonzero()[0].base


class SelectorRows(Sequence):
    """The rows of an (N, d) int64 array, `.array`, read as tuples of
    Python ints: the points of a selector, or the visible points of a
    region.

    An index gives one row as a tuple and a slice a `SelectorRows` over
    those rows. Iteration converts the columns to Python-int lists once and
    zips them, about half the time of `map(tuple, array.tolist())`. It
    equals any sequence of the same tuples in the same order. `vpv` builds
    one per visible denominator, so it holds only the array and checks
    nothing.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SelectorRows(self.array[i])
        return tuple(self.array[i].tolist())

    def __iter__(self):
        return zip(*self.array.T.tolist())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def selector_tuples(m: int, k: int) -> SelectorRows:
    """The selector array read as tuples of Python ints, lexicographic.

    It enumerates nothing of its own. The name stays because the
    benchmark's traced run and the tests wrap each `_kernels` entry point
    by name, this one included.
    """
    return SelectorRows(selector_array(m, k))


def selector_count(m: int, k: int) -> int:
    return int(np.count_nonzero(_selector_mask(m, k)))


def selector_cos_sum(k: int, n: tuple[int, ...]) -> float:
    """sum over the selector of cos(2*pi*(j . n)/k).

    Each n_i is reduced mod k as a Python int first, so that j * n_i fits in
    int64 for any n_i, and each axis vector j * n_i is reduced mod k, so a
    selected point's dot is below m*k; j . n mod k is unchanged.  Every
    selector point is counted into one of m*k bins by its dot, the bins are
    folded into the k residues r = j . n mod k, and the k counts are
    weighted by cos(2*pi*r/k): k cosines, not one per point, and no
    remainder taken per point.
    """
    m = len(n)
    mask = _selector_mask(m, k)
    dots = reduce(np.add.outer, [np.arange(k) * (ni % k) % k for ni in n])[mask]
    counts = np.bincount(dots, minlength=m * k).reshape(m, k).sum(0)
    return float(counts @ np.cos(2.0 * np.pi * np.arange(k) / k))


def selector_char_sum(k: int, thetas: tuple[float, ...]) -> complex:
    """sum over the selector of exp(2*pi*i*(j . theta)/k)."""
    mask = _selector_mask(len(thetas), k)
    phase = reduce(np.add.outer, [np.arange(k) * th for th in thetas])[mask]
    phase *= 2.0 * np.pi / k
    return complex(np.exp(1j * phase).sum())


def selector_power_sum(t: int, m: int, k: int) -> int:
    """Exact sum over the selector of (j_1 + ... + j_m)**t."""
    mask = _selector_mask(m, k)
    sums = reduce(np.add.outer, [np.arange(k)] * m)[mask]
    counts = np.bincount(sums, minlength=1)
    return sum(int(c) * s**t for s, c in enumerate(counts) if c)


def moebius_table(n: int) -> np.ndarray:
    """mu(0..n) as an int8 array, mu[0] = 0, sieved by prime strides; n is
    refused past MAX_CELLS by `check_table`.

    Each prime p <= sqrt(n) negates mu on its multiples, divides them out of
    `rest` once, and zeroes mu on the multiples of p^2. A multiple of p^2 is
    zero whatever else happens, so `rest` needs only one division per p: a
    squarefree index has then lost every prime factor up to sqrt(n), and
    what is left above 1 is the one prime factor above sqrt(n).
    """
    check_table(n)
    mu = np.ones(n + 1, dtype=np.int8)
    rest = np.arange(n + 1, dtype=np.int64)
    for p in _primes_upto(math.isqrt(n)):
        mu[::p] *= -1
        rest[::p] //= p
        mu[:: p * p] = 0
    mu[rest > 1] *= -1
    mu[0] = 0
    return mu


def _visible_box_mask(bounds: tuple[int, ...]) -> np.ndarray:
    """The box prod [1, b_i] as a boolean array: coordinate gcd 1."""
    mask = np.ones(region_shape("box", bounds), dtype=bool)
    if len(bounds) == 1:
        mask[1:] = False  # gcd(a) = a, so only (1,) is visible
        return mask
    for p in _primes_upto(min(bounds)):
        mask[(slice(p - 1, None, p),) * len(bounds)] = False  # p | every a_i
    return mask


def _visible_hyperpyramid_mask(bounds: tuple[int, ...]) -> np.ndarray:
    """The hyperpyramid 0 <= a_i < a_d <= b_d, a_i <= b_i (i < d), as a
    boolean array of `region_shape("hyperpyramid", bounds)`, apex axis
    first: index (a_d - 1, a_1, ..., a_{d-1}), true at coordinate gcd 1."""
    shape = region_shape("hyperpyramid", bounds)
    top, *lead = shape
    mask = np.ones(shape, dtype=bool)
    # a_i < a_d, one lead axis at a time against the apex: each comparison is
    # a (b_d, c_i) open grid, never the whole array; with no lead axis the
    # apex column would be the whole array, and there is nothing to clear
    if lead:
        apex, *axes = np.ix_(np.arange(1, top + 1), *map(np.arange, lead))
        for axis in axes:
            mask &= axis < apex
    # the lead coordinates all 0 leave gcd a_d: a prime above every lead
    # bound divides every lead coordinate only there, so this line stands in
    # for all of them, and a one-axis hyperpyramid needs no sieve
    mask[(slice(1, None),) + (0,) * len(lead)] = False
    # any other point has a nonzero a_i <= c_i - 1 for p to divide
    for p in _primes_upto(max(lead, default=1) - 1):
        # p | a_d and every a_i, 0 included
        mask[(slice(p - 1, None, p),) + (slice(None, None, p),) * len(lead)] = False
    return mask


def visible_points_box(bounds: tuple[int, ...]) -> SelectorRows:
    """Lattice points in the box prod [1, b_i] with coordinate gcd 1, lex
    order, as the view over the mask's nonzero rows shifted to 1-based
    coordinates."""
    # the array of rows that nonzero fills, taken as selector_array takes it
    rows = _visible_box_mask(bounds).nonzero()[0].base
    rows += 1  # mask index i is coordinate i + 1
    return SelectorRows(rows)


def visible_count_box(bounds: tuple[int, ...]) -> int:
    """Number of lattice points in the box prod [1, b_i] with coordinate gcd 1."""
    return int(np.count_nonzero(_visible_box_mask(bounds)))


def visible_points_hyperpyramid(bounds: tuple[int, ...]) -> SelectorRows:
    """Lattice points of the hyperpyramid 0 <= a_i < a_d <= b_d, a_i <= b_i,
    with coordinate gcd 1, by apex a_d and lexicographic within an apex, as
    the view over the mask's nonzero rows with the apex moved last."""
    # nonzero's rows run apex-major, lexicographic within an apex, with the
    # apex index in column 0
    rows = _visible_hyperpyramid_mask(bounds).nonzero()[0].base
    apex = rows[:, 0] + 1  # mask index i is apex i + 1
    # shifting the flat buffer one place left moves each row's lead
    # coordinates into columns 0..d-2, in place; the last column then takes
    # the apex
    flat = rows.reshape(-1)
    flat[:-1] = flat[1:]
    rows[:, -1] = apex
    return SelectorRows(rows)


def visible_count_hyperpyramid(bounds: tuple[int, ...]) -> int:
    """Number of lattice points of the hyperpyramid with coordinate gcd 1."""
    return int(np.count_nonzero(_visible_hyperpyramid_mask(bounds)))
