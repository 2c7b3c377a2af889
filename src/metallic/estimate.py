"""Numerical cross-checks of the analytic dimension.

Two independent estimators work straight from covers:

* cover sums: S_k(t) = sum over depth-k intervals of |I|^t = sum c_m*gamma^(-m*t)
  over the cover's length multiset {m: c_m}, so deep covers are never
  materialized. Every survivor is re-tiled with one fixed pattern, so
  S_k(t) = Y(t)^k for the depth-1 sum Y, and S_k crosses 1 where Y does: with
  x = gamma^t and N = n*k, at the positive root of x^N - sum c_m*x^(N-m),
  which is bracketed in integers like the root of `dimension`.

* box counting: N(eps) over the grid [j*eps, (j+1)*eps), counted exactly.
  Every cover endpoint lies in Z[1/q][gamma], so the layout in `fractal`
  gives them as integer pairs and a grid index is the floor of
  (A + B*sqrt(D))/M, settled with math.isqrt: an endpoint that falls exactly
  on a grid point lands in the right box, and no floating point enters the
  count. A subtree whose gaps are all narrower than a box meets every box
  from the one holding its first start to the one holding its last end: a
  box between them that met no interval would fit inside a single gap. So the
  count walks down only to such subtrees and takes two floors for each.
  Counting is done on a cover deep enough that every interval is at
  most eps wide - counting the depth-k cover at a finer scale would measure
  the solid intervals (slope pulled toward 1), not the limit set. Scales
  follow eps_k = gamma^(-n*k), so dividing by eps_k is multiplying by
  gamma^(n*k) in Z[gamma], and the dimension is the least-squares slope of
  log N against log(1/eps) over k = 2..k_max, fitted with the standard
  library's `statistics.linear_regression`: a handful of points needs no
  array library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt
from statistics import linear_regression

from .dimension import ZIV_BITS, _ln_gamma, _root_and_dim
from .errors import Record
from .fractal import FractalSpec, IntervalCover, _child_layout, check_cover_cap
from .limits import DEFAULT_BITS, check_bits
from .quadfield import gamma_pow
from .tiling import _inv_powers


def _multiset_sum(counts: dict[int, int], t, log_gamma: mpmath.mpf) -> mpmath.mpf:
    """sum count_m * gamma^(-m*t) over the exponent multiset, in mpf."""
    import mpmath
    total = mpmath.mpf(0)
    for m, count in sorted(counts.items()):
        total += count * mpmath.exp(-m * t * log_gamma)
    return total


class HausdorffSum(Record):
    _fields = ("depth", "t", "value", "y")

    def __init__(self, depth: int, t: float, value: float, y: float) -> None:
        self.__dict__.update(depth=depth, t=t, value=value, y=y)


def hausdorff_sum(cover: IntervalCover, t: float, bits: int = DEFAULT_BITS) -> HausdorffSum:
    """Cover sum S_k(t) and the per-level factor Y(t)."""
    check_bits(bits)
    if t < 0:
        raise ValueError("exponent t must be >= 0")
    import mpmath
    spec = cover.spec
    na, nb = spec.survivor_counts
    lo, hi = _ln_gamma(spec.params, bits + 16)
    with mpmath.workprec(bits):
        log_gamma = mpmath.mpf((lo + hi, -bits - 17))  # the bracket's midpoint
        value = _multiset_sum(cover.exponent_counts(), mpmath.mpf(t), log_gamma)
        y = _multiset_sum({spec.n - 1: na, spec.n: nb}, mpmath.mpf(t), log_gamma)
    return HausdorffSum(cover.depth, float(t), float(value), float(y))


def empirical_dimension(cover: IntervalCover, bits: int = DEFAULT_BITS) -> float:
    """The exponent t where the cover sum S_k(t) equals 1: the root x~ of
    `dimension` (see the module docstring), so t is the same double."""
    check_bits(bits)
    if cover.depth < 1:
        raise ValueError("cover depth must be >= 1")
    degree = cover.spec.n * cover.depth
    terms = [(degree - m, c) for m, c in cover.exponent_counts().items()]
    return _root_and_dim(degree, terms, cover.spec.params, bits)[1]


def _count_boxes(spec: FractalSpec, depth: int, scale: tuple[int, int], den: int) -> int:
    """Unit boxes [j, j+1) met by the cover at `depth` times (s0 + s1*gamma)/den.

    Each endpoint is y/M with y = A + B*sqrt(D), integers A, B and M > 0, and
    floor(y/M) = floor(floor(y)/M). With t = isqrt(B^2 D), floor(y) is A + t
    for B >= 0 and A - t - 1 for B < 0 (A - t when D is a square). A subtree
    whose gaps are all under a box wide meets boxes floor(s) .. ceil(e) - 1
    from its first start s to its last end e, and ceil(e) - 1 = -floor(-e) - 1.
    Nodes with one exponent and one number of levels below are translates, so
    s, e and the gap test are tabled once per class, from the leaves up.
    """
    params, n = spec.params, spec.n
    p, D = params.p, params.D
    irrational = params.rational_root is None
    m = 2 * den * params.q ** (n * depth)
    g = _inv_powers(params, n * depth, scale)

    def floor(u: int, v: int) -> int:  # of (u + v*gamma)/(den*q^E) = (a + v*sqrt(D))/m
        a, t = 2 * u + p * v, isqrt(v * v * D)
        return (a + t) // m if v >= 0 else (a - t - irrational) // m

    steps = [x for x, c in zip((n - 1, n), spec.survivor_counts) if c]
    levels = [{0}]  # the exponents reachable at each depth
    for _ in range(depth):
        levels.append({e + x for e in levels[-1] for x in steps})
    children = _child_layout(spec, g)
    kids = {e: children(e) for level in levels[:-1] for e in level}
    # hulls[left][e]: offsets (s0, s1, e0, e1) of the first start and the last end in a
    # node gamma^-e long with `left` levels below it, or None where a gap is a box wide
    hulls = [{e: (0, 0, *g[e]) for e in levels[-1]}]
    for level in reversed(levels[:-1]):
        below, hull = hulls[-1], {}
        for e in level:
            parts = [below[x] for _, _, x in kids[e]]
            if None in parts:
                hull[e] = None
                continue
            spans = [(du + s0, dv + s1, du + e0, dv + e1)
                     for (du, dv, _), (s0, s1, e0, e1) in zip(kids[e], parts)]
            narrow = all(floor(b[0] - a[2], b[1] - a[3]) < 1 for a, b in zip(spans, spans[1:]))
            hull[e] = (*spans[0][:2], *spans[-1][2:]) if narrow else None
        hulls.append(hull)
    total, last = 0, None
    stack = [(0, 0, 0, depth)]
    while stack:
        u, v, e, left = stack.pop()
        h = hulls[left][e]
        if h is None:
            stack.extend([(u + du, v + dv, x, left - 1) for du, dv, x in reversed(kids[e])])
            continue
        j0, j1 = floor(u + h[0], v + h[1]), -floor(-u - h[2], -v - h[3]) - 1
        # sorted, disjoint subtrees: j0 >= last, and only box `last` is shared
        total += j1 - j0 + (j0 != last)
        last = j1
    return total


def box_count(cover: IntervalCover, eps, bits: int = DEFAULT_BITS) -> int:
    """Number of eps-grid boxes [j*eps, (j+1)*eps) meeting the cover.

    eps (int, float, Fraction or mpmath mpf) is used at its exact rational
    value and the count is exact; bits is not needed for that and is ignored.
    """
    if hasattr(eps, "man") and hasattr(eps, "exp"):  # an mpf, read without importing mpmath
        eps = Fraction(eps.man) * Fraction(2) ** eps.exp
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    return _count_boxes(cover.spec, cover.depth, (eps.denominator, 0), eps.numerator)


class BoxCountFit(Record):
    """Least-squares fit of log N(eps) against log(1/eps).

    residual is the standard error of the fitted slope: lattice scaling makes
    the per-point misfit log-periodic (it does not vanish with more scales),
    while the slope uncertainty genuinely shrinks as scales are added.
    rms_misfit keeps the raw per-point figure.
    """

    _fields = ("slope", "intercept", "residual", "rms_misfit", "box_counts", "depths")

    def __init__(self, slope: float, intercept: float, residual: float, rms_misfit: float,
                 box_counts: tuple[int, ...], depths: tuple[int, ...]) -> None:
        self.__dict__.update(slope=slope, intercept=intercept, residual=residual,
                             rms_misfit=rms_misfit, box_counts=box_counts, depths=depths)


def box_dimension(spec: FractalSpec, k_max: int, cap: int | None = None,
                  bits: int = DEFAULT_BITS) -> BoxCountFit:
    """Least-squares box-counting estimate over eps_k = gamma^(-n*k), k=2..k_max.

    Counts are exact (see box_count); residual is the slope's standard error
    and rms_misfit the per-point misfit, as in BoxCountFit. CapExceeded if the
    deepest cover needed would exceed the enumeration cap. bits is only
    validated: the counts are exact and the log scales correctly rounded at
    any value.
    """
    check_bits(bits)
    if k_max < 4:
        raise ValueError("k_max must be >= 4")
    scales = range(2, k_max + 1)
    # the shallowest covers whose widest interval is at most gamma^(-n*k)
    depths = tuple(math.ceil(spec.n * k / (spec.n - 1)) for k in scales)
    check_cover_cap(spec, depths[-1], cap)
    # N(gamma^-nk) is the number of unit boxes the cover meets once scaled by gamma^nk
    powers = (gamma_pow(spec.params, spec.n * k) for k in scales)
    counts = tuple(_count_boxes(spec, depth, (int(g.c0), int(g.c1)), 1)
                   for depth, g in zip(depths, powers))
    w = ZIV_BITS
    while True:  # xs = n*k*log(gamma), correctly rounded: both ends of each bracket agree
        lo, hi = _ln_gamma(spec.params, w)
        xs = [spec.n * k * lo / (1 << w) for k in scales]
        if xs == [spec.n * k * hi / (1 << w) for k in scales]:
            break
        w *= 2
    ys = [math.log(c) for c in counts]
    slope, intercept = linear_regression(xs, ys)
    sse = math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    x_mean = math.fsum(xs) / len(xs)
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    # the slope's standard error has len(xs) - 2 degrees of freedom
    slope_se = math.sqrt(sse / (len(xs) - 2) / sxx)
    return BoxCountFit(slope, intercept, slope_se, math.sqrt(sse / len(xs)), counts, depths)
