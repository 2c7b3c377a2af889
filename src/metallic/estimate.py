"""Numerical cross-checks of the analytic dimension.

Two independent estimators work straight from covers:

* cover sums: S_k(t) = sum over depth-k intervals of |I|^t. Because every
  survivor is re-tiled with one fixed pattern, S_k(t) = Y(t)^k where Y is the
  depth-1 sum, and the exponent t where S crosses 1 is depth-independent. The
  sums need only the cover's length multiset, so deep covers never have to be
  materialized; gamma^(-m*t) is evaluated as exp(-m*t*log gamma) in working
  precision since m*t can reach a few hundred.

* box counting: N(eps) over the grid [j*eps, (j+1)*eps), counted exactly.
  Every cover endpoint lies in Z[1/q][gamma], so the tree walker in
  `fractal` hands them out as integer pairs and a grid index is the floor of
  (A + B*sqrt(D))/M, settled with math.isqrt: an endpoint that falls exactly
  on a grid point lands in the right box, and no floating point enters the
  count. Counting is done on a cover deep enough that every interval is at
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

from .errors import Record
from .fractal import FractalSpec, IntervalCover, _inv_powers, _walk, check_cover_cap
from .limits import DEFAULT_BITS, check_bits
from .quadfield import gamma_pow


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
    with mpmath.workprec(bits):
        log_gamma = mpmath.log(spec.params.gamma_mpf(bits))
        value = _multiset_sum(cover.exponent_counts(), mpmath.mpf(t), log_gamma)
        y = _multiset_sum({spec.n - 1: na, spec.n: nb}, mpmath.mpf(t), log_gamma)
    return HausdorffSum(cover.depth, float(t), float(value), float(y))


def empirical_dimension(cover: IntervalCover, bits: int = DEFAULT_BITS) -> float:
    """The exponent t in [0,1] where the cover sum equals 1, by bisection.

    A single-survivor spec shrinks to one point; its exponent is 0 by
    convention. A removal-free spec has total length 1 at every depth, giving
    exactly 1.
    """
    check_bits(bits)
    if cover.depth < 1:
        raise ValueError("cover depth must be >= 1")
    spec = cover.spec
    na, nb = spec.survivor_counts
    if na + nb == 1:
        return 0.0
    if spec.l == 0 and spec.s == 0:
        # full tilings: the sum at t=1 is exactly 1 at every depth
        return 1.0
    import mpmath
    counts = cover.exponent_counts()
    with mpmath.workprec(bits):
        log_gamma = mpmath.log(spec.params.gamma_mpf(bits))
        if _multiset_sum(counts, mpmath.mpf(1), log_gamma) >= 1:
            return 1.0
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        while hi - lo > mpmath.mpf("1e-13"):
            mid = (lo + hi) / 2
            if _multiset_sum(counts, mid, log_gamma) >= 1:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def _count_boxes(spec: FractalSpec, depth: int, scale: tuple[int, int], den: int) -> int:
    """Unit boxes [j, j+1) met by the cover at `depth` times (s0 + s1*gamma)/den.

    Each endpoint is y/M with y = A + B*sqrt(D), integers A, B and M > 0, and
    floor(y/M) = floor(floor(y)/M). With t = isqrt(B^2 D), floor(y) is A + t
    for B >= 0 and A - t - 1 for B < 0 (A - t when D is a square). An interval
    [s, e) meets boxes floor(s) .. ceil(e) - 1, and ceil(e) - 1 = floor(e)
    unless e is an integer.
    """
    params = spec.params
    p, D = params.p, params.D
    irrational = params.rational_root is None
    e_max = spec.n * depth
    m = 2 * den * params.q**e_max
    lengths = [(2 * l0 + p * l1, l1) for l0, l1 in _inv_powers(params, e_max, scale)]
    total, last = 0, None
    for u, v, e, _ in _walk(spec, depth, scale, paths=False):
        a, b = 2 * u + p * v, v
        t = isqrt(b * b * D)
        j0 = (a + t) // m if b >= 0 else (a - t - irrational) // m
        da, db = lengths[e]
        a, b = a + da, b + db
        t = isqrt(b * b * D)
        j1 = (a + t - (b == 0 or not irrational)) // m if b >= 0 else (a - t - 1) // m
        # sorted, disjoint intervals: j0 >= last, and only box `last` is shared
        total += j1 - j0 + (j0 != last)
        last = j1
    return total


def box_count(cover: IntervalCover, eps, bits: int = DEFAULT_BITS) -> int:
    """Number of eps-grid boxes [j*eps, (j+1)*eps) meeting the cover.

    eps (int, float, Fraction or mpmath mpf) is used at its exact rational
    value and the count is exact; bits is not needed for that and is ignored.
    """
    import mpmath
    if isinstance(eps, mpmath.mpf):
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
    deepest cover needed would exceed the enumeration cap.
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
    import mpmath
    with mpmath.workprec(bits):
        log_gamma = mpmath.log(spec.params.gamma_mpf(bits))
        xs = [float(spec.n * k * log_gamma) for k in scales]
    ys = [math.log(c) for c in counts]
    slope, intercept = linear_regression(xs, ys)
    sse = math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    x_mean = math.fsum(xs) / len(xs)
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    # the slope's standard error has len(xs) - 2 degrees of freedom
    slope_se = math.sqrt(sse / (len(xs) - 2) / sxx)
    return BoxCountFit(slope, intercept, slope_se, math.sqrt(sse / len(xs)), counts, depths)
