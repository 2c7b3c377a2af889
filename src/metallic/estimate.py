"""Numerical cross-checks of the analytic dimension.

Two estimators work straight from covers:

* cover sums: S_k(t) = sum over depth-k intervals of |I|^t = sum c_m*gamma^(-m*t)
  over the cover's length multiset {m: c_m}, so deep covers are never
  materialized. Every survivor is re-tiled with one fixed pattern, so
  S_k(t) = Y(t)^k for the depth-1 sum Y, and S_k crosses 1 where Y does: at
  t = log_gamma x~ for the root x~ of `dimension`, at every depth. The cover-sum
  exponent is that dimension by construction, not an independent check of it.

* box counting: N(eps) over the grid [j*eps, (j+1)*eps), counted exactly.
  Every cover endpoint lies in Z[1/q][gamma], so the layout in `fractal`
  gives them as integer pairs and a grid index is the floor of
  (A + B*sqrt(D))/M, settled with math.isqrt: an endpoint that falls exactly
  on a grid point lands in the right box, and no floating point enters the
  count. Translated subtrees share one table of their runs of leaves, so a
  subtree costs one floor and two bisects (`_count_boxes`). Counting is done
  on a cover deep enough that every interval is at most eps wide - counting
  the depth-k cover at a finer scale would measure the solid intervals (slope
  pulled toward 1), not the limit set. Scales follow eps_k = gamma^(-n*k): a
  fit counts them all on one table scaled by gamma^(n*k_max), the scale-k
  cover rooted at exponent n*(k_max - k), so subtree classes are keyed across
  its scales. The dimension is the least-squares slope of log N against
  log(1/eps) over k = 2..k_max, exact from the double points and rounded
  once, so that it is the same double on every Python version.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import isqrt

from .dimension import ZIV_BITS, _ln_gamma, dimension
from .errors import Record
from .fractal import FractalSpec, IntervalCover, _child_layout, check_cover_cap
from .limits import DEFAULT_BITS, check_bits, import_mpmath
from .quadfield import gamma_pow
from .tiling import _inv_powers

_KEY_BITS = 64  # K of the box counter's breakpoint keys
_MAX_RUNS = 32  # the most runs of a class the box counter tables


class HausdorffSum(Record):
    _fields = ("depth", "t", "value", "y")

    def __init__(self, depth: int, t: float, value: float, y: float) -> None:
        self.__dict__.update(depth=depth, t=t, value=value, y=y)


def hausdorff_sum(cover: IntervalCover, t: float, bits: int = DEFAULT_BITS) -> HausdorffSum:
    """Cover sum S_k(t) and the per-level factor Y(t)."""
    check_bits(bits)
    if not t >= 0:  # NaN too
        raise ValueError("exponent t must be >= 0")
    mpmath = import_mpmath()
    spec = cover.spec
    na, nb = spec.survivor_counts
    lo, hi = _ln_gamma(spec.params, bits + 16)
    with mpmath.workprec(bits):
        log_gamma = mpmath.mpf((lo + hi, -bits - 17))  # the bracket's midpoint
        # sum count_m * gamma^(-m*t) over each exponent multiset, in mpf, m ascending
        value, y = (sum((count * mpmath.exp(-m * mpmath.mpf(t) * log_gamma)
                         for m, count in sorted(counts.items())), mpmath.mpf(0))
                    for counts in (cover.exponent_counts(), {spec.n - 1: na, spec.n: nb}))
    return HausdorffSum(cover.depth, float(t), float(value), float(y))


def empirical_dimension(cover: IntervalCover, bits: int = DEFAULT_BITS) -> float:
    """The exponent t where the cover sum S_k(t) equals 1. S_k = Y^k, so this is
    where Y(t) = 1: the `dimension` of the cover's spec, the same double."""
    check_bits(bits)
    if cover.depth < 1:
        raise ValueError("cover depth must be >= 1")
    return dimension(cover.spec, bits).dim


def _count_boxes(spec: FractalSpec, depth: int, scale: tuple[int, int], den: int,
                 roots: list[tuple[int, int]]) -> list[int]:
    """Unit boxes [j, j+1) met by each root's cover times (s0 + s1*gamma)/den.

    A root (r, levels) is the node gamma^-r long at 0 with `levels` levels below it, on
    one table of depth `depth`. A fit roots scale k at r = n*(k_max - k) on a table scaled
    by gamma^(n*k_max): a class is keyed across its scales, and its tables built once.

    Each endpoint is y/M with y = A + B*sqrt(D), integers A, B and M > 0, and
    floor(y/M) = floor(floor(y)/M). With t = isqrt(B^2 D), floor(y) is A + t
    for B >= 0 and A - t - 1 for B < 0 (A - t when D is a square). Nodes with
    one exponent and one number of levels below are translates, so each such
    class tables its runs, maximal groups of leaves whose gaps are under a box,
    as offsets (S, E) of the first start and the last end. Runs are a box or
    more apart, so a node at x meets N(x) = sum of ceil(x + E) - floor(x + S)
    = N(0) - #{S: frac(-S) <= f} + #{E: frac(-E) < f} boxes, f = frac(x): N
    depends on f alone, a start breakpoint counts from itself onward and an end
    one only past it. Keys are 2*floor(frac * 2^K), plus 1 unless frac * 2^K is
    an integer, so a node costs one floor of x * 2^K and two bisects, and each
    equal odd key one exact floor. Classes past _MAX_RUNS runs are counted
    through their children.
    """
    params, n = spec.params, spec.n
    p, D = params.p, params.D
    irrational = params.rational_root is None
    m = 2 * den * params.q ** (n * depth)
    g = _inv_powers(params, n * depth, scale)
    shift, mask = _KEY_BITS + 1, (2 << _KEY_BITS) - 1

    def floor2(u: int, v: int) -> int:
        """2*floor(y), plus 1 unless y = (u + v*gamma)/(den*q^E) is an integer."""
        a, t = 2 * u + p * v, isqrt(v * v * D)  # y = (a + v*sqrt(D))/m
        whole, rest = divmod(a + t if v >= 0 else a - t - irrational, m)
        return 2 * whole + (rest != 0 or irrational and v != 0)

    def point(o0: int, o1: int, start: bool) -> tuple:
        """The breakpoint frac(-o) of offset o as (key, start, o0, o1, floor(-o))."""
        y = floor2(-o0 << _KEY_BITS, -o1 << _KEY_BITS)
        return y & mask, start, o0, o1, y >> shift

    def after(pt: tuple, key: int, u: int, v: int, whole: int) -> bool:
        """frac(-o) <= f (a start o) or < f (an end), for x = (u, v) of key and floor whole."""
        k, start, o0, o1, below = pt
        if k != key or not k & 1:  # distinct keys, or equal exact fractions
            return k < key or k == key and start
        if start:  # x + o >= whole - floor(-o)
            return floor2(u + o0, v + o1) >= 2 * (whole - below)
        return floor2(-u - o0, -v - o1) < 2 * (below - whole)

    steps = [x for x, c in zip((n - 1, n), spec.survivor_counts) if c]
    # levels[left]: the exponents of the nodes with `left` levels below them, over every root
    levels = [{r for r, t in roots if t == left} for left in range(max(t for _, t in roots) + 1)]
    for left in reversed(range(len(levels) - 1)):
        levels[left] |= {e + x for e in levels[left + 1] for x in steps}
    children = _child_layout(spec, g, [0] * len(g))  # no enclosures
    kids = {e: [(du, dv, x) for du, dv, _, x, _ in children(e)] for e in set().union(*levels[1:])}
    # runs[left][e]: offsets (s0, s1, e0, e1) of each run's first start and last end in
    # a node gamma^-e long with `left` levels below it, or None past _MAX_RUNS runs
    runs = [{e: [(0, 0, *g[e])] for e in levels[0]}]
    for level in levels[1:]:
        below, row = runs[-1], {}
        for e in level:
            spans = []
            for du, dv, x in kids[e]:
                part = below[x]
                if part is None or len(spans) + len(part) > _MAX_RUNS + 1:
                    spans = None
                    break
                part = [(du + s0, dv + s1, du + e0, dv + e1) for s0, s1, e0, e1 in part]
                if spans and floor2(part[0][0] - spans[-1][2], part[0][1] - spans[-1][3]) < 2:
                    part[0] = (*spans.pop()[:2], *part[0][2:])  # a gap under a box joins two runs
                spans += part
            row[e] = spans if spans and len(spans) <= _MAX_RUNS else None
        runs.append(row)
    tables, counts = {}, []  # tables: built for the classes the walks count at
    for r, t in roots:
        total, last, stack = 0, None, [(0, 0, r, t)]
        while stack:
            u, v, e, left = stack.pop()
            spans = runs[left][e]
            if spans is None:
                stack.extend([(u + du, v + dv, x, left - 1) for du, dv, x in reversed(kids[e])])
                continue
            if (left, e) not in tables:
                starts = [point(s0, s1, True) for s0, s1, _, _ in spans]
                ends = [point(e0, e1, False) for _, _, e0, e1 in spans]
                base = sum(pt[4] for pt in starts) - sum(pt[4] for pt in ends) + len(spans)  # N(0)
                edges, starts, ends = (starts[0], ends[-1]), sorted(starts), sorted(ends)
                keys = [pt[0] for pt in starts], [pt[0] for pt in ends]
                tables[left, e] = *keys, starts, ends, base, edges
            skeys, ekeys, starts, ends, base, (first, end) = tables[left, e]
            y = floor2(u << _KEY_BITS, v << _KEY_BITS)
            whole, key = y >> shift, y & mask
            i, j = bisect_right(skeys, key), bisect_left(ekeys, key)
            count = base - i + j
            if key & 1:  # the bisects took breakpoints with f's odd key as equal to f: a start
                # is then counted and an end is not, which after() confirms or corrects
                tied = starts[bisect_left(skeys, key):i] + ends[j:bisect_right(ekeys, key)]
                count += sum(after(pt, key, u, v, whole) != pt[1] for pt in tied)
            # floor(x + S) and ceil(x + E) - 1 of the first start and the last end
            j0 = whole - first[4] - 1 + after(first, key, u, v, whole)
            j1 = whole - end[4] - 1 + after(end, key, u, v, whole)
            # sorted, disjoint subtrees: j0 >= last, and only box `last` is shared
            total += count - (j0 == last)
            last = j1
        counts.append(total)
    return counts


def box_count(cover: IntervalCover, eps, bits: int = DEFAULT_BITS) -> int:
    """Number of eps-grid boxes [j*eps, (j+1)*eps) meeting the cover.

    eps (int, float, Fraction or mpmath mpf) is used at its exact rational
    value and the count is exact; bits is not needed for that and is ignored.
    """
    if hasattr(eps, "_mpf_"):  # an mpf (sign, man, exp, bc), read without importing mpmath
        eps = Fraction((-1) ** eps._mpf_[0] * eps.man) * Fraction(2) ** eps.exp
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    depth = cover.depth
    return _count_boxes(cover.spec, depth, (eps.denominator, 0), eps.numerator, [(0, depth)])[0]


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
    # the shallowest covers whose widest interval is at most gamma^(-n*k), the deepest first
    check_cover_cap(spec, math.ceil(spec.n * k_max / (spec.n - 1)), cap)
    depths = tuple(math.ceil(spec.n * k / (spec.n - 1)) for k in scales)
    # N(gamma^-nk): the cover rooted at gamma^-(n*(k_max - k)) on a table times gamma^(n*k_max)
    top = gamma_pow(spec.params, spec.n * k_max)
    roots = [(spec.n * (k_max - k), depth) for k, depth in zip(scales, depths)]
    counts = tuple(_count_boxes(spec, depths[-1], (top.u, top.v), 1, roots))
    w = ZIV_BITS
    while True:  # xs = n*k*log(gamma), correctly rounded: both ends of each bracket agree
        lo, hi = _ln_gamma(spec.params, w)
        xs = [spec.n * k * lo / (1 << w) for k in scales]
        if xs == [spec.n * k * hi / (1 << w) for k in scales]:
            break
        w *= 2
    ys = [math.log(c) for c in counts]
    fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    x_bar, y_bar = sum(fx) / len(fx), sum(fy) / len(fy)
    exact = (sum((x - x_bar) * (y - y_bar) for x, y in zip(fx, fy))
             / sum((x - x_bar) ** 2 for x in fx))
    slope, intercept = float(exact), float(y_bar - exact * x_bar)
    sse = math.fsum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    x_mean = math.fsum(xs) / len(xs)
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    # the slope's standard error has len(xs) - 2 degrees of freedom
    slope_se = math.sqrt(sse / (len(xs) - 2) / sxx)
    return BoxCountFit(slope, intercept, slope_se, math.sqrt(sse / len(xs)), counts, depths)
