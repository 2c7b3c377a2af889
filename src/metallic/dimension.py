"""Analytic dimension of an (n, l, s) fractal.

One level of the construction keeps N_a' = N_a - l long survivors of length
gamma^-(n-1) and N_b' = N_b - s short survivors of length gamma^-n. Setting
x = gamma^d, both the self-similarity equation and the critical cover-sum
condition reduce to the same polynomial

    g(x) = x^n - N_a' * x - N_b' = 0,

which has exactly one positive root x~ (one coefficient sign change), lying in
[1, gamma]. The dimension is d = log(x~) / log(gamma). `_root_bracket` finds x~
in exact integers, and `dimension` rounds x~ and d to doubles from integer logs,
without mpmath.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import EmptyFractal, Record
from .limits import DEFAULT_BITS, check_bits, import_mpmath

ZIV_BITS = 80  # first working precision of the log step; each retry doubles it

if TYPE_CHECKING:  # annotations only: `import metallic` leaves fractal unloaded
    from .fractal import FractalSpec


class CharPoly(Record):
    """g(x) = x^degree - linear_coeff*x - constant_coeff, coefficients >= 0."""

    _fields = ("degree", "linear_coeff", "constant_coeff")

    def __init__(self, degree: int, linear_coeff: int, constant_coeff: int) -> None:
        if degree < 2:  # below 2, g is not convex and (1 - a)x - b may have no positive root
            raise ValueError("degree must be >= 2")
        if linear_coeff < 0 or constant_coeff < 0:
            raise ValueError("coefficients must be >= 0")
        if linear_coeff + constant_coeff < 1:
            raise EmptyFractal("polynomial x^n has no positive root")
        self.__dict__.update(degree=degree, linear_coeff=linear_coeff,
                             constant_coeff=constant_coeff)

    def __call__(self, x):
        """g(x), exact for int and Fraction x, at working precision for mpf x."""
        return x**self.degree - self.linear_coeff * x - self.constant_coeff

    def __str__(self) -> str:
        return f"x^{self.degree} - {self.linear_coeff}x - {self.constant_coeff}"


def char_poly(spec: FractalSpec) -> CharPoly:
    """Characteristic polynomial of the fractal from its survivor counts."""
    return CharPoly(spec.n, *spec.survivor_counts)  # EmptyFractal without survivors


def _root_bracket(poly: CharPoly, bits: int) -> tuple[int, int]:
    """(X, k = bits + 8) with (X - 1)/2^k < x~ <= X/2^k, for x~ the positive root of g.

    X starts at or above max((m*a)^(1/(n-1)), (m*b)^(1/n)) over the m nonzero
    coefficients (x^(n-1) >= m*a and x^n >= m*b give x^n >= a*x + b). While
    G(X - 1) >= 0, with G(X) = 2^(k*n)*g(X/2^k) = (X^(n-1) - a*2^(k(n-1)))*X - b*2^(kn)
    exact in integers, X takes a Newton step from X - 1; g is convex and increasing
    right of x~, so X stays at or above x~*2^k. This runs at k = 40, where powers are
    cheap, then at k = bits + 8.
    """
    n, a, b = poly.degree, poly.linear_coeff, poly.constant_coeff
    m = (a > 0) + (b > 0)
    seed = max([math.log2(m * c) / (n - j) for j, c in ((1, a), (0, b)) if c])
    seed = seed * (1 + 2.0**-45) + 2.0**-40  # log2 of the bound, past float error
    x = (int(2.0 ** (seed % 1 + 40)) + 1) << int(seed)  # 2^seed with 40 fraction bits
    for k, shift in ((40, 0), (bits + 8, bits - 32)):
        x <<= shift
        ca, cb = a << k * (n - 1), b << k * n
        while True:  # G and G' at X - 1
            y = x - 1
            y_pow = y ** (n - 1)
            g = (y_pow - ca) * y - cb
            if g < 0:
                break
            x = y - g // (n * y_pow - ca)
    return x, k


def positive_root(poly: CharPoly, bits: int = DEFAULT_BITS) -> mpmath.mpf:
    """The unique positive root of g, rounded at `bits` from `_root_bracket`."""
    mpmath = import_mpmath()
    x, k = _root_bracket(poly, bits)
    with mpmath.workprec(bits):
        return mpmath.mpf((x, -k))


def _ln_series(t: int, w: int) -> tuple[int, int]:
    """(L, E) with L <= 2*atanh(tau)*2^w < L + E, for t = floor(tau*2^w), 0 <= tau <= 1/3:
    2*sum tau^(2i+1)/(2i+1) in integers truncated to 2^-w (Brent and Zimmermann, Modern
    Computer Arithmetic, 4.4). A power stays within 1.5 units below its true value, a term
    loses under 2.5 units, and the tail and the floor in t add under 3 more."""
    t2, total, i = t * t >> w, 0, 1
    while t:
        total, t, i = total + t // i, t * t2 >> w, i + 2
    return 2 * total, 5 * i // 2 + 6


@lru_cache(maxsize=None)
def _ln2(w: int) -> tuple[int, int]:
    return _ln_series((1 << w) // 3, w)  # ln 2 = 2*atanh(1/3)


def _ln_bracket(x: int, k: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= ln(y)*2^w <= hi for all y in [(x - 1)/2^k, x/2^k], x > 2^k: with
    x = z*2^e and z in [1, 2), ln(x/2^k) = 2*atanh((z - 1)/(z + 1)) + (e - k)*ln 2, and
    ln((x - 1)/2^k) >= ln(x/2^k) - 2^-k, as x - 1 >= 2^k."""
    e = x.bit_length() - 1
    lo, err = _ln_series(((x - (1 << e)) << w) // (x + (1 << e)), w)
    ln2, err2 = _ln2(w)
    lo += (e - k) * ln2
    return lo - (1 << max(0, w - k)), lo + err + (e - k) * err2


@lru_cache(maxsize=1024)
def _ln_gamma(params, w: int) -> tuple[int, int]:
    """`_ln_bracket` of gamma, since gamma*2^(w+1) = p*2^w + sqrt(D*4^w) is in [X - 1, X)
    for X = p*2^w + isqrt(D*4^w) + 1."""
    return _ln_bracket((params.p << w) + math.isqrt(params.D << 2 * w) + 1, w + 1, w)


class DimensionReport(Record):
    _fields = ("spec", "poly", "root", "dim", "root_residual")

    def __init__(self, spec: FractalSpec, poly: CharPoly, root: float, dim: float,
                 root_residual: float) -> None:
        self.__dict__.update(spec=spec, poly=poly, root=root, dim=dim, root_residual=root_residual)


def dimension(spec: FractalSpec, bits: int = DEFAULT_BITS) -> DimensionReport:
    """Similarity dimension of the fractal (the Hausdorff value coincides:
    both derivations end at the same root equation). OverflowError for a root
    past the double range.

    x~ and d = log(x~)/log(gamma) are correctly rounded doubles by Ziv's test (ACM
    TOMS 17(3), 1991): rounding is monotone, so when both ends of each bracket give
    one double, that double is correctly rounded; else the log precision w doubles
    and the root bracket follows it. A value on a rounding boundary would need
    x~^b = gamma^a with b >= 2^54, so the loop ends.
    """
    check_bits(bits)
    poly = char_poly(spec)
    n = poly.degree
    x, k = _root_bracket(poly, bits)
    root, dim, w = 1.0, 0.0, ZIV_BITS  # X = 2^k: x~ = 1 exactly, one survivor
    while x != 1 << k:  # x~ > 1 puts X above 2^k at every k
        (lo, hi), (g_lo, g_hi) = _ln_bracket(x, k, w), _ln_gamma(spec.params, w)
        root, dim = x / (1 << k), hi / g_lo
        if (x - 1) / (1 << k) == root and lo / g_hi == dim:  # lo < 0 only retries
            break
        w *= 2
        if w > bits:
            x, k = _root_bracket(poly, w)
    g = x**n - (poly.linear_coeff * x << k * (n - 1)) - (poly.constant_coeff << k * n)
    try:
        residual = abs(g) / (1 << k * n)  # |g(X/2^k)|, correctly rounded
    except OverflowError:  # past the double range, as for n = 2000
        residual = math.inf
    return DimensionReport(spec, poly, root, dim, residual)


def cantor_similarity(m: int, r: float) -> float:
    """Similarity dimension of a set made of m copies of itself scaled by 1/r."""
    if m < 1:
        raise ValueError("copy count must be >= 1")
    if not math.isfinite(r):
        raise ValueError(f"scale factor must be finite, got {r}")
    if r <= 1:
        raise ValueError("scale factor must be > 1")
    return math.log(m) / math.log(r)


def cantor_hausdorff(i: int, j: float) -> float:
    """Critical exponent t with i * j^t = 1, for i intervals of length j < 1."""
    if i < 1:
        raise ValueError("interval count must be >= 1")
    if not (0 < j < 1):
        raise ValueError("interval length must lie in (0, 1)")
    return math.log(1 / i) / math.log(j)
