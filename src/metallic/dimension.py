"""Analytic dimension of an (n, l, s) fractal.

One level of the construction keeps N_a' = N_a - l long survivors of length
gamma^-(n-1) and N_b' = N_b - s short survivors of length gamma^-n. Setting
x = gamma^d, both the self-similarity equation and the critical cover-sum
condition reduce to the same polynomial

    g(x) = x^n - N_a' * x - N_b' = 0,

which has exactly one positive root x~ (one coefficient sign change), lying in
[1, gamma]. The dimension is d = log(x~) / log(gamma). `_root_bracket` finds x~
in exact integers, for g here and for the cover polynomials of `estimate`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import EmptyFractal, Record
from .limits import DEFAULT_BITS, check_bits

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


def _root_bracket(degree: int, terms, bits: int) -> tuple[int, int]:
    """(X, k = bits + 8) with (X - 1)/2^k < x~ <= X/2^k, x~ the positive root of
    P(x) = x^degree - sum c*x^j over the (j, c) in `terms`: j < degree, c >= 0,
    not all 0.

    X starts at or above max_j (m*c_j)^(1/(degree-j)) over the m nonzero terms
    (x^(degree-j) >= m*c_j for each j gives x^degree >= sum c_j*x^j). While
    G(X - 1) >= 0, with G(X) = 2^(k*degree)*P(X/2^k) exact in integers, X takes
    a Newton step from X - 1; P is convex and increasing right of x~, so X stays
    at or above x~*2^k. This runs at k = 40, where powers are cheap, then at
    k = bits + 8.
    """
    terms = [(j, c) for j, c in terms if c]
    seed = max([math.log2(len(terms) * c) / (degree - j) for j, c in terms])
    seed = seed * (1 + 2.0**-45) + 2.0**-40  # log2 of the bound, past float error
    x = (int(2.0 ** (seed % 1 + 40)) + 1) << int(seed)  # 2^seed with 40 fraction bits
    top = max(terms)[0]
    lead = degree - top  # G = (...((X^lead - C_top)*X - C_(top-1))*X ...)*X - C_0
    for k, shift in ((40, 0), (bits + 8, bits - 32)):
        x <<= shift
        rest = [0] * (top + 1)  # C_j = c_j*2^(k*(degree-j)), highest j first
        for j, c in terms:
            rest[top - j] = c << (k * (degree - j))
        c_top = rest.pop(0)
        while True:  # G and G' at X - 1 by Horner's rule
            y = x - 1
            y_pow = y ** (lead - 1)
            g, slope = y_pow * y - c_top, lead * y_pow
            for c in rest:
                g, slope = g * y - c, slope * y + g
            if g < 0:
                break
            x = y - g // slope
    return x, k


def _char_terms(poly: CharPoly) -> tuple[tuple[int, int], tuple[int, int]]:
    return (1, poly.linear_coeff), (0, poly.constant_coeff)


def positive_root(poly: CharPoly, bits: int = DEFAULT_BITS) -> mpmath.mpf:
    """The unique positive root of g, rounded at `bits` from `_root_bracket`."""
    import mpmath
    x, k = _root_bracket(poly.degree, _char_terms(poly), bits)
    with mpmath.workprec(bits):
        return mpmath.mpf((x, -k))


def _log_ratio(bracket: tuple[int, int], params, bits: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The root X/2^k of a bracket rounded at `bits`, and log(root)/log(gamma)."""
    import mpmath
    x, k = bracket
    with mpmath.workprec(bits):
        root = mpmath.mpf((x, -k))
        return root, mpmath.log(root) / mpmath.log(params.gamma_mpf(bits))


class DimensionReport(Record):
    _fields = ("spec", "poly", "root", "dim", "root_residual")

    def __init__(self, spec: FractalSpec, poly: CharPoly, root: float, dim: float,
                 root_residual: float) -> None:
        self.__dict__.update(spec=spec, poly=poly, root=root, dim=dim, root_residual=root_residual)


def dimension(spec: FractalSpec, bits: int = DEFAULT_BITS) -> DimensionReport:
    """Similarity dimension of the fractal (the Hausdorff value coincides:
    both derivations end at the same root equation)."""
    check_bits(bits)
    poly = char_poly(spec)
    root, dim = _log_ratio(_root_bracket(poly.degree, _char_terms(poly), bits), spec.params, bits)
    import mpmath
    with mpmath.workprec(bits):
        residual = abs(poly(root))
    return DimensionReport(spec, poly, float(root), float(dim), float(residual))


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
