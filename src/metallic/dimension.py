"""Analytic dimension of an (n, l, s) fractal.

One level of the construction keeps N_a' = N_a - l long survivors of length
gamma^-(n-1) and N_b' = N_b - s short survivors of length gamma^-n. Setting
x = gamma^d, both the self-similarity equation and the critical cover-sum
condition reduce to the same polynomial

    g(x) = x^n - N_a' * x - N_b' = 0,

which has exactly one positive root x~ (one coefficient sign change), lying in
[1, gamma]. The dimension is d = log(x~) / log(gamma). The root is bracketed
by bisection with exact rational signs (integer coefficients make g exact at
rational points), then polished with a few Newton steps in high precision, so
the result is deterministic and immune to cancellation at large n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import EmptyFractal, Record
from .limits import DEFAULT_BITS, check_bits

if TYPE_CHECKING:  # annotations only: `import metallic` leaves fractal unloaded
    from .fractal import FractalSpec


class CharPoly(Record):
    """g(x) = x^degree - linear_coeff*x - constant_coeff, coefficients >= 0."""

    _fields = ("degree", "linear_coeff", "constant_coeff")

    def __init__(self, degree: int, linear_coeff: int, constant_coeff: int) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if linear_coeff < 0 or constant_coeff < 0:
            raise ValueError("coefficients must be >= 0")
        if linear_coeff + constant_coeff < 1:
            raise EmptyFractal("polynomial x^n has no positive root")
        self.__dict__.update(degree=degree, linear_coeff=linear_coeff,
                             constant_coeff=constant_coeff)

    def eval_exact(self, x: Fraction) -> Fraction:
        return x**self.degree - self.linear_coeff * x - self.constant_coeff

    def eval_mpf(self, x: mpmath.mpf) -> mpmath.mpf:
        return x**self.degree - self.linear_coeff * x - self.constant_coeff

    def deriv_mpf(self, x: mpmath.mpf) -> mpmath.mpf:
        return self.degree * x ** (self.degree - 1) - self.linear_coeff

    def __str__(self) -> str:
        return f"x^{self.degree} - {self.linear_coeff}x - {self.constant_coeff}"


def char_poly(spec: FractalSpec) -> CharPoly:
    """Characteristic polynomial of the fractal from its survivor counts."""
    na, nb = spec.survivor_counts
    if na + nb == 0:
        raise EmptyFractal("no surviving tiles")
    return CharPoly(spec.n, na, nb)


def positive_root(poly: CharPoly, bits: int = DEFAULT_BITS) -> mpmath.mpf:
    """The unique positive root of g, at `bits` binary precision.

    Bisection on rational points (exact signs) down to relative width 1e-15,
    then at most 5 Newton steps in working precision `bits`.
    """
    import mpmath
    one = Fraction(1)
    if poly.eval_exact(one) == 0:
        # single survivor: x^n = x or x^n = 1, root exactly 1
        return mpmath.mpf(1)
    lo = one
    hi = Fraction(2)
    while poly.eval_exact(hi) < 0:
        hi *= 2
    width_goal = hi / 10**15
    while hi - lo > width_goal:
        mid = (lo + hi) / 2
        v = poly.eval_exact(mid)
        if v == 0:
            return _newton_polish(poly, mid, bits)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return _newton_polish(poly, (lo + hi) / 2, bits)


def _newton_polish(poly: CharPoly, x0: Fraction, bits: int) -> mpmath.mpf:
    import mpmath
    with mpmath.workprec(bits):
        x = mpmath.mpf(x0.numerator) / x0.denominator
        eps = mpmath.mpf(2) ** (5 - bits)
        for _ in range(5):
            step = poly.eval_mpf(x) / poly.deriv_mpf(x)
            x = x - step
            if abs(step) <= eps * x:
                break
        return x


class DimensionReport(Record):
    _fields = ("spec", "poly", "root", "dim", "root_residual")

    def __init__(self, spec: FractalSpec, poly: CharPoly, root: float, dim: float,
                 root_residual: float) -> None:
        self.__dict__.update(spec=spec, poly=poly, root=root, dim=dim, root_residual=root_residual)


def dimension(spec: FractalSpec, bits: int = DEFAULT_BITS) -> DimensionReport:
    """Similarity dimension of the fractal (the Hausdorff value coincides:
    both derivations end at the same root equation)."""
    import mpmath
    check_bits(bits)
    poly = char_poly(spec)
    with mpmath.workprec(bits):
        root = positive_root(poly, bits)
        gamma = spec.params.gamma_mpf(bits)
        dim = mpmath.log(root) / mpmath.log(gamma)
        residual = abs(poly.eval_mpf(root))
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
