"""Analytic dimension of an (n, l, s) fractal.

One level of the construction keeps N_a' = N_a - l long survivors of length
gamma^-(n-1) and N_b' = N_b - s short survivors of length gamma^-n. Setting
x = gamma^d, both the self-similarity equation and the critical cover-sum
condition reduce to the same polynomial

    g(x) = x^n - N_a' * x - N_b' = 0,

which has exactly one positive root x~ (one coefficient sign change), lying in
[1, gamma]. The dimension is d = log(x~) / log(gamma). The root is found by
integer Newton steps on the scaled polynomial 2^(kn) * g(X / 2^k), started
above x~; g is convex and increasing right of x~, so every iterate stays an
upper bound, and exact integer signs leave (X - 1)/2^k < x~ <= X/2^k. The
result is deterministic and immune to cancellation at large n.
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
    na, nb = spec.survivor_counts
    if na + nb == 0:
        raise EmptyFractal("no surviving tiles")
    return CharPoly(spec.n, na, nb)


def positive_root(poly: CharPoly, bits: int = DEFAULT_BITS) -> mpmath.mpf:
    """The unique positive root of g, at `bits` binary precision.

    With a, b the linear and constant coefficients, G(X) = X^n - a*X*2^(k(n-1))
    - b*2^(kn) = 2^(kn)*g(X/2^k) is exact in integers. Newton steps
    X -= floor(G/G') start at or above (a + b)^(1/(n-1)), an upper bound on x~
    (x^(n-1) >= a + b gives g(x) >= 0 for x >= 1), and stay above x~. They run
    to a zero step with k = 40 fraction bits, where powers are cheap, then with
    k = bits + 8. X is then lowered while G(X - 1) >= 0, so
    (X - 1)/2^k < x~ <= X/2^k holds by exact signs.
    """
    import mpmath
    n, a, b = poly.degree, poly.linear_coeff, poly.constant_coeff
    seed = math.log2(a + b) / (n - 1) + 2.0**-40  # log2 of the bound, rounded up
    x = int(2.0 ** (seed % 1 + 40)) << int(seed)  # 2^seed with 40 fraction bits
    for k, shift in ((40, 0), (bits + 8, bits - 32)):
        x <<= shift
        a_k, b_k = a << (k * (n - 1)), b << (k * n)  # G(X) = (X^(n-1) - a_k)*X - b_k
        while True:
            x_pow = x ** (n - 1)
            step = ((x_pow - a_k) * x - b_k) // (n * x_pow - a_k)
            if not step:
                break
            x -= step
    while ((x - 1) ** (n - 1) - a_k) * (x - 1) >= b_k:
        x -= 1
    with mpmath.workprec(bits):
        return mpmath.mpf((x, -k))


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
