"""Characteristic polynomials, their positive roots, and dimension values."""

import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metallic import (
    CharPoly,
    EmptyFractal,
    FractalSpec,
    MetallicParams,
    cantor_hausdorff,
    cantor_similarity,
    char_poly,
    cover_summary,
    dimension,
    gamma_pow,
    positive_root,
    tile_counts,
)
from metallic.dimension import _ln_bracket, _ln_gamma, _root_bracket

GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)


def test_char_poly_printed_examples():
    assert str(char_poly(FractalSpec(GOLDEN, 4, 1, 1))) == "x^4 - 2x - 1"
    assert str(char_poly(FractalSpec(SILVER, 2, 1, 0))) == "x^2 - 1x - 1"
    poly = char_poly(FractalSpec(GOLDEN, 3, 0, 1))
    assert (poly.degree, poly.linear_coeff, poly.constant_coeff) == (3, 2, 0)


def test_positive_root_paper_values():
    assert abs(float(positive_root(CharPoly(4, 2, 1))) - 1.3953) < 5e-5
    assert abs(float(positive_root(CharPoly(2, 1, 1))) - 1.6180) < 5e-5
    # (3,0,1): x^3 = 2x, positive root sqrt(2)
    assert abs(float(positive_root(CharPoly(3, 2, 0))) - math.sqrt(2)) < 1e-15


@pytest.mark.parametrize("params", [GOLDEN, SILVER, MetallicParams(3, 2), MetallicParams(1, 2)])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_no_removal_root_is_gamma(params, n):
    counts = tile_counts(params, n)
    poly = CharPoly(n, counts.N_a, counts.N_b)
    # symbolic check of the identity gamma^n = a_n*gamma + q*a_{n-1}
    identity = (
        gamma_pow(params, n)
        - counts.N_a * gamma_pow(params, 1)
        - counts.N_b * params.one()
    )
    assert identity.sign() == 0
    root = positive_root(poly, bits=160)
    with mpmath.workprec(160):
        assert abs(root - params.gamma_mpf(160)) < mpmath.mpf(2) ** -140


def test_single_survivor_root_is_one():
    assert positive_root(CharPoly(4, 1, 0)) == 1
    assert positive_root(CharPoly(4, 0, 1)) == 1


def test_dimension_paper_values():
    assert abs(dimension(FractalSpec(GOLDEN, 3, 0, 1)).dim - 0.7202) < 5e-5
    # the true 0.692285479793978 rounds to 0.6923 (0.6922 is its truncation)
    assert abs(dimension(FractalSpec(GOLDEN, 4, 1, 1)).dim - 0.6923) < 5e-5
    assert abs(dimension(FractalSpec(SILVER, 2, 1, 0)).dim - 0.54596) < 5e-5


def test_dimension_report_fields():
    report = dimension(FractalSpec(GOLDEN, 4, 1, 1))
    assert 1 <= report.root <= GOLDEN.gamma_float + 1e-12
    assert 0 <= report.dim <= 1
    assert report.root_residual <= 1e-12 * max(1.0, GOLDEN.gamma_float**4)


def test_boundary_identities():
    for params in (GOLDEN, SILVER, MetallicParams(2, 2)):
        for n in (2, 3, 4):
            assert abs(dimension(FractalSpec(params, n, 0, 0)).dim - 1.0) <= 1e-12
    # single-survivor specs collapse to a point
    assert dimension(FractalSpec(GOLDEN, 2, 1, 0)).dim == 0.0
    assert dimension(FractalSpec(GOLDEN, 2, 0, 1)).dim == 0.0


@pytest.mark.parametrize("bits", [53, 128])
def test_no_removal_dimension_is_exactly_one(bits):
    # log(x~)/log(gamma) with x~ = gamma: an uncertified 53-bit log gives
    # 0.9999999999999999 on some of these
    dims = {dimension(FractalSpec(MetallicParams(p, q), n, 0, 0), bits).dim
            for p in range(1, 7) for q in range(1, 7) for n in range(2, 30)}
    assert dims == {1.0}


def test_monotonicity_in_removals():
    for params in (GOLDEN, SILVER):
        for n in (3, 4, 5):
            counts = tile_counts(params, n)
            dims_l = [
                dimension(FractalSpec(params, n, l, 0)).dim
                for l in range(0, counts.N_a + (counts.N_b > 0))
            ]
            assert all(a > b for a, b in zip(dims_l, dims_l[1:]))
            dims_s = [
                dimension(FractalSpec(params, n, 0, s)).dim
                for s in range(0, counts.N_b + 1)
                if counts.N_a + counts.N_b - s >= 1
            ]
            assert all(a > b for a, b in zip(dims_s, dims_s[1:]))


def test_root_bracketing_grid():
    # g(1) <= 0 and g(gamma_float) >= -1e-9 across a corner-and-small sample
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            params = MetallicParams(p, q)
            gamma = params.gamma_float
            for n in range(2, 9):
                counts = tile_counts(params, n)
                ls = sorted({0, 1, counts.N_a - 1, counts.N_a})
                ss = sorted({0, 1, counts.N_b - 1, counts.N_b})
                for l in ls:
                    for s in ss:
                        if l < 0 or s < 0 or counts.total - l - s < 1:
                            continue
                        a, b = counts.N_a - l, counts.N_b - s
                        assert 1 - a - b <= 0
                        g_at_gamma = gamma**n - a * gamma - b
                        assert g_at_gamma >= -1e-9


def test_cantor_similarity_values():
    assert abs(cantor_similarity(2, 3) - 0.6309) < 5e-5
    assert cantor_similarity(1, 7.5) == 0.0
    assert cantor_similarity(3, 3) == 1.0


def test_cantor_hausdorff_values():
    assert abs(cantor_hausdorff(2, 1 / 3) - 0.6309) < 5e-5
    assert cantor_hausdorff(1, 0.25) == 0.0
    phi = GOLDEN.gamma_float
    d301 = dimension(FractalSpec(GOLDEN, 3, 0, 1)).dim
    assert abs(cantor_hausdorff(2, 1 / phi**2) - d301) < 1e-12


def test_cantor_forms_agree():
    for i in (2, 3, 5, 9):
        for j in (0.1, 1 / 3, 0.5, 0.9):
            assert math.isclose(
                cantor_hausdorff(i, j), cantor_similarity(i, 1 / j), rel_tol=1e-14
            )


def test_cantor_validation():
    with pytest.raises(ValueError):
        cantor_similarity(0, 3)
    with pytest.raises(ValueError):
        cantor_similarity(2, 1.0)
    with pytest.raises(ValueError):
        cantor_hausdorff(0, 0.5)
    with pytest.raises(ValueError):
        cantor_hausdorff(2, 1.5)


def test_empty_poly_rejected():
    with pytest.raises(EmptyFractal):
        CharPoly(3, 0, 0)


def test_degree_below_two_rejected():
    # (1 - 2)x - 0 = -x has no positive root
    with pytest.raises(ValueError, match="degree must be >= 2"):
        CharPoly(1, 2, 0)


def ulp_neighbours(root, bits):
    """root - ulp and root + ulp as exact Fractions, ulp at `bits` binary digits."""
    value = Fraction(int(root.man)) * Fraction(2) ** int(root.exp)
    ulp = Fraction(2) ** int(root.exp + root.bc - bits)
    return value - ulp, value + ulp


def test_root_past_the_double_range():
    poly = CharPoly(2, 10**400, 1)
    start = time.perf_counter()
    root = positive_root(poly)
    assert time.perf_counter() - start < 1
    below, above = ulp_neighbours(root, 128)
    assert poly(below) < 0 < poly(above)
    # near-monomials, where the constant term dominates: the seed b^(1/n) is
    # the root itself, and a seed of (a + b)^(1/(n - 1)) took ~2,000 steps
    start = time.perf_counter()
    assert positive_root(CharPoly(5, 0, 2**4000)) == 2**800
    for poly in (CharPoly(5, 0, 10**4000), CharPoly(2, 0, 10**400), CharPoly(5, 1, 10**4000)):
        below, above = ulp_neighbours(positive_root(poly), 128)
        assert poly(below) < 0 < poly(above)
    assert time.perf_counter() - start < 1


@st.composite
def spec_polys(draw):
    """The polynomial of a (p, q, n, l, s) spec with p, q <= 6 and n <= 300."""
    params = MetallicParams(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = draw(st.integers(2, 300))
    counts = tile_counts(params, n)
    l = draw(st.integers(0, counts.N_a))
    s = draw(st.integers(0, min(counts.N_b, counts.total - l - 1)))  # one tile survives
    return CharPoly(n, counts.N_a - l, counts.N_b - s)


@settings(max_examples=100, deadline=None)
@given(spec_polys(), st.sampled_from([53, 128, 200]))
@example(CharPoly(5, 0, 10**4000), 128)
@example(CharPoly(2, 0, 10**400), 53)
def test_root_bracketed_by_exact_signs(poly, bits):
    below, above = ulp_neighbours(positive_root(poly, bits), bits)
    assert poly(below) < 0 < poly(above)


@settings(max_examples=100, deadline=None)
@given(spec_polys())
def test_root_rounds_like_a_400_bit_reference(poly):
    root = positive_root(poly)
    with mpmath.workprec(400):
        reference = mpmath.findroot(poly, root, verify=False)
        newton_step = poly(reference) / (poly.degree * reference ** (poly.degree - 1)
                                         - poly.linear_coeff)
        assert abs(newton_step) <= reference * mpmath.mpf(2) ** -300
    expected = float(reference)  # rounded to nearest
    assert float(root) == expected
    assert abs(float(positive_root(poly, bits=53)) - expected) <= math.ulp(expected)


@st.composite
def small_specs(draw):
    """A (p, q, n, l, s) spec with p, q <= 6, n <= 30 and at least one survivor."""
    params = MetallicParams(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = draw(st.integers(2, 30))
    counts = tile_counts(params, n)
    l = draw(st.integers(0, counts.N_a))
    s = draw(st.integers(0, min(counts.N_b, counts.total - l - 1)))
    return FractalSpec(params, n, l, s)


@settings(max_examples=150, deadline=None)
@given(small_specs(), st.sampled_from([53, 64, 128, 200]))
@example(FractalSpec(GOLDEN, 2, 1, 0), 53)  # one survivor: root 1, dim 0.0
@example(FractalSpec(GOLDEN, 3, 1, 1), 128)  # one long survivor: x^3 = x
@example(FractalSpec(MetallicParams(1, 2), 4, 0, 0), 53)  # gamma = 2 is the root itself
@example(FractalSpec(MetallicParams(1, 2), 3, 1, 0), 200)  # a rational mean, one removal
@example(FractalSpec(SILVER, 3, 0, 0), 53)  # dim exactly 1 at the fewest bits
def test_dimension_rounds_like_a_400_bit_reference(spec, bits):
    report = dimension(spec, bits)
    poly = report.poly
    with mpmath.workprec(400):
        root = mpmath.findroot(poly, report.root, verify=False)
        newton_step = poly(root) / (poly.degree * root ** (poly.degree - 1) - poly.linear_coeff)
        assert abs(newton_step) <= root * mpmath.mpf(2) ** -300
        dim = mpmath.log(root) / mpmath.log(spec.params.gamma_mpf(400))
    assert (report.root, report.dim) == (float(root), float(dim))  # rounded to nearest
    assert math.copysign(1.0, report.dim) == 1.0  # a point has dim 0.0, not -0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 400), st.integers(1, 2**600), st.sampled_from([64, 80, 160, 320]),
       st.integers(1, 10**30), st.integers(1, 10**30))
@example(0, 1, 80, 1, 1)  # y just above 1
@example(200, 2**200 + 1, 64, 1, 2)  # a rational mean, gamma = 2
def test_integer_logs_bracket_a_high_precision_reference(k, offset, w, p, q):
    x = (1 << k) + offset
    lo, hi = _ln_bracket(x, k, w)
    g_lo, g_hi = _ln_gamma(MetallicParams(p, q), w)
    with mpmath.workprec(w + 700):
        scale = mpmath.mpf(2) ** w
        assert lo <= mpmath.log(mpmath.mpf(x - 1) / 2**k) * scale
        assert mpmath.log(mpmath.mpf(x) / 2**k) * scale <= hi
        assert g_lo <= mpmath.log((p + mpmath.sqrt(p * p + 4 * q)) / 2) * scale <= g_hi
    # the bounds stay tight: a few units per term and per power of 2, plus the bracket
    assert hi - lo <= 2 ** max(0, w - k) + 8 * w * (x.bit_length() - k)
    assert g_hi - g_lo <= 2 + 8 * w * (p + q).bit_length()


def test_root_deterministic():
    a = positive_root(CharPoly(4, 2, 1))
    b = positive_root(CharPoly(4, 2, 1))
    assert a == b


@pytest.mark.parametrize("p, q, n, l, s", [
    (1, 1, 4, 1, 1), (2, 1, 2, 1, 0), (1, 1, 3, 0, 1), (3, 3, 5, 2, 1), (1, 1, 2, 1, 0),
])
def test_cover_polynomial_has_the_char_poly_bracket(p, q, n, l, s):
    # S_k = Y^k: the cover polynomial x^(nk) - sum c_m x^(nk-m) is x^(nk) - (a*x + b)^k,
    # which has the sign of g on x > 0, so g's bracket holds its positive root at every depth
    spec = FractalSpec(MetallicParams(p, q), n, l, s)
    poly = char_poly(spec)
    for bits in (53, 128):
        x, k = _root_bracket(poly, bits)
        below, above = Fraction(x - 1, 2**k), Fraction(x, 2**k)
        assert k == bits + 8 and poly(below) < 0 <= poly(above)
        for depth in (1, 2, 5, 12):
            degree = n * depth
            counts = cover_summary(spec, depth).exponent_counts()
            low, high = (y**degree - sum(c * y ** (degree - m) for m, c in counts.items())
                         for y in (below, above))
            assert low < 0 <= high, (bits, depth)
