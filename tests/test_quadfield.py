"""Exact field arithmetic, sign determination, and float conversion."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metallic import MetallicParams, ParamsMismatch, QuadElement, gamma_pow, metallic_sequence
from metallic import quadfield
from metallic.fractal import FractalSpec, iter_cover_intervals
from metallic.quadfield import to_double
from metallic.tiling import tiling_at_step

GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)
COPPER = MetallicParams(1, 2)

GRID = [MetallicParams(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]


def qe(c0, c1, params):
    return QuadElement(Fraction(c0), Fraction(c1), params)


def test_params_basics():
    assert GOLDEN.D == 5 and not GOLDEN.is_degenerate
    assert SILVER.D == 8 and not SILVER.is_degenerate
    assert COPPER.D == 9 and COPPER.is_degenerate and COPPER.rational_root == 2
    assert abs(GOLDEN.gamma_float - 1.6180339887498949) < 1e-12
    assert abs(SILVER.gamma_float - 2.4142135623730951) < 1e-12
    assert COPPER.gamma_float == 2.0


def test_params_validation():
    with pytest.raises(ValueError):
        MetallicParams(0, 1)
    with pytest.raises(ValueError):
        MetallicParams(1, -1)


@pytest.mark.parametrize("params", GRID)
def test_gamma_float_satisfies_defining_relation(params):
    g = params.gamma_float
    assert abs(g * g - params.p * g - params.q) < 1e-12
    assert g > 1


def test_defining_relation_products():
    # gamma * gamma reduces to (q, p)
    assert GOLDEN.gamma() * GOLDEN.gamma() == qe(1, 1, GOLDEN)
    assert SILVER.gamma() * SILVER.gamma() == qe(1, 2, SILVER)


def test_product_expansion_golden():
    # (1 + phi)(-1 + phi) = phi^2 - 1 = phi
    left = GOLDEN.one() + GOLDEN.gamma()
    right = GOLDEN.gamma() - GOLDEN.one()
    assert left * right == qe(0, 1, GOLDEN)


def test_params_mismatch_raises():
    with pytest.raises(ParamsMismatch):
        GOLDEN.one() + SILVER.one()
    with pytest.raises(ParamsMismatch):
        GOLDEN.gamma() * SILVER.gamma()


def test_scalar_mixing():
    x = 2 * GOLDEN.gamma() + 1
    assert x == qe(1, 2, GOLDEN)
    assert x - Fraction(1, 2) == qe(Fraction(1, 2), 2, GOLDEN)


def test_gamma_pow_examples():
    assert gamma_pow(GOLDEN, 0) == qe(1, 0, GOLDEN)
    # 1/phi = phi - 1, and it multiplies back to 1
    inv = gamma_pow(GOLDEN, -1)
    assert inv == qe(-1, 1, GOLDEN)
    assert inv * qe(0, 1, GOLDEN) == qe(1, 0, GOLDEN)
    # delta^3 = 2 + 5*delta, consistent with the silver sequence
    assert gamma_pow(SILVER, 3) == qe(2, 5, SILVER)


@pytest.mark.parametrize("params", GRID)
def test_gamma_pow_inverse_pairs(params):
    one = params.one()
    for m in range(-20, 21):
        assert gamma_pow(params, m) * gamma_pow(params, -m) == one


@pytest.mark.parametrize("params", GRID)
def test_gamma_pow_matches_metallic_sequence(params):
    # gamma^m = q*a_{m-1} + a_m * gamma for m >= 1
    for m in range(1, 21):
        expected = qe(
            params.q * metallic_sequence(params, m - 1),
            metallic_sequence(params, m),
            params,
        )
        assert gamma_pow(params, m) == expected


def test_sign_examples():
    assert (GOLDEN.gamma() - GOLDEN.one()).sign() == 1
    relation = GOLDEN.one() + GOLDEN.gamma() - GOLDEN.gamma() * GOLDEN.gamma()
    assert relation.sign() == 0
    # total length of the silver step-2 tiling: 2/delta + 1/delta^2 - 1 = 0
    total = 2 * gamma_pow(SILVER, -1) + gamma_pow(SILVER, -2) - SILVER.one()
    assert total.sign() == 0


def test_sign_quadrants():
    assert qe(-3, 1, GOLDEN).sign() == -1   # phi - 3 < 0
    assert qe(-1, 1, GOLDEN).sign() == 1    # phi - 1 > 0
    assert qe(3, -1, GOLDEN).sign() == 1    # 3 - phi > 0
    assert qe(1, -1, GOLDEN).sign() == -1   # 1 - phi < 0
    assert qe(0, -2, SILVER).sign() == -1
    assert GOLDEN.zero().sign() == 0


def test_sign_agrees_with_high_precision_float():
    rng = random.Random(20240817)
    for _ in range(1000):
        c0 = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        c1 = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        params = rng.choice(GRID)
        x = QuadElement(c0, c1, params)
        approx = x.to_mpf(128)
        if approx == 0:
            assert x.sign() == 0
        else:
            assert x.sign() == (1 if approx > 0 else -1)
    # constructed zeros are decided exactly
    for params in GRID:
        zero = qe(params.q, params.p, params) - params.gamma() * params.gamma()
        assert zero.sign() == 0


def test_degenerate_matches_rational_arithmetic():
    rng = random.Random(7)
    g = COPPER.rational_root
    for _ in range(200):
        a = qe(rng.randint(-50, 50), rng.randint(-50, 50), COPPER)
        b = qe(rng.randint(-50, 50), rng.randint(-50, 50), COPPER)
        va, vb = a.c0 + a.c1 * g, b.c0 + b.c1 * g
        for op, ref in ((a + b, va + vb), (a - b, va - vb), (a * b, va * vb)):
            assert op.c0 + op.c1 * g == ref
            assert op.sign() == (ref > 0) - (ref < 0)
        assert a.to_mpf(128) == mpmath.mpf(va.numerator) / va.denominator


def test_degenerate_inverse_with_zero_norm():
    # 1 + gamma = 3 for copper; its field norm vanishes but the value does not
    x = COPPER.one() + COPPER.gamma()
    assert x.inverse() == qe(Fraction(1, 3), 0, COPPER)
    with pytest.raises(ZeroDivisionError):
        COPPER.zero().inverse()


def test_inverse_roundtrip():
    rng = random.Random(99)
    for params in GRID:
        for _ in range(20):
            x = qe(rng.randint(-9, 9), rng.randint(-9, 9), params)
            if x.sign() == 0:
                continue
            assert (x * x.inverse() - params.one()).sign() == 0


def test_pow_and_division():
    x = GOLDEN.gamma()
    assert x**4 == gamma_pow(GOLDEN, 4)
    assert x**-3 == gamma_pow(GOLDEN, -3)
    assert ((x**2) / x - x).sign() == 0


def test_to_mpf_tolerance():
    rng = random.Random(4)
    cases = [(GOLDEN.gamma(), GOLDEN), (SILVER.gamma(), SILVER), (COPPER.gamma(), COPPER)]
    cases += [
        (qe(Fraction(rng.randint(-999, 999), rng.randint(1, 999)),
            Fraction(rng.randint(-999, 999), rng.randint(1, 999)), params), params)
        for params in GRID for _ in range(5)
    ]
    for x, params in cases:
        with mpmath.workprec(300):
            truth = (
                mpmath.mpf(x.c0.numerator) / x.c0.denominator
                + mpmath.mpf(x.c1.numerator) / x.c1.denominator
                * (params.p + mpmath.sqrt(params.D)) / 2
            )
            for bits in (53, 64, 128, 200):
                err = abs(x.to_mpf(bits) - truth)
                assert err <= mpmath.mpf(2) ** (1 - bits) * max(1, abs(truth))
    # the first two digits of the named means, straight off the table
    assert abs(float(GOLDEN.gamma().to_mpf(128)) - 1.6180339887) < 1e-9
    assert abs(float(SILVER.gamma().to_mpf(128)) - 2.4142135623) < 1e-9
    assert float(COPPER.gamma().to_mpf(128)) == 2.0


def test_to_mpf_rejects_low_precision():
    with pytest.raises(ValueError):
        GOLDEN.gamma().to_mpf(32)


def test_float_conversion():
    assert abs(float(GOLDEN.gamma()) - 1.618033988749895) < 1e-15
    assert float(COPPER.gamma()) == 2.0


def _rational(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp  # man is |mantissa|
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _within_relative(x: QuadElement, approx: Fraction, rel: Fraction) -> bool:
    """|x - approx| <= rel*|x|, decided with exact signs."""
    size = x if x.sign() > 0 else -x
    return (size * rel - (x - approx)).sign() >= 0 and (size * rel + (x - approx)).sign() >= 0


def test_float_survives_cancellation():
    # c0 and c1*gamma of gamma^-60 agree to 25 digits; summing them at working
    # precision used to give exactly 0.0
    x = gamma_pow(GOLDEN, -60)
    assert float(x) != 0.0
    assert _is_correctly_rounded(x, float(x))


@pytest.mark.parametrize("m", [80, 120, 200])
@pytest.mark.parametrize("bits", [53, 128, 300])
def test_to_mpf_bound_under_cancellation(m, bits):
    x = gamma_pow(GOLDEN, -m)
    assert _within_relative(x, _rational(x.to_mpf(bits)), Fraction(2) ** (1 - bits))


def _is_correctly_rounded(x: QuadElement, f: float) -> bool:
    """x lies between the midpoints from f to its two neighbouring doubles."""
    lower = (Fraction(f) + Fraction(math.nextafter(f, -math.inf))) / 2
    upper = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    return (x - lower).sign() >= 0 and (upper - x).sign() >= 0


_params = st.builds(MetallicParams, st.integers(1, 5), st.integers(1, 5))
_big = st.integers(-10**30, 10**30)


@st.composite
def _elements(draw):
    params = draw(_params)
    kind = draw(st.sampled_from(["coefficients", "power", "near-cancel"]))
    if kind == "coefficients":
        return QuadElement(Fraction(draw(_big), draw(st.integers(1, 10**30))),
                           Fraction(draw(_big), draw(st.integers(1, 10**30))), params)
    power = gamma_pow(params, -draw(st.integers(0, 200)))
    if kind == "power":
        return power * draw(st.sampled_from([1, -1, 3, Fraction(-7, 5)]))
    # an integer combination of gamma^-m and gamma^-(m+1), most digits cancelling
    other = gamma_pow(params, -draw(st.integers(0, 200)))
    return power * draw(_big) + other * draw(st.integers(-3, 3))


@settings(max_examples=400, deadline=None)
@given(_elements())
def test_float_is_correctly_rounded(x):
    assert _is_correctly_rounded(x, float(x))


@settings(max_examples=100, deadline=None)
@given(_elements(), st.integers(53, 400))
def test_to_mpf_relative_bound(x, bits):
    approx = _rational(x.to_mpf(bits))
    if x.sign() == 0:
        assert approx == 0
    else:
        assert _within_relative(x, approx, Fraction(2) ** (1 - bits))


def test_to_double_on_integers():
    # (u + v*gamma)/den straight from integers, as the CLI and renderer call it
    assert to_double(GOLDEN, 0, 1, 1) == GOLDEN.gamma_float == 1.618033988749895
    assert to_double(COPPER, 1, 1, 3) == 1.0  # gamma = 2: (1 + 2)/3
    assert to_double(SILVER, 5, 0, 7) == 5 / 7
    u, v, den = gamma_pow(SILVER, -40).numerators()
    assert to_double(SILVER, u, v, den) == float(gamma_pow(SILVER, -40))
    assert to_double(SILVER, u, v, den) != 0.0


def test_to_double_fixed_point_path_and_fallback(monkeypatch):
    calls = []
    bracket = quadfield._bracket
    monkeypatch.setattr(quadfield, "_bracket", lambda *a: calls.append(a) or bracket(*a))

    def check(params, u, v, den):
        f = to_double(params, u, v, den)
        assert _is_correctly_rounded(QuadElement(Fraction(u, den), Fraction(v, den), params), f)

    nickel = MetallicParams(1, 3)
    for tile in tiling_at_step(nickel, 12).tiles:
        check(nickel, tile.u, tile.v, tile.den)
    for iv in iter_cover_intervals(FractalSpec(SILVER, 2, 0, 1), 13):
        check(SILVER, iv.u, iv.v, iv.den)
    assert calls == []  # every start was settled by the fixed-point sqrt(D)
    # gamma^-200: |v| is near 2^138 against a scaled value near 2^54, so the
    # fixed-point bracket straddles many doubles
    check(GOLDEN, *gamma_pow(GOLDEN, -200).numerators())
    assert calls


@pytest.mark.parametrize("m", [1760, 2000, 5000])
def test_to_double_underflows_where_fixed_point_bracket_overflows(m):
    # past |v| ~ 2^1217 the fixed-point bracket, divided by 2*den*2^192, is above
    # the largest double; the isqrt bracket still settles the value
    assert float(gamma_pow(GOLDEN, -m)) == 0.0
    assert float(1 - gamma_pow(GOLDEN, -m)) == 1.0
