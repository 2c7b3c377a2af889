"""Exact field arithmetic, sign determination, and float conversion."""

import copy
import math
import pickle
import random
import sys
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metallic import (MetallicParams, ParamsMismatch, QuadElement, gamma_pow, metallic_sequence,
                      tile_counts)
from metallic import quadfield
from metallic.fractal import FractalSpec, iter_cover_intervals
from metallic.quadfield import to_double
from metallic.tiling import tiling_at_step
from test_fractal import floor_scaled

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


def _isqrt_bracket(params, u, v, den, bits):
    """(lo, M) with lo < (u + v*gamma)/den * M < lo + 1 and |lo| >= 2^bits, for v != 0,
    den > 0 and gamma irrational: one isqrt of its own, at a k set from the norm's bit
    length. A reference that shares nothing with `sqrt_d_scaled`."""
    a, m = 2 * u + params.p * v, 2 * den
    bb = v * v * params.D
    norm_bits = (a * a - bb).bit_length()
    sum_bits = max(a.bit_length(), (bb.bit_length() + 1) // 2) + 1  # > log2(|a| + |v|*sqrt(D))
    # |value*m*2^k| > 2^(bits+1), so |lo| >= 2^bits
    k = max(0, bits + 2 + sum_bits - norm_bits)
    t = math.isqrt(bb << (2 * k))  # floor(|v|*sqrt(D)*2^k), never exact
    lo = (a << k) + t if v > 0 else (a << k) - t - 1
    return lo, m << k


def _from_rational(x, bits):
    """The lower end of x's `_isqrt_bracket` (or x itself, when exact) rounded to nearest
    at `bits` by mpmath's rational division: x rounded, unless x lies near a midpoint."""
    u, v, den = x.numerators()
    if x.params.rational_root is None and v:
        num, scaled_den = _isqrt_bracket(x.params, u, v, den, bits + 4)
    else:
        num, scaled_den = u + v * (x.params.rational_root or 0), den
    libmp = mpmath.libmp
    return mpmath.mp.make_mpf(libmp.from_rational(num, scaled_den, bits, libmp.round_nearest))


def test_to_mpf_is_one_rounding_whatever_the_ambient_precision():
    cases = [GOLDEN.gamma(), gamma_pow(SILVER, -40), qe(Fraction(-7, 3), Fraction(5, 11), GOLDEN),
             qe(Fraction(3, 7), 0, SILVER), qe(Fraction(1, 3), Fraction(2, 5), COPPER)]
    for x in cases:
        for bits in (53, 64, 128, 300):
            expected = _from_rational(x, bits)
            assert x.to_mpf(bits) == expected
            with mpmath.workprec(20):
                assert x.to_mpf(bits) == expected


def test_to_mpf_rounds_like_a_rational_division():
    rng = random.Random(20261019)
    dens = [1, 3, 7, *(2**j for j in range(1, 40, 7)), *(3**j for j in range(2, 30, 6))]
    for _ in range(3000):
        params = MetallicParams(rng.randint(1, 6), rng.randint(1, 5))
        size = rng.choice((4, 60, 600))
        u, v = (rng.choice((0, rng.randint(-2**size, 2**size))) for _ in "uv")
        x = qe(Fraction(u, rng.choice(dens)), Fraction(v, rng.choice(dens)), params)
        for bits in (53, 64, 128, 300):
            assert _rounds_to_nearest(x, x.to_mpf(bits), bits), (x, bits)


def _rounds_to_nearest(x, r, bits):
    """r is x rounded to nearest at `bits` bits: x lies between the midpoints from r to
    its two neighbours, and on one only if r's mantissa is even. Decided by exact signs."""
    if r == 0:
        return x.sign() == 0
    man, exp = r.man_exp  # man is |mantissa|; widen it to exactly `bits` bits
    man, exp = man << (bits - man.bit_length()), exp - (bits - man.bit_length())
    size = Fraction(man) * Fraction(2) ** exp
    below = Fraction(2) ** (exp - (man == 1 << (bits - 1)))  # the gap to the next smaller size
    magnitude = x if r > 0 else -x
    lower = (magnitude - (size - below / 2)).sign()
    upper = (size + Fraction(2) ** exp / 2 - magnitude).sign()
    return lower >= 0 and upper >= 0 and (lower and upper or man % 2 == 0)


def test_to_mpf_near_a_rounding_midpoint():
    # the lower end of the value's unit bracket rounds to the neighbour of the answer
    x = qe(Fraction(-458942938625259961, 256), Fraction(567194525723104751, 34359738368),
           MetallicParams(2, 5))
    with mpmath.workprec(128):
        nearest, neighbour = (-mpmath.mpf((270912085259286129948907059619775998720 + j, -77))
                              for j in (7, 8))
    assert x.to_mpf(128) == nearest and _rounds_to_nearest(x, nearest, 128)
    assert not _rounds_to_nearest(x, neighbour, 128)
    # exact rationals on a midpoint round to the even neighbour
    for value, even in ((2**53 + 1, 2**53), (2**53 + 3, 2**53 + 4), (-(2**60 + 2**7), -2**60)):
        x = qe(value, 0, SILVER)
        assert x.to_mpf(53) == even and _rounds_to_nearest(x, x.to_mpf(53), 53)


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
    kernel = quadfield._quotient
    monkeypatch.setattr(quadfield, "_quotient", lambda *a: calls.append(a) or kernel(*a))

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
    # the largest double; the kernel's bracket, sized from the norm, still settles it
    assert float(gamma_pow(GOLDEN, -m)) == 0.0
    assert float(1 - gamma_pow(GOLDEN, -m)) == 1.0


def _reference_double(params, u, v, den):
    """The double of (u + v*gamma)/den from `_isqrt_bracket`s narrowed until both ends
    round alike; OverflowError past the double range, as int/int division raises it."""
    g = params.rational_root
    if g is not None or v == 0:
        return (u + v * (g or 0)) / den
    bits = 64
    while True:
        lo, m = _isqrt_bracket(params, u, v, den, bits)
        f = lo / m
        if f == (lo + 1) / m:
            return f
        bits += 64


@st.composite
def _wide_numerators(draw):
    """(params, u, v, den) with |v| up to 2^3000, den up to 7^30 and q > 1 means drawn,
    half of them with u within a few units of -v*gamma, where most bits cancel."""
    params = MetallicParams(draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    v = draw(st.integers(-2**3000, 2**3000))
    den = draw(st.integers(1, 7**30))
    if draw(st.booleans()):
        floor = (params.p * abs(v) + math.isqrt(v * v * params.D)) // 2  # floor(|v|*gamma)
        u = (-floor if v > 0 else floor) + draw(st.integers(-3, 3))
    else:
        u = draw(st.integers(-2**3000, 2**3000))
    return params, u, v, den


def _double_or_overflow(fn, *args):
    try:
        return fn(*args).hex()
    except OverflowError:
        return "OverflowError"


@settings(max_examples=400, deadline=None)
@given(_wide_numerators())
def test_to_double_matches_an_isqrt_reference(case):
    assert _double_or_overflow(to_double, *case) == _double_or_overflow(_reference_double, *case)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_elements(), _wide_numerators().map(lambda c: quadfield._element(*c[1:], c[0]))))
def test_float_is_to_mpf_at_53_bits_in_the_normal_range(x):
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if sys.float_info.min <= abs(f) <= sys.float_info.max:
        assert f == float(x.to_mpf(53))


# Elements are integers (u + v*gamma)/den in lowest terms; Fractions are only read.

_fractions = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**9))


def _lowest_terms(x):
    return x.den > 0 and math.gcd(x.den, x.u, x.v) == 1


@settings(max_examples=300, deadline=None)
@given(_params, st.integers(-10**20, 10**20), st.integers(-10**20, 10**20),
       st.integers(1, 10**9), st.integers(-10**6, 10**6).filter(bool))
def test_integer_and_fraction_elements_agree(params, u, v, den, factor):
    # a common factor, and a negative den when factor < 0, reduce away
    x = QuadElement(Fraction(u, den), Fraction(v, den), params)
    y = quadfield._element(u * factor, v * factor, den * factor, params)
    assert x == y and hash(x) == hash(y) and x.numerators() == y.numerators()
    assert _lowest_terms(x) and _lowest_terms(y)
    assert (y.c0, y.c1) == (Fraction(u, den), Fraction(v, den))
    assert str(y) == f"{Fraction(u, den)} + {Fraction(v, den)}*gamma"


@pytest.mark.parametrize("params", [GOLDEN, COPPER])
def test_zero_has_one_representation(params):
    zeros = [params.zero(), QuadElement(0, 0, params), QuadElement(Fraction(0, 5), 0, params),
             quadfield._element(0, 0, -12, params), params.gamma() - params.gamma()]
    assert all(z.numerators() == (0, 0, 1) for z in zeros)
    assert len(set(zeros)) == 1 and zeros[0] != params.one()


def _reference(params, c0, c1, d0, d1):
    """Sum, difference, product and, when defined, inverse of c0 + c1*gamma and
    d0 + d1*gamma as Fraction pairs."""
    p, q, D, g = params.p, params.q, params.D, params.rational_root
    cross = c1 * d1
    results = [(c0 + d0, c1 + d1), (c0 - d0, c1 - d1),
               (c0 * d0 + q * cross, c0 * d1 + c1 * d0 + p * cross)]
    a = 2 * c0 + c1 * p  # the value is (a + c1*sqrt(D))/2
    norm = a * a - c1 * c1 * D
    if norm:
        results.append((2 * (a + c1 * p) / norm, -4 * c1 / norm))
    elif g is not None and c0 + c1 * g:
        results.append((1 / (c0 + c1 * g), Fraction(0)))
    return results


@settings(max_examples=300, deadline=None)
@given(_params, _fractions, _fractions, _fractions, _fractions)
def test_ring_operations_match_a_fraction_reference(params, c0, c1, d0, d1):
    x, y = QuadElement(c0, c1, params), QuadElement(d0, d1, params)
    expected = _reference(params, c0, c1, d0, d1)
    got = [x + y, x - y, x * y]
    if len(expected) == 4:
        got.append(x.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    for element, pair in zip(got, expected, strict=True):
        assert (element.c0, element.c1) == pair and _lowest_terms(element)
        assert element == QuadElement(*pair, params)
    assert -x == QuadElement(-c0, -c1, params) and x - x == params.zero()
    assert x + d0 == QuadElement(c0 + d0, c1, params) == d0 + x
    assert x * d0 == QuadElement(c0 * d0, c1 * d0, params) == d0 * x
    if y.sign():  # equal values; for a rational mean, not always equal fields
        assert ((x / y) * y - x).sign() == 0


@settings(max_examples=100, deadline=None)
@given(_elements())
def test_elements_pickle_and_copy(x):
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is QuadElement and clone == x and hash(clone) == hash(x)
        assert clone.numerators() == x.numerators() and clone.params == x.params


@pytest.mark.parametrize("spec", [FractalSpec(GOLDEN, 4, 1, 1), FractalSpec(SILVER, 2, 0, 1),
                                  FractalSpec(MetallicParams(1, 3), 2, 0, 1)])
def test_tile_start_is_the_fraction_element(spec):
    for iv in islice(iter_cover_intervals(spec, 12), 200):
        start = iv.start
        assert start == QuadElement(Fraction(iv.u, iv.den), Fraction(iv.v, iv.den), spec.params)
        assert _lowest_terms(start) and float(start) == to_double(spec.params, iv.u, iv.v, iv.den)


def _rounded_by_mpmath(x, bits):
    """x rounded to `bits` bits by mpmath's normaliser: from_man_exp of 2*floor(|x|*2^s)
    plus a sticky bit, the floor of bits + 2 bits or more read from an isqrt bracket
    n < |x|*m < n + 1 narrow enough that both ends give it (|x|*m = n when exact)."""
    libmp = mpmath.libmp
    if x.sign() == 0:
        return libmp.fzero
    u, v, den = x.numerators()
    g, k = x.params.rational_root, bits + 8
    while True:
        if g is not None or v == 0:
            n, m, width = abs(u + v * (g or 0)), den, 0
        else:
            lo, m = _isqrt_bracket(x.params, u, v, den, k)
            n, width = (lo if lo >= 0 else -lo - 1), 1
        s = max(0, bits + 3 + m.bit_length() - n.bit_length())
        quo, rem = divmod(n << s, m)
        if width == 0 or quo == ((n + 1) << s) // m:
            break
        k *= 2
    man = 2 * quo + (width or rem != 0)
    return libmp.from_man_exp(-man if x.sign() < 0 else man, -s - 1, bits, libmp.round_nearest)


@settings(max_examples=200, deadline=None)
@given(_elements(), st.sampled_from([53, 128, 300]))
def test_to_mpf_gives_normalised_tuples(x, bits):
    # to_mpf rounds in integers and builds the tuple itself: it must be the one mpmath's
    # normaliser gives, an odd mantissa of at most `bits` bits, or mpmath's zero
    sign, man, exp, bc = x.to_mpf(bits)._mpf_
    assert man % 2 == 1 or (sign, man, exp, bc) == mpmath.libmp.fzero
    assert bc == man.bit_length() <= bits
    assert (sign, man, exp, bc) == _rounded_by_mpmath(x, bits)


def test_to_mpf_carry_and_zero():
    # just below 2^60, rounding to 53 bits carries into a new bit: mantissa 1, exponent 60
    for x in (qe(2**60 - 1, 0, GOLDEN), qe(2**60, 0, GOLDEN) - gamma_pow(GOLDEN, -100)):
        assert x.to_mpf(53)._mpf_ == (0, 1, 60, 1) == _rounded_by_mpmath(x, 53)
        assert (-x).to_mpf(53)._mpf_ == (1, 1, 60, 1) == _rounded_by_mpmath(-x, 53)
    for params in (GOLDEN, COPPER):
        for bits in (53, 128, 300):
            zero = params.zero().to_mpf(bits)
            assert zero._mpf_ == mpmath.libmp.fzero and zero == 0


# Deep cover starts round from the walk's fixed-point enclosure first.

def _reference_mpf(x, bits):
    """x rounded to nearest at `bits` bits by mpmath's rational division of `_isqrt_bracket`
    ends, narrowed until both ends round alike (x itself when it is rational)."""
    u, v, den = x.numerators()
    libmp = mpmath.libmp
    if x.params.rational_root is not None or not v:
        num = u + v * (x.params.rational_root or 0)
        return mpmath.mp.make_mpf(libmp.from_rational(num, den, bits, libmp.round_nearest))
    extra = bits + 8
    while True:
        lo, m = _isqrt_bracket(x.params, u, v, den, extra)
        ends = {libmp.from_rational(y, m, bits, libmp.round_nearest) for y in (lo, lo + 1)}
        if len(ends) == 1:
            return mpmath.mp.make_mpf(ends.pop())
        extra *= 2


@st.composite
def _deep_starts(draw):
    """A start among the first 200 of a depth <= 60 cover over q <= 5, n <= 4."""
    params = MetallicParams(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    n = draw(st.integers(2, 4))
    counts = tile_counts(params, n)
    if counts.total > 40:  # keep the word short: each start sums up to depth*|W_n| tiles
        n = 2
        counts = tile_counts(params, n)
    l = draw(st.integers(0, counts.N_a))
    s = draw(st.integers(0, min(counts.N_b, counts.total - l - 1)))
    spec = FractalSpec(params, n, l, s, draw(st.sampled_from(["keep-first", "keep-last"])))
    depth, index = draw(st.integers(1, 60)), draw(st.integers(0, 199))
    intervals = list(islice(iter_cover_intervals(spec, depth), index + 1))
    return intervals[min(index, len(intervals) - 1)].start


@settings(max_examples=150, deadline=None)
@given(_deep_starts())
def test_deep_starts_round_like_an_isqrt_reference(x):
    for bits in (53, 64, 128, 300, 1000):
        assert x.to_mpf(bits) == _reference_mpf(x, bits)
    assert float(x) == _reference_double(x.params, *x.numerators())


def test_deep_starts_round_without_the_exact_kernel(monkeypatch):
    calls = []
    kernel = quadfield._quotient
    monkeypatch.setattr(quadfield, "_quotient", lambda *a: calls.append(a) or kernel(*a))
    intervals = list(islice(iter_cover_intervals(FractalSpec(GOLDEN, 4, 1, 1), 52), 500))
    starts = [iv.start for iv in intervals]
    assert len(starts) == 500 and starts[0].is_zero() and starts[0].fix is None
    for x in starts[1:]:  # every nonzero start settles from its enclosure
        assert x.fix is not None
        x.to_mpf(128)
        float(x)
    for iv in intervals[1:]:  # as `cover` and `render` rows round them, from the integers
        assert to_double(GOLDEN, iv.u, iv.v, iv.den, iv.fix) == float(iv.start)
    assert calls == []
    # a sum is a new element: it has no enclosure, and the kernel rounds it
    assert (starts[1] + 0).fix is None
    assert (starts[1] + 0).to_mpf(128) == starts[1].to_mpf(128)
    assert calls


def test_an_enclosure_settles_only_where_its_ends_agree(monkeypatch):
    calls = []
    kernel = quadfield._quotient
    monkeypatch.setattr(quadfield, "_quotient", lambda *a: calls.append(a) or kernel(*a))
    x, k = gamma_pow(SILVER, -7), 200
    exact = floor_scaled(x, k)  # floor(x*2^k)
    t = (exact + 1).bit_length() - 128 - 2  # the bits below the 130-bit quotient
    assert (exact + 1) >> t == exact >> t
    expected = x.to_mpf(128), float(x)
    calls.clear()
    tight = quadfield._element(*x.numerators(), SILVER, (exact, 1, k))
    assert (tight.to_mpf(128), float(tight)) == expected and calls == []
    # f just below a multiple of 2^t and f + err above it: the ends disagree at 128 bits
    f = (exact >> t << t) - 1
    straddling = quadfield._element(*x.numerators(), SILVER, (f, exact + 1 - f, k))
    assert straddling.to_mpf(128) == expected[0] and len(calls) == 1
