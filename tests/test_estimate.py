"""Cover-sum and box-counting estimators against the analytic dimension."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from metallic import (
    CapExceeded,
    FractalSpec,
    MetallicParams,
    ValidationError,
    box_count,
    box_dimension,
    cover_at_depth,
    cover_summary,
    dimension,
    empirical_dimension,
    hausdorff_sum,
)
from test_acceptance import _criterion3_grid

GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)

SPEC_301 = FractalSpec(GOLDEN, 3, 0, 1)
SPEC_411 = FractalSpec(GOLDEN, 4, 1, 1)
SPEC_210 = FractalSpec(SILVER, 2, 1, 0)


def test_hausdorff_sum_depth1_t1():
    hs = hausdorff_sum(cover_at_depth(SPEC_301, 1), 1.0)
    assert abs(hs.value - 2 / GOLDEN.gamma_float**2) < 1e-12
    assert abs(hs.y - hs.value) < 1e-12


def test_hausdorff_sum_t0_counts_intervals():
    for k in (0, 1, 2, 3):
        hs = hausdorff_sum(cover_at_depth(SPEC_411, k), 0.0)
        assert hs.value == 3**k


def test_hausdorff_sum_near_critical_exponent():
    hs = hausdorff_sum(cover_at_depth(SPEC_301, 3), 0.7202)
    assert abs(hs.value - 1.0) < 1e-3


@pytest.mark.parametrize("spec", [SPEC_301, SPEC_411, SPEC_210])
def test_product_structure(spec):
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        base = hausdorff_sum(cover_at_depth(spec, 1), t).value
        for k in (2, 3, 4, 5, 6):
            value = hausdorff_sum(cover_at_depth(spec, k), t).value
            assert math.isclose(value, base**k, rel_tol=1e-9)
            assert math.isclose(value, hausdorff_sum(cover_summary(spec, k), t).value,
                                rel_tol=1e-12)


@pytest.mark.parametrize("spec", [SPEC_301, SPEC_411, SPEC_210])
def test_transition_around_dimension(spec):
    # below the critical exponent the sums blow up with depth, above they die
    d = dimension(spec).dim
    low = [hausdorff_sum(cover_summary(spec, k), d - 0.05).value for k in (2, 4, 6)]
    high = [hausdorff_sum(cover_summary(spec, k), d + 0.05).value for k in (2, 4, 6)]
    assert low[0] < low[1] < low[2]
    assert high[0] > high[1] > high[2]


@pytest.mark.parametrize("spec", [SPEC_301, SPEC_411, SPEC_210])
@pytest.mark.parametrize("k", [2, 4])
def test_empirical_matches_analytic(spec, k):
    assert abs(empirical_dimension(cover_summary(spec, k)) - dimension(spec).dim) <= 1e-9


def test_empirical_equals_analytic_bit_for_bit():
    # the cover polynomial's root is the characteristic polynomial's (S_k = Y^k),
    # so the cover-sum exponent is the dimension's double at every depth and bits
    for spec in _criterion3_grid():
        analytic = dimension(spec).dim
        for k in (1, 2, 4, 6):
            assert empirical_dimension(cover_summary(spec, k)) == analytic, (spec, k)
        for k in (1, 2, 3):
            if cover_summary(spec, k).count <= 10_000:  # 4.4e5 intervals at most: 6.5 s
                assert empirical_dimension(cover_at_depth(spec, k)) == analytic, (spec, k)
    # a degree-128 cover polynomial at 10^4 bits: 4.9 s when it had its own bracket
    assert empirical_dimension(cover_summary(SPEC_411, 32), bits=10**4) == dimension(SPEC_411).dim


def test_empirical_no_removal_is_one():
    spec = FractalSpec(GOLDEN, 3, 0, 0)
    for k in (1, 3, 5):
        assert empirical_dimension(cover_summary(spec, k)) == 1.0


def test_empirical_single_survivor_is_zero():
    spec = FractalSpec(GOLDEN, 2, 1, 0)
    assert empirical_dimension(cover_summary(spec, 3)) == 0.0


def test_empirical_requires_depth():
    with pytest.raises(ValueError):
        empirical_dimension(cover_summary(SPEC_301, 0))


def test_box_count_unit_interval():
    cover = cover_at_depth(FractalSpec(GOLDEN, 3, 0, 0), 0)
    assert box_count(cover, 0.25) == 4
    assert box_count(cover, mpmath.mpf(0.25)) == 4
    assert box_count(cover, 1 - 1e-12) == 2  # [0,eps) and the sliver at the right
    with pytest.raises(ValueError):
        box_count(cover, 1.5)


def test_box_count_rejects_a_negative_mpf_eps():
    # an mpf's .man is its mantissa's absolute value: the sign is read from _mpf_
    cover = cover_at_depth(FractalSpec(GOLDEN, 4, 1, 1), 3)
    assert box_count(cover, mpmath.mpf(0.25)) == box_count(cover, 0.25) == 3
    for eps in (-0.25, mpmath.mpf(-0.25)):
        with pytest.raises(ValueError):
            box_count(cover, eps)


def test_box_count_301_depth1_pinned_by_brute_force():
    # survivors [0, 1/phi^2] and [1/phi, 1] at grid width 1/phi^3
    cover = cover_at_depth(SPEC_301, 1)
    with mpmath.workprec(160):
        phi = GOLDEN.gamma_mpf(160)
        eps = 1 / phi**3
        spans = [
            (iv.start.to_mpf(160), iv.start.to_mpf(160) + iv.length.to_mpf(160))
            for iv in cover.intervals
        ]
        brute = 0
        j = 0
        while j * eps < 1:
            lo, hi = j * eps, (j + 1) * eps
            if any(max(a, lo) < min(b, hi) for a, b in spans):
                brute += 1
            j += 1
    assert brute == 5
    assert box_count(cover, eps) == brute
    # an mpf eps counts at its exact value man * 2^exp
    assert box_count(cover, Fraction(int(eps.man)) * Fraction(2) ** int(eps.exp)) == brute


def test_box_count_monotone_in_eps():
    cover = cover_at_depth(SPEC_411, 3)
    counts = [box_count(cover, eps) for eps in (0.001, 0.005, 0.02, 0.1, 0.3, 0.9)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_box_count_summary_matches_materialized():
    for spec in (SPEC_301, SPEC_210):
        for eps in (0.01, 0.05, 0.2):
            a = box_count(cover_at_depth(spec, 3), eps)
            b = box_count(cover_summary(spec, 3), eps)
            assert a == b


def test_box_dimension_smoke():
    fit = box_dimension(SPEC_301, 5)
    d = dimension(SPEC_301).dim
    assert abs(fit.slope - d) < 0.1
    assert len(fit.box_counts) == 4
    assert fit.residual > 0 and fit.rms_misfit >= 0


def test_box_counts_exact_on_grid_hits():
    # silver (2,1,2,1,0) has cover endpoints exactly on grid points j*eps;
    # the exact counts are one lower than a rounded floor gives (14/38/101/266)
    assert box_dimension(SPEC_210, 5).box_counts == (13, 37, 100, 265)


def test_box_count_deep_single_survivor():
    # the depth-3000 cover is the single interval [1 - phi^-6000, 1]
    cover = cover_summary(FractalSpec(GOLDEN, 2, 1, 0), 3000)
    assert box_count(cover, 0.1) == 1
    assert box_count(cover, Fraction(1, 3)) == 1


def test_box_dimension_validation_and_cap():
    with pytest.raises(ValueError):
        box_dimension(SPEC_301, 3)
    with pytest.raises(CapExceeded):
        box_dimension(SPEC_411, 8, cap=1000)
    with pytest.raises(CapExceeded):
        box_dimension(FractalSpec(GOLDEN, 3, 1, 0), 20000)


@pytest.mark.parametrize("t", [-0.5, math.nan])
def test_negative_exponent_rejected(t):
    with pytest.raises(ValueError):
        hausdorff_sum(cover_at_depth(SPEC_301, 1), t)


def _exact_least_squares(xs, ys):
    """slope, intercept, slope standard error and rms misfit in exact rationals
    (the two square roots taken in floats at the end)."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    n = len(xs)
    x_mean, y_mean = sum(xs) / n, sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    intercept = y_mean - slope * x_mean
    sse = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, math.sqrt(sse / (n - 2) / sxx), math.sqrt(sse / n)


@pytest.mark.parametrize("spec, k_max", [(SPEC_210, 7), (SPEC_411, 6)])
def test_box_fit_matches_exact_least_squares(spec, k_max):
    fit = box_dimension(spec, k_max)
    with mpmath.workprec(128):
        log_gamma = mpmath.log(spec.params.gamma_mpf(128))
        xs = [float(spec.n * k * log_gamma) for k in range(2, k_max + 1)]
    ys = [math.log(c) for c in fit.box_counts]
    expected = _exact_least_squares(xs, ys)
    got = (fit.slope, fit.intercept, fit.residual, fit.rms_misfit)
    for name, value, exact in zip(("slope", "intercept", "residual", "rms_misfit"),
                                  got, expected):
        assert abs(value - exact) <= 1e-12 * abs(exact), name


@pytest.mark.parametrize("call", [
    lambda: dimension(SPEC_411, bits=10),
    lambda: hausdorff_sum(cover_summary(SPEC_411, 4), 0.5, bits=10),
    lambda: box_dimension(SPEC_411, 5, bits=52),
], ids=["dimension", "hausdorff_sum", "box_dimension"])
def test_library_bits_below_53_rejected(call):
    # at 10 bits dimension returned 0.6904296875 for the true 0.6922854...
    with pytest.raises(ValidationError, match="bits must be >= 53"):
        call()


def test_empirical_dimension_bits_below_53_rejected_in_time():
    # in a child process with a deadline: a root search let through at 10
    # bits must fail this test, not hang the suite
    code = ("from metallic import FractalSpec, MetallicParams, cover_summary, "
            "empirical_dimension\n"
            "spec = FractalSpec(MetallicParams(1, 1), 4, 1, 1)\n"
            "empirical_dimension(cover_summary(spec, 4), bits=10)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 1
    assert "ValidationError: bits must be >= 53, got 10" in result.stderr


def test_box_count_leaves_out_mpmath():
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from metallic import FractalSpec, MetallicParams, box_count, cover_at_depth\n"
            "spec = FractalSpec(MetallicParams(1, 1), 4, 1, 1)\n"
            "print(box_count(cover_at_depth(spec, 2), Fraction(1, 10)), 'mpmath' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "6 False\n")
