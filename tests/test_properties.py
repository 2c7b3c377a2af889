"""Property tests of the shared layout: step-n tilings and removal covers.

The tiling places letters with one running sum of integer lengths
(`tiling.start_numerators`); the cover walker runs the same sums once in units
of one long and one short tile and places each survivor from those counts
(`fractal._child_layout`), which must equal the running sums of the real
lengths. These properties check what both lay out against
exact field arithmetic that does not use them: signs of QuadElement
differences, and sums of `gamma_pow` lengths. The walker's box counts are
checked the same way, and the dimension against removal counts.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metallic import (
    FractalSpec,
    MetallicParams,
    box_count,
    box_dimension,
    cover_at_depth,
    dimension,
    gamma_pow,
    iter_cover_intervals,
    survivors,
    tile_counts,
    tiling_at_step,
    word_at_step,
)
from metallic import estimate
from metallic.estimate import _count_boxes
from metallic.fractal import POLICIES, _child_layout
from metallic.limits import DEFAULT_BITS
from metallic.tiling import _fixed_powers, _inv_powers
from test_fractal import reference_children

MAX_INTERVALS = 4096
MAX_DEPTH = 4

means = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda pq: MetallicParams(*pq))
# gamma is the integer 2 at (1, 2) and 3 at (2, 3), where signs are rational
box_means = st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 3), (1, 3), (3, 2)]).map(
    lambda pq: MetallicParams(*pq))
run_means = st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2), (2, 3)]).map(
    lambda pq: MetallicParams(*pq))


@st.composite
def specs(draw, means=means, steps=st.integers(2, 4)):
    """A valid (p, q, n, l, s, policy, indices) spec with n <= 4."""
    params, n = draw(means), draw(steps)
    counts = tile_counts(params, n)
    l = draw(st.integers(0, counts.N_a))
    s = draw(st.integers(0, min(counts.N_b, counts.total - l - 1)))  # one tile survives
    policy = draw(st.sampled_from(POLICIES))
    if policy != "explicit":
        return FractalSpec(params, n, l, s, policy)
    word = word_at_step(params, n)
    longs = [i for i, ch in enumerate(word) if ch == "a"]
    shorts = [i for i, ch in enumerate(word) if ch == "b"]
    picked = draw(st.permutations(longs))[:l] + draw(st.permutations(shorts))[:s]
    return FractalSpec(params, n, l, s, policy, tuple(picked))


@st.composite
def covers(draw, max_intervals=MAX_INTERVALS, means=means):
    """A spec and a depth k <= 4 whose cover has at most `max_intervals` intervals."""
    spec = draw(specs(means))
    per_level = sum(spec.survivor_counts)
    depth = draw(st.integers(0, MAX_DEPTH))
    while per_level**depth > max_intervals:
        depth -= 1
    return spec, depth


@settings(max_examples=100, deadline=None)
@given(covers())
def test_cover_sorted_disjoint_inside_unit_interval(case):
    spec, k = case
    params = spec.params
    intervals = list(iter_cover_intervals(spec, k))
    assert intervals[0].start.sign() >= 0
    assert (params.one() - intervals[-1].end).sign() >= 0
    for left, right in zip(intervals, intervals[1:]):
        assert (right.start - left.end).sign() >= 0
        assert left.length.sign() > 0


@settings(max_examples=100, deadline=None)
@given(covers())
def test_cover_count_and_total_length(case):
    spec, k = case
    params, n = spec.params, spec.n
    na, nb = spec.survivor_counts
    exponents = Counter(iv.length_exponent for iv in iter_cover_intervals(spec, k))
    assert sum(exponents.values()) == (na + nb) ** k
    total = sum((c * gamma_pow(params, -m) for m, c in exponents.items()), params.zero())
    per_level = na * gamma_pow(params, -(n - 1)) + nb * gamma_pow(params, -n)
    assert total == per_level**k


@settings(max_examples=100, deadline=None)
@given(covers())
def test_child_layout_matches_running_sums(case):
    spec, k = case
    depth = max(k, 1)
    g = _inv_powers(spec.params, spec.n * depth)
    fixed = _fixed_powers(spec.params, g, DEFAULT_BITS)
    children = _child_layout(spec, g, fixed)
    for e in range(spec.n * depth - spec.n + 1):  # every parent exponent of the walk
        assert children(e) == reference_children(spec, g, fixed, e)


@settings(max_examples=100, deadline=None)
@given(specs())
def test_depth_one_cover_is_the_survivor_tiles(spec):
    walked = [(iv.start, iv.length_exponent, iv.kind_path) for iv in iter_cover_intervals(spec, 1)]
    kept = [(t.start, t.length_exponent, t.kind_path) for t in survivors(spec)]
    assert walked == kept


@settings(max_examples=60, deadline=None)
@given(means, st.integers(0, 8))
def test_tile_starts_are_sums_of_the_lengths_before(params, n):
    tiling = tiling_at_step(params, n)
    lengths = {m: gamma_pow(params, -m) for m in (n - 1, n)}
    point = params.zero()
    for tile in tiling.tiles:
        assert tile.start == point
        assert tile.length_exponent == (n - 1 if tile.kind_path == "a" else n)
        point = point + lengths[tile.length_exponent]
    assert point == params.one()


@st.composite
def removals(draw):
    """(params, n, l, s) with n <= 8 that leaves at least two tiles."""
    params, n = draw(means), draw(st.integers(2, 8))
    counts = tile_counts(params, n)
    l = draw(st.integers(0, min(counts.N_a, counts.total - 2)))
    s = draw(st.integers(0, min(counts.N_b, counts.total - l - 2)))
    return params, n, l, s


@settings(max_examples=100, deadline=None)
@given(removals())
def test_dimension_falls_as_removals_grow(case):
    params, n, l, s = case
    counts = tile_counts(params, n)
    dim = dimension(FractalSpec(params, n, l, s)).dim
    if l < counts.N_a:
        assert dimension(FractalSpec(params, n, l + 1, s)).dim < dim
    if s < counts.N_b:
        assert dimension(FractalSpec(params, n, l, s + 1)).dim < dim


def exact_floor(x):
    """floor(x) of a QuadElement, settled by exact signs."""
    j = math.floor(float(x))
    while (x - j).sign() < 0:
        j -= 1
    while (x - (j + 1)).sign() >= 0:
        j += 1
    return j


def reference_box_count(cover, scale):
    """Unit boxes met by the cover times `scale`, found interval by interval."""
    boxes = set()
    for iv in cover.intervals:
        # [start, end) meets the boxes [j, j+1) with floor(start) <= j < end
        first, last = exact_floor(iv.start * scale), -exact_floor(-iv.end * scale) - 1
        boxes.update(range(first, last + 1))
    return len(boxes)


@settings(max_examples=60, deadline=None)
@given(covers(max_intervals=512), st.integers(2, 200), st.data())
def test_box_counts_equal_an_exact_floor_count(case, den, data):
    spec, k = case
    eps = Fraction(data.draw(st.integers(1, den - 1)), den)
    cover = cover_at_depth(spec, k)
    assert box_count(cover, eps) == reference_box_count(cover, 1 / eps)


@settings(max_examples=60, deadline=None)
@given(covers(max_intervals=256, means=box_means), st.data())
def test_box_counts_at_powers_of_gamma_equal_an_exact_floor_count(case, data):
    # box_dimension's scales eps = gamma^(-n*k): box edges are irrational unless gamma is an
    # integer; k runs from coarser than the cover to finer than box_dimension counts it
    spec, depth = case
    k = data.draw(st.integers(0, depth))
    scale = gamma_pow(spec.params, spec.n * k)
    [count] = _count_boxes(spec, depth, (int(scale.c0), int(scale.c1)), 1, [(0, depth)])
    assert count == reference_box_count(cover_at_depth(spec, depth), scale)


@settings(max_examples=60, deadline=None)
@given(specs(run_means, steps=st.just(2)), st.integers(1, 5))
def test_box_counts_with_long_leaves_one_box_wide(spec, k):
    # at depth 2k and eps = gamma^(-2k) an all-long leaf is exactly one box wide, so the
    # breakpoints of its start and end are equal; at (1, 2) and (2, 3) gamma is an integer
    # and endpoints fall on box edges
    while sum(spec.survivor_counts) ** (2 * k) > 1024:
        k -= 1
    scale = gamma_pow(spec.params, 2 * k)
    [count] = _count_boxes(spec, 2 * k, (int(scale.c0), int(scale.c1)), 1, [(0, 2 * k)])
    assert count == reference_box_count(cover_at_depth(spec, 2 * k), scale)


@pytest.mark.parametrize("policy, indices", [
    ("keep-first", None), ("keep-last", None),
    ("explicit", (0, 3)), ("explicit", (1, 3)), ("explicit", (2, 3))])
def test_box_counts_from_run_tables_above_the_leaves(policy, indices):
    # the 1,024 leaves of (3,1,2,1,1) at depth 10 are about a box wide at scale gamma^10,
    # so the counter tables runs of subtrees above the leaves
    spec = FractalSpec(MetallicParams(3, 1), 2, 1, 1, policy, indices)
    scale = gamma_pow(spec.params, 10)
    [count] = _count_boxes(spec, 10, (int(scale.c0), int(scale.c1)), 1, [(0, 10)])
    assert count == reference_box_count(cover_at_depth(spec, 10), scale)


@st.composite
def fits(draw, max_intervals=2048):
    """A spec over box_means and a k_max >= 4 whose deepest fit cover has at most
    `max_intervals` intervals, with the depth of each scale k = 2..k_max."""
    spec = draw(specs(box_means))
    per_level = sum(spec.survivor_counts)

    def depths(k_max):
        return [math.ceil(spec.n * k / (spec.n - 1)) for k in range(2, k_max + 1)]

    k_max = draw(st.integers(4, 6))
    while k_max > 4 and per_level ** depths(k_max)[-1] > max_intervals:
        k_max -= 1
    assume(per_level ** depths(k_max)[-1] <= max_intervals)
    return spec, k_max, depths(k_max)


@settings(max_examples=40, deadline=None)
@given(fits())
def test_box_dimension_counts_equal_single_scale_counts(case):
    # box_dimension counts every scale on one table scaled by gamma^(n*k_max), the scale-k
    # cover rooted at exponent n*(k_max - k), so run and breakpoint tables cross scales.
    # Keys of a bit or none make equal-key ties, and one or two runs leave classes
    # untabled, so the walks below them cross scales too.
    spec, k_max, depths = case
    scales = [gamma_pow(spec.params, spec.n * k) for k in range(2, k_max + 1)]
    expected = tuple(reference_box_count(cover_at_depth(spec, depth), scale)
                     for depth, scale in zip(depths, scales))
    assert box_dimension(spec, k_max).box_counts == expected
    for key_bits, max_runs in product((0, 1), (1, 2)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimate, "_KEY_BITS", key_bits)
            patch.setattr(estimate, "_MAX_RUNS", max_runs)
            assert box_dimension(spec, k_max).box_counts == expected, (key_bits, max_runs)


@pytest.mark.parametrize("base, policy, indices, depth", [
    ((1, 1, 4, 1, 1), "keep-first", None, 3), ((2, 1, 2, 1, 0), "keep-last", None, 6),
    ((1, 1, 3, 0, 1), "keep-first", None, 5), ((3, 1, 2, 1, 1), "keep-last", None, 4),
    ((1, 2, 2, 0, 1), "keep-last", None, 6), ((1, 1, 4, 1, 2), "keep-last", None, 3),
    ((1, 2, 3, 0, 2), "keep-first", None, 1), ((2, 3, 2, 1, 1), "explicit", (1, 3), 2)])
def test_box_counts_exact_with_coarse_keys_and_small_tables(base, policy, indices, depth):
    # with keys of a few bits, breakpoints that differ share keys with f, and only the
    # exact floor of each tie tells them apart; small tables make the walk count many
    # subtrees below the root. Integer scales put run ends on box edges.
    p, q, n, l, s = base
    spec = FractalSpec(MetallicParams(p, q), n, l, s, policy, indices)
    cover = cover_at_depth(spec, depth)
    scales = [gamma_pow(spec.params, n * k) for k in range(depth + 1)]
    for scale in scales + [j * spec.params.one() for j in range(2, 6)]:
        expected = reference_box_count(cover, scale)
        for key_bits, max_runs in product((0, 1, 2), (1, 2, 3)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(estimate, "_KEY_BITS", key_bits)
                patch.setattr(estimate, "_MAX_RUNS", max_runs)
                [count] = _count_boxes(spec, depth, (int(scale.c0), int(scale.c1)), 1,
                                       [(0, depth)])
            assert count == expected, (scale, key_bits, max_runs)
