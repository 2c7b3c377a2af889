"""Removal fractals: survivors, refinement, covers, gaps."""

import math
import pickle
from collections import Counter
from itertools import compress, islice

import pytest

from metallic import (
    CapExceeded,
    EmptyFractal,
    FractalSpec,
    InvalidRemovalCount,
    MetallicParams,
    PolicyIndexMismatch,
    TileKind,
    ValidationError,
    cover_at_depth,
    cover_summary,
    gamma_pow,
    gaps,
    iter_cover_intervals,
    refine,
    survivors,
    tile_counts,
    word_at_step,
)
from metallic import fractal
from metallic.estimate import box_dimension
from metallic.fractal import _child_layout, _survivor_pattern
from metallic.limits import DEFAULT_BITS
from metallic.tiling import _fixed_powers, _inv_powers, start_numerators

GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)

SPEC_301 = FractalSpec(GOLDEN, 3, 0, 1)
SPEC_411 = FractalSpec(GOLDEN, 4, 1, 1)
SPEC_210 = FractalSpec(SILVER, 2, 1, 0)
# Figure-style silver removal: drop the middle long tile (word position 1)
SPEC_210_FIG = FractalSpec(SILVER, 2, 1, 0, policy="explicit", indices=(1,))

TEST_SPECS = [SPEC_301, SPEC_411, SPEC_210, SPEC_210_FIG,
              FractalSpec(MetallicParams(2, 2), 3, 1, 1)]


def test_survivors_301_keeps_the_two_longs():
    kept = survivors(SPEC_301)
    assert [t.kind for t in kept] == [TileKind.LONG, TileKind.LONG]
    assert kept[0].start.sign() == 0
    expected = gamma_pow(GOLDEN, -2) + gamma_pow(GOLDEN, -3)
    assert (kept[1].start - expected).sign() == 0


def test_survivors_silver_figure_positions():
    kept = survivors(SPEC_210_FIG)
    assert [t.kind for t in kept] == [TileKind.LONG, TileKind.SHORT]
    assert kept[0].start.sign() == 0
    expected = SILVER.one() - gamma_pow(SILVER, -2)
    assert (kept[1].start - expected).sign() == 0


def test_forced_single_short_survivor():
    counts = tile_counts(GOLDEN, 4)
    spec = FractalSpec(GOLDEN, 4, counts.N_a, counts.N_b - 1)
    kept = survivors(spec)
    assert len(kept) == 1 and kept[0].kind is TileKind.SHORT


def test_keep_last_removes_leading_tiles():
    spec = FractalSpec(GOLDEN, 4, 1, 0, policy="keep-last")
    kept = survivors(spec)
    # W_4 = abaab; dropping the first a keeps b a a b
    assert "".join(t.kind.value for t in kept) == "baab"


def test_depth_zero_cover_is_unit_interval():
    cover = cover_at_depth(SPEC_301, 0)
    assert cover.count == 1 and len(cover.intervals) == 1
    iv = cover.intervals[0]
    assert iv.start.sign() == 0 and iv.length_exponent == 0 and iv.kind_path == ""


def test_cover_301_depth1():
    cover = cover_at_depth(SPEC_301, 1)
    assert [iv.length_exponent for iv in cover.intervals] == [2, 2]
    total = cover.total_length()
    assert (total - 2 * gamma_pow(GOLDEN, -2)).sign() == 0


def test_cover_411_depth1_and_2():
    c1 = cover_at_depth(SPEC_411, 1)
    assert sorted(iv.length_exponent for iv in c1.intervals) == [3, 3, 4]
    c2 = refine(c1)
    assert Counter(iv.length_exponent for iv in c2.intervals) == {6: 4, 7: 4, 8: 1}


def test_refine_301_depths():
    cover = cover_at_depth(SPEC_301, 1)
    deeper = refine(cover)
    assert deeper.depth == 2
    assert [iv.length_exponent for iv in deeper.intervals] == [4, 4, 4, 4]


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_cover_disjoint_sorted_inside_unit(spec):
    na, nb = spec.survivor_counts
    for k in (1, 2, 3, 4, 5, 6):
        if (na + nb) ** k > 4096:
            break
        cover = cover_at_depth(spec, k)
        cursor = spec.params.zero()
        for iv in cover.intervals:
            assert (iv.start - cursor).sign() >= 0
            cursor = iv.end
        assert (spec.params.one() - cursor).sign() >= 0


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_interval_count_and_exponent_range(spec):
    na, nb = spec.survivor_counts
    for k in (0, 1, 2, 3):
        cover = cover_at_depth(spec, k)
        assert len(cover.intervals) == (na + nb) ** k == cover.count
        for iv in cover.intervals:
            assert (spec.n - 1) * k <= iv.length_exponent <= spec.n * k
            assert len(iv.kind_path) == k


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_total_cover_length_closed_form(spec):
    na, nb = spec.survivor_counts
    per_level = na * gamma_pow(spec.params, -(spec.n - 1)) + nb * gamma_pow(spec.params, -spec.n)
    for k in (0, 1, 2, 3, 4):
        cover = cover_at_depth(spec, k)
        assert (cover.total_length() - per_level**k).sign() == 0


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_multiset_is_kfold_product(spec):
    # the tally of the materialized intervals must equal the k-fold product
    # of the depth-1 multiset, which is what exponent_counts returns
    for k in (0, 1, 2, 3, 4):
        materialized = Counter(iv.length_exponent for iv in cover_at_depth(spec, k).intervals)
        assert materialized == cover_summary(spec, k).exponent_counts()
        assert materialized == cover_at_depth(spec, k).exponent_counts()


def test_policy_independence_of_multiset():
    first = FractalSpec(GOLDEN, 4, 1, 1, policy="keep-first")
    last = FractalSpec(GOLDEN, 4, 1, 1, policy="keep-last")
    for k in (1, 2, 3):
        a = cover_at_depth(first, k)
        b = cover_at_depth(last, k)
        assert a.exponent_counts() == b.exponent_counts()
        assert len(a.intervals) == len(b.intervals)
    # but the geometry differs
    starts_a = [float(iv.start) for iv in cover_at_depth(first, 1).intervals]
    starts_b = [float(iv.start) for iv in cover_at_depth(last, 1).intervals]
    assert starts_a != starts_b


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_streaming_matches_materialized(spec):
    for k in (0, 1, 2, 3):
        streamed = list(iter_cover_intervals(spec, k))
        materialized = cover_at_depth(spec, k).intervals
        assert len(streamed) == len(materialized)
        for s, m in zip(streamed, materialized):
            assert s.kind_path == m.kind_path
            assert s.length_exponent == m.length_exponent
            assert (s.start - m.start).sign() == 0


def _reference_cover(spec, k):
    """Depth-k cover by plain QuadElement recursion over the survivor tiles."""
    if k == 0:
        return [(spec.params.zero(), 0, "")]
    out = []
    for start, exponent, path in _reference_cover(spec, k - 1):
        scale = gamma_pow(spec.params, -exponent)
        for tile in survivors(spec):
            out.append((start + tile.start * scale, exponent + tile.length_exponent,
                        path + tile.kind.value))
    return out


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_streaming_matches_quadelement_recursion(spec):
    for k in (0, 1, 2, 3, 4):
        streamed = [(iv.start, iv.length_exponent, iv.kind_path)
                    for iv in iter_cover_intervals(spec, k)]
        assert streamed == _reference_cover(spec, k)


def test_deep_single_survivor_cover_streams():
    # W_2 = ab; dropping the long tile keeps [1/phi, 1], so the depth-k cover
    # is the single interval [1 - phi^-2k, 1]
    spec = FractalSpec(GOLDEN, 2, 1, 0)
    (iv,) = iter_cover_intervals(spec, 3000)
    assert iv.length_exponent == 6000 and iv.kind_path == "b" * 3000
    assert (iv.start + gamma_pow(GOLDEN, -6000) - 1).sign() == 0


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_survivor_counts_are_held_not_recounted(spec, monkeypatch):
    counts = tile_counts(spec.params, spec.n)
    clone = pickle.loads(pickle.dumps(spec))
    monkeypatch.setattr("metallic.fractal.tile_counts", None)  # a recount would raise
    assert spec.survivor_counts == clone.survivor_counts == (counts.N_a - spec.l,
                                                             counts.N_b - spec.s)
    assert "survivor_counts" not in repr(spec)


def test_gaps_301_single_middle_gap():
    cover = cover_at_depth(SPEC_301, 1)
    holes = gaps(cover)
    assert len(holes) == 1
    start, width = holes[0]
    assert (start - gamma_pow(GOLDEN, -2)).sign() == 0
    assert (width - gamma_pow(GOLDEN, -3)).sign() == 0


def test_gaps_silver_figure():
    holes = gaps(cover_at_depth(SPEC_210_FIG, 1))
    assert len(holes) == 1
    _, width = holes[0]
    assert (width - gamma_pow(SILVER, -1)).sign() == 0


def test_no_gaps_at_depth_zero():
    assert gaps(cover_at_depth(SPEC_301, 0)) == ()


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_gap_lengths_complement_cover(spec):
    for k in (1, 2, 3):
        cover = cover_at_depth(spec, k)
        hole_total = spec.params.zero()
        for _, width in gaps(cover):
            hole_total = hole_total + width
        assert (hole_total + cover.total_length() - spec.params.one()).sign() == 0


def test_validation_errors():
    with pytest.raises(InvalidRemovalCount):
        FractalSpec(GOLDEN, 3, 3, 0)  # only 2 long tiles at step 3
    with pytest.raises(InvalidRemovalCount):
        FractalSpec(GOLDEN, 3, 0, 2)
    with pytest.raises(EmptyFractal):
        FractalSpec(GOLDEN, 3, 2, 1)
    with pytest.raises(ValidationError):
        FractalSpec(GOLDEN, 1, 0, 0)
    with pytest.raises(ValidationError):
        FractalSpec(GOLDEN, 3, 0, 1, policy="drop-middle")


def test_explicit_index_validation():
    counts = r"\Aindices remove {} long / {} short tiles, spec says 1 / 0\Z"
    with pytest.raises(PolicyIndexMismatch, match=counts.format(0, 1)):
        FractalSpec(SILVER, 2, 1, 0, policy="explicit", indices=(2,))  # position 2 is b
    with pytest.raises(PolicyIndexMismatch, match=counts.format(2, 0)):
        FractalSpec(SILVER, 2, 1, 0, policy="explicit", indices=(0, 1))
    with pytest.raises(PolicyIndexMismatch, match=r"\Aremoval indices must lie in 0\.\.2\Z"):
        FractalSpec(SILVER, 2, 1, 0, policy="explicit", indices=(9,))
    # distinct first, then in range: a repeated index out of range names the repeat
    with pytest.raises(PolicyIndexMismatch, match=r"\Aremoval indices must be distinct\Z"):
        FractalSpec(SILVER, 2, 1, 0, policy="explicit", indices=(9, 9))
    # in range before the counts: an index past the word is never looked up
    with pytest.raises(PolicyIndexMismatch, match=r"\Aremoval indices must lie in 0\.\.2\Z"):
        FractalSpec(SILVER, 2, 1, 0, policy="explicit", indices=(0, 9))
    with pytest.raises(PolicyIndexMismatch):
        FractalSpec(SILVER, 2, 1, 0, policy="explicit")
    with pytest.raises(PolicyIndexMismatch):
        FractalSpec(SILVER, 2, 1, 0, indices=(1,))  # indices without explicit


@pytest.mark.parametrize("policy, indices, removed", [
    ("keep-first", None, 6), ("keep-last", None, 0), ("explicit", (1,), 1)])
def test_survivor_pattern_builds_the_step_word_once(monkeypatch, policy, indices, removed):
    # the pattern decides the removals, explicit indices checked, from the one word it builds
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return word_at_step(*args, **kwargs)
    monkeypatch.setattr(fractal, "word_at_step", counted)
    _survivor_pattern.cache_clear()
    spec = FractalSpec(SILVER, 3, 1, 0, policy=policy, indices=indices)
    word, kept = _survivor_pattern(spec)
    assert calls == [(SILVER, 3)]
    assert (word, kept) == ("aabaaba", tuple(i != removed for i in range(7)))


def test_cover_cap():
    with pytest.raises(CapExceeded):
        cover_at_depth(SPEC_411, 10, cap=100)
    with pytest.raises(CapExceeded, match=r"\Adepth-20000 cover has ~10\^6020\.6 intervals"):
        cover_at_depth(FractalSpec(GOLDEN, 3, 1, 0), 20000)


def test_a_rejected_count_builds_no_word(monkeypatch):
    # |W_34| = 9,227,465 letters pass the letter cap, but N' = |W_34| - 1 squared does not
    # pass the cover cap: that check needs only the counts, so the word is never built
    def no_word(*args, **kwargs):
        raise AssertionError("built the step word")
    monkeypatch.setattr(fractal, "word_at_step", no_word)
    spec = FractalSpec(GOLDEN, 34, 1, 0)
    with pytest.raises(CapExceeded, match=r"\Adepth-2 cover has 85146091871296 intervals"):
        cover_at_depth(spec, 2)
    with pytest.raises(CapExceeded, match=r"\Adepth-5 cover"):
        box_dimension(spec, 4)


@pytest.mark.parametrize("pq", [(10**400, 1), (1, 10**700)])
@pytest.mark.parametrize("depth", [0, 1])
def test_a_walk_past_the_double_range_hits_the_letter_cap(pq, depth):
    # gamma does not fit a double, and neither does the step word fit its letter cap: the
    # walk checks the word before it reads gamma as a float
    cover = iter_cover_intervals(FractalSpec(MetallicParams(*pq), 2, 1, 0), depth)
    with pytest.raises(CapExceeded, match=r"\A\|W_2\| = ~10\^\d+\.0 letters exceeds cap"):
        next(cover)


def test_refine_respects_the_cap(monkeypatch):
    monkeypatch.setenv("METALLIC_CAP", "5")
    cover = cover_at_depth(SPEC_301, 2)
    assert len(cover.intervals) == 4
    with pytest.raises(CapExceeded):
        refine(cover)  # depth 3 has 8 intervals


def test_summary_cover_walks_its_intervals_under_the_cap(monkeypatch):
    # one cover mode: a summary cover's intervals are walked when first read, under the
    # cap in force, so refine and gaps take it as they take a materialized one
    cover, materialized = cover_summary(SPEC_411, 3), cover_at_depth(SPEC_411, 3)
    assert cover == materialized and cover.intervals == materialized.intervals
    assert refine(cover) == cover_at_depth(SPEC_411, 4)
    assert gaps(cover_summary(SPEC_411, 3)) == gaps(materialized)
    monkeypatch.setenv("METALLIC_CAP", "26")
    cover = cover_summary(SPEC_411, 3)
    with pytest.raises(CapExceeded, match=r"\Adepth-3 cover has 27 intervals, above cap 26\Z"):
        cover.intervals
    with pytest.raises(CapExceeded):
        gaps(cover)


# Cover starts carry a fixed-point enclosure (f, err, K): f <= start*2^K < f + err.

def floor_scaled(x, k):
    """floor(x * 2^k) for an element x of Q(gamma), exactly, from one isqrt of its own."""
    u, v, den = x.numerators()
    a, b = (2 * u + x.params.p * v) << k, v << k  # x*2^k = (a + b*sqrt(D)) / (2*den)
    t = math.isqrt(b * b * x.params.D)  # floor(|b|*sqrt(D))
    below = t * t != b * b * x.params.D  # |b|*sqrt(D) is not an integer
    return (a + t if b >= 0 else a - t - below) // (2 * den)


@pytest.mark.parametrize("pq", [(1, 1), (2, 1), (1, 3), (2, 3), (3, 2), (2, 5), (7, 7)])
def test_fixed_powers_are_under_three_below_the_powers(pq):
    params = MetallicParams(*pq)
    g = _inv_powers(params, 400)
    walk_bits = DEFAULT_BITS + 64 + math.ceil(400 * math.log2(params.gamma_float))
    for k in (0, 64, walk_bits):
        column = _fixed_powers(params, g, k)
        assert len(column) == 401
        for m, f in enumerate(column):
            exact = floor_scaled(gamma_pow(params, -m), k)
            # f <= gamma^-m * 2^k < f + 3, i.e. f is the floor or at most 2 below it
            assert exact - 2 <= f <= exact, (m, k)


ENCLOSED_SPECS = [
    FractalSpec(GOLDEN, 4, 1, 1), FractalSpec(GOLDEN, 4, 1, 1, policy="keep-last"),
    FractalSpec(GOLDEN, 3, 0, 1), FractalSpec(SILVER, 2, 1, 0, policy="keep-last"),
    SPEC_210_FIG, FractalSpec(MetallicParams(3, 1), 2, 1, 1),
    FractalSpec(MetallicParams(1, 2), 2, 0, 1), FractalSpec(MetallicParams(1, 2), 3, 1, 0),
    FractalSpec(MetallicParams(1, 3), 2, 0, 1, policy="keep-last"),
    FractalSpec(MetallicParams(2, 3), 2, 1, 1, policy="explicit", indices=(1, 3)),
    FractalSpec(MetallicParams(3, 2), 3, 2, 1, policy="keep-last"),
    FractalSpec(MetallicParams(2, 5), 2, 1, 0, policy="explicit", indices=(0,)),
]


@pytest.mark.parametrize("spec", ENCLOSED_SPECS)
def test_cover_start_enclosures_contain_the_starts(spec):
    irrational = spec.params.rational_root is None
    for depth in (1, 2, 7, 23, 41, 60):
        for iv in islice(iter_cover_intervals(spec, depth), 300):
            # rational starts (v = 0, or a rational mean) have no enclosure
            assert (iv.fix is None) == (iv.v == 0 or not irrational)
            assert iv.start.fix is iv.fix
            if iv.fix is not None:
                f, err, k = iv.fix
                scaled = floor_scaled(iv.start, k)  # start*2^K is irrational: floor < it
                assert f <= scaled < f + err
                assert err <= 3 * depth * len(_survivor_pattern(spec)[0])
                # start >= gamma^-(n*depth) leaves DEFAULT_BITS + 64 bits above the point
                assert scaled.bit_length() >= DEFAULT_BITS + 64


def reference_children(spec, g, fixed, e):
    """The children of a parent gamma^-e long by the running sums of `start_numerators`
    over the whole word, kept by the survivor mask: a reference for `_child_layout`, which
    places each survivor from its counts of long and short tiles instead."""
    n, (word, kept) = spec.n, _survivor_pattern(spec)
    us, vs = start_numerators(word, g[e + n - 1], g[e + n])
    fs, _ = start_numerators(word, (fixed[e + n - 1], 0), (fixed[e + n], 0))
    exponents = [e + n - (letter == "a") for letter in word]
    return list(zip(*(compress(column, kept) for column in (us, vs, fs, exponents, word))))


# the seven library_fit prefix streams: base specs and their depths
PREFIX_SPECS = [((2, 1, 2, 1, 0), 40), ((1, 1, 4, 1, 1), 43), ((1, 1, 3, 0, 1), 46),
                ((1, 1, 3, 0, 1), 40), ((3, 1, 2, 1, 1), 49), ((2, 1, 2, 0, 1), 52),
                ((1, 2, 2, 0, 1), 55)]


@pytest.mark.parametrize("base, depth", PREFIX_SPECS)
@pytest.mark.parametrize("policy", ["keep-first", "keep-last"])
def test_child_layout_matches_running_sums_on_prefix_specs(base, depth, policy):
    p, q, n, l, s = base
    spec = FractalSpec(MetallicParams(p, q), n, l, s, policy=policy)
    g = _inv_powers(spec.params, n * depth)
    fixed = _fixed_powers(spec.params, g, 300)
    children = _child_layout(spec, g, fixed)
    for e in range(n * depth - n + 1):
        assert children(e) == reference_children(spec, g, fixed, e)
