"""Exact step-n tilings: structure, contiguity, unit total length."""

import gc
from fractions import Fraction

import pytest

from metallic import (
    CapExceeded,
    CoverInterval,
    MetallicParams,
    QuadElement,
    Tile,
    TileKind,
    gamma_pow,
    tile_counts,
    tiling_at_step,
    total_length,
)
from metallic.limits import check_cap, format_count

GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)

GRID = [MetallicParams(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]


def test_golden_step3_layout():
    t = tiling_at_step(GOLDEN, 3)
    assert t.word == "aba"
    kinds = [tile.kind for tile in t.tiles]
    assert kinds == [TileKind.LONG, TileKind.SHORT, TileKind.LONG]
    assert [tile.length_exponent for tile in t.tiles] == [2, 3, 2]
    starts = [tile.start for tile in t.tiles]
    assert starts[0].sign() == 0
    assert (starts[1] - gamma_pow(GOLDEN, -2)).sign() == 0
    assert (starts[2] - (gamma_pow(GOLDEN, -2) + gamma_pow(GOLDEN, -3))).sign() == 0


def test_silver_step2_layout():
    t = tiling_at_step(SILVER, 2)
    assert t.word == "aab"
    assert [tile.length_exponent for tile in t.tiles] == [1, 1, 2]


def test_step_one_single_long_tile():
    for params in GRID:
        t = tiling_at_step(params, 1)
        assert len(t) == 1
        tile = t.tiles[0]
        assert tile.kind is TileKind.LONG and tile.length_exponent == 0
        assert tile.start.sign() == 0
        assert (tile.end - params.one()).sign() == 0


def test_step_zero_single_short_tile():
    t = tiling_at_step(GOLDEN, 0)
    assert len(t) == 1
    assert t.tiles[0].kind is TileKind.SHORT
    assert t.tiles[0].length_exponent == 0


def test_total_length_examples():
    assert (total_length(tiling_at_step(GOLDEN, 2)) - GOLDEN.one()).sign() == 0
    assert (total_length(tiling_at_step(SILVER, 2)) - SILVER.one()).sign() == 0


@pytest.mark.parametrize("params", GRID)
def test_exact_unit_cover(params):
    for n in range(1, 7):
        assert (total_length(tiling_at_step(params, n)) - params.one()).sign() == 0


@pytest.mark.parametrize("params", [GOLDEN, SILVER, MetallicParams(2, 3)])
def test_contiguity_and_bounds(params):
    for n in range(0, 7):
        t = tiling_at_step(params, n)
        cursor = params.zero()
        for tile in t.tiles:
            assert (tile.start - cursor).sign() == 0
            assert tile.start.sign() >= 0
            cursor = tile.end
            assert (params.one() - cursor).sign() >= 0
        assert (cursor - params.one()).sign() == 0


@pytest.mark.parametrize("params", GRID)
def test_counts_match_tile_counts(params):
    for n in range(1, 8):
        t = tiling_at_step(params, n)
        counts = tile_counts(params, n)
        longs = sum(1 for tile in t.tiles if tile.kind is TileKind.LONG)
        shorts = len(t) - longs
        assert (longs, shorts) == (counts.N_a, counts.N_b)


@pytest.mark.parametrize("params", [GOLDEN, SILVER, MetallicParams(1, 2), MetallicParams(3, 3)])
def test_refinement_consistency(params):
    # replacing each step-n tile by its one-step image, scaled down by gamma,
    # reproduces the step-(n+1) tiling tile for tile
    for n in range(1, 6):
        parent = tiling_at_step(params, n)
        child = tiling_at_step(params, n + 1)
        i = 0
        for tile in parent.tiles:
            if tile.kind is TileKind.LONG:
                block = child.tiles[i: i + params.p + params.q]
                kinds = [b.kind for b in block]
                assert kinds == [TileKind.LONG] * params.p + [TileKind.SHORT] * params.q
            else:
                block = child.tiles[i: i + 1]
                assert block[0].kind is TileKind.LONG
            assert (block[0].start - tile.start).sign() == 0
            assert (block[-1].end - tile.end).sign() == 0
            i += len(block)
        assert i == len(child)


def test_cap_enforced():
    with pytest.raises(CapExceeded, match=r"\Astep-25 tiling has 121393 tiles, above cap 1000\Z"):
        tiling_at_step(GOLDEN, 25, cap=1000)
    # a count past Python's 4300-digit int->str limit is still a CapExceeded
    with pytest.raises(CapExceeded, match=r"\Astep-30000 tiling has ~10\^6269\.5 tiles, above"):
        tiling_at_step(GOLDEN, 30000)


def test_format_count_in_full_below_10_to_the_30():
    assert format_count(10**30 - 1) == "9" * 30
    assert format_count(10**30) == "~10^30.0"
    assert format_count(3 * 10**5000) == "~10^5000.5"


@pytest.mark.parametrize("base, power", [
    (10**30 - 1, 1), (10**30, 1), (10**31 - 1, 1), (10**31, 1),
    (10**15 - 1, 2), (10, 30), (3, 63), (10, 31), (3, 65), (7, 36)])
def test_a_count_near_10_to_the_30_prints_as_format_count(base, power):
    # given as N or as N'^k, a count prints as format_count prints it whole
    with pytest.raises(CapExceeded) as caught:
        check_cap("{} counted, above cap {}", base, power, cap=10)
    assert str(caught.value) == f"{format_count(base**power)} counted, above cap 10"
    assert format_count(base, power) == format_count(base**power)


def test_negative_step_rejected():
    with pytest.raises(ValueError):
        tiling_at_step(GOLDEN, -1)


def test_collector_state_restored():
    # tiling_at_step leaves the cyclic collector as it found it
    assert gc.isenabled()
    tiling_at_step(SILVER, 6)
    assert gc.isenabled()
    gc.disable()
    try:
        tiling_at_step(SILVER, 6)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_tiles_are_integer_backed_and_equal_by_value():
    params = MetallicParams(1, 3)
    tiling = tiling_at_step(params, 3)
    tile = tiling.tiles[2]
    assert (tile.den, tile.kind_path) == (27, tiling.word[2])
    assert tile.start == QuadElement(Fraction(tile.u, 27), Fraction(tile.v, 27), params)
    # the same interval over another denominator: equal, with one hash
    same = Tile(params, tile.kind_path, 3 * tile.u, 3 * tile.v, 81, tile.length_exponent)
    assert same == tile and hash(same) == hash(tile)
    assert same != Tile(params, "b" if tile.kind_path == "a" else "a", tile.u, tile.v, 27,
                        tile.length_exponent)
    assert CoverInterval is Tile
    assert Tile(params, "", 0, 0, 1, 0).kind is None
