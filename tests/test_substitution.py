"""Substitution words, letter counts, and the metallic integer sequences."""

import mpmath
import pytest

from metallic import (
    CapExceeded,
    MetallicParams,
    iter_word_at_step,
    metallic_sequence,
    substitute,
    tile_counts,
    word_at_step,
    word_length,
)

GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)
COPPER = MetallicParams(1, 2)

GRID = [MetallicParams(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]


def test_substitute_golden_iteration():
    word = "a"
    seen = [word]
    for _ in range(4):
        word = substitute(word, GOLDEN)
        seen.append(word)
    assert seen == ["a", "ab", "aba", "abaab", "abaababa"]


def test_substitute_silver_iteration():
    assert substitute("a", SILVER) == "aab"
    assert substitute("aab", SILVER) == "aabaaba"


def test_substitute_copper():
    assert substitute("a", COPPER) == "abb"


def test_word_at_step_examples():
    assert word_at_step(GOLDEN, 3) == "aba"
    assert word_at_step(GOLDEN, 4) == "abaab"
    assert word_at_step(SILVER, 3) == "aabaaba"
    for params in GRID:
        assert word_at_step(params, 0) == "b"
        assert word_at_step(params, 1) == "a"


def test_word_cap():
    with pytest.raises(CapExceeded):
        word_at_step(GOLDEN, 30, cap=100)
    with pytest.raises(CapExceeded, match=r"\A\|W_30000\| = ~10\^6269\.5 letters exceeds cap"):
        word_at_step(GOLDEN, 30000)
    # counts still fine above the cap
    assert word_length(GOLDEN, 30) == metallic_sequence(GOLDEN, 30) + metallic_sequence(GOLDEN, 29)


def test_streaming_matches_materialized():
    for params in (GOLDEN, SILVER, COPPER, MetallicParams(3, 2)):
        for n in range(0, 8):
            assert "".join(iter_word_at_step(params, n)) == word_at_step(params, n)


@pytest.mark.parametrize("params", GRID)
def test_counts_match_enumeration(params):
    for n in range(0, 13):
        word = word_at_step(params, n)
        counts = tile_counts(params, n)
        assert counts.N_a == word.count("a")
        assert counts.N_b == word.count("b")
        assert counts.total == len(word)


@pytest.mark.parametrize("params", GRID)
def test_counts_from_metallic_sequence(params):
    for n in range(1, 13):
        counts = tile_counts(params, n)
        assert counts.N_a == metallic_sequence(params, n)
        assert counts.N_b == params.q * metallic_sequence(params, n - 1)
        assert len(word_at_step(params, n)) == counts.N_a + counts.N_b


@pytest.mark.parametrize("params", GRID)
def test_incidence_matrix_power(params):
    # counts = [[p,1],[q,0]]^n applied to (0,1)
    na, nb = 0, 1
    for n in range(1, 13):
        na, nb = params.p * na + nb, params.q * na
        counts = tile_counts(params, n)
        assert (counts.N_a, counts.N_b) == (na, nb)


def test_sequence_prefixes():
    assert [metallic_sequence(SILVER, i) for i in range(8)] == [0, 1, 2, 5, 12, 29, 70, 169]
    assert metallic_sequence(GOLDEN, 7) == 13
    assert [metallic_sequence(COPPER, i) for i in range(6)] == [0, 1, 1, 3, 5, 11]


@pytest.mark.parametrize("params", GRID)
def test_sequence_matches_binet_form(params):
    with mpmath.workprec(120):
        sqrt_d = mpmath.sqrt(params.D)
        gamma = (params.p + sqrt_d) / 2
        conj = (params.p - sqrt_d) / 2
        for n in range(0, 41):
            closed = (gamma**n - conj**n) / sqrt_d
            assert metallic_sequence(params, n) == int(mpmath.nint(closed))


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        metallic_sequence(GOLDEN, -1)
    with pytest.raises(ValueError):
        word_at_step(GOLDEN, -2)
    with pytest.raises(ValueError):
        tile_counts(GOLDEN, -1)
