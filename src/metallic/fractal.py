"""Removal fractals built from the step-n tiling.

A spec (p, q, n, l, s) removes l long and s short tiles from the step-n
tiling, then recursively re-tiles every surviving interval with the same
(scaled) survivor pattern. The depth-k cover is the set of intervals left
after k rounds; its lengths are pure powers of gamma. One integer walk hands each
interval out as a `CoverInterval`: its start (u + v*gamma)/q^(n*k), length exponent
and path of tile kinds, held as integers, with a fixed-point enclosure of the start
that rounds it without cancellation. `_child_layout` lays out children for the walk,
render's rows and the box counter; `cover_at_depth` or a first read walks a cover's intervals.

Which tiles get removed is a free choice (the dimension only sees the counts):
the default "keep-first" policy drops the last l long and last s short tiles
in word order, "keep-last" drops the first ones, and "explicit" removes named
word positions so published figures can be reproduced exactly. `_survivor_pattern`
builds a spec's step word once and is the one place its removed positions are decided.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import compress
from math import ceil, comb, log2
from typing import Iterator

from .errors import EmptyFractal, InvalidRemovalCount, PolicyIndexMismatch, Record, ValidationError
from .limits import DEFAULT_BITS, check_cap, format_count
from .quadfield import MetallicParams, QuadElement, gamma_pow
from .substitution import tile_counts, word_at_step
from .tiling import Tile, _fixed_powers, _inv_powers, start_numerators, tiling_at_step

POLICIES = ("keep-first", "keep-last", "explicit")


class FractalSpec(Record):
    _fields = ("params", "n", "l", "s", "policy", "indices")

    def __init__(self, params: MetallicParams, n: int, l: int, s: int,
                 policy: str = "keep-first", indices: tuple[int, ...] | None = None) -> None:
        self.__dict__.update(params=params, n=n, l=l, s=s, policy=policy, indices=indices)
        if n < 2:
            raise ValidationError("fractal step index n must be >= 2")
        if policy not in POLICIES:
            raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
        counts = tile_counts(params, n)
        na, nb = counts.N_a, counts.N_b
        if not (0 <= l <= na):
            raise InvalidRemovalCount(f"l={l} long removals out of range 0..{format_count(na)}")
        if not (0 <= s <= nb):
            raise InvalidRemovalCount(f"s={s} short removals out of range 0..{format_count(nb)}")
        if na + nb - l - s < 1:
            raise EmptyFractal("removal leaves no surviving tile")
        # (N_a - l, N_b - s): long and short tiles kept per level. Not a field, so
        # equality, hash, repr and pickling see only the spec's own values.
        self.__dict__["survivor_counts"] = (na - l, nb - s)
        if policy == "explicit":
            if indices is None:
                raise PolicyIndexMismatch("explicit policy requires removal indices")
            self.__dict__["indices"] = tuple(sorted(indices))
            _survivor_pattern(self)  # checks the indices against the word
        elif indices is not None:
            raise PolicyIndexMismatch("indices are only valid with the explicit policy")


def survivors(spec: FractalSpec) -> tuple[Tile, ...]:
    """The step-n tiles that remain after removal, in word order."""
    return tuple(compress(tiling_at_step(spec.params, spec.n).tiles, _survivor_pattern(spec)[1]))


# one surviving interval: the tile type, its kind_path the survivor letters
CoverInterval = Tile


class IntervalCover(Record):
    """The depth-k stage of the construction.

    Its exact length multiset needs no interval. `intervals` is walked on first
    read, under the cap in force, unless `cover_at_depth` filled it under its own.
    """

    _fields = ("spec", "depth")

    def __init__(self, spec: FractalSpec, depth: int) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.__dict__.update(spec=spec, depth=depth)

    @cached_property
    def intervals(self) -> tuple[CoverInterval, ...]:
        check_cover_cap(self.spec, self.depth)
        return tuple(_walk(self.spec, self.depth))

    @property
    def count(self) -> int:
        na, nb = self.spec.survivor_counts
        return (na + nb) ** self.depth

    def exponent_counts(self) -> dict[int, int]:
        """Multiset of length exponents, {m: count of intervals gamma^-m}.

        Every survivor is re-tiled with one fixed pattern, so the multiset is
        the k-fold product of the depth-1 one: i long and k - i short steps
        give exponent (n-1)*i + n*(k-i).
        """
        na, nb = self.spec.survivor_counts
        n, k = self.spec.n, self.depth
        tally = {n * k - i: comb(k, i) * na**i * nb ** (k - i) for i in range(k + 1)}
        return {m: c for m, c in tally.items() if c}

    def total_length(self) -> QuadElement:
        """Exact total length of the cover as a field element."""
        params, counts = self.spec.params, self.exponent_counts()
        return sum((c * gamma_pow(params, -m) for m, c in sorted(counts.items())), params.zero())


@lru_cache(maxsize=128)
def _survivor_pattern(spec: FractalSpec) -> tuple[str, tuple[bool, ...]]:
    """The step-n word and its kept mask, True at each survivor's position: the one place
    a spec's removed positions are decided. Explicit indices must be distinct, then lie in
    the word, then remove l long and s short tiles."""
    word = word_at_step(spec.params, spec.n)
    if spec.policy == "explicit":
        removed = spec.indices
        if len(set(removed)) != len(removed):
            raise PolicyIndexMismatch("removal indices must be distinct")
        if removed and not (0 <= removed[0] and removed[-1] < len(word)):
            raise PolicyIndexMismatch(f"removal indices must lie in 0..{len(word) - 1}")
        long_short = sum(word[i] == "a" for i in removed), sum(word[i] == "b" for i in removed)
        if long_short != (spec.l, spec.s):
            raise PolicyIndexMismatch("indices remove {} long / {} short tiles, spec says {} / {}"
                                      .format(*long_short, spec.l, spec.s))
    else:
        longs, shorts = ([i for i, ch in enumerate(word) if ch == c] for c in "ab")
        if spec.policy == "keep-first":  # drops the last l long and last s short tiles
            removed = longs[len(longs) - spec.l:] + shorts[len(shorts) - spec.s:]
        else:  # keep-last drops the first ones
            removed = longs[: spec.l] + shorts[: spec.s]
    removed = frozenset(removed)
    return word, tuple(i not in removed for i in range(len(word)))


def _child_layout(spec: FractalSpec, g: tuple[tuple[int, int], ...], fixed: list[int]):
    """children(e): the survivors in a parent gamma^-e long, left to right, as (du, dv, df,
    exponent, letter): after A long and B short tiles (`start_numerators` in unit lengths), at
    A*gamma^-(e+n-1) + B*gamma^-(e+n) on the `_inv_powers` table g and `_fixed_powers` fixed."""
    n, (word, kept) = spec.n, _survivor_pattern(spec)
    longs, shorts = start_numerators(word, (1, 0), (0, 1))
    before = list(compress(zip(longs, shorts, [n - (c == "a") for c in word], word), kept))

    @lru_cache(maxsize=None)  # each exponent's list is built once, then shared
    def children(e: int) -> list[tuple]:
        (a0, a1), (b0, b1), fa, fb = g[e + n - 1], g[e + n], fixed[e + n - 1], fixed[e + n]
        return [(a * a0 + b * b0, a * a1 + b * b1, a * fa + b * fb, e + x, letter)
                for a, b, x, letter in before]
    return children


def _walk(spec: FractalSpec, depth: int) -> Iterator[CoverInterval]:
    """The cover at `depth` left to right, as intervals with integer starts and enclosures.

    x = (u + v*gamma) / q^E, E = n*depth, starts an interval gamma^-exponent long, reached by
    the survivor letters path. fix = (f, err, K), f <= x*2^K < f + err (None for rational x):
    f adds a `_fixed_powers` entry, under 3 low, per tile before x, so err = 3*depth*|W_n|, and
    K gives x >= gamma^-E DEFAULT_BITS + 64 bits. The word goes first: past its letter cap,
    gamma may pass the double range. An explicit stack frees depth from recursion and holds
    one path of the tree, so a cover streams even when no level of it fits in memory.
    """
    params, n, top = spec.params, spec.n, spec.n * depth
    err, irrational = 3 * depth * len(_survivor_pattern(spec)[0]), params.rational_root is None
    k = DEFAULT_BITS + 64 + ceil(top * log2(params.gamma_float))
    g, den = _inv_powers(params, top), params.q**top
    children = _child_layout(spec, g, _fixed_powers(params, g, k))
    stack = [(0, 0, 0, 0, "", depth)] if depth else []
    if not depth:
        yield CoverInterval(params, "", 0, 0, den, 0)
    while stack:  # every entry has a level below it
        u, v, f, e, path, left = stack.pop()
        if left > 1:
            stack.extend([(u + du, v + dv, f + df, x, path + letter, left - 1)
                          for du, dv, df, x, letter in reversed(children(e))])
            continue
        for du, dv, df, x, letter in children(e):
            w = v + dv
            yield CoverInterval(params, path + letter, u + du, w, den, x,
                                (f + df, err, k) if w and irrational else None)


def check_cover_cap(spec: FractalSpec, k: int, cap: int | None = None) -> None:
    """Raise CapExceeded when the depth-k cover's N'^k intervals pass `cap`, or the step-n
    word passes the cap in force. The count goes first: it needs no word."""
    check_cap(f"depth-{k} cover has {{}} intervals, above cap {{}}", sum(spec.survivor_counts),
              k, cap)
    _survivor_pattern(spec)


def refine(cover: IntervalCover) -> IntervalCover:
    """Replace every interval by the survivor pattern scaled into it."""
    return cover_at_depth(cover.spec, cover.depth + 1)


def cover_at_depth(spec: FractalSpec, k: int, cap: int | None = None) -> IntervalCover:
    """Materialized depth-k cover (k-fold refinement of [0,1]), walked under `cap`."""
    cover = IntervalCover(spec, k)
    check_cover_cap(spec, k, cap)
    cover.__dict__["intervals"] = tuple(_walk(spec, k))
    return cover


def cover_summary(spec: FractalSpec, k: int) -> IntervalCover:
    """Depth-k cover whose intervals are walked only when read (the length multiset needs none)."""
    return IntervalCover(spec, k)


def iter_cover_intervals(spec: FractalSpec, k: int) -> Iterator[CoverInterval]:
    """Stream the depth-k cover left to right without materializing it."""
    return _walk(spec, IntervalCover(spec, k).depth)  # the record checks the depth


def gaps(cover: IntervalCover) -> tuple[tuple[QuadElement, QuadElement], ...]:
    """Open complement of the cover in [0,1], as (start, length) pairs."""
    params = cover.spec.params
    # a gap runs from one interval's end (or 0) to the next one's start (or 1)
    ends = [params.zero(), *(iv.end for iv in cover.intervals)]
    starts = [*(iv.start for iv in cover.intervals), params.one()]
    return tuple((a, w) for a, b in zip(ends, starts) if (w := b - a).sign() > 0)
