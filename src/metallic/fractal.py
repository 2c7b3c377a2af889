"""Removal fractals built from the step-n tiling.

A spec (p, q, n, l, s) removes l long and s short tiles from the step-n
tiling, then recursively re-tiles every surviving interval with the same
(scaled) survivor pattern. The depth-k cover is the set of intervals left
after k rounds; its lengths are pure powers of gamma. One integer walk hands
each interval out as its start (u + v*gamma)/q^(n*k), length exponent and
path of tile kinds, held as integers in the tile type.

Which tiles get removed is a free choice (the dimension only sees the counts):
the default "keep-first" policy drops the last l long and last s short tiles
in word order, "keep-last" drops the first ones, and "explicit" removes named
word positions so published figures can be reproduced exactly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Iterator

from .errors import (
    CapExceeded,
    EmptyFractal,
    InvalidRemovalCount,
    PolicyIndexMismatch,
    Record,
    ValidationError,
)
from .limits import resolve_cap
from .quadfield import MetallicParams, QuadElement, gamma_pow
from .substitution import tile_counts, word_at_step
from .tiling import Tile, tiling_at_step

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
        if not (0 <= l <= counts.N_a):
            raise InvalidRemovalCount(f"l={l} long removals out of range 0..{counts.N_a}")
        if not (0 <= s <= counts.N_b):
            raise InvalidRemovalCount(f"s={s} short removals out of range 0..{counts.N_b}")
        if counts.total - l - s < 1:
            raise EmptyFractal("removal leaves no surviving tile")
        if policy == "explicit":
            if indices is None:
                raise PolicyIndexMismatch("explicit policy requires removal indices")
            self.__dict__["indices"] = tuple(sorted(indices))
            self._check_explicit_indices()
        elif indices is not None:
            raise PolicyIndexMismatch("indices are only valid with the explicit policy")

    def _check_explicit_indices(self) -> None:
        word = word_at_step(self.params, self.n)
        idx = self.indices
        if len(set(idx)) != len(idx):
            raise PolicyIndexMismatch("removal indices must be distinct")
        if idx and not (0 <= idx[0] and idx[-1] < len(word)):
            raise PolicyIndexMismatch(f"removal indices must lie in 0..{len(word) - 1}")
        removed_long = sum(1 for i in idx if word[i] == "a")
        removed_short = len(idx) - removed_long
        if removed_long != self.l or removed_short != self.s:
            raise PolicyIndexMismatch(
                f"indices remove {removed_long} long / {removed_short} short tiles, "
                f"spec says {self.l} / {self.s}"
            )

    @property
    def survivor_counts(self) -> tuple[int, int]:
        """(N_a - l, N_b - s): long and short tiles kept per level."""
        counts = tile_counts(self.params, self.n)
        return counts.N_a - self.l, counts.N_b - self.s


def removed_positions(spec: FractalSpec) -> frozenset[int]:
    """Word positions deleted from the step-n tiling under the spec's policy."""
    if spec.policy == "explicit":
        return frozenset(spec.indices)
    word = word_at_step(spec.params, spec.n)
    longs = [i for i, ch in enumerate(word) if ch == "a"]
    shorts = [i for i, ch in enumerate(word) if ch == "b"]
    if spec.policy == "keep-first":
        picked = longs[len(longs) - spec.l:] + shorts[len(shorts) - spec.s:]
    else:  # keep-last
        picked = longs[: spec.l] + shorts[: spec.s]
    return frozenset(picked)


def survivors(spec: FractalSpec) -> tuple[Tile, ...]:
    """The step-n tiles that remain after removal, in word order."""
    tiling = tiling_at_step(spec.params, spec.n)
    removed = removed_positions(spec)
    return tuple(t for i, t in enumerate(tiling.tiles) if i not in removed)


# one surviving interval: the tile type, its kind_path the survivor letters
CoverInterval = Tile


class IntervalCover(Record):
    """The depth-k stage of the construction.

    `intervals` is None for summary covers, which carry only the (exact)
    length multiset; interval positions can always be re-streamed from the
    spec.
    """

    _fields = ("spec", "depth", "intervals")

    def __init__(self, spec: FractalSpec, depth: int,
                 intervals: tuple[CoverInterval, ...] | None) -> None:
        self.__dict__.update(spec=spec, depth=depth, intervals=intervals)

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
def _survivor_pattern(spec: FractalSpec) -> tuple[tuple[int, int, str], ...]:
    """(long tiles before, short tiles before, letter) of each survivor: it
    starts at longs * gamma^-(n-1) + shorts * gamma^-n in the interval it refines."""
    word = word_at_step(spec.params, spec.n)
    removed = removed_positions(spec)
    longs = accumulate((letter == "a" for letter in word), initial=0)
    return tuple((a, i - a, letter) for i, (a, letter) in enumerate(zip(longs, word))
                 if i not in removed)


def _inv_powers(params: MetallicParams, e_max: int,
                scale: tuple[int, int] = (1, 0)) -> tuple[tuple[int, int], ...]:
    """G[m] = (s0 + s1*gamma) * q^e_max * gamma^-m as integer pairs, m = 0..e_max.

    1/gamma = (gamma - p)/q maps (u, v) to (v - p*u/q, u/q); q^(e_max - m)
    divides G[m], so every division is exact.
    """
    p, q = params.p, params.q
    g = [(scale[0] * q**e_max, scale[1] * q**e_max)]
    for _ in range(e_max):
        u, v = g[-1]
        g.append((v - p * u // q, u // q))
    return tuple(g)


def _walk(spec: FractalSpec, depth: int, scale: tuple[int, int] = (1, 0),
          paths: bool = True) -> Iterator[tuple[int, int, int, str]]:
    """The cover at `depth` left to right, in integers: (u, v, exponent, path).

    The interval starts at (u + v*gamma) / q^E, E = n*depth, times the scale
    s0 + s1*gamma, and is gamma^-exponent long before scaling; path spells
    the survivor letters that led to it ("" when paths is False). Depth-first
    with an explicit stack, so depth is not bound by the recursion limit.
    """
    n = spec.n
    g = _inv_powers(spec.params, n * depth, scale)
    pattern = [(a, b, n - (letter == "a"), letter if paths else "")
               for a, b, letter in _survivor_pattern(spec)]
    children: dict[int, list[tuple[int, int, int, str]]] = {}  # by parent exponent
    stack = [(0, 0, 0, "", depth)]
    while stack:
        u, v, e, path, left = stack.pop()
        if left == 0:
            yield u, v, e, path
            continue
        if e not in children:
            (l0, l1), (h0, h1) = g[e + n - 1], g[e + n]
            children[e] = [(a * l0 + b * h0, a * l1 + b * h1, e + x, letter)
                           for a, b, x, letter in pattern]
        if left == 1:
            for du, dv, x, letter in children[e]:
                yield u + du, v + dv, x, path + letter
        else:
            stack.extend([(u + du, v + dv, x, path + letter, left - 1)
                          for du, dv, x, letter in reversed(children[e])])


def _intervals(spec: FractalSpec, k: int) -> Iterator[CoverInterval]:
    params, den = spec.params, spec.params.q ** (spec.n * k)
    for u, v, e, path in _walk(spec, k):
        yield CoverInterval(params, path, u, v, den, e)


def check_cover_cap(spec: FractalSpec, k: int, cap: int | None = None) -> None:
    """Raise CapExceeded when the depth-k cover has more intervals than the cap."""
    count, limit = IntervalCover(spec, k, None).count, resolve_cap(cap)
    if count > limit:
        raise CapExceeded(f"depth-{k} cover has {count} intervals, above cap {limit}")


def refine(cover: IntervalCover) -> IntervalCover:
    """Replace every interval by the survivor pattern scaled into it."""
    if cover.intervals is None:
        raise ValidationError("refine needs a materialized cover")
    return IntervalCover(cover.spec, cover.depth + 1,
                         tuple(_intervals(cover.spec, cover.depth + 1)))


def cover_at_depth(spec: FractalSpec, k: int, cap: int | None = None) -> IntervalCover:
    """Materialized depth-k cover (k-fold refinement of [0,1])."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    check_cover_cap(spec, k, cap)
    return IntervalCover(spec, k, tuple(_intervals(spec, k)))


def cover_summary(spec: FractalSpec, k: int) -> IntervalCover:
    """Depth-k cover without interval positions (length multiset only)."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    return IntervalCover(spec, k, None)


def iter_cover_intervals(spec: FractalSpec, k: int) -> Iterator[CoverInterval]:
    """Stream the depth-k cover left to right without materializing it."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    return _intervals(spec, k)


def gaps(cover: IntervalCover) -> tuple[tuple[QuadElement, QuadElement], ...]:
    """Open complement of the cover in [0,1], as (start, length) pairs."""
    if cover.intervals is None:
        raise ValidationError("gaps need a materialized cover")
    params = cover.spec.params
    # a gap runs from one interval's end (or 0) to the next one's start (or 1)
    ends = [params.zero(), *(iv.end for iv in cover.intervals)]
    starts = [*(iv.start for iv in cover.intervals), params.one()]
    return tuple((a, w) for a, b in zip(ends, starts) if (w := b - a).sign() > 0)
