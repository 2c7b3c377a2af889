"""The step-n tiling of [0,1] with exact endpoints.

Letters map to tiles: a is a long tile of length gamma^-(n-1), b a short tile
of length gamma^-n, laid out left to right in word order. Endpoints are exact
field elements, so the unit total length can be checked symbolically.
"""

from __future__ import annotations

import enum
import gc
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import attrgetter

from .errors import CapExceeded
from .limits import resolve_cap
from .quadfield import MetallicParams, QuadElement, gamma_pow
from .substitution import tile_counts, word_at_step


class TileKind(enum.Enum):
    LONG = "a"
    SHORT = "b"


@dataclass(frozen=True, slots=True)
class Tile:
    kind: TileKind
    start: QuadElement
    length_exponent: int

    @property
    def length(self) -> QuadElement:
        return gamma_pow(self.start.params, -self.length_exponent)

    @property
    def end(self) -> QuadElement:
        return self.start + self.length


@dataclass(frozen=True)
class Tiling:
    params: MetallicParams
    n: int
    tiles: tuple[Tile, ...]

    def __len__(self) -> int:
        return len(self.tiles)

    @property
    def word(self) -> str:
        return "".join(t.kind.value for t in self.tiles)


def tiling_at_step(params: MetallicParams, n: int, cap: int | None = None) -> Tiling:
    """Build the step-n tiling with exact cumulative endpoints.

    Step 0 is the single short tile of length 1; for n >= 1 long tiles have
    exponent n-1 and short tiles exponent n.
    """
    if n < 0:
        raise ValueError("step index must be >= 0")
    limit = resolve_cap(cap)
    count = tile_counts(params, n).total
    if count > limit:
        raise CapExceeded(f"step-{n} tiling has {count} tiles, above cap {limit}")
    if n == 0:
        return Tiling(params, 0, (Tile(TileKind.SHORT, params.zero(), 0),))

    word = word_at_step(params, n, cap=limit)
    kinds = {"a": TileKind.LONG, "b": TileKind.SHORT}
    exponents = {"a": n - 1, "b": n}
    coord = _Coordinates(params.q**n)
    # the per-letter work runs inside map/accumulate; only the constructors
    # (and coord's first sight of each numerator) execute Python code
    us, vs = start_numerators(params, n, word[:-1])
    starts = map(QuadElement, map(coord.__getitem__, us), map(coord.__getitem__, vs),
                 repeat(params))
    # The tiles form no reference cycles, so the collections their allocations
    # would trigger free nothing and only rescan the objects built so far.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        tiles = tuple(
            map(Tile, map(kinds.__getitem__, word), starts, map(exponents.__getitem__, word))
        )
    finally:
        if gc_was_enabled:
            gc.enable()
    return Tiling(params, n, tiles)


def start_numerators(params: MetallicParams, n: int,
                     letters: str) -> tuple[Iterator[int], Iterator[int]]:
    """(us, vs): the point reached after the first i letters of a step-n
    tiling is (us[i] + vs[i]*gamma)/q^n, for i = 0..len(letters).

    us and vs are lazy running sums of the tile lengths. Z[gamma] is closed
    under the gamma^2 rewrite, so gamma^-m has integer basis coordinates over
    q^m, and no Fraction arithmetic is needed per tile.
    """
    qn = params.q**n
    long_len, short_len = gamma_pow(params, -(n - 1)), gamma_pow(params, -n)
    step0 = {"a": int(long_len.c0 * qn), "b": int(short_len.c0 * qn)}
    step1 = {"a": int(long_len.c1 * qn), "b": int(short_len.c1 * qn)}
    return (accumulate(map(step0.__getitem__, letters), initial=0),
            accumulate(map(step1.__getitem__, letters), initial=0))


class _Coordinates(dict):
    """numerator -> Fraction(numerator, den), normalized on first lookup.

    Start coordinates often repeat across a tiling (11997 distinct values
    among the 479682 coordinates of (3,3,10)), so tiles share one Fraction
    per value.
    """

    def __init__(self, den: int) -> None:
        super().__init__()
        self.den = den

    def __missing__(self, num: int) -> Fraction:
        # Fraction(num) is the constructor's fast path for whole numbers
        value = self[num] = Fraction(num) if self.den == 1 else Fraction(num, self.den)
        return value


def total_length(t: Tiling) -> QuadElement:
    """Exact sum of tile lengths (grouped by exponent; the sum is the same)."""
    counts = Counter(map(attrgetter("length_exponent"), t.tiles))
    acc = t.params.zero()
    for exponent, count in sorted(counts.items()):
        acc = acc + count * gamma_pow(t.params, -exponent)
    return acc
