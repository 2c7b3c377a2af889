"""The step-n tiling of [0,1] with exact endpoints.

Letters map to tiles: a is a long tile of length gamma^-(n-1), b a short tile
of length gamma^-n, laid out left to right in word order. A tile holds the
integers of its start (u + v*gamma)/q^n; the exact field elements `.start`,
`.length` and `.end` are built on access, to check the unit length exactly.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, repeat
from operator import attrgetter

from .errors import CapExceeded, Record
from .limits import resolve_cap
from .quadfield import MetallicParams, QuadElement, gamma_pow
from .substitution import tile_counts, word_at_step


class TileKind(enum.Enum):
    LONG = "a"
    SHORT = "b"


class Tile:
    """A tile or cover interval from (u + v*gamma)/den, gamma^-length_exponent long.

    kind_path is a tile's letter or the survivor letters that led to a cover
    interval; the last one is its kind (None for the depth-0 interval [0,1]).
    Read-only by convention; equality is by value.
    """

    __slots__ = ("params", "kind_path", "u", "v", "den", "length_exponent")

    def __init__(self, params: MetallicParams, kind_path: str, u: int, v: int, den: int,
                 length_exponent: int) -> None:
        self.params, self.kind_path, self.length_exponent = params, kind_path, length_exponent
        self.u, self.v, self.den = u, v, den

    @property
    def kind(self) -> TileKind | None:
        return TileKind(self.kind_path[-1]) if self.kind_path else None

    @property
    def start(self) -> QuadElement:
        return QuadElement(Fraction(self.u, self.den), Fraction(self.v, self.den), self.params)

    @property
    def length(self) -> QuadElement:
        return gamma_pow(self.params, -self.length_exponent)

    @property
    def end(self) -> QuadElement:
        return self.start + self.length

    def _key(self) -> tuple:
        return self.kind_path, self.length_exponent, self.start

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Tile) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.kind_path!r}, start={self.start}, "
                f"length_exponent={self.length_exponent})")


class Tiling(Record):
    _fields = ("params", "n", "tiles")

    def __init__(self, params: MetallicParams, n: int, tiles: tuple[Tile, ...]) -> None:
        self.__dict__.update(params=params, n=n, tiles=tiles)

    def __len__(self) -> int:
        return len(self.tiles)

    @property
    def word(self) -> str:
        return "".join(map(attrgetter("kind_path"), self.tiles))


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
        return Tiling(params, 0, (Tile(params, "b", 0, 0, 1, 0),))

    word = word_at_step(params, n, cap=limit)
    exponents = {"a": n - 1, "b": n}
    us, vs = start_numerators(params, n, word[:-1])
    return Tiling(params, n, tuple(map(Tile, repeat(params), word, us, vs,
                                       repeat(params.q**n), map(exponents.__getitem__, word))))


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


def total_length(t: Tiling) -> QuadElement:
    """Exact sum of tile lengths (grouped by exponent; the sum is the same)."""
    counts = Counter(map(attrgetter("length_exponent"), t.tiles))
    return sum((c * gamma_pow(t.params, -m) for m, c in sorted(counts.items())), t.params.zero())
