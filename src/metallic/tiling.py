"""The step-n tiling of [0,1] with exact endpoints, and the layout rule it shares.

Letters map to tiles: a is a long tile of length gamma^-(n-1), b a short tile
of length gamma^-n, laid out left to right in word order. A tile holds the
integers of its start (u + v*gamma)/q^n; the exact field elements `.start`,
`.length` and `.end` are built on access, to check the unit length exactly.

`start_numerators`, running sums of lengths from `_inv_powers` (the one table
of q^E * gamma^-m), is the one layout rule: render and the cover walker use it too.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterator
from itertools import accumulate, repeat
from operator import attrgetter

from .errors import CapExceeded, Record
from .limits import format_count, resolve_cap
from .quadfield import MetallicParams, QuadElement, _element, gamma_pow
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
        return _element(self.u, self.v, self.den, self.params)

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
        raise CapExceeded(f"step-{n} tiling has {format_count(count)} tiles, above cap {limit}")
    word = word_at_step(params, n, cap=limit)
    lengths = _inv_powers(params, n)  # step 0 is "b", so lengths[-1] is never used
    us, vs = start_numerators(word[:-1], lengths[n - 1], lengths[n])
    exponents = {"a": n - 1, "b": n}
    return Tiling(params, n, tuple(map(Tile, repeat(params), word, us, vs,
                                       repeat(params.q**n), map(exponents.__getitem__, word))))


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


def start_numerators(letters: str, long_len: tuple[int, int],
                     short_len: tuple[int, int]) -> tuple[Iterator[int], Iterator[int]]:
    """(us, vs): the point reached after the first i letters, laid out from 0
    with a long and b short, is us[i] + vs[i]*gamma, for i = 0..len(letters).

    The lengths are integer pairs (c0, c1) for c0 + c1*gamma, such as the
    `_inv_powers` numerators of gamma^-m over a common q^E, and us and vs are
    lazy running sums of them: no Fraction arithmetic is needed per letter.
    """
    step0 = {"a": long_len[0], "b": short_len[0]}
    step1 = {"a": long_len[1], "b": short_len[1]}
    return (accumulate(map(step0.__getitem__, letters), initial=0),
            accumulate(map(step1.__getitem__, letters), initial=0))


def total_length(t: Tiling) -> QuadElement:
    """Exact sum of tile lengths (grouped by exponent; the sum is the same)."""
    counts = Counter(map(attrgetter("length_exponent"), t.tiles))
    return sum((c * gamma_pow(t.params, -m) for m, c in sorted(counts.items())), t.params.zero())
