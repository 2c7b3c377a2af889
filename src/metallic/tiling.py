"""The step-n tiling of [0,1] with exact endpoints, and the layout rule it shares.

Letters map to tiles: a is a long tile of length gamma^-(n-1), b a short tile
of length gamma^-n, laid out left to right in word order. A tile holds the
integers of its start (u + v*gamma)/q^n; the exact field elements `.start`,
`.length` and `.end` are built on access, to check the unit length exactly.

`start_numerators`, running sums of `_inv_powers` lengths (the table of q^E * gamma^-m),
is the one layout rule: of the step-n word in `_step_layout`, for tilings and render's
tiling rows, and of the survivor pattern in units of long and short tiles, for covers.
`_fixed_powers`, gamma^-m * 2^K less under 3, encloses cover starts.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterator
from itertools import accumulate, repeat
from math import ceil, isqrt, log2
from operator import attrgetter

from .errors import Record
from .limits import check_cap
from .quadfield import MetallicParams, QuadElement, _element, gamma_pow
from .substitution import word_at_step, word_length


class TileKind(enum.Enum):
    LONG = "a"
    SHORT = "b"


class Tile:
    """A tile or cover interval from (u + v*gamma)/den, gamma^-length_exponent long.

    kind_path is a tile's letter or the survivor letters that led to a cover
    interval; the last one is its kind (None for the depth-0 interval [0,1]).
    fix, a cover start's enclosure f <= start*2^K < f + err as (f, err, K), goes on to
    `.start` (None on tiles). Read-only by convention; equality is by value, fix aside.
    """

    __slots__ = ("params", "kind_path", "u", "v", "den", "length_exponent", "fix")

    def __init__(self, params: MetallicParams, kind_path: str, u: int, v: int, den: int,
                 length_exponent: int, fix: tuple[int, int, int] | None = None) -> None:
        self.params, self.kind_path, self.length_exponent = params, kind_path, length_exponent
        self.u, self.v, self.den, self.fix = u, v, den, fix

    @property
    def kind(self) -> TileKind | None:
        return TileKind(self.kind_path[-1]) if self.kind_path else None

    @property
    def start(self) -> QuadElement:
        return _element(self.u, self.v, self.den, self.params, self.fix)

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
    exponent n-1 and short tiles exponent n. A negative n is a ValueError, from `tile_counts`.
    """
    check_cap(f"step-{n} tiling has {{}} tiles, above cap {{}}", word_length(params, n), cap=cap)
    return Tiling(params, n, tuple(map(Tile, repeat(params), *_step_layout(params, n, cap))))


def _step_layout(params: MetallicParams, n: int, cap: int | None) -> tuple:
    """The step-n tiling in lazy columns of `Tile`'s arguments after params: the word (at most
    `cap` letters), numerators u, v of boundaries 0..|W_n| (the last is 1) over den q^n, exponents."""
    word = word_at_step(params, n, cap=cap)
    lengths = _inv_powers(params, n)  # step 0 is "b", so lengths[-1] is never used
    us, vs = start_numerators(word, lengths[n - 1], lengths[n])
    return word, us, vs, repeat(params.q**n), map({"a": n - 1, "b": n}.__getitem__, word)


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


def _fixed_powers(params: MetallicParams, g: tuple[tuple[int, int], ...], k: int) -> list[int]:
    """F[m] <= gamma^-m * 2^k < F[m] + 3, m = 0..E, for the `_inv_powers` table g over q^E:
    y[m] = gamma^-m * 2^(k+d) = p*y[m+1] + q*y[m+2], run down by additions from y[E], y[E+1]
    under 2 low, is under 2*gamma^(E+1) < 2^(d-9) low (by the coefficients' sum), F = y >> d."""
    p, q, top, (u, v) = params.p, params.q, len(g) - 1, g[-1]
    d = 10 + ceil((top + 1) * log2(params.gamma_float))

    def below(a: int, b: int) -> int:  # (a + b*gamma) * 2^(k+d) / q^(E+1), less under 2
        t = isqrt(b * b * params.D << 2 * (k + d))
        return ((2 * a + p * b << k + d) + (t if b >= 0 else -t - 1)) // (2 * q ** (top + 1))
    y0, y1 = below(q * u, q * v), below(q * v - p * u, u)  # y[E]; y[E+1]: 1/gamma = (gamma - p)/q
    ys = accumulate(repeat(0, top), lambda y, _: (p * y[0] + q * y[1], y[0]), initial=(y0, y1))
    return [y >> d for y, _ in ys][::-1]


def start_numerators(letters: str, long_len: tuple[int, int],
                     short_len: tuple[int, int]) -> tuple[Iterator[int], Iterator[int]]:
    """(us, vs): the point reached after the first i letters, laid out from 0
    with a long and b short, is us[i] + vs[i]*gamma, for i = 0..len(letters).

    The lengths are integer pairs (c0, c1) for c0 + c1*gamma, such as the
    `_inv_powers` numerators of gamma^-m over a common q^E, and us and vs are
    lazy running sums of them (counts of long and short letters at (1, 0), (0, 1)).
    """
    step0 = {"a": long_len[0], "b": short_len[0]}
    step1 = {"a": long_len[1], "b": short_len[1]}
    return (accumulate(map(step0.__getitem__, letters), initial=0),
            accumulate(map(step1.__getitem__, letters), initial=0))


def total_length(t: Tiling) -> QuadElement:
    """Exact sum of tile lengths (grouped by exponent; the sum is the same)."""
    counts = Counter(map(attrgetter("length_exponent"), t.tiles))
    return sum((c * gamma_pow(t.params, -m) for m, c in sorted(counts.items())), t.params.zero())
