"""Substitution words over {a, b} and the integer sequences counting them.

The step words follow a -> a^p b^q, b -> a, seeded with the single letter b at
step 0 (so step 1 is "a", step 2 is "a"*p + "b"*q, ...). Letter counts obey the
metallic recurrence and are always computed by integer recurrence; the words
themselves are materialized only below a cap and can otherwise be streamed
letter by letter.
"""

from __future__ import annotations

from typing import Iterator

from .errors import CapExceeded, Record
from .limits import format_count, resolve_cap
from .quadfield import MetallicParams


class CountVector(Record):
    """Letter counts of the step-n word: N_a long tiles, N_b short tiles."""

    _fields = ("n", "N_a", "N_b")

    def __init__(self, n: int, N_a: int, N_b: int) -> None:
        self.__dict__.update(n=n, N_a=N_a, N_b=N_b)

    @property
    def total(self) -> int:
        return self.N_a + self.N_b


def substitute(word: str, params: MetallicParams) -> str:
    """Apply the morphism once: each a becomes a^p b^q, each b becomes a."""
    table = {ord("a"): "a" * params.p + "b" * params.q, ord("b"): "a"}
    return word.translate(table)


def word_length(params: MetallicParams, n: int) -> int:
    """|W_n| without building the word."""
    c = tile_counts(params, n)
    return c.total


def word_at_step(params: MetallicParams, n: int, cap: int | None = None) -> str:
    """The step-n word, materialized. Raises CapExceeded above the letter cap."""
    if n < 0:
        raise ValueError("step index must be >= 0")
    limit = resolve_cap(cap)
    length = word_length(params, n)
    if length > limit:
        raise CapExceeded(f"|W_{n}| = {format_count(length)} letters exceeds cap {limit}")
    word = "b"
    for _ in range(n):
        word = substitute(word, params)
    return word


def iter_word_at_step(params: MetallicParams, n: int) -> Iterator[str]:
    """Yield the letters of the step-n word lazily, in order."""
    if n < 0:
        raise ValueError("step index must be >= 0")
    image_a = "a" * params.p + "b" * params.q
    # depth-first over the substitution tree; an explicit stack of
    # (letter, steps left) keeps deep words clear of the recursion limit
    stack = [("b", n)]
    while stack:
        letter, steps = stack.pop()
        if steps == 0:
            yield letter
        elif letter == "b":
            stack.append(("a", steps - 1))
        else:
            stack.extend((child, steps - 1) for child in reversed(image_a))


def tile_counts(params: MetallicParams, n: int) -> CountVector:
    """Letter counts (N_a, N_b) of the step-n word by integer recurrence.

    N_a(n) = p*N_a(n-1) + N_b(n-1) and N_b(n) = q*N_a(n-1), starting from the
    step-0 word "b". Equivalently N_a(n) = a_n and N_b(n) = q*a_{n-1} in terms
    of the metallic sequence.
    """
    if n < 0:
        raise ValueError("step index must be >= 0")
    na, nb = 0, 1
    for _ in range(n):
        na, nb = params.p * na + nb, params.q * na
    return CountVector(n, na, nb)


def metallic_sequence(params: MetallicParams, n: int) -> int:
    """a_n with a_0 = 0, a_1 = 1 and a_n = p*a_{n-1} + q*a_{n-2}."""
    if n < 0:
        raise ValueError("index must be >= 0")
    cur, nxt = 0, 1
    for _ in range(n):
        cur, nxt = nxt, params.p * nxt + params.q * cur
    return cur
