"""Substitution words over {a, b} and the integer sequences counting them.

The step words follow a -> a^p b^q, b -> a, seeded with the single letter b at
step 0 (so step 1 is "a", step 2 is "a"*p + "b"*q, ...). Letter counts are terms
of the metallic sequence a_n, computed by fast doubling in O(log n) integer
products. The words themselves are materialized only below a cap and can
otherwise be streamed letter by letter, from runs of one letter expanded as they
are read, so a huge p or q costs nothing until its letters are.
"""

from __future__ import annotations

from typing import Iterator

from .errors import Record
from .limits import check_cap
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
    """Apply the morphism once: each a becomes a^p b^q, each b becomes a. The image
    of a is built only for a word that holds an a."""
    table = {ord("b"): "a"}
    if "a" in word:
        table[ord("a")] = "a" * params.p + "b" * params.q
    return word.translate(table)


def word_length(params: MetallicParams, n: int) -> int:
    """|W_n| without building the word."""
    return tile_counts(params, n).total


def word_at_step(params: MetallicParams, n: int, cap: int | None = None) -> str:
    """The step-n word, materialized. CapExceeded above the letter cap; ValueError for n < 0."""
    check_cap(f"|W_{n}| = {{}} letters exceeds cap {{}}", word_length(params, n), cap=cap)
    word = "b"
    for _ in range(n):
        word = substitute(word, params)
    return word


def iter_word_at_step(params: MetallicParams, n: int) -> Iterator[str]:
    """Yield the letters of the step-n word lazily, in order."""
    if n < 0:
        raise ValueError("step index must be >= 0")
    # depth-first over the substitution tree; an explicit stack of runs
    # (letter, steps left, count) keeps deep words clear of the recursion limit
    stack = [("b", n, 1)]
    while stack:
        letter, steps, count = stack.pop()
        if steps == 0:
            for _ in range(count):
                yield letter
        elif letter == "b":  # b^count -> a^count
            stack.append(("a", steps - 1, count))
        else:  # a^count -> a^p b^q a^(count-1)
            if count > 1:
                stack.append(("a", steps, count - 1))
            stack += (("b", steps - 1, params.q), ("a", steps - 1, params.p))


def tile_counts(params: MetallicParams, n: int) -> CountVector:
    """Letter counts (N_a, N_b) of the step-n word.

    N_a(n) = p*N_a(n-1) + N_b(n-1) and N_b(n) = q*N_a(n-1), starting from the
    step-0 word "b", so N_a(n) = a_n and N_b(n) = q*a_{n-1} = a_{n+1} - p*a_n in
    terms of the metallic sequence. (a_n, a_{n+1}) comes by fast doubling over the
    bits of n: from (a_m, a_{m+1}), a_2m = a_m*(2*a_{m+1} - p*a_m) and
    a_2m+1 = a_{m+1}^2 + q*a_m^2.
    """
    if n < 0:
        raise ValueError("step index must be >= 0")
    p, q = params.p, params.q
    a, b = 0, 1
    for bit in f"{n:b}":
        a, b = a * (2 * b - p * a), b * b + q * a * a
        if bit == "1":
            a, b = b, p * b + q * a
    return CountVector(n, a, b - p * a)


def metallic_sequence(params: MetallicParams, n: int) -> int:
    """a_n with a_0 = 0, a_1 = 1 and a_n = p*a_{n-1} + q*a_{n-2}: N_a of `tile_counts`."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return tile_counts(params, n).N_a
