"""Exact arithmetic in Q(gamma) for a metallic mean gamma.

gamma is the positive root of x^2 = p*x + q (p, q positive integers), so every
element of the field is c0 + c1*gamma with rational c0, c1. Products reduce by
the single rewrite gamma^2 -> q + p*gamma, and 1/gamma = (gamma - p)/q, so the
basis {1, gamma} is closed under the ring operations. Signs are decided
exactly, without ever rounding: write the value as (A + B*sqrt(D))/2 with
D = p^2 + 4q and compare A^2 against B^2*D when the two terms disagree in sign.

When D happens to be a perfect square the mean is a rational integer (e.g.
p=1, q=2 gives gamma=2) and sign questions are settled by plain rational
evaluation; the same representation is used either way.

Values are turned into floats from integers alone. Over a common denominator
den, an element is (u + v*gamma)/den = (a + b*sqrt(D))/m with a = 2u + p*v,
b = v and m = 2*den. math.isqrt gives the integer t = floor(|b|*sqrt(D)*2^k),
so the value times m*2^k lies strictly between two consecutive integers lo and
lo + 1 (strictly, because b*sqrt(D) is irrational for b != 0). The field norm
a^2 - b^2*D is a nonzero integer and bounds the value away from zero even
when a and b*sqrt(D) cancel, so k is chosen from bit lengths to make
|lo| >= 2^bits at once. `to_double` first tries a bracket |v| wide from
floor(sqrt(D)*2^192), cached per `MetallicParams`, so no isqrt per call; only
when |v| is large against the scaled value (deep powers such as gamma^-200,
or past gamma^-1760 a bracket too wide to divide into a float) does it fall
back to this one, returning lo/(m*2^k) once both ends round to the same double
(int/int division is correctly rounded) and widening k if they do not.
`to_mpf` rounds lo/(m*2^k) once at the requested precision. In the degenerate
case the value is a plain rational and both round u + v*gamma over den exactly
once. Only `to_mpf` and `gamma_mpf` import mpmath.

`MetallicParams` and `QuadElement` are `errors.Record`s: immutable, equal and
hashed by value. `MetallicParams` keeps a `__dict__` for its cached derived
values and computes its hash once; `QuadElement` is slotted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import ParamsMismatch, Record

Rational = int | Fraction
FIXED_BITS = 192  # K of the cached fixed-point sqrt(D) that `to_double` tries first
# symbols of the named means, for tables, tiling text and figure labels
MEAN_SYMBOLS = {(1, 1): "φ", (2, 1): "δ", (3, 1): "σ", (1, 2): "α", (1, 3): "β"}


class MetallicParams(Record):
    """The pair (p, q) selecting a metallic mean.

    The hash is computed once: every lru_cache keyed by the mean hashes it.
    Derived values are cached per instance as they are first read.
    """

    _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if not (isinstance(p, int) and isinstance(q, int)):
            raise ValueError("p and q must be integers")
        if p < 1 or q < 1:
            raise ValueError(f"p and q must be >= 1, got p={p}, q={q}")
        self.__dict__.update(p=p, q=q, _hash=hash((p, q)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def D(self) -> int:
        """Discriminant p^2 + 4q of x^2 - p*x - q."""
        return self.p * self.p + 4 * self.q

    @cached_property
    def is_degenerate(self) -> bool:
        """True when D is a perfect square, i.e. the mean is rational."""
        r = math.isqrt(self.D)
        return r * r == self.D

    @cached_property
    def sqrt_d_fixed(self) -> int:
        """floor(sqrt(D) * 2^FIXED_BITS)."""
        return math.isqrt(self.D << (2 * FIXED_BITS))

    @cached_property
    def rational_root(self) -> int | None:
        """The mean as an integer in the degenerate case, else None.

        p and isqrt(D) always share parity when D is a square, so the root
        (p + sqrt(D))/2 is a whole number.
        """
        if not self.is_degenerate:
            return None
        return (self.p + math.isqrt(self.D)) // 2

    def gamma_mpf(self, bits: int = 128) -> mpmath.mpf:
        """The mean (p + sqrt(D))/2 at the requested binary precision."""
        import mpmath
        with mpmath.workprec(bits + 10):
            return (self.p + mpmath.sqrt(self.D)) / 2

    @cached_property
    def gamma_float(self) -> float:
        """The mean as a correctly rounded double."""
        return to_double(self, 0, 1, 1)

    def one(self) -> QuadElement:
        return QuadElement(1, 0, self)

    def zero(self) -> QuadElement:
        return QuadElement(0, 0, self)

    def gamma(self) -> QuadElement:
        return QuadElement(0, 1, self)

    def __str__(self) -> str:
        return f"(p={self.p}, q={self.q})"


class QuadElement(Record):
    """An exact element c0 + c1*gamma of Q(gamma)."""

    __slots__ = _fields = ("c0", "c1", "params")

    def __init__(self, c0: Rational, c1: Rational, params: MetallicParams) -> None:
        object.__setattr__(self, "c0", c0 if isinstance(c0, Fraction) else Fraction(c0))
        object.__setattr__(self, "c1", c1 if isinstance(c1, Fraction) else Fraction(c1))
        object.__setattr__(self, "params", params)

    def _coerce(self, other: QuadElement | Rational) -> QuadElement | None:
        if isinstance(other, QuadElement):
            if other.params != self.params:
                raise ParamsMismatch(
                    f"cannot combine elements over {self.params} and {other.params}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(other, 0, self.params)
        return None

    def __add__(self, other: QuadElement | Rational) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.c0 + o.c0, self.c1 + o.c1, self.params)

    __radd__ = __add__

    def __sub__(self, other: QuadElement | Rational) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.c0 - o.c0, self.c1 - o.c1, self.params)

    def __rsub__(self, other: QuadElement | Rational) -> QuadElement:
        return (-self) + other

    def __neg__(self) -> QuadElement:
        return QuadElement(-self.c0, -self.c1, self.params)

    def __mul__(self, other: QuadElement | Rational) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = self.params.p, self.params.q
        # (a0 + a1*g)(b0 + b1*g) with g^2 = q + p*g
        cross = self.c1 * o.c1
        return QuadElement(
            self.c0 * o.c0 + q * cross,
            self.c0 * o.c1 + self.c1 * o.c0 + p * cross,
            self.params,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadElement:
        """Multiplicative inverse.

        Uses the conjugate formula when the field norm is nonzero; in the
        degenerate case elements can have zero norm yet nonzero value, so the
        value is then inverted as a plain rational.
        """
        p, D = self.params.p, self.params.D
        a = 2 * self.c0 + self.c1 * p
        b = self.c1
        denom = a * a - b * b * D
        if denom != 0:
            return QuadElement(2 * (a + b * p) / denom, -4 * b / denom, self.params)
        g = self.params.rational_root
        if g is not None:
            value = self.c0 + self.c1 * g
            if value != 0:
                return QuadElement(Fraction(1) / value, 0, self.params)
        raise ZeroDivisionError("inverse of zero element")

    def __truediv__(self, other: QuadElement | Rational) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, m: int) -> QuadElement:
        if m < 0:
            return self.inverse() ** (-m)
        result = self.params.one()
        base = self
        while m > 0:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def sign(self) -> int:
        """Exact sign of c0 + c1*gamma: -1, 0 or +1."""
        g = self.params.rational_root
        if g is not None:
            value = self.c0 + self.c1 * g
            return (value > 0) - (value < 0)
        # value = (A + B*sqrt(D)) / 2
        a = 2 * self.c0 + self.c1 * self.params.p
        b = self.c1
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs: the larger of A^2 and B^2*D wins
        lhs = a * a
        rhs = b * b * self.params.D
        if a > 0:
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def is_zero(self) -> bool:
        return self.sign() == 0

    def numerators(self) -> tuple[int, int, int]:
        """(u, v, den) with value (u + v*gamma)/den; den is the least common
        denominator of c0 and c1."""
        d0, d1 = self.c0.denominator, self.c1.denominator
        den = math.lcm(d0, d1)
        return self.c0.numerator * (den // d0), self.c1.numerator * (den // d1), den

    def to_mpf(self, bits: int = 128) -> mpmath.mpf:
        """The value rounded once to `bits` bits: relative error below 2^(1-bits),
        however much c0 and c1*gamma cancel."""
        if bits < 53:
            raise ValueError("bits must be >= 53")
        import mpmath
        u, v, den = self.numerators()
        g = self.params.rational_root
        if g is not None or v == 0:
            num, scaled_den = u + v * (g or 0), den
        else:
            num, scaled_den = _bracket(self.params, u, v, den, bits + 4)
        # a quotient of bits + 2 bits or more and a sticky remainder bit round like the ratio
        shift = max(0, bits + 2 + scaled_den.bit_length() - abs(num).bit_length())
        quo, rem = divmod(abs(num) << shift, scaled_den)
        man = (2 * quo + (rem != 0)) * (-1 if num < 0 else 1)
        libmp = mpmath.libmp
        return mpmath.mp.make_mpf(libmp.from_man_exp(man, -shift - 1, bits, libmp.round_nearest))

    def __float__(self) -> float:
        return to_double(self.params, *self.numerators())

    def __str__(self) -> str:
        return f"{self.c0} + {self.c1}*gamma"


@lru_cache(maxsize=4096)
def gamma_pow(params: MetallicParams, m: int) -> QuadElement:
    """gamma^m as an exact element, any integer m.

    Negative powers use the basis element (gamma - p)/q, which multiplies back
    against gamma to exactly (1, 0) under the gamma^2 rewrite, so inverse
    powers stay structural even when the mean is rational.
    """
    if m >= 0:
        return params.gamma() ** m
    p, q = params.p, params.q
    recip = QuadElement(Fraction(-p, q), Fraction(1, q), params)
    return recip ** (-m)


def _bracket(params: MetallicParams, u: int, v: int, den: int, bits: int) -> tuple[int, int]:
    """(lo, M) with lo < (u + v*gamma)/den * M < lo + 1 and |lo| >= 2^bits.

    Needs v != 0, den > 0 and gamma irrational. With a = 2u + p*v, m = 2*den
    the value is (a + v*sqrt(D))/m, and M = m*2^k. Since
    |a + v*sqrt(D)| = |a^2 - v^2*D| / |a - v*sqrt(D)|, the integer norm bounds
    the value from below, and k is set from bit lengths to meet the 2^bits
    target in one isqrt.
    """
    a, m = 2 * u + params.p * v, 2 * den
    bb = v * v * params.D
    norm_bits = (a * a - bb).bit_length()
    sum_bits = max(a.bit_length(), (bb.bit_length() + 1) // 2) + 1  # > log2(|a| + |v|*sqrt(D))
    # |value*m*2^k| > 2^(bits+1), so |lo| >= 2^bits
    k = max(0, bits + 2 + sum_bits - norm_bits)
    t = math.isqrt(bb << (2 * k))  # floor(|v|*sqrt(D)*2^k), never exact
    lo = (a << k) + t if v > 0 else (a << k) - t - 1
    return lo, m << k


def to_double(params: MetallicParams, u: int, v: int, den: int) -> float:
    """The correctly rounded double of (u + v*gamma)/den, for integers u, v and den > 0.

    With S = floor(sqrt(D)*2^K), K = FIXED_BITS, the value times 2*den*2^K lies strictly between
    lo = (2u + p*v)*2^K + v*S and lo + v (sqrt(D)*2^K is irrational); int/int division
    rounds correctly and monotonically, so one nonzero double at both ends is the
    answer. Otherwise the isqrt bracket decides."""
    g = params.rational_root
    if g is not None or v == 0:
        return (u + v * (g or 0)) / den
    lo = ((2 * u + params.p * v) << FIXED_BITS) + v * params.sqrt_d_fixed
    scaled_den = den << (FIXED_BITS + 1)
    try:
        f, f_hi = lo / scaled_den, (lo + v) / scaled_den
    except OverflowError:  # |v| above ~2^1217 and the terms cancel: the bracket is too wide
        f = f_hi = 0.0
    if f and f == f_hi:  # an underflow to 0.0 may carry the wrong sign
        return f
    bits = 64
    while True:
        lo, scaled_den = _bracket(params, u, v, den, bits)
        f = lo / scaled_den
        if f == (lo + 1) / scaled_den:
            return f
        bits += 64  # the bracket straddles a rounding boundary: narrow it
