"""Exact arithmetic in Q(gamma) for a metallic mean gamma.

gamma is the positive root of x^2 = p*x + q (p, q positive integers), so every
element of the field is (u + v*gamma)/den with integers u, v and den > 0. An
element keeps them in lowest terms, gcd(den, u, v) = 1, so equal values have
equal fields (H. Cohen, A Course in Computational Algebraic Number Theory,
§4.2). Products reduce by gamma^2 -> q + p*gamma, 1/gamma = (gamma - p)/q, and
each result costs one gcd. Signs are exact: the value is (a + v*sqrt(D))/(2*den)
with a = 2u + p*v and D = p^2 + 4q, and a^2 is compared with v^2*D when the
terms disagree in sign. When D is a perfect square the mean is an integer
(p=1, q=2 gives gamma=2) and u + v*gamma itself decides.

Values are rounded from the integers alone: with S = floor(sqrt(D)*2^k), the
value times M = 2*den*2^k lies strictly between lo = a*2^k + v*S and lo + v
(v*sqrt(D) is irrational for v != 0). The field norm a^2 - v^2*D is a nonzero
integer and bounds the value away from zero however much a and v*sqrt(D)
cancel, so k is set from bit lengths. One kernel, `_quotient`, shifts S down
from one cached per `MetallicParams`, divides to bits + 2 quotient bits, doubling
k until both ends' quotients agree, and hands back that quotient with a sticky
bit. `to_mpf` rounds it to nearest-even in integers and builds mpmath's
normalised (sign, man, exp, bc) tuple itself; `to_double` divides it by a power
of two, one correctly rounded int/int division, after a first try at k = 192
that settles the tiling rows. A cover walk encloses each start, whose bracket cancels
about 2*n*k*log2(gamma) bits at depth k, as fix = (f, err, K): f <= value*2^K < f + err,
err = 3*k*|W_n|. Both round from f's top bits + 2 and a sticky bit first, where f + err
shares them (Ziv, ACM TOMS 17(3), 1991). Only `to_mpf` and `gamma_mpf` import mpmath.

`MetallicParams` and `QuadElement` are `errors.Record`s, immutable and equal by
value. `MetallicParams` caches derived values and its hash in its `__dict__`;
`QuadElement` is slotted over u, v, den, params and fix, and reads c0, c1 as Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import ParamsMismatch, Record
from .limits import import_mpmath

Rational = int | Fraction
FIXED_BITS = 192  # K of the cached fixed-point sqrt(D) that `to_double` tries first
# symbols of the named means, for tables, tiling text and figure labels
MEAN_SYMBOLS = {(1, 1): "φ", (2, 1): "δ", (3, 1): "σ", (1, 2): "α", (1, 3): "β"}


class MetallicParams(Record):
    """The pair (p, q) selecting a metallic mean. Derived values are cached per
    instance; the hash, read by every lru_cache keyed by the mean, is computed once."""

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
        return self.sqrt_d_scaled(FIXED_BITS)

    def sqrt_d_scaled(self, k: int) -> int:
        """floor(sqrt(D) * 2^k), shifted down from the widest one computed so far."""
        top, s = self.__dict__.get("_sqrt_d", (-1, 0))
        if k > top:  # twice as wide as asked, so a growing k costs few isqrts
            top, s = 2 * k, math.isqrt(self.D << 4 * k)
            self.__dict__["_sqrt_d"] = top, s
        return s >> (top - k)

    @cached_property
    def rational_root(self) -> int | None:
        """The mean as an integer when D is a square (p and sqrt(D) share parity), else None."""
        return (self.p + math.isqrt(self.D)) // 2 if self.is_degenerate else None

    def gamma_mpf(self, bits: int = 128) -> mpmath.mpf:
        """The mean (p + sqrt(D))/2 at the requested binary precision."""
        mpmath = import_mpmath()
        with mpmath.workprec(bits + 10):
            return (self.p + mpmath.sqrt(self.D)) / 2

    @cached_property
    def gamma_float(self) -> float:
        """The mean as a correctly rounded double."""
        return to_double(self, 0, 1, 1)

    def one(self) -> QuadElement:
        return _element(1, 0, 1, self)

    def zero(self) -> QuadElement:
        return _element(0, 0, 1, self)

    def gamma(self) -> QuadElement:
        return _element(0, 1, 1, self)

    def __str__(self) -> str:
        return f"(p={self.p}, q={self.q})"


class QuadElement(Record):
    """An exact element (u + v*gamma)/den of Q(gamma), in lowest terms: den > 0 and
    gcd(den, u, v) = 1. c0 = u/den and c1 = v/den are read as Fractions."""

    __slots__ = ("u", "v", "den", "params", "fix")
    _fields = ("c0", "c1", "params")

    def __new__(cls, c0: Rational, c1: Rational, params: MetallicParams) -> QuadElement:
        c0, c1 = Fraction(c0), Fraction(c1)
        return _element(c0.numerator * c1.denominator, c1.numerator * c0.denominator,
                        c0.denominator * c1.denominator, params)

    c0 = property(lambda self: Fraction(self.u, self.den))
    c1 = property(lambda self: Fraction(self.v, self.den))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.numerators() == other.numerators() and self.params == other.params
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.u, self.v, self.den, self.params))

    def _coerce(self, other: QuadElement | Rational) -> QuadElement | None:
        if isinstance(other, QuadElement):
            if other.params != self.params:
                raise ParamsMismatch(
                    f"cannot combine elements over {self.params} and {other.params}")
            return other
        if isinstance(other, (int, Fraction)):
            return _element(other.numerator, 0, other.denominator, self.params)
        return None

    def __add__(self, other: QuadElement | Rational) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _element(self.u * o.den + o.u * self.den, self.v * o.den + o.v * self.den,
                        self.den * o.den, self.params)

    __radd__ = __add__

    def __sub__(self, other: QuadElement | Rational) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: QuadElement | Rational) -> QuadElement:
        return (-self) + other

    def __neg__(self) -> QuadElement:
        return _element(-self.u, -self.v, self.den, self.params)

    def __mul__(self, other: QuadElement | Rational) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q = self.params.p, self.params.q
        # (a0 + a1*g)(b0 + b1*g) with g^2 = q + p*g
        cross = self.v * o.v
        return _element(self.u * o.u + q * cross, self.u * o.v + self.v * o.u + p * cross,
                        self.den * o.den, self.params)

    __rmul__ = __mul__

    def inverse(self) -> QuadElement:
        """Multiplicative inverse: the conjugate over the field norm, or, for a
        rational mean, where a nonzero value may have norm 0, the plain reciprocal."""
        u, v, den, params = self.u, self.v, self.den, self.params
        # value = (a + v*sqrt(D))/(2*den), and a - v*sqrt(D) = (a + p*v) - 2*v*gamma
        a = 2 * u + params.p * v
        norm = a * a - v * v * params.D
        if norm != 0:
            return _element(2 * den * (a + params.p * v), -4 * den * v, norm, params)
        g = params.rational_root
        if g is not None and u + v * g != 0:
            return _element(den, 0, u + v * g, params)
        raise ZeroDivisionError("inverse of zero element")

    def __truediv__(self, other: QuadElement | Rational) -> QuadElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, m: int) -> QuadElement:
        if m < 0:
            return self.inverse() ** (-m)
        result, base = self.params.one(), self
        while m > 0:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def sign(self) -> int:
        """Exact sign of (u + v*gamma)/den: -1, 0 or +1."""
        u, b = self.u, self.v
        g = self.params.rational_root
        if g is not None:
            value = u + b * g
            return (value > 0) - (value < 0)
        a = 2 * u + b * self.params.p  # value = (a + b*sqrt(D)) / (2*den)
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa * sb >= 0:  # a term is zero, or both agree
            return sa or sb
        # opposite signs: the larger of a^2 and b^2*D wins (they differ: D is no square)
        return sa if a * a > b * b * self.params.D else sb

    def is_zero(self) -> bool:
        return self.sign() == 0

    def numerators(self) -> tuple[int, int, int]:
        """(u, v, den) with value (u + v*gamma)/den, in lowest terms."""
        return self.u, self.v, self.den

    def to_mpf(self, bits: int = 128) -> mpmath.mpf:
        """The value rounded to nearest at `bits` bits, however much u and v*gamma cancel."""
        if bits < 53:
            raise ValueError("bits must be >= 53")
        make_mpf, mpz = _mpf_parts()
        negative, x, e = (self.fix and _enclosed(self.fix, bits)
                          or _quotient(self.params, self.u, self.v, self.den, bits))
        if not x:  # the value is 0
            return make_mpf((0, mpz(0), 0, 0))
        d = x.bit_length() - bits  # the bits rounded off
        man = (x + (1 << d - 1) - 1 + (x >> d & 1)) >> d  # to nearest, ties to even
        tz = (man & -man).bit_length() - 1  # trailing zeros, shifted out: the mantissa is odd
        return make_mpf((int(negative), mpz(man >> tz), e + d + tz, man.bit_length() - tz))

    def __float__(self) -> float:
        return to_double(self.params, self.u, self.v, self.den, self.fix)

    def __str__(self) -> str:
        return f"{self.c0} + {self.c1}*gamma"


_new = object.__new__  # allocates; the setters below write past Record's __setattr__
_SET_U, _SET_V, _SET_DEN, _SET_PARAMS, _SET_FIX = (getattr(QuadElement, name).__set__
                                                   for name in QuadElement.__slots__)


def _element(u: int, v: int, den: int, params: MetallicParams, fix=None) -> QuadElement:
    """(u + v*gamma)/den for den != 0, in lowest terms by one gcd, enclosed by fix. den goes
    first: gcd(1, u, v) returns at once, and for q = 1 every cover start has den 1."""
    g = math.gcd(den, u, v) if den > 0 else -math.gcd(den, u, v)
    if g != 1:
        u, v, den = u // g, v // g, den // g
    x = _new(QuadElement)
    _SET_U(x, u)
    _SET_V(x, v)
    _SET_DEN(x, den)
    _SET_PARAMS(x, params)
    _SET_FIX(x, fix)
    return x


@lru_cache(maxsize=4096)
def gamma_pow(params: MetallicParams, m: int) -> QuadElement:
    """gamma^m as an exact element, any integer m. Negative powers are powers of
    (gamma - p)/q, which times gamma is exactly 1, also when the mean is rational."""
    if m >= 0:
        return params.gamma() ** m
    return _element(-params.p, 1, params.q, params) ** (-m)


@lru_cache(maxsize=None)
def _mpf_parts():
    """mpmath's mpf from a normalised (sign, man, exp, bc) tuple, and its mantissa type."""
    mpmath = import_mpmath()
    return mpmath.mp.make_mpf, mpmath.libmp.MPZ


def _quotient(params: MetallicParams, u: int, v: int, den: int,
              bits: int) -> tuple[bool, int, int]:
    """(negative, x, e): x*2^e rounds like |(u + v*gamma)/den| at any precision up to
    `bits`, for integers u, v and den > 0. x is 2*floor(|value|*2^-(e+1)), a floor of
    bits + 2 bits or more, plus a sticky bit for a remainder; x = 0 when the value is 0."""
    g = params.rational_root
    if g is not None or v == 0:  # the value is num/scale exactly
        num, scale, width = u + v * (g or 0), den, 0
    else:  # |a + v*sqrt(D)| = |norm|/|a - v*sqrt(D)| > 2^-size > |v|*2^(bits+32-k)
        a, width = 2 * u + params.p * v, abs(v)
        size = max(a.bit_length(), width.bit_length() + (params.D.bit_length() + 1) // 2) + 1
        k = bits + 32 + size + width.bit_length()
    while True:
        if width:  # num < value*scale < num + |v|
            s = params.sqrt_d_scaled(k)
            num, scale = (a << k) + v * (s if v > 0 else s + 1), den << (k + 1)
        n = num if num >= 0 else -num - width  # |value|*scale lies in [n, n + width]
        shift = bits + 2 + scale.bit_length() - n.bit_length()
        up, down = (shift, 0) if shift >= 0 else (0, -shift)
        quo, rem = divmod(n << up, scale << down)
        if rem + (width << up) < scale << down:  # the upper end has the same floor
            return num < 0, 2 * quo + ((rem or width) != 0), -shift - 1
        k *= 2


def _enclosed(fix: tuple[int, int, int], bits: int) -> tuple[bool, int, int] | None:
    """`_quotient`'s (negative, x, e) at `bits` for a positive value enclosed by fix = (f,
    err, K), f <= value*2^K < f + err, when both ends share their top bits + 2; else None."""
    f, err, k = fix
    t = (f + err).bit_length() - bits - 2
    return (False, f >> t << 1 | 1, t - k - 1) if t > 0 and f >> t == (f + err) >> t else None


def to_double(params: MetallicParams, u: int, v: int, den: int, fix=None) -> float:
    """The correctly rounded double of (u + v*gamma)/den, for integers u, v and den > 0, from
    a cover start's enclosure fix first. Else value*2*den*2^K lies between lo and lo + v at
    K = FIXED_BITS (at lo when v = 0 or sqrt(D) is an integer), and int/int division rounds
    correctly and monotonically: one nonzero double at both ends is the answer."""
    settled = fix and _enclosed(fix, 53)
    if not settled:
        lo = ((2 * u + params.p * v) << FIXED_BITS) + v * params.sqrt_d_fixed
        # tried where the bracket is under 2^-55 of the value wide, or is the value (v = 0)
        if v.bit_length() + 55 < lo.bit_length() or not v:
            scaled_den = den << (FIXED_BITS + 1)
            try:
                f = lo / scaled_den
                # an underflow to 0.0 may carry the wrong sign, unless lo is the value
                if f == (lo + v) / scaled_den and (f or not v):
                    return f
            except OverflowError:  # an end may pass the double range where the value does not
                pass
        settled = _quotient(params, u, v, den, 53)
    negative, x, e = settled
    f = x / (1 << -e) if e < 0 else float(x << e)  # one rounding, subnormals included
    return -f if negative else f
