"""Exact reference values for the benchmark, built from the standard library only.

Nothing here imports the package under test. Every endpoint of a metallic
tiling or cover lies in Z[1/q][gamma], so it is carried as an integer pair
(u, v) meaning (u + v*gamma) / q^E for one fixed E per walk. With
gamma = (p + sqrt(D))/2 and D = p^2 + 4q, such a value is (A + B*sqrt(D))/M
with A = 2u + p*v, B = v and M = 2*q^E, and floors, ceilings and correctly
rounded doubles follow from math.isqrt alone.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from statistics import linear_regression

POLICIES = ("keep-first", "keep-last", "explicit")
NAMED_MEANS = (("golden", 1, 1), ("silver", 2, 1), ("bronze", 3, 1),
               ("copper", 1, 2), ("nickel", 1, 3))
SVG_WIDTH, SVG_MARGIN = 600.0, 20.0


class Field:
    """Z[1/q][gamma] for gamma^2 = p*gamma + q, with exact sign, floor and rounding."""

    def __init__(self, p: int, q: int) -> None:
        self.p, self.q = p, q
        self.D = p * p + 4 * q
        r = math.isqrt(self.D)
        self.root = (p + r) // 2 if r * r == self.D else None  # rational mean

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        vv = a[1] * b[1]
        return (a[0] * b[0] + self.q * vv, a[0] * b[1] + a[1] * b[0] + self.p * vv)

    def sign(self, u: int, v: int) -> int:
        """Exact sign of u + v*gamma."""
        if self.root is not None:
            x = u + v * self.root
            return (x > 0) - (x < 0)
        a, b = 2 * u + self.p * v, v
        if a >= 0 and b >= 0:
            return int(a > 0 or b > 0)
        if a <= 0 and b <= 0:
            return -1
        bigger_a = a * a > b * b * self.D
        return (1 if a > 0 else -1) if bigger_a else (1 if b > 0 else -1)

    def floor(self, u: int, v: int, den: int) -> int:
        """floor((u + v*gamma) / den) for den > 0, exactly."""
        if self.root is not None:
            return (u + v * self.root) // den
        a, m = 2 * u + self.p * v, 2 * den
        t = math.isqrt(v * v * self.D)  # floor(|v|*sqrt(D)); never exact for v != 0
        if v >= 0:
            return (a + t) // m
        return (a - t - 1) // m

    def ceil(self, u: int, v: int, den: int) -> int:
        return -self.floor(-u, -v, den)

    def is_integer(self, u: int, v: int, den: int) -> bool:
        """(u + v*gamma) / den is an integer; for irrational gamma only when v == 0."""
        if self.root is not None:
            return (u + v * self.root) % den == 0
        return v == 0 and u % den == 0

    def to_double(self, u: int, v: int, den: int) -> float:
        """The correctly rounded double of (u + v*gamma) / den, den > 0.

        Brackets value*2^K between consecutive integers with isqrt and widens
        K until both ends round to the same double; the value is irrational
        whenever v != 0, so the loop ends.
        """
        if self.root is not None or v == 0:
            return (u + v * (self.root or 0)) / den
        a, b, m = 2 * u + self.p * v, v, 2 * den
        bb = b * b * self.D
        k = 64 + m.bit_length()
        while True:
            t = math.isqrt(bb << (2 * k))
            if b > 0:
                lo = (a << k) + t
                hi = lo + 1
            else:
                hi = (a << k) - t
                lo = hi - 1
            mk = m << k
            f_lo, f_hi = lo / mk, hi / mk
            if f_lo == f_hi:
                return f_lo
            k += 64

    def gamma_double(self) -> float:
        return self.to_double(0, 1, 1)

    def gamma_decimal(self, digits: int) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = digits + 10
            return (self.p + Decimal(self.D).sqrt()) / 2

    def inv_powers(self, e_max: int) -> list[tuple[int, int]]:
        """G[m] = q^e_max * gamma^-m as integer pairs, m = 0..e_max.

        1/gamma = (gamma - p)/q, so each step maps (u, v) to (v - p*u/q, u/q);
        q^(e_max - m) divides G[m], keeping every entry integral.
        """
        g = [(self.q ** e_max, 0)]
        for _ in range(e_max):
            u, v = g[-1]
            g.append((v - self.p * u // self.q, u // self.q))
        return g

    def power(self, n: int) -> tuple[int, int]:
        """gamma^n = q*a_(n-1) + a_n*gamma for the metallic sequence a."""
        prev, cur = 0, 1  # a_0, a_1
        if n == 0:
            return (1, 0)
        for _ in range(n - 1):
            prev, cur = cur, self.p * cur + self.q * prev
        return (self.q * prev, cur)


@lru_cache(maxsize=None)
def field(p: int, q: int) -> Field:
    return Field(p, q)


def word(p: int, q: int, n: int) -> str:
    table = {ord("a"): "a" * p + "b" * q, ord("b"): "a"}
    w = "b"
    for _ in range(n):
        w = w.translate(table)
    return w


def tile_counts(p: int, q: int, n: int) -> tuple[int, int]:
    na, nb = 0, 1
    for _ in range(n):
        na, nb = p * na + nb, q * na
    return na, nb


class Spec:
    """A removal fractal (p, q, n, l, s, policy, indices) and its exact geometry."""

    def __init__(self, p, q, n, l, s, policy="keep-first", indices=None):
        self.p, self.q, self.n, self.l, self.s = p, q, n, l, s
        self.policy, self.indices = policy, tuple(indices or ())
        self.f = field(p, q)
        w = word(p, q, n)
        if policy == "explicit":
            removed = set(self.indices)
        else:
            longs = [i for i, ch in enumerate(w) if ch == "a"]
            shorts = [i for i, ch in enumerate(w) if ch == "b"]
            if policy == "keep-first":
                removed = set(longs[len(longs) - l:] + shorts[len(shorts) - s:])
            else:
                removed = set(longs[:l] + shorts[:s])
        self.pattern = []  # (letter, longs before, shorts before, exponent)
        ca = cb = 0
        for i, ch in enumerate(w):
            if i not in removed:
                self.pattern.append((ch, ca, cb, n - 1 if ch == "a" else n))
            ca += ch == "a"
            cb += ch == "b"
        self.na = sum(1 for x in self.pattern if x[0] == "a")
        self.nb = len(self.pattern) - self.na

    def walk(self, depth: int, e_max: int | None = None):
        """Depth-k cover intervals left to right as (u, v, exponent, path) over q^e_max."""
        n = self.n
        e_max = depth * n if e_max is None else e_max
        g = self.f.inv_powers(e_max)
        stack = [(0, 0, 0, "", 0)]
        pattern = self.pattern
        while stack:
            u, v, e, path, level = stack.pop()
            if level == depth:
                yield u, v, e, path
                continue
            gl, gs = g[n - 1 + e], g[n + e]
            children = [
                (u + ca * gl[0] + cb * gs[0], v + ca * gl[1] + cb * gs[1],
                 e + x, path + ch, level + 1)
                for ch, ca, cb, x in pattern
            ]
            stack.extend(reversed(children))

    def exponent_counts(self, depth: int) -> dict[int, int]:
        acc = {0: 1}
        for _ in range(depth):
            nxt: dict[int, int] = {}
            for m, c in acc.items():
                for x, k in ((self.n - 1, self.na), (self.n, self.nb)):
                    if k:
                        nxt[m + x] = nxt.get(m + x, 0) + c * k
            acc = nxt
        return acc

    def poly(self) -> tuple[int, int, int]:
        return self.n, self.na, self.nb


def tiling(p: int, q: int, n: int):
    """Step-n tiles as (letter, u, v, exponent) over q^n, left to right."""
    f = field(p, q)
    g = f.inv_powers(n)
    lengths = {"a": (g[n - 1], n - 1), "b": (g[n], n)} if n else {"b": (g[0], 0)}
    u = v = 0
    out = []
    for ch in word(p, q, n):
        (du, dv), e = lengths[ch]
        out.append((ch, u, v, e))
        u += du
        v += dv
    return out


# --- dimension brackets -------------------------------------------------------

def _g(poly, x: Fraction) -> Fraction:
    n, a, b = poly
    return x ** n - a * x - b


def root_in_bracket(poly, lo: float, hi: float) -> bool:
    """True when g changes sign on [lo, hi], so the positive root lies inside."""
    return _g(poly, Fraction(lo)) <= 0 <= _g(poly, Fraction(hi))


def faithful_root(poly, x: float) -> bool:
    """x is within one ulp of the unique positive root of g (exact rational signs)."""
    return root_in_bracket(poly, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))


def dim_in_bracket(p: int, q: int, poly, d_lo: float, d_hi: float) -> bool:
    """log_gamma(root) lies in [d_lo, d_hi]: g(gamma^d_lo) <= 0 <= g(gamma^d_hi).

    gamma^d is evaluated with decimal at 60 digits and widened outward by
    1e-45 relative, far below the width of any bracket checked here.
    """
    f = field(p, q)
    with localcontext() as ctx:
        ctx.prec = 60
        log_gamma = f.gamma_decimal(60).ln()
        x_lo = (Decimal(d_lo) * log_gamma).exp() * (1 - Decimal("1e-45"))
        x_hi = (Decimal(d_hi) * log_gamma).exp() * (1 + Decimal("1e-45"))
    return root_in_bracket(poly, Fraction(x_lo), Fraction(x_hi))


def faithful_dim(p: int, q: int, poly, d: float) -> bool:
    return dim_in_bracket(p, q, poly, math.nextafter(d, -math.inf), math.nextafter(d, math.inf))


# --- box counts -----------------------------------------------------------------

def fit_depth(n: int, k: int) -> int:
    return math.ceil(n * k / (n - 1))


def box_intervals(spec: Spec, k_max: int) -> int:
    """Intervals the box counter visits for scales k = 2..k_max."""
    return sum((spec.na + spec.nb) ** fit_depth(spec.n, k) for k in range(2, k_max + 1))


def box_census(spec: Spec, k_max: int) -> tuple[list[int], list[int]]:
    """Exact N(eps_k), eps_k = gamma^(-n*k), counted on the depth-ceil(nk/(n-1)) cover
    with [start, end) boxes, for k = 2..k_max; and, per k, the number of interval
    endpoints that fall exactly on a grid point j*eps_k."""
    f = spec.f
    counts, hits = [], []
    for k in range(2, k_max + 1):
        depth = fit_depth(spec.n, k)
        e_max = depth * spec.n
        den = spec.q ** e_max
        g = f.inv_powers(e_max)
        scale = f.power(spec.n * k)
        total, on_grid, last = 0, 0, None
        for u, v, e, _ in spec.walk(depth, e_max):
            s = f.mul((u, v), scale)
            end = f.mul((u + g[e][0], v + g[e][1]), scale)
            on_grid += f.is_integer(s[0], s[1], den) + f.is_integer(end[0], end[1], den)
            j0 = f.floor(s[0], s[1], den)
            j1 = f.ceil(end[0], end[1], den) - 1
            if last is not None and j0 <= last:
                j0 = last + 1
            if j1 >= j0:
                total += j1 - j0 + 1
                last = j1
        counts.append(total)
        hits.append(on_grid)
    return counts, hits


def box_counts(spec: Spec, k_max: int) -> list[int]:
    return box_census(spec, k_max)[0]


def box_slope(spec: Spec, counts: list[int]) -> float:
    """Least-squares slope of log N against log(1/eps) for exact counts."""
    log_gamma = math.log(spec.f.gamma_double())
    xs = [spec.n * k * log_gamma for k in range(2, len(counts) + 2)]
    ys = [math.log(c) for c in counts]
    return linear_regression(xs, ys).slope


# --- checks of program output ------------------------------------------------------

class Mismatch(Exception):
    """An output that differs from the exact reference."""


class KnownDefect(Mismatch):
    """An output that differs from the exact reference in exactly the way a defect
    already listed under ROADMAP item B predicts, and in no other way."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def check_rows(f: Field, rows, expected, den: int, what: str) -> None:
    """Compare emitted (path, c0, c1, start_float, exponent, length_float) rows with
    exact (u, v, exponent, path) rows over `den`, and check order and disjointness."""
    expect(len(rows) == len(expected), f"{what}: {len(rows)} rows, expected {len(expected)}")
    e_max = max((e for _, _, e, _ in expected), default=0)
    g = f.inv_powers(max(e_max, 0))
    scale_g = den // f.q ** e_max
    lengths: dict[int, float] = {}
    prev_end = None
    for i, ((path, c0, c1, x, e, lx), (u, v, ee, pp)) in enumerate(zip(rows, expected)):
        expect(path == pp and e == ee, f"{what} row {i}: kind/exponent {path},{e} != {pp},{ee}")
        expect(c0 * den == u and c1 * den == v, f"{what} row {i}: exact start differs")
        good = f.to_double(u, v, den)
        expect(x == good, f"{what} row {i}: start_float {x!r} != certified {good!r}")
        if e not in lengths:
            lengths[e] = f.to_double(g[e][0], g[e][1], g[0][0])
        expect(lx == lengths[e], f"{what} row {i}: length_float {lx!r} != {lengths[e]!r}")
        if prev_end is not None:
            expect(f.sign(u - prev_end[0], v - prev_end[1]) >= 0, f"{what} row {i}: overlaps previous")
        prev_end = (u + g[e][0] * scale_g, v + g[e][1] * scale_g)
    if expected:
        expect(f.sign(expected[0][0], expected[0][1]) >= 0, f"{what}: starts below 0")
        expect(f.sign(prev_end[0] - den, prev_end[1]) <= 0, f"{what}: ends above 1")
