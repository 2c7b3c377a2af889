"""Check every benchmark output against the exact oracles.

`check_cli` parses the stdout of one `metallic` command and `check_lib` one
library result; both raise `oracle.Mismatch` on any wrong value. A wrong value
that a defect listed under ROADMAP item B fully explains raises the subclass
`oracle.KnownDefect` instead; each such case is pinned to the error that
defect can make and no larger. Expected values are cached per job key, so a
repeated job pays for its reference only once.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import xml.etree.ElementTree as ET
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import oracle
from oracle import KnownDefect, Mismatch, expect

SVG_NS = "{http://www.w3.org/2000/svg}"
TILE_LINE = re.compile(
    r"^\s*(\d+)  ([ab])  start = (\S+) \+ (\S+)\*gamma  ≈ (-?[\d.]+)  length = 1/\S+\^(\d+)$")
TIKZ_DRAW = re.compile(r"^\\draw \((-?[\d.]+),(-?[\d.]+)\) -- \((-?[\d.]+),(-?[\d.]+)\);$")
TO_MPF_BITS = 128  # the precision of QuadElement.to_mpf() the prefix jobs call


def _key(job_spec) -> tuple:
    """Hashable form of a job's (p, q, n, l, s, policy, indices) spec."""
    return (*job_spec[:6], tuple(job_spec[6]))


@lru_cache(maxsize=64)
def _spec(key) -> oracle.Spec:
    return oracle.Spec(*key[:6], indices=key[6])


@lru_cache(maxsize=16)
def _cover(spec_key, depth):
    spec = _spec(spec_key)
    return list(spec.walk(depth)), spec.q ** (depth * spec.n)


@lru_cache(maxsize=16)
def _tiling(p, q, n):
    return [(u, v, e, ch) for ch, u, v, e in oracle.tiling(p, q, n)], q ** n


@lru_cache(maxsize=64)
def _box(spec_key, k_max):
    spec = _spec(spec_key)
    counts, hits = oracle.box_census(spec, k_max)
    return counts, oracle.box_slope(spec, counts), oracle.box_intervals(spec, k_max), hits


def check_dimension(spec: oracle.Spec, root: float, dim: float) -> None:
    poly = spec.poly()
    expect(oracle.faithful_root(poly, root), f"root {root!r} not within 1 ulp of the root of g")
    expect(oracle.faithful_dim(spec.p, spec.q, poly, dim), f"dim {dim!r} not within 1 ulp")


def check_empirical(spec: oracle.Spec, value: float) -> None:
    # empirical_dimension bisects to width 1e-13; its midpoint lies within that of the root
    expect(oracle.dim_in_bracket(spec.p, spec.q, spec.poly(), value - 1e-13, value + 1e-13),
           f"cover-sum exponent {value!r} not within 1e-13 of the dimension")


def _grid_rounding_counts(spec_key, k_max):
    """Every count vector the item-B grid-hit defect can produce: the package
    floors and ceils float quotients, so an endpoint exactly on a grid point can
    land one box low (start) or high (end) and add at most one box each."""
    good, _, _, hits = _box(spec_key, k_max)
    return [range(g, g + h + 1) for g, h in zip(good, hits)]


def check_box(spec_key, k_max: int, counts, slope: float) -> None:
    good, good_slope, _, hits = _box(spec_key, k_max)
    counts = list(counts)
    if counts == good:
        expect(abs(slope - good_slope) <= 1e-9, f"box slope {slope!r} != {good_slope!r}")
        return
    allowed = _grid_rounding_counts(spec_key, k_max)
    expect(len(counts) == len(good) and all(c in r for c, r in zip(counts, allowed)),
           f"box counts {counts} != exact {good}, beyond grid-hit rounding ({hits} hits)")
    fit = oracle.box_slope(_spec(spec_key), counts)
    expect(abs(slope - fit) <= 1e-9, f"box slope {slope!r} != {fit!r}, the fit of its counts")
    raise KnownDefect(f"item B grid-hit rounding: box counts {counts}, exact {good}")


def _gamma_faithful(f: oracle.Field, x: float) -> bool:
    good = f.gamma_double()
    return x in (good, math.nextafter(good, math.inf), math.nextafter(good, -math.inf))


def _check_total(f, rows_exps, den, expected_pair, what):
    """Exact total length of the emitted exponents against an expected pair over den."""
    e_max = max(rows_exps)
    g = f.inv_powers(e_max)
    scale = den // f.q ** e_max
    tu = tv = 0
    for e, c in rows_exps.items():
        tu += c * g[e][0] * scale
        tv += c * g[e][1] * scale
    expect((tu, tv) == expected_pair, f"{what}: exact total length differs")


def _cover_rows(job, text):
    if job["fmt"] == "json":
        records = json.loads(text)
        return [(r["depth"], r["index"], r["kind_path"],
                 Fraction(r["start_c0_num"], r["start_c0_den"]),
                 Fraction(r["start_c1_num"], r["start_c1_den"]),
                 r["start_float"], r["length_exponent"], r["length_float"]) for r in records]
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    expect(header[:3] == ["depth", "index", "kind_path"], "cover CSV header")
    return [(int(r[0]), int(r[1]), r[2], Fraction(int(r[3]), int(r[4])),
             Fraction(int(r[5]), int(r[6])), float(r[7]), int(r[8]), float(r[9]))
            for r in reader]


def check_cover(job, text) -> None:
    spec_key = _key(job["spec"])
    spec = _spec(spec_key)
    depth = job["depth"]
    rows = _cover_rows(job, text)
    expected, den = _cover(spec_key, depth)
    for i, r in enumerate(rows):
        expect(r[0] == depth and r[1] == i, f"cover row {i}: depth/index columns")
    expect(len(rows) == (spec.na + spec.nb) ** depth, "cover count != (N_a'+N_b')^k")
    oracle.check_rows(spec.f, [r[2:] for r in rows], expected, den, "cover")
    exps: dict[int, int] = {}
    for r in rows:
        exps[r[6]] = exps.get(r[6], 0) + 1
    expect(exps == spec.exponent_counts(depth), "cover exponent multiset")
    g = spec.f.inv_powers(spec.n)
    level = (spec.na * g[spec.n - 1][0] + spec.nb * g[spec.n][0],
             spec.na * g[spec.n - 1][1] + spec.nb * g[spec.n][1])
    total = (1, 0)
    for _ in range(depth):
        total = spec.f.mul(total, level)
    _check_total(spec.f, exps, den, total, "cover")


def check_tiling(job, text) -> None:
    p, q, n = job["p"], job["q"], job["n"]
    f = oracle.field(p, q)
    expected, den = _tiling(p, q, n)
    if job["fmt"] == "csv":
        reader = csv.reader(io.StringIO(text))
        expect(next(reader)[:2] == ["index", "kind"], "tiling CSV header")
        raw = list(reader)
        for i, r in enumerate(raw):
            expect(int(r[0]) == i, f"tiling row {i}: index column")
        rows = [(r[1], Fraction(int(r[2]), int(r[3])), Fraction(int(r[4]), int(r[5])),
                 float(r[6]), int(r[7]), float(r[8])) for r in raw]
        oracle.check_rows(f, rows, expected, den, "tiling")
    else:
        lines = text.splitlines()
        expect(lines[0] == f"step-{n} tiling for p={p}, q={q}", "tiling text header")
        expect(len(lines) - 1 == len(expected), "tiling text row count")
        for i, (line, (u, v, e, ch)) in enumerate(zip(lines[1:], expected)):
            m = TILE_LINE.match(line)
            expect(m is not None, f"tiling text row {i} does not parse")
            expect(int(m[1]) == i and m[2] == ch and int(m[6]) == e, f"tiling row {i} fields")
            expect(Fraction(m[3]) * den == u and Fraction(m[4]) * den == v,
                   f"tiling row {i}: exact start differs")
            err = abs(Fraction(m[5]) - Fraction(f.to_double(u, v, den)))
            expect(err <= Fraction(1, 2 * 10**12) + Fraction(1, 10**15),
                   f"tiling row {i}: {m[5]} not the 12-digit rounding of the start")
    exps: dict[int, int] = {}
    for _, _, e, _ in expected:
        exps[e] = exps.get(e, 0) + 1
    _check_total(f, exps, den, (den, 0), "tiling")


def _render_rows(job):
    """Expected rows of (start, end) doubles in unit coordinates."""
    if job["mode"] == "stack":
        steps = [(job["p"], job["q"], n) for n in range(job["n"] + 1)]
        spec, depth = None, 0
    else:
        spec_key = _key(job["spec"])
        spec = _spec(spec_key)
        steps = [(spec.p, spec.q, spec.n)]
        depth = job["depth"]
    rows = []
    for p, q, n in steps:
        f = oracle.field(p, q)
        g = f.inv_powers(n)
        den = q ** n
        rows.append([(f.to_double(u, v, den), f.to_double(u + g[e][0], v + g[e][1], den))
                     for _, u, v, e in oracle.tiling(p, q, n)])
    for k in range(1, depth + 1):
        expected, den = _cover(spec_key, k)
        g = spec.f.inv_powers(k * spec.n)
        rows.append([(spec.f.to_double(u, v, den),
                      spec.f.to_double(u + g[e][0], v + g[e][1], den))
                     for u, v, e, _ in expected])
    return rows


def _parse_render(job, text):
    if job["fmt"] == "svg":
        root = ET.fromstring(text)
        rows = []
        for g in root.iter(SVG_NS + "g"):
            rows.append([(float(ln.get("x1")), float(ln.get("x2")))
                         for ln in g.iter(SVG_NS + "line") if ln.get("class") == "seg"])
        return rows
    lines = text.splitlines()
    expect(lines[0].startswith(r"\begin{tikzpicture}") and lines[-1] == r"\end{tikzpicture}",
           "TikZ document frame")
    rows: dict[str, list] = {}
    for line in lines:
        m = TIKZ_DRAW.match(line)
        if m and m[2] == m[4]:
            rows.setdefault(m[2], []).append((float(m[1]), float(m[3])))
    return list(rows.values())


def check_render(job, text) -> None:
    expected = _render_rows(job)
    got = _parse_render(job, text)
    expect(len(got) == len(expected), f"render: {len(got)} rows, expected {len(expected)}")
    span = oracle.SVG_WIDTH - 2 * oracle.SVG_MARGIN
    for r, (grow, erow) in enumerate(zip(got, expected)):
        expect(len(grow) == len(erow), f"render row {r}: {len(grow)} segments, expected {len(erow)}")
        for (x0, x1), (u0, u1) in zip(grow, erow):
            for x, u in ((x0, u0), (x1, u1)):
                expect(abs(x - (oracle.SVG_MARGIN + span * u)) <= 5e-4 + 1e-9,
                       f"render row {r}: x={x} but exact endpoint maps to "
                       f"{oracle.SVG_MARGIN + span * u:.6f}")


def check_dim(job, text) -> None:
    spec = _spec(_key(job["spec"]))
    out = json.loads(text)
    expect(out["Na_prime"] == spec.na and out["Nb_prime"] == spec.nb, "dim survivor counts")
    expect(out["poly"] == f"x^{spec.n} - {spec.na}x - {spec.nb}", "dim polynomial")
    check_dimension(spec, out["root"], out["dim"])
    expect(_gamma_faithful(spec.f, out["gamma"]), f"gamma {out['gamma']!r} not within 1 ulp")
    expect(math.isfinite(out["residual"]) and out["residual"] >= 0, "dim residual")


def check_estimate(job, text) -> None:
    spec_key = _key(job["spec"])
    spec = _spec(spec_key)
    out = json.loads(text)
    expect(oracle.faithful_dim(spec.p, spec.q, spec.poly(), out["analytic_dim"]),
           f"analytic_dim {out['analytic_dim']!r} not within 1 ulp")
    check_empirical(spec, out["empirical_dim"])
    expect(out["abs_error_box"] == abs(out["box_dim"] - out["analytic_dim"]), "abs_error_box")
    expect(out["abs_error_empirical"] == abs(out["empirical_dim"] - out["analytic_dim"]),
           "abs_error_empirical")
    expect(out["k"] == job["depth"], "estimate k")
    k_max = max(4, job["depth"])
    counts, slope, _, _ = _box(spec_key, k_max)
    if abs(out["box_dim"] - slope) <= 1e-9:
        return
    # the CLI prints only the slope: it is the item-B defect when it is the fit of
    # some count vector that grid-hit rounding can produce
    allowed = _grid_rounding_counts(spec_key, k_max)
    if math.prod(map(len, allowed)) <= 4096:
        for wrong in itertools.product(*allowed):
            if abs(out["box_dim"] - oracle.box_slope(spec, list(wrong))) <= 1e-9:
                raise KnownDefect(f"item B grid-hit rounding: box_dim {out['box_dim']!r} is "
                                  f"the fit of counts {list(wrong)}, exact {counts}")
    raise Mismatch(f"box_dim {out['box_dim']!r} != {slope!r}, the fit of exact counts {counts}, "
                   "nor the fit of counts within grid-hit rounding")


def check_word(job, text) -> None:
    w = oracle.word(job["p"], job["q"], job["n"])
    if len(w) <= job["max_letters"]:
        good = w + "\n"
    else:
        good = w[: job["max_letters"]] + "...\n" + f"letters: {len(w)}\n"
    expect(text == good, "word text differs")


def check_table(job, text) -> None:
    lines = text.splitlines()
    rows = list(oracle.NAMED_MEANS) + [(f"({p},{q})", p, q) for p, q in job["extras"]]
    expect(len(lines) == len(rows) + 1, "table row count")
    for line, (name, p, q) in zip(lines[1:], rows):
        parts = line.split()
        expect(parts[0] == name and int(parts[1]) == p and int(parts[2]) == q,
               f"table row {name}")
        with localcontext() as ctx:
            ctx.prec = 50
            err = abs(Decimal(parts[4]) - oracle.field(p, q).gamma_decimal(40))
        expect(err <= Decimal("5e-11"), f"table value {parts[4]} for {name}")


CLI_CHECKS = {"dim": check_dim, "table": check_table, "word": check_word,
              "tiling": check_tiling, "cover": check_cover, "estimate": check_estimate,
              "render": check_render}


def check_cli(job, text: str) -> None:
    """Raise Mismatch unless one CLI job's output is right."""
    try:
        CLI_CHECKS[job["cmd"]](job, text)
    except (ValueError, KeyError, IndexError, TypeError, csv.Error, ET.ParseError,
            StopIteration) as exc:
        raise Mismatch(f"{job['cmd']} output does not parse: {exc!r}") from exc


def check_lib(job, result) -> None:
    """Raise Mismatch unless one library job's result is right."""
    spec_key = _key(job["spec"])
    spec = _spec(spec_key)
    call = job["call"]
    if call == "dimension":
        check_dimension(spec, result["root"], result["dim"])
        return
    if call == "empirical":
        check_empirical(spec, result["value"])
        return
    if call == "box":
        check_box(spec_key, job["k_max"], result["counts"], result["slope"])
        return
    expected = _cover_prefix(spec_key, job["depth"], job["count"])
    starts = result["starts"]
    expect(len(starts) == len(expected), "prefix length")
    wrong = []
    for i, (x, (good, slack)) in enumerate(zip(starts, expected)):
        if x != good:
            expect(abs(x - good) <= slack,
                   f"depth-{job['depth']} start {i} reads {x!r}, certified {good!r}, "
                   "beyond cancellation at working precision")
            wrong.append(f"start {i} reads {x!r}, certified {good!r}")
    if wrong:
        raise KnownDefect(f"item B to_mpf cancellation: {len(wrong)} of {len(starts)} "
                          f"depth-{job['depth']} starts wrong, first {wrong[0]}")


@lru_cache(maxsize=32)
def _cover_prefix(spec_key, depth, count):
    """(certified double, item-B slack) of the first `count` depth-k starts.

    to_mpf sums c0 + c1*gamma at working precision, so its error is bounded by
    2^(1-bits) times |c0| + |c1|*gamma, not times the value as its docstring
    says; under cancellation that loses every digit (ROADMAP item B). The slack
    is that bound plus one ulp for the final conversion to a double.
    """
    spec = _spec(spec_key)
    den = spec.q ** (depth * spec.n)
    out = []
    for u, v, _, _ in spec.walk(depth):
        good = spec.f.to_double(u, v, den)
        terms = spec.f.to_double(abs(u), abs(v), den)
        out.append((good, 2.0 ** (1 - TO_MPF_BITS) * terms + math.ulp(good)))
        if len(out) == count:
            break
    return out
