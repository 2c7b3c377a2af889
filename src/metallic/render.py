"""Figures of tilings and fractal construction stages, as SVG or TikZ text.

Rows of labeled segments, in the style of the usual inflation-rule pictures:
one row per step (or per removal stage), tick marks at exact endpoints, tile
letters above and length labels below. Segment ends come straight from the
exact integer numerators of `tiling.start_numerators` or the cover walker in
`fractal`. One layout pass puts every
row in figure coordinates and declutters its labels; the SVG and TikZ writers
only serialise that layout. Output is plain text assembled deterministically,
so identical inputs give byte-identical documents.
"""

from __future__ import annotations

from itertools import repeat

from .errors import CapExceeded, Record
from .fractal import FractalSpec, _walk, cover_at_depth  # noqa: F401
from .limits import RENDER_CAP, format_count
from .quadfield import MEAN_SYMBOLS, MetallicParams, to_double
from .substitution import tile_counts, word_at_step
from .tiling import _inv_powers, start_numerators, tiling_at_step  # noqa: F401

# Rows are laid out from integer numerators, not from tiling_at_step or
# cover_at_depth; both names stay bound here because bench/spans.py wraps
# them in this module when it traces a render.

TEX_SYMBOLS = {"φ": r"\phi", "δ": r"\delta", "σ": r"\sigma",
               "α": r"\alpha", "β": r"\beta", "γ": r"\gamma"}

# Figure geometry, in SVG user units and TikZ points.
WIDTH = 600.0
ROW_HEIGHT = 44.0
TICK = 6.0
MARGIN = 20.0
MIN_LABEL_GAP = 12.0  # a label closer than this to the last one kept is dropped

# One row: its label and (start, end, letter, length exponent) per segment.
Row = tuple[str, list[tuple[float, float, str, int]]]
# A row laid out: its label, the x of each segment's ends (ticks go at both),
# and the (x, letter, length exponent) labels kept after decluttering; the
# letter goes above and the length below the segment's midpoint x.
Layout = tuple[str, list[tuple[float, float]], list[tuple[float, str, int]]]


class RenderPlan(Record):
    _fields = ("fmt",)

    def __init__(self, fmt: str = "svg") -> None:
        if fmt not in ("svg", "tikz"):
            raise ValueError(f"format must be svg or tikz, got {fmt!r}")
        self.__dict__.update(fmt=fmt)

    def x(self, u: float) -> float:
        return MARGIN + (WIDTH - 2 * MARGIN) * u


def _tiling_row(params: MetallicParams, n: int, label: str) -> Row:
    word = word_at_step(params, n, cap=RENDER_CAP)
    lengths = _inv_powers(params, n)  # step 0 is "b", so lengths[-1] is never used
    us, vs = start_numerators(word, lengths[n - 1], lengths[n])
    den = params.q**n
    # tile i runs from boundary i to boundary i + 1; the last boundary is 1
    xs = list(map(to_double, repeat(params), us, vs, repeat(den)))
    exponents = {"a": n - 1, "b": n}
    return label, [(x0, x1, letter, exponents[letter])
                   for letter, x0, x1 in zip(word, xs, xs[1:])]


def _cover_row(spec: FractalSpec, k: int, label: str) -> Row:
    params = spec.params
    den = params.q ** (spec.n * k)
    lengths = _inv_powers(params, spec.n * k)  # numerators of gamma^-e over den
    segs = []
    for u, v, e, path in _walk(spec, k):
        du, dv = lengths[e]
        segs.append((to_double(params, u, v, den), to_double(params, u + du, v + dv, den),
                     path[-1], e))
    return label, segs


def _ordinal(k: int) -> str:
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(k if k < 20 else k % 10, "th")
    return f"{k}{suffix}"


def render_tiling_stack(params: MetallicParams, n_max: int, plan: RenderPlan) -> str:
    """One row per step 0..n_max of the substitution tiling."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    total = sum(tile_counts(params, n).total for n in range(n_max + 1))
    if total > RENDER_CAP:
        raise CapExceeded(
            f"{format_count(total)} tiles across rows, above render cap {RENDER_CAP}")
    rows = [_tiling_row(params, n, f"step {n}") for n in range(n_max + 1)]
    return _emit(rows, plan, params)


def render_construction(spec: FractalSpec, k_max: int, plan: RenderPlan) -> str:
    """The step-n tiling followed by the depth 1..k_max covers."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    na, nb = spec.survivor_counts
    if (na + nb) ** k_max > RENDER_CAP:
        raise CapExceeded(f"depth-{k_max} cover is above render cap {RENDER_CAP}")
    rows = [_tiling_row(spec.params, spec.n, "tiling")]
    for k in range(1, k_max + 1):
        rows.append(_cover_row(spec, k, f"{_ordinal(k)} removal"))
    return _emit(rows, plan, spec.params)


def _layout(rows: list[Row], plan: RenderPlan) -> list[Layout]:
    """Each row in figure x coordinates, with its labels decluttered once."""
    out = []
    for label, segs in rows:
        ends, labels = [], []
        for u0, u1, letter, exponent in segs:
            x0, x1 = plan.x(u0), plan.x(u1)
            ends.append((x0, x1))
            mid = (x0 + x1) / 2
            if not labels or mid - labels[-1][0] >= MIN_LABEL_GAP:
                labels.append((mid, letter, exponent))
        out.append((label, ends, labels))
    return out


def _emit(rows: list[Row], plan: RenderPlan, params: MetallicParams) -> str:
    symbol = MEAN_SYMBOLS.get((params.p, params.q), "γ")
    layout = _layout(rows, plan)
    if plan.fmt == "svg":
        return _emit_svg(layout, symbol)
    return _emit_tikz(layout, TEX_SYMBOLS[symbol])


def _f(v: float) -> str:
    return f"{v:.3f}"


def _emit_svg(rows: list[Layout], symbol: str) -> str:
    height = ROW_HEIGHT * len(rows) + 2 * MARGIN
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(WIDTH)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(WIDTH)} {_f(height)}">',
    ]
    half = TICK / 2
    for i, (label, segments, labels) in enumerate(rows):
        y = MARGIN + ROW_HEIGHT * (i + 0.5)
        fy, top, bottom = _f(y), _f(y - half), _f(y + half)
        letter_y, length_y = _f(y - half - 3), _f(y + half + 11)
        out.append(f'<g class="row" data-label="{label}">')
        out.append(f'<text x="{_f(MARGIN / 4)}" y="{_f(y - 4)}" font-size="9">{label}</text>')
        for x0, x1 in segments:
            f0, f1 = _f(x0), _f(x1)
            out.append(f'<line class="seg" x1="{f0}" y1="{fy}" x2="{f1}" y2="{fy}" '
                       'stroke="black"/>')
            for ft in (f0, f1):
                out.append(f'<line class="tick" x1="{ft}" y1="{top}" x2="{ft}" y2="{bottom}" '
                           'stroke="black"/>')
        below = [(x, f"1/{symbol}^{e}" if e else "1") for x, _, e in labels]
        for x, letter, _ in labels:
            out.append(f'<text x="{_f(x)}" y="{letter_y}" font-size="10" '
                       f'text-anchor="middle">{letter}</text>')
        for x, text in [*below, (MARGIN, "0"), (WIDTH - MARGIN, "1")]:
            out.append(f'<text x="{_f(x)}" y="{length_y}" font-size="8" '
                       f'text-anchor="middle">{text}</text>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit_tikz(rows: list[Layout], symbol: str) -> str:
    out = [r"\begin{tikzpicture}[x=1pt,y=1pt]"]
    half = TICK / 2
    for i, (label, segments, labels) in enumerate(rows):
        y = -ROW_HEIGHT * i
        fy, bottom, top = _f(y), _f(y - half), _f(y + half)
        out.append(rf"\node[anchor=east] at ({_f(MARGIN - 6)},{fy}) {{{label}}};")
        for x0, x1 in segments:
            f0, f1 = _f(x0), _f(x1)
            out.append(rf"\draw ({f0},{fy}) -- ({f1},{fy});")
            out.append(rf"\draw ({f0},{bottom}) -- ({f0},{top});")
            out.append(rf"\draw ({f1},{bottom}) -- ({f1},{top});")
        below = [(x, rf"$1/{symbol}^{{{e}}}$" if e else "$1$") for x, _, e in labels]
        for x, letter, _ in labels:
            out.append(rf"\node[above] at ({_f(x)},{top}) {{${letter}$}};")
        for x, text in [*below, (MARGIN, "$0$"), (WIDTH - MARGIN, "$1$")]:
            out.append(rf"\node[below] at ({_f(x)},{bottom}) {{{text}}};")
    out.append(r"\end{tikzpicture}")
    return "\n".join(out) + "\n"
