"""Figures of tilings and fractal construction stages, as SVG or TikZ text.

Rows of labeled segments, in the style of the usual inflation-rule pictures:
one row per step (or per removal stage), tick marks at exact endpoints, tile
letters above and length labels below. Segment ends come straight from exact
integer numerators: a tiling row's from `tiling._step_layout`, and cover row k's
from the children (`fractal._child_layout`) of row k-1's intervals, on one
`_inv_powers` table over q^(n*k_max), so each level is laid out once. A figure is
a stream of lines: `tiling_stack_lines` and `construction_lines` check every cap
before they hand the stream back, then lay out and emit one row at a time, so the
row above and one row's kept labels are held, never the document. One row loop
fills either format's line templates. Output is plain text assembled
deterministically, so identical inputs give byte-identical documents.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, pairwise, repeat

from .errors import CapExceeded, Record
from .fractal import FractalSpec, _child_layout, _survivor_pattern, cover_at_depth  # noqa: F401
from .limits import RENDER_CAP, check_cap
from .quadfield import MEAN_SYMBOLS, MetallicParams, to_double
from .substitution import tile_counts
from .tiling import _inv_powers, _step_layout, tiling_at_step  # noqa: F401

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

# Per format: row i's y, the y's its lines take at offsets from it (lo and hi are the
# tick ends) and the line templates. A row fills {label}, {y} and the offset names; then
# a segment's three lines (it and a tick at each end) take its end x's as {0} and {1},
# and a text line takes {x} and {text}: a letter, or a length 1/symbol^e from `power`.
FORMATS = {
    "svg": dict(
        row_y=lambda i: MARGIN + ROW_HEIGHT * (i + 0.5), symbols={}, power="1/{}^{}",
        at={"lo": -TICK / 2, "hi": TICK / 2, "label_y": -4, "letter_y": -TICK / 2 - 3,
            "length_y": TICK / 2 + 11},
        head='<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
             'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n',
        row=f'<g class="row" data-label="{{label}}">\n<text x="{MARGIN / 4:.3f}" '
            'y="{label_y}" font-size="9">{label}</text>\n',
        seg='<line class="seg" x1="{x0}" y1="{y}" x2="{x1}" y2="{y}" stroke="black"/>\n'
            '<line class="tick" x1="{x0}" y1="{lo}" x2="{x0}" y2="{hi}" stroke="black"/>\n'
            '<line class="tick" x1="{x1}" y1="{lo}" x2="{x1}" y2="{hi}" stroke="black"/>\n',
        letter='<text x="{x:.3f}" y="{letter_y}" font-size="10" '
               'text-anchor="middle">{text}</text>\n',
        length='<text x="{x:.3f}" y="{length_y}" font-size="8" '
               'text-anchor="middle">{text}</text>\n',
        row_end="</g>\n", tail="</svg>\n"),
    "tikz": dict(
        row_y=lambda i: -ROW_HEIGHT * i, symbols=TEX_SYMBOLS, power="1/{}^{{{}}}",
        at={"lo": -TICK / 2, "hi": TICK / 2},
        head="\\begin{{tikzpicture}}[x=1pt,y=1pt]\n",
        row=f"\\node[anchor=east] at ({MARGIN - 6:.3f},{{y}}) {{{{{{label}}}}}};\n",
        seg="\\draw ({x0},{y}) -- ({x1},{y});\n\\draw ({x0},{lo}) -- ({x0},{hi});\n"
            "\\draw ({x1},{lo}) -- ({x1},{hi});\n",
        letter="\\node[above] at ({x:.3f},{hi}) {{${text}$}};\n",
        length="\\node[below] at ({x:.3f},{lo}) {{${text}$}};\n",
        row_end="", tail="\\end{tikzpicture}\n"),
}

# One row: its label and its segments as (start, end, letter, length exponent), streamed.
Row = tuple[str, Iterator[tuple[float, float, str, int]]]


class RenderPlan(Record):
    _fields = ("fmt",)

    def __init__(self, fmt: str = "svg") -> None:
        if fmt not in FORMATS:
            raise ValueError(f"format must be svg or tikz, got {fmt!r}")
        self.__dict__.update(fmt=fmt)

    def x(self, u: float) -> float:
        return MARGIN + (WIDTH - 2 * MARGIN) * u


def _tiling_row(params: MetallicParams, n: int, label: str) -> Row:
    word, us, vs, dens, exponents = _step_layout(params, n, RENDER_CAP)
    ends = pairwise(map(to_double, repeat(params), us, vs, dens))
    return label, ((x0, x1, letter, e) for letter, (x0, x1), e in zip(word, ends, exponents))


def _cover_rows(spec: FractalSpec, k_max: int) -> Iterator[Row]:
    """Rows 1..k_max, row k from the children of row k-1's intervals, all over q^(n*k_max):
    `to_double` rounds correctly, so the common denominator changes no printed byte."""
    params, top = spec.params, spec.n * k_max
    g, den = _inv_powers(params, top), params.q**top
    children = _child_layout(spec, g, [0] * len(g))  # no enclosures
    row = [(0, 0, 0, "")]  # (u, v, exponent, letter) of each interval
    for k in range(1, k_max + 1):
        row = ((u + du, v + dv, x, letter)
               for u, v, e, _ in row for du, dv, _, x, letter in children(e))
        row = list(row) if k < k_max else row  # the last row is streamed, not held
        yield f"{_ordinal(k)} removal", (
            (to_double(params, u, v, den), to_double(params, u + g[x][0], v + g[x][1], den),
             letter, x) for u, v, x, letter in row)


def _ordinal(k: int) -> str:
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(k if k < 20 else k % 10, "th")
    return f"{k}{suffix}"


def tiling_stack_lines(params: MetallicParams, n_max: int, plan: RenderPlan) -> Iterator[str]:
    """The lines of `render_tiling_stack`, streamed a row at a time once the cap is checked."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    # |W_0| + ... + |W_n| = 1 + S(n) + q*S(n-1) with S(m) = a_0 + ... + a_m, and
    # (p + q - 1)*S(m) = a_{m+1} + q*a_m - 1; tile_counts gives a_n and q*a_{n-1}
    p, q, counts = params.p, params.q, tile_counts(params, n_max)
    total = 1 + ((p + 2 * q) * counts.N_a + (1 + q) * counts.N_b - 1 - q) // (p + q - 1)
    check_cap("{} tiles across rows, above render cap {}", total, cap=RENDER_CAP)
    rows = (_tiling_row(params, n, f"step {n}") for n in range(n_max + 1))
    return _emit(rows, n_max + 1, plan, params)


def construction_lines(spec: FractalSpec, k_max: int, plan: RenderPlan) -> Iterator[str]:
    """The lines of `render_construction`, streamed a row at a time once the caps are checked.

    The cover rows together may draw RENDER_CAP segments: N'^1 + ... + N'^k_max, where
    N' tiles survive each level.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    kept = sum(spec.survivor_counts)
    if any(total > RENDER_CAP for total in accumulate(kept**k for k in range(1, k_max + 1))):
        raise CapExceeded(
            f"cover rows of depth 1..{k_max} draw more than render cap {RENDER_CAP} segments")
    tiling = _tiling_row(spec.params, spec.n, "tiling")  # checks the word against RENDER_CAP
    _survivor_pattern(spec)  # and against the cap in force, for the cover rows
    return _emit(chain([tiling], _cover_rows(spec, k_max)), k_max + 1, plan, spec.params)


def render_tiling_stack(params: MetallicParams, n_max: int, plan: RenderPlan) -> str:
    """One row per step 0..n_max of the substitution tiling."""
    return "".join(tiling_stack_lines(params, n_max, plan))


def render_construction(spec: FractalSpec, k_max: int, plan: RenderPlan) -> str:
    """The step-n tiling followed by the depth 1..k_max covers."""
    return "".join(construction_lines(spec, k_max, plan))


def _emit(rows: Iterator[Row], count: int, plan: RenderPlan,
          params: MetallicParams) -> Iterator[str]:
    """The document of `count` rows: per row, its segments' lines as each is laid out, then
    the letter and length labels that decluttering kept."""
    fmt, span = FORMATS[plan.fmt], WIDTH - 2 * MARGIN  # RenderPlan.x, inlined per segment
    symbol = MEAN_SYMBOLS.get((params.p, params.q), "γ")
    symbol = fmt["symbols"].get(symbol, symbol)
    yield fmt["head"].format(w=f"{WIDTH:.3f}", h=f"{ROW_HEIGHT * count + 2 * MARGIN:.3f}")
    for i, (label, segments) in enumerate(rows):
        y = fmt["row_y"](i)
        at = {name: f"{y + offset:.3f}" for name, offset in fmt["at"].items()}
        at["y"] = f"{y:.3f}"  # not y + 0.0, which turns TikZ's first -0.000 into 0.000
        yield fmt["row"].format(label=label, **at)
        segment = fmt["seg"].format(x0="{0}", x1="{1}", **at)
        labels = []
        for u0, u1, letter, exponent in segments:
            x0, x1 = MARGIN + span * u0, MARGIN + span * u1
            yield segment.format(f"{x0:.3f}", f"{x1:.3f}")
            mid = (x0 + x1) / 2
            if not labels or mid - labels[-1][0] >= MIN_LABEL_GAP:
                labels.append((mid, letter, exponent))
        for x, letter, _ in labels:
            yield fmt["letter"].format(x=x, text=letter, **at)
        lengths = [(x, fmt["power"].format(symbol, e) if e else "1") for x, _, e in labels]
        for x, text in [*lengths, (MARGIN, "0"), (WIDTH - MARGIN, "1")]:
            yield fmt["length"].format(x=x, text=text, **at)
        yield fmt["row_end"]
    yield fmt["tail"]
