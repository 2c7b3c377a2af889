"""Figures of tilings and fractal construction stages, as SVG or TikZ text.

Rows of labeled segments, in the style of the usual inflation-rule pictures:
one row per step (or per removal stage), tick marks at exact endpoints, tile
letters above and length labels below. Segment ends come straight from the
exact integer numerators of `tiling.start_numerators` or the cover walker in
`fractal`. A figure is a stream of lines: `tiling_stack_lines` and
`construction_lines` check every cap before they hand the stream back, then
walk, lay out and emit one row at a time, so one row's walk and kept labels
are held, never the document. One row loop fills either format's line
templates. Output is plain text assembled deterministically, so identical
inputs give byte-identical documents.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, pairwise, repeat

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
    word = word_at_step(params, n, cap=RENDER_CAP)
    lengths = _inv_powers(params, n)  # step 0 is "b", so lengths[-1] is never used
    us, vs = start_numerators(word, lengths[n - 1], lengths[n])
    # tile i runs from boundary i to boundary i + 1; the last boundary is 1
    ends = pairwise(map(to_double, repeat(params), us, vs, repeat(params.q**n)))
    exponents = {"a": n - 1, "b": n}
    return label, ((x0, x1, letter, exponents[letter]) for letter, (x0, x1) in zip(word, ends))


def _cover_row(spec: FractalSpec, k: int, label: str) -> Row:
    params = spec.params
    den = params.q ** (spec.n * k)
    lengths = _inv_powers(params, spec.n * k)  # numerators of gamma^-e over den
    return label, ((to_double(params, u, v, den, fix),
                    to_double(params, u + lengths[e][0], v + lengths[e][1], den), path[-1], e)
                   for u, v, fix, e, path in _walk(spec, k))


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
    if total > RENDER_CAP:
        raise CapExceeded(
            f"{format_count(total)} tiles across rows, above render cap {RENDER_CAP}")
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
    tiling = _tiling_row(spec.params, spec.n, "tiling")  # checks the word cap
    covers = (_cover_row(spec, k, f"{_ordinal(k)} removal") for k in range(1, k_max + 1))
    return _emit(chain([tiling], covers), k_max + 1, plan, spec.params)


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
