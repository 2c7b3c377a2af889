"""Figures of tilings and fractal construction stages, as SVG or TikZ text.

Rows of labeled segments, in the style of the usual inflation-rule pictures:
one row per step (or per removal stage), tick marks at exact endpoints, tile
letters above and length labels below. Output is plain text assembled
deterministically, so identical inputs give byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .errors import CapExceeded
from .fractal import FractalSpec, _inv_powers, _walk, cover_at_depth  # noqa: F401
from .limits import RENDER_CAP
from .quadfield import MetallicParams, to_double
from .substitution import tile_counts, word_at_step
from .tiling import start_numerators, tiling_at_step  # noqa: F401

# Rows are laid out from integer numerators, not from tiling_at_step or
# cover_at_depth; both names stay bound here because bench/spans.py wraps
# them in this module when it traces a render.

MEAN_SYMBOLS = {(1, 1): "φ", (2, 1): "δ", (3, 1): "σ", (1, 2): "α", (1, 3): "β"}
TEX_SYMBOLS = {"φ": r"\phi", "δ": r"\delta", "σ": r"\sigma",
               "α": r"\alpha", "β": r"\beta", "γ": r"\gamma"}


@dataclass(frozen=True)
class RenderPlan:
    fmt: str = "svg"
    width: float = 600.0
    row_height: float = 44.0
    tick: float = 6.0
    margin: float = 20.0
    show_letters: bool = True
    show_lengths: bool = True
    show_endpoints: bool = True
    min_label_gap: float = 12.0

    def __post_init__(self) -> None:
        if self.fmt not in ("svg", "tikz"):
            raise ValueError(f"format must be svg or tikz, got {self.fmt!r}")

    def x(self, u: float) -> float:
        return self.margin + (self.width - 2 * self.margin) * u


@dataclass(frozen=True)
class _Segment:
    u0: float
    u1: float
    letter: str | None
    length_label: str | None


@dataclass(frozen=True)
class _Row:
    label: str
    segments: tuple[_Segment, ...]


def _mean_symbol(params: MetallicParams) -> str:
    return MEAN_SYMBOLS.get((params.p, params.q), "γ")


def _length_label(symbol: str, exponent: int) -> str:
    if exponent == 0:
        return "1"
    return f"1/{symbol}^{exponent}"


def _tiling_row(params: MetallicParams, n: int, label: str, plan: RenderPlan) -> _Row:
    symbol = _mean_symbol(params)
    word = word_at_step(params, n, cap=RENDER_CAP)
    us, vs = start_numerators(params, n, word)
    den = params.q**n
    # tile i runs from boundary i to boundary i + 1; the last boundary is 1
    xs = list(map(to_double, repeat(params), us, vs, repeat(den)))
    exponents = {"a": n - 1, "b": n}
    segs = [
        _Segment(
            x0, x1,
            letter if plan.show_letters else None,
            _length_label(symbol, exponents[letter]) if plan.show_lengths else None,
        )
        for letter, x0, x1 in zip(word, xs, xs[1:])
    ]
    return _Row(label, tuple(segs))


def _cover_row(spec: FractalSpec, k: int, label: str, plan: RenderPlan) -> _Row:
    params = spec.params
    symbol = _mean_symbol(params)
    den = params.q ** (spec.n * k)
    lengths = _inv_powers(params, spec.n * k)  # numerators of gamma^-e over den
    segs = []
    for u, v, e, path in _walk(spec, k, paths=plan.show_letters):
        du, dv = lengths[e]
        segs.append(_Segment(
            to_double(params, u, v, den), to_double(params, u + du, v + dv, den),
            path[-1] if path else None,
            _length_label(symbol, e) if plan.show_lengths else None,
        ))
    return _Row(label, tuple(segs))


def _ordinal(k: int) -> str:
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(k if k < 20 else k % 10, "th")
    return f"{k}{suffix}"


def render_tiling_stack(params: MetallicParams, n_max: int, plan: RenderPlan) -> str:
    """One row per step 0..n_max of the substitution tiling."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    total = sum(tile_counts(params, n).total for n in range(n_max + 1))
    if total > RENDER_CAP:
        raise CapExceeded(f"{total} tiles across rows, above render cap {RENDER_CAP}")
    rows = [_tiling_row(params, n, f"step {n}", plan) for n in range(n_max + 1)]
    return _emit(rows, plan)


def render_construction(spec: FractalSpec, k_max: int, plan: RenderPlan) -> str:
    """The step-n tiling followed by the depth 1..k_max covers."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    na, nb = spec.survivor_counts
    if (na + nb) ** k_max > RENDER_CAP:
        raise CapExceeded(f"depth-{k_max} cover is above render cap {RENDER_CAP}")
    rows = [_tiling_row(spec.params, spec.n, "tiling", plan)]
    for k in range(1, k_max + 1):
        rows.append(_cover_row(spec, k, f"{_ordinal(k)} removal", plan))
    return _emit(rows, plan)


def _declutter(positions_and_labels: list[tuple[float, str]], gap: float) -> list[tuple[float, str]]:
    kept: list[tuple[float, str]] = []
    for x, text in positions_and_labels:
        if kept and x - kept[-1][0] < gap:
            continue
        kept.append((x, text))
    return kept


def _emit(rows: list[_Row], plan: RenderPlan) -> str:
    if plan.fmt == "svg":
        return _emit_svg(rows, plan)
    return _emit_tikz(rows, plan)


def _f(v: float) -> str:
    return f"{v:.3f}"


def _emit_svg(rows: list[_Row], plan: RenderPlan) -> str:
    height = plan.row_height * len(rows) + 2 * plan.margin
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(plan.width)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(plan.width)} {_f(height)}">',
    ]
    for i, row in enumerate(rows):
        y = plan.margin + plan.row_height * (i + 0.5)
        half = plan.tick / 2
        out.append(f'<g class="row" data-label="{row.label}">')
        out.append(
            f'<text x="{_f(plan.margin / 4)}" y="{_f(y - 4)}" '
            f'font-size="9">{row.label}</text>'
        )
        labels_above = []
        labels_below = []
        for seg in row.segments:
            x0, x1 = plan.x(seg.u0), plan.x(seg.u1)
            out.append(
                f'<line class="seg" x1="{_f(x0)}" y1="{_f(y)}" '
                f'x2="{_f(x1)}" y2="{_f(y)}" stroke="black"/>'
            )
            for xt in (x0, x1):
                out.append(
                    f'<line class="tick" x1="{_f(xt)}" y1="{_f(y - half)}" '
                    f'x2="{_f(xt)}" y2="{_f(y + half)}" stroke="black"/>'
                )
            mid = (x0 + x1) / 2
            if seg.letter is not None:
                labels_above.append((mid, seg.letter))
            if seg.length_label is not None:
                labels_below.append((mid, seg.length_label))
        for x, text in _declutter(labels_above, plan.min_label_gap):
            out.append(
                f'<text x="{_f(x)}" y="{_f(y - half - 3)}" font-size="10" '
                f'text-anchor="middle">{text}</text>'
            )
        for x, text in _declutter(labels_below, plan.min_label_gap):
            out.append(
                f'<text x="{_f(x)}" y="{_f(y + half + 11)}" font-size="8" '
                f'text-anchor="middle">{text}</text>'
            )
        if plan.show_endpoints:
            for u, text in ((0.0, "0"), (1.0, "1")):
                out.append(
                    f'<text x="{_f(plan.x(u))}" y="{_f(y + half + 11)}" font-size="8" '
                    f'text-anchor="middle">{text}</text>'
                )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tex_label(text: str) -> str:
    for sym, tex in TEX_SYMBOLS.items():
        text = text.replace(sym, tex)
    if "^" in text:
        base, _, exp = text.partition("^")
        text = f"{base}^{{{exp}}}"
    return f"${text}$"


def _emit_tikz(rows: list[_Row], plan: RenderPlan) -> str:
    out = [r"\begin{tikzpicture}[x=1pt,y=1pt]"]
    for i, row in enumerate(rows):
        y = -plan.row_height * i
        half = plan.tick / 2
        out.append(rf"\node[anchor=east] at ({_f(plan.margin - 6)},{_f(y)}) {{{row.label}}};")
        labels_above = []
        labels_below = []
        for seg in row.segments:
            x0, x1 = plan.x(seg.u0), plan.x(seg.u1)
            out.append(rf"\draw ({_f(x0)},{_f(y)}) -- ({_f(x1)},{_f(y)});")
            for xt in (x0, x1):
                out.append(rf"\draw ({_f(xt)},{_f(y - half)}) -- ({_f(xt)},{_f(y + half)});")
            mid = (x0 + x1) / 2
            if seg.letter is not None:
                labels_above.append((mid, f"${seg.letter}$"))
            if seg.length_label is not None:
                labels_below.append((mid, _tex_label(seg.length_label)))
        for x, text in _declutter(labels_above, plan.min_label_gap):
            out.append(rf"\node[above] at ({_f(x)},{_f(y + half)}) {{{text}}};")
        for x, text in _declutter(labels_below, plan.min_label_gap):
            out.append(rf"\node[below] at ({_f(x)},{_f(y - half)}) {{{text}}};")
        if plan.show_endpoints:
            for u, text in ((0.0, "$0$"), (1.0, "$1$")):
                out.append(rf"\node[below] at ({_f(plan.x(u))},{_f(y - half)}) {{{text}}};")
    out.append(r"\end{tikzpicture}")
    return "\n".join(out) + "\n"
