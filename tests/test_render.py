"""Rendered figures: structure, well-formedness, byte stability, streaming."""

import io
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout

import pytest

from metallic import (
    CapExceeded,
    FractalSpec,
    MetallicParams,
    RenderPlan,
    construction_lines,
    render_construction,
    render_tiling_stack,
    tiling_stack_lines,
)
from metallic.cli import main

GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)
SPEC_301 = FractalSpec(GOLDEN, 3, 0, 1)
SPEC_411 = FractalSpec(GOLDEN, 4, 1, 1)
SPEC_21210 = FractalSpec(SILVER, 2, 1, 0)
SPEC_1210 = FractalSpec(MetallicParams(1, 2), 3, 1, 0)
SPEC_3211_EXPLICIT = FractalSpec(MetallicParams(3, 1), 2, 1, 1, policy="explicit",
                                 indices=(1, 3))

SVG_NS = "{http://www.w3.org/2000/svg}"


def _svg_rows(doc: str):
    root = ET.fromstring(doc)
    return root.findall(f"{SVG_NS}g")


def _row_segments(row):
    return [el for el in row if el.tag == f"{SVG_NS}line" and el.get("class") == "seg"]


def test_svg_is_wellformed_and_restricted():
    doc = render_construction(SPEC_301, 3, RenderPlan(fmt="svg"))
    root = ET.fromstring(doc)
    allowed = {f"{SVG_NS}{name}" for name in ("svg", "g", "line", "text")}
    for el in root.iter():
        assert el.tag in allowed, el.tag


def test_construction_row_structure_301():
    doc = render_construction(SPEC_301, 3, RenderPlan(fmt="svg"))
    rows = _svg_rows(doc)
    assert [row.get("data-label") for row in rows] == \
        ["tiling", "1st removal", "2nd removal", "3rd removal"]
    assert [len(_row_segments(row)) for row in rows] == [3, 2, 4, 8]


def test_construction_depth_zero_is_tiling_only():
    doc = render_construction(SPEC_301, 0, RenderPlan(fmt="svg"))
    rows = _svg_rows(doc)
    assert len(rows) == 1 and rows[0].get("data-label") == "tiling"


def test_stack_rows_and_tick_positions():
    plan = RenderPlan(fmt="svg")
    doc = render_tiling_stack(SILVER, 4, plan)
    rows = _svg_rows(doc)
    assert [row.get("data-label") for row in rows] == [f"step {n}" for n in range(5)]
    # step-2 row has internal ticks at 1/delta and 2/delta
    delta = SILVER.gamma_float
    step2 = rows[2]
    ticks = {el.get("x1") for el in step2
             if el.tag == f"{SVG_NS}line" and el.get("class") == "tick"}
    for u in (1 / delta, 2 / delta):
        assert f"{plan.x(u):.3f}" in ticks


def test_stack_step0_single_short_tile():
    doc = render_tiling_stack(GOLDEN, 0, RenderPlan(fmt="svg"))
    rows = _svg_rows(doc)
    assert len(rows) == 1
    assert len(_row_segments(rows[0])) == 1
    texts = [el.text for el in rows[0] if el.tag == f"{SVG_NS}text"]
    assert "b" in texts


def test_golden_stack_step3_tick_positions():
    plan = RenderPlan(fmt="svg")
    doc = render_tiling_stack(GOLDEN, 3, plan)
    phi = GOLDEN.gamma_float
    row3 = _svg_rows(doc)[3]
    ticks = {el.get("x1") for el in row3
             if el.tag == f"{SVG_NS}line" and el.get("class") == "tick"}
    for u in (1 / phi**2, 1 / phi**2 + 1 / phi**3):
        assert f"{plan.x(u):.3f}" in ticks


def test_tikz_braces_balance_and_structure():
    doc = render_construction(SPEC_301, 2, RenderPlan(fmt="tikz"))
    assert doc.startswith(r"\begin{tikzpicture}")
    assert doc.rstrip().endswith(r"\end{tikzpicture}")
    assert doc.count("{") == doc.count("}")
    doc2 = render_tiling_stack(SILVER, 3, RenderPlan(fmt="tikz"))
    assert doc2.count("{") == doc2.count("}")


def test_byte_stability():
    for fmt in ("svg", "tikz"):
        plan = RenderPlan(fmt=fmt)
        a = render_construction(SPEC_301, 3, plan)
        b = render_construction(SPEC_301, 3, plan)
        assert a == b
        c = render_tiling_stack(SILVER, 4, plan)
        d = render_tiling_stack(SILVER, 4, plan)
        assert c == d


def test_render_cap():
    with pytest.raises(CapExceeded):
        render_tiling_stack(GOLDEN, 25, RenderPlan(fmt="svg"))
    with pytest.raises(CapExceeded, match=r"\A~10\^209\.3 tiles across rows, above render cap"):
        render_tiling_stack(GOLDEN, 1000, RenderPlan(fmt="svg"))
    with pytest.raises(CapExceeded):
        render_construction(SPEC_301, 20, RenderPlan(fmt="svg"))


def test_bad_format_rejected():
    with pytest.raises(ValueError):
        RenderPlan(fmt="pdf")


def _spec_args(spec):
    args = ["--p", str(spec.params.p), "--q", str(spec.params.q), "--n", str(spec.n),
            "--remove-long", str(spec.l), "--remove-short", str(spec.s), "--policy", spec.policy]
    return args if spec.indices is None else [*args, "--indices", ",".join(map(str, spec.indices))]


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# the deepest construction whose cover rows draw at most RENDER_CAP segments together:
# N'^1 + ... + N'^top, with N' = 3, 2, 4 and 2 survivors per level
@pytest.mark.parametrize("spec, top", [(SPEC_411, 8), (SPEC_21210, 12), (SPEC_1210, 6),
                                       (SPEC_3211_EXPLICIT, 12)])
@pytest.mark.parametrize("fmt", ["svg", "tikz"])
def test_construction_lines_join_to_the_document_the_cli_prints(spec, top, fmt):
    plan = RenderPlan(fmt=fmt)
    argv = ["render", *_spec_args(spec), "--format", fmt, "--depth"]
    for k in (0, 1, top):
        doc = "".join(construction_lines(spec, k, plan))
        assert doc == render_construction(spec, k, plan)
        assert _cli([*argv, str(k)]) == (0, doc)
    with pytest.raises(CapExceeded, match=rf"\Acover rows of depth 1\.\.{top + 1} draw more"):
        construction_lines(spec, top + 1, plan)  # raised before a line is handed out
    assert _cli([*argv, str(top + 1)]) == (3, "")


# the highest step whose stack has at most RENDER_CAP tiles across its rows
@pytest.mark.parametrize("params, top", [(GOLDEN, 17), (SILVER, 10), (MetallicParams(1, 2), 12)])
@pytest.mark.parametrize("fmt", ["svg", "tikz"])
def test_tiling_stack_lines_join_to_the_document_the_cli_prints(params, top, fmt):
    plan = RenderPlan(fmt=fmt)
    argv = ["render", "--mode", "stack", "--p", str(params.p), "--q", str(params.q),
            "--format", fmt, "--n"]
    for n in (0, 1, top):
        doc = "".join(tiling_stack_lines(params, n, plan))
        assert doc == render_tiling_stack(params, n, plan)
        assert _cli([*argv, str(n)]) == (0, doc)
    with pytest.raises(CapExceeded, match=r" tiles across rows, above render cap 10000\Z"):
        tiling_stack_lines(params, top + 1, plan)
    assert _cli([*argv, str(top + 1)]) == (3, "")


def test_render_row_word_cap_is_checked_before_any_line():
    with pytest.raises(CapExceeded, match=r"\A\|W_20\| = 10946 letters exceeds cap 10000\Z"):
        construction_lines(FractalSpec(GOLDEN, 20, 1, 0), 0, RenderPlan())


class _Discard:
    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_cli_render_streams_in_bounded_memory():
    # near RENDER_CAP: 9840 cover segments, a 2.6 MB document, which built whole
    # peaked at 16.8 MB of Python allocations
    argv = ["render", *_spec_args(SPEC_411), "--depth", "8"]
    expected = len(render_construction(SPEC_411, 8, RenderPlan()))
    sink = _Discard()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars == expected
    assert peak < 4_000_000
