"""Rendered figures: structure, well-formedness, byte stability."""

import xml.etree.ElementTree as ET

import pytest

from metallic import (
    CapExceeded,
    FractalSpec,
    MetallicParams,
    RenderPlan,
    render_construction,
    render_tiling_stack,
)

GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)
SPEC_301 = FractalSpec(GOLDEN, 3, 0, 1)

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
