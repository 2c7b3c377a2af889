"""Metallic-means substitution tilings of [0,1] and their removal fractals."""

from importlib import import_module

from .dimension import (
    CharPoly,
    DimensionReport,
    cantor_hausdorff,
    cantor_similarity,
    char_poly,
    dimension,
    positive_root,
)
from .errors import (
    CapExceeded,
    EmptyFractal,
    InvalidRemovalCount,
    MetallicError,
    ParamsMismatch,
    PolicyIndexMismatch,
    ValidationError,
)

# Every other public name is imported from its submodule on first use, so
# `import metallic` (and every CLI command, which imports the package first)
# loads only the modules it runs. `dimension` and the errors stay eager:
# `dimension` is also a submodule, which the import system binds as the
# package attribute when it loads it, and __getattr__ never runs for a name
# that is bound.
_LAZY = {
    "estimate": ("BoxCountFit", "HausdorffSum", "box_count", "box_dimension",
                 "empirical_dimension", "hausdorff_sum"),
    "fractal": ("CoverInterval", "FractalSpec", "IntervalCover", "cover_at_depth",
                "cover_summary", "gaps", "iter_cover_intervals", "refine", "survivors"),
    "quadfield": ("MetallicParams", "QuadElement", "gamma_pow"),
    "render": ("RenderPlan", "render_construction", "render_tiling_stack"),
    "substitution": ("CountVector", "iter_word_at_step", "metallic_sequence", "substitute",
                     "tile_counts", "word_at_step", "word_length"),
    "tiling": ("Tile", "TileKind", "Tiling", "tiling_at_step", "total_length"),
}
_SUBMODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})


__version__ = "0.1.0"

__all__ = [
    "BoxCountFit",
    "CapExceeded",
    "CharPoly",
    "CountVector",
    "CoverInterval",
    "DimensionReport",
    "EmptyFractal",
    "FractalSpec",
    "HausdorffSum",
    "IntervalCover",
    "InvalidRemovalCount",
    "MetallicError",
    "MetallicParams",
    "ParamsMismatch",
    "PolicyIndexMismatch",
    "QuadElement",
    "RenderPlan",
    "Tile",
    "TileKind",
    "Tiling",
    "ValidationError",
    "box_count",
    "box_dimension",
    "cantor_hausdorff",
    "cantor_similarity",
    "char_poly",
    "cover_at_depth",
    "cover_summary",
    "dimension",
    "empirical_dimension",
    "gamma_pow",
    "gaps",
    "hausdorff_sum",
    "iter_cover_intervals",
    "iter_word_at_step",
    "metallic_sequence",
    "positive_root",
    "refine",
    "render_construction",
    "render_tiling_stack",
    "substitute",
    "survivors",
    "tile_counts",
    "tiling_at_step",
    "total_length",
    "word_at_step",
    "word_length",
]
