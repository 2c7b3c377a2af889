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
    "render": ("RenderPlan", "construction_lines", "render_construction", "render_tiling_stack",
               "tiling_stack_lines"),
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

# the eager names (each defined in a submodule) and every lazy one
__all__ = sorted([*(name for name, value in globals().items()
                    if getattr(value, "__module__", "").startswith(f"{__name__}.")),
                  *_SUBMODULE])
