"""The package's value records and its lazily loaded top-level namespace.

Every record compares by type and field values, hashes consistently with
that, prints as `Name(field=value, ...)` and refuses assignment and deletion.
The package namespace resolves each public name on first use; these checks
run in fresh interpreters so that no earlier import hides a missing binding.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from metallic import (
    BoxCountFit,
    CharPoly,
    CountVector,
    DimensionReport,
    FractalSpec,
    HausdorffSum,
    IntervalCover,
    MetallicParams,
    QuadElement,
    RenderPlan,
    Tiling,
    tiling_at_step,
)

GOLDEN = MetallicParams(1, 1)
SPEC = FractalSpec(GOLDEN, 4, 1, 1)
POLY = CharPoly(4, 2, 1)

# (record, an equal record built separately, a record differing in one field)
CASES = {
    "MetallicParams": (GOLDEN, MetallicParams(1, 1), MetallicParams(1, 2)),
    "QuadElement": (QuadElement(1, Fraction(1, 2), GOLDEN),
                    QuadElement(Fraction(1), Fraction(2, 4), MetallicParams(1, 1)),
                    QuadElement(1, Fraction(1, 2), MetallicParams(2, 1))),
    "CountVector": (CountVector(3, 2, 1), CountVector(3, 2, 1), CountVector(3, 1, 2)),
    "Tiling": (tiling_at_step(GOLDEN, 3), tiling_at_step(MetallicParams(1, 1), 3),
               tiling_at_step(GOLDEN, 4)),
    "FractalSpec": (FractalSpec(GOLDEN, 4, 1, 1, policy="explicit", indices=(3, 1)),
                    FractalSpec(GOLDEN, 4, 1, 1, "explicit", (1, 3)),
                    FractalSpec(GOLDEN, 4, 1, 1, policy="explicit", indices=(2, 4))),
    "IntervalCover": (IntervalCover(SPEC, 2, None), IntervalCover(SPEC, 2, None),
                      IntervalCover(SPEC, 3, None)),
    "CharPoly": (POLY, CharPoly(4, 2, 1), CharPoly(4, 1, 2)),
    "DimensionReport": (DimensionReport(SPEC, POLY, 1.25, 0.5, 0.0),
                        DimensionReport(FractalSpec(GOLDEN, 4, 1, 1), POLY, 1.25, 0.5, 0.0),
                        DimensionReport(SPEC, POLY, 1.25, 0.5, 1e-30)),
    "HausdorffSum": (HausdorffSum(2, 0.5, 1.0, 1.0), HausdorffSum(2, 0.5, 1.0, 1.0),
                     HausdorffSum(3, 0.5, 1.0, 1.0)),
    "BoxCountFit": (BoxCountFit(0.7, 0.1, 0.01, 0.02, (5, 17), (2, 3)),
                    BoxCountFit(0.7, 0.1, 0.01, 0.02, (5, 17), (2, 3)),
                    BoxCountFit(0.7, 0.1, 0.01, 0.02, (5, 18), (2, 3))),
    "RenderPlan": (RenderPlan(), RenderPlan("svg"), RenderPlan(fmt="tikz")),
}

FIELDS = {
    "MetallicParams": ("p", "q"),
    "QuadElement": ("c0", "c1", "params"),
    "CountVector": ("n", "N_a", "N_b"),
    "Tiling": ("params", "n", "tiles"),
    "FractalSpec": ("params", "n", "l", "s", "policy", "indices"),
    "IntervalCover": ("spec", "depth", "intervals"),
    "CharPoly": ("degree", "linear_coeff", "constant_coeff"),
    "DimensionReport": ("spec", "poly", "root", "dim", "root_residual"),
    "HausdorffSum": ("depth", "t", "value", "y"),
    "BoxCountFit": ("slope", "intercept", "residual", "rms_misfit", "box_counts", "depths"),
    "RenderPlan": ("fmt",),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_equality_and_hash(name):
    record, same, other = CASES[name]
    assert type(record).__name__ == name
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other and not record == other
    assert {record, same, other} == {record, other}
    assert record != tuple(getattr(record, f) for f in FIELDS[name])
    assert record.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_refuses_assignment_and_deletion(name):
    record = CASES[name][0]
    before = repr(record)
    for field in (*FIELDS[name], "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_pickles_and_copies(name):
    record = CASES[name][0]
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_repr_lists_fields_in_order(name):
    record = CASES[name][0]
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in FIELDS[name])
    assert repr(record) == f"{name}({fields})"


def test_record_reprs():
    assert repr(GOLDEN) == "MetallicParams(p=1, q=1)"
    assert repr(CASES["FractalSpec"][0]) == (
        "FractalSpec(params=MetallicParams(p=1, q=1), n=4, l=1, s=1, policy='explicit', "
        "indices=(1, 3))")
    assert repr(CASES["QuadElement"][0]) == (
        "QuadElement(c0=Fraction(1, 1), c1=Fraction(1, 2), params=MetallicParams(p=1, q=1))")
    assert repr(RenderPlan()) == "RenderPlan(fmt='svg')"
    assert repr(POLY) == "CharPoly(degree=4, linear_coeff=2, constant_coeff=1)"


def test_record_keyword_arguments_and_checks():
    assert MetallicParams(q=2, p=1) == MetallicParams(1, 2)
    assert CharPoly(degree=2, linear_coeff=1, constant_coeff=1) == CharPoly(2, 1, 1)
    assert CountVector(n=1, N_a=1, N_b=0).total == 1
    with pytest.raises(ValueError):
        MetallicParams(0, 1)
    with pytest.raises(ValueError):
        MetallicParams(1.0, 1)
    with pytest.raises(ValueError):
        RenderPlan("pdf")
    with pytest.raises(ValueError):
        CharPoly(0, 1, 1)
    assert isinstance(QuadElement(1, 2, GOLDEN).c1, Fraction)


def test_metallic_params_caches_stay_per_instance():
    a, b = MetallicParams(2, 1), MetallicParams(2, 1)
    assert a.D == 8 and a.gamma_float == b.gamma_float
    assert a == b and hash(a) == hash(b) == hash((2, 1))


SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}


def run_fresh(script: str) -> str:
    result = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def test_star_import_binds_every_public_name():
    out = run_fresh("import metallic\n"
                    "names = {}\n"
                    "exec('from metallic import *', names)\n"
                    "print(sorted(set(metallic.__all__) - set(names)))\n"
                    "print(sorted(set(metallic.__all__) - set(dir(metallic))))\n"
                    "print(callable(names['dimension']), names['Tile'] is metallic.Tile)\n")
    assert out == "[]\n[]\nTrue True\n"


@pytest.mark.parametrize("first", [
    "import metallic.dimension",
    "import metallic.estimate",
    "import metallic.cli",
    "import metallic.fractal",
    "import metallic",
])
def test_dimension_stays_the_function(first):
    out = run_fresh(f"{first}\n"
                    "import metallic, types\n"
                    "from metallic import dimension\n"
                    "print(callable(dimension),\n"
                    "      isinstance(metallic.dimension, types.FunctionType))\n"
                    "print(metallic.dimension.__module__)\n")
    assert out == "True True\nmetallic.dimension\n"


def test_unknown_name_raises_attribute_error():
    out = run_fresh("import metallic\n"
                    "try:\n"
                    "    metallic.no_such_name\n"
                    "except AttributeError as exc:\n"
                    "    print('no_such_name' in str(exc))\n"
                    "try:\n"
                    "    from metallic import no_such_name\n"
                    "except ImportError:\n"
                    "    print('ImportError')\n")
    assert out == "True\nImportError\n"
