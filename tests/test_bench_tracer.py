"""The bench harness's tracer still installs on the package.

bench/spans.py traces by rebinding public names in the modules that call
them, so a module that stops binding a traced name breaks every traced bench
run; this catches it in the test suite instead.
"""

import importlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import metallic.cli as cli
import metallic.render as render

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    before = {module: dict(vars(module)) for module in (cli, render)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.tiling_at_step is not before[cli]["tiling_at_step"]
        with redirect_stdout(io.StringIO()):
            assert cli.main(["tiling", "--n", "4", "--format", "csv"]) == 0
            assert cli.main(["cover", "--n", "3", "--remove-short", "1", "--depth", "3"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["tiling.tiles"] == 5
    assert tracer.counts["fractal.intervals_streamed"] == 8
    for module, names in before.items():
        assert all(vars(module)[name] is value for name, value in names.items())
