"""Smoke test of the benchmark: every workload at a tiny size, both run kinds.

    python -m pytest bench/test_smoke.py -q

Checks that each run exits 0 and prints every metric of BENCHMARK.json with
its unit, and that the oracles reproduce known exact values.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for value in last["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "cli_small", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_oracle_known_values():
    silver = oracle.Spec(2, 1, 2, 1, 0)
    assert oracle.box_counts(silver, 5) == [13, 37, 100, 265]
    readme = oracle.Spec(1, 1, 3, 0, 1)
    starts = [oracle.field(1, 1).to_double(u, v, 1) for u, v, _, _ in
              (x for _, x in zip(range(2), readme.walk(40)))]
    assert starts[0] == 0.0 and f"{starts[1]:.10e}" == "3.0901276514e-17"
    assert oracle.faithful_dim(1, 1, oracle.Spec(1, 1, 4, 1, 1).poly(), 0.6922854797939778)
    assert oracle.field(1, 1).to_double(0, 1, 1) == 1.618033988749895


SILVER = (2, 1, 2, 1, 0, "keep-first", ())


def test_item_b_box_counts_are_a_known_defect_and_nothing_else():
    counts, slope, _, hits = checks._box(SILVER, 5)
    assert all(h >= 1 for h in hits)
    wrong = [14, 38, 101, 266]  # what the package printed when this was written
    with pytest.raises(oracle.KnownDefect):
        checks.check_box(SILVER, 5, wrong, oracle.box_slope(oracle.Spec(2, 1, 2, 1, 0), wrong))
    too_far = [c + h + 1 for c, h in zip(counts, hits)]
    with pytest.raises(oracle.Mismatch) as info:
        checks.check_box(SILVER, 5, too_far, slope)
    assert not isinstance(info.value, oracle.KnownDefect)
    with pytest.raises(oracle.Mismatch) as info:  # right counts, wrong fit
        checks.check_box(SILVER, 5, wrong, slope)
    assert not isinstance(info.value, oracle.KnownDefect)
    checks.check_box(SILVER, 5, counts, slope)


def test_item_b_deep_starts_are_a_known_defect_and_nothing_else():
    job = {"call": "prefix", "spec": (1, 1, 3, 0, 1, "keep-first", ()), "depth": 40, "count": 2}
    with pytest.raises(oracle.KnownDefect):
        checks.check_lib(job, {"starts": [0.0, 3.0901276483e-17]})
    with pytest.raises(oracle.Mismatch) as info:
        checks.check_lib(job, {"starts": [0.0, 1e-9]})
    assert not isinstance(info.value, oracle.KnownDefect)
    checks.check_lib(job, {"starts": [0.0, 3.0901276514032304e-17]})
