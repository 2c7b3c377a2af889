"""The repository benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {cli_small,cli_stream,library_fit} --seed N
                         --seconds S --trace {0,1} [--quick]

Run from the repository root. One client drives the program in a closed loop:
the next job starts only when the previous one has finished, and at most one
child process runs at a time, all on one CPU. Every output is checked against
the exact oracles in oracle.py; oracle time is excluded from every timed metric.
A job whose output is wrong counts as failed, and makes the run incorrect,
unless a defect listed under ROADMAP item B explains the error exactly
(checks.py pins each one); those are tallied as known defects, in the report
and on stderr, and in the report's failed_frac.

--trace 0 times whole jobs with tracing off and prints the end-to-end
metrics. --trace 1 replays the jobs in-process, once untraced and once with
spans around the package's public calls, and prints the per-layer metrics;
the spans are written to bench/out/. --quick shrinks every job to a smoke
size. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with the
environment, the job statistics and every failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"

import checks  # noqa: E402  (bench modules sit next to this file)
import jobs  # noqa: E402
import oracle  # noqa: E402

SETUP_REPS = 7
JOB_TIMEOUT_S = 120
WALL_LIMIT_S = 110  # stop starting cycles after this much wall time, to exit within 180 s
TRACE_CYCLES = {"cli_small": 4, "cli_stream": 1, "library_fit": 1}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("METALLIC_CAP", None)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(child_record: dict, tracing) -> dict:
    return {"git_sha": git_sha(), "src_sha256": source_digest(), **child_record,
            "pinned_cpus": sorted(os.sched_getaffinity(0)), "tracing": tracing}


def spawn(argv, timeout=JOB_TIMEOUT_S):
    """Run one child to exit; returns (wall seconds, exit code, stdout, stderr)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    return perf_counter() - t0, proc.returncode, out.decode("utf-8", "replace"), \
        err.decode("utf-8", "replace")


def output_items(job: dict, text: str) -> int:
    """Rows or drawn segments in a CLI job's output, counted independently of the
    oracle."""
    if job["cmd"] == "render":
        return text.count('class="seg"') + text.count("\\draw") // 3
    if job.get("fmt") == "json":
        return max(0, text.count("\n") - 2)
    return max(0, text.count("\n") - 1)


OK, DEFECT, FAIL = "ok", "known_defect", "failed"


def verify(fn) -> tuple[str, str]:
    try:
        fn()
    except oracle.KnownDefect as exc:
        return DEFECT, str(exc)
    except oracle.Mismatch as exc:
        return FAIL, str(exc)
    return OK, ""


class Record:
    """Per-job outcomes of one run."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.items = 0
        self.outcomes: dict[str, dict] = {FAIL: {}, DEFECT: {}}
        self.attempted = 0
        self.oracle_s = 0.0
        self.by_slot: dict[str, list] = {}
        self.cycle_rates: list[float] = []
        self._cycle = [0, 0.0]  # items and job seconds of the cycle in progress

    def add(self, job, wall, items, status, message) -> None:
        self.attempted += 1
        self.walls.append(wall)
        self.items += items
        self.by_slot.setdefault(job["slot"], []).append((wall, items))
        self._cycle[0] += items
        self._cycle[1] += wall
        if status != OK:
            slot = self.outcomes[status].setdefault(job["slot"], {"count": 0, "examples": {}})
            slot["count"] += 1
            if len(slot["examples"]) < 3:
                slot["examples"].setdefault(jobs.job_key(job), message)

    def end_cycle(self) -> None:
        self.cycle_rates.append(self._cycle[0] / self._cycle[1])
        self._cycle = [0, 0.0]

    def items_per_s(self) -> float:
        """Median over complete cycles of items per job-second; every cycle runs the
        same job mix, and the median keeps a cycle slowed by other load on the
        machine from moving the figure. Falls back to the whole run when no cycle
        completed."""
        if self.cycle_rates:
            return statistics.median(self.cycle_rates)
        return self.items / sum(self.walls)

    def slots(self) -> dict:
        return {slot: {"jobs": len(v), "median_ms": 1000 * statistics.median(w for w, _ in v),
                       "total_s": sum(w for w, _ in v), "items": sum(i for _, i in v)}
                for slot, v in self.by_slot.items()}

    def count(self, status) -> int:
        return sum(f["count"] for f in self.outcomes[status].values())

    @property
    def failed(self) -> int:
        """Jobs that failed or whose output is wrong beyond every known defect."""
        return self.count(FAIL)

    def outcome_report(self) -> dict:
        """failed_frac as the workload rationale defines it: every job that failed
        or printed a wrong value, known defects included."""
        wrong = self.failed + self.count(DEFECT)
        return {"failed_frac": wrong / self.attempted, "failed_jobs": self.failed,
                "known_defect_jobs": self.count(DEFECT), "failures": self.outcomes[FAIL],
                "known_defects": self.outcomes[DEFECT]}


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest nearest-rank percentile with at
    least 10 samples above it; the maximum when there are 10 samples or fewer."""
    ordered = sorted(walls)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n


def setup_samples(workload, seed, quick):
    samples, record = [], None
    argv = [sys.executable, str(BENCH / "worker.py"), "setup", "--workload", workload,
            "--seed", str(seed)] + (["--quick"] if quick else [])
    for _ in range(1 if quick else SETUP_REPS):
        wall, code, out, err = spawn(argv)
        if code != 0:
            raise SystemExit(f"set-up failed (exit {code}): {err.strip()[-2000:]}")
        samples.append(wall)
        record = json.loads(out.strip().splitlines()[-1])
    return samples, record


def run_cli(workload, gen, seconds, started, rec: Record) -> tuple[int, int]:
    """Run CLI jobs through launcher.py; returns (cycles, peak child RSS in KB)."""
    launcher = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=child_env(), cwd=ROOT)
    measured, cycles, peak_kb = 0.0, 0, 0
    try:
        for cycle in gen.cycles():
            for job in cycle:
                argv = [sys.executable, "-m", "metallic.cli", *job["argv"]]
                launcher.stdin.write(json.dumps(argv).encode() + b"\n")
                launcher.stdin.flush()
                line = launcher.stdout.readline()
                if not line:
                    raise SystemExit(f"launcher exited with code {launcher.wait()}")
                head = json.loads(line)
                out = launcher.stdout.read(head["out"]).decode("utf-8", "replace")
                err = launcher.stdout.read(head["err"]).decode("utf-8", "replace")
                wall, code, peak_kb = head["wall_s"], head["code"], head["maxrss_kb"]
                measured += wall
                t0 = perf_counter()
                if code == 0:
                    status, msg = verify(lambda: checks.check_cli(job, out))
                    items = 1 if workload == "cli_small" else output_items(job, out)
                else:
                    status, msg, items = FAIL, f"exit {code}: {err.strip()[-300:]}", 0
                rec.oracle_s += perf_counter() - t0
                rec.add(job, wall, items, status, msg)
                # CLI jobs of one workload take similar times, so the run may end
                # mid-cycle; stopping on a cycle boundary would make the job count
                # jump whenever the cycle time crosses a fraction of the run length
                if measured >= seconds or perf_counter() - started > WALL_LIMIT_S:
                    return cycles + 1, peak_kb
            rec.end_cycle()
            cycles += 1
    finally:
        launcher.stdin.close()
        launcher.wait(timeout=60)
    return cycles, peak_kb


def run_library(workload, seed, quick, gen, seconds, started, rec: Record) -> tuple[int, int]:
    """Run library jobs in one worker process; returns (cycles, its peak RSS in KB)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "serve", "--workload", workload,
            "--seed", str(seed)] + (["--quick"] if quick else [])
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    measured, cycles = 0.0, 0
    try:
        for cycle in gen.cycles():
            for job in cycle:
                proc.stdin.write(json.dumps(job) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                if not line:
                    raise SystemExit(f"library worker exited with code {proc.wait()}")
                answer = json.loads(line)
                wall, result = answer["wall_s"], answer["result"]
                measured += wall
                t0 = perf_counter()
                if "error" in result:
                    status, msg, items = FAIL, result["error"], 0
                else:
                    status, msg = verify(lambda: checks.check_lib(job, result))
                    items = lib_items(job, result)
                rec.oracle_s += perf_counter() - t0
                rec.add(job, wall, items, status, msg)
            rec.end_cycle()
            cycles += 1
            if measured >= seconds or perf_counter() - started > WALL_LIMIT_S:
                break
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)
    return cycles, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def lib_items(job, result) -> int:
    if job["call"] == "box":
        return oracle.box_intervals(checks._spec(checks._key(job["spec"])), job["k_max"])
    if job["call"] == "prefix":
        return len(result["starts"])
    return 0


def end_to_end(args) -> tuple[dict, dict, Record]:
    started = perf_counter()
    samples, child_record = setup_samples(args.workload, args.seed, args.quick)
    gen = jobs.Generator(args.workload, args.seed, args.quick)
    rec = Record()
    if args.workload == "library_fit":
        cycles, peak_kb = run_library(args.workload, args.seed, args.quick, gen, args.seconds,
                                      started, rec)
    else:
        cycles, peak_kb = run_cli(args.workload, gen, args.seconds, started, rec)
    tail_ms, tail_pct, n = tail(rec.walls)
    metrics = {
        "setup_s": statistics.median(samples),
        "items_per_s": rec.items_per_s(),
        "job_p50_ms": 1000 * statistics.median(rec.walls),
        "job_tail_ms": 1000 * tail_ms,
        "peak_rss_mb": peak_kb / 1024,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "rationale": jobs.WORKLOADS[args.workload],
        "environment": environment(child_record, "off (end-to-end run)"),
        "cycles": cycles, "jobs": rec.attempted, "items": rec.items,
        "measured_s": sum(rec.walls), "oracle_s": rec.oracle_s,
        "wall_s": perf_counter() - started, "setup_samples_s": samples,
        "job_tail": {"percentile": tail_pct, "samples": n},
        "cycle_items_per_s": rec.cycle_rates,
        "slots": rec.slots(),
        **rec.outcome_report(),
    }
    return report, metrics, rec


# --- traced run --------------------------------------------------------------------

def clear_caches() -> None:
    import metallic.fractal
    import metallic.quadfield

    metallic.quadfield.gamma_pow.cache_clear()
    metallic.fractal._survivor_pattern.cache_clear()


def replay(job) -> tuple[int, object]:
    """Run one job in-process: (exit code, stdout text) for a CLI job, (0, result)
    for a library job."""
    import worker

    if "argv" not in job:
        return 0, worker.run_lib_job(job)
    import metallic.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = metallic.cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse exits on a bad argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def import_times(reps: int) -> dict:
    """Cumulative import seconds of metallic.cli, numpy and mpmath (python -X importtime)."""
    found: dict[str, list[float]] = {"metallic.cli": [], "numpy": [], "mpmath": []}
    for _ in range(reps):
        _, code, _, err = spawn([sys.executable, "-X", "importtime", "-c", "import metallic.cli"])
        if code != 0:
            raise SystemExit("python -X importtime failed")
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def probes(quick: bool) -> dict:
    """The ROADMAP re-anchor baselines, measured the same way each run."""
    import metallic

    def cold(argv, reps):
        return statistics.median(spawn([sys.executable, *argv])[0] for _ in range(reps))

    reps = 1 if quick else 3
    out = {"probe.import_metallic_s": cold(["-c", "import metallic"], reps),
           "probe.dim_cold_s": cold(["-m", "metallic.cli", "dim", "--p", "1", "--q", "1",
                                     "--n", "4", "--remove-long", "1", "--remove-short", "1"],
                                    reps)}
    clear_caches()
    t0 = perf_counter()
    metallic.tiling_at_step(metallic.MetallicParams(3, 3), 5 if quick else 10)
    out["probe.tiling_at_step_3_3_10_s"] = perf_counter() - t0
    golden = metallic.FractalSpec(metallic.MetallicParams(1, 1), 4, 1, 1)
    t0 = perf_counter()
    metallic.box_dimension(golden, 4 if quick else 8)
    out["probe.box_dimension_golden_8_s"] = perf_counter() - t0
    out["probe.cover_depth8_s"] = cold(
        ["-m", "metallic.cli", "cover", "--p", "1", "--q", "1", "--n", "4", "--remove-long", "1",
         "--remove-short", "1", "--depth", "3" if quick else "8"], 1)
    return out


def traced(args) -> tuple[dict, dict, Record]:
    sys.path.insert(0, str(SRC))
    import spans
    import worker

    started = perf_counter()
    tracer = spans.Tracer()
    gen = jobs.Generator(args.workload, args.seed, args.quick)
    rec = Record()
    untraced_s = traced_s = 0.0
    stream_jobs: set[int] = set()
    rows = 0
    job_id = 0
    for cycle, _ in zip(gen.cycles(), range(1 if args.quick else TRACE_CYCLES[args.workload])):
        for job in cycle:
            root = "cli.main" if "argv" in job else "job." + job["call"]
            clear_caches()
            t0 = perf_counter()
            plain = replay(job)
            untraced_s += perf_counter() - t0
            clear_caches()
            tracer.job_id = job_id
            tracer.install()
            t0 = perf_counter()
            i = tracer.open(tracer.name_id(root))
            try:
                code, output = replay(job)
            finally:
                tracer.close(i)
                traced_s += perf_counter() - t0
                tracer.uninstall()
            if "argv" in job:
                status, msg = (FAIL, f"exit {code}") if code != 0 else \
                    verify(lambda: checks.check_cli(job, output))
                if job["cmd"] in ("tiling", "cover"):
                    stream_jobs.add(job_id)
                    rows += output_items(job, output)
            else:
                status, msg = verify(lambda: checks.check_lib(job, output))
            if status != FAIL and plain[1] != output:
                status, msg = FAIL, "untraced and traced outputs differ"
            rec.add(job, 0.0, 0, status, msg)
            job_id += 1

    totals = tracer.totals()
    own = tracer.self_times()
    layer_self = {layer: 0.0 for layer in (*spans.LAYERS, "job")}
    cli_stream_self = 0.0
    for i, nid in enumerate(tracer.name):
        layer = tracer.names[nid].split(".")[0]
        if layer in layer_self:
            layer_self[layer] += own[i]
        if layer == "cli" and tracer.job[i] in stream_jobs:
            cli_stream_self += own[i]

    def tot(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    c = tracer.counts
    exact = computed = box_intervals = 0
    for spec, k_max, counts in tracer.box_results:
        key = (spec.params.p, spec.params.q, spec.n, spec.l, spec.s, spec.policy,
               tuple(spec.indices or ()))
        good, _, visited, _ = checks._box(key, k_max)
        exact += sum(a == b for a, b in zip(counts, good))
        computed += len(counts)
        box_intervals += visited
    imports = import_times(1 if args.quick else 3)
    metrics = {
        "quadfield.to_mpf_calls": tot("quadfield.to_mpf", "calls"),
        "quadfield.to_mpf_us": ratio(tot("quadfield.to_mpf", "total_s"),
                                     tot("quadfield.to_mpf", "calls"), 1e6),
        "quadfield.self_s": layer_self["quadfield"],
        "substitution.letters": c["substitution.letters"],
        "substitution.self_s": layer_self["substitution"],
        "tiling.tiles": c["tiling.tiles"],
        "tiling.us_per_tile": ratio(layer_self["tiling"], c["tiling.tiles"], 1e6),
        "tiling.self_s": layer_self["tiling"],
        "fractal.intervals_streamed": c["fractal.intervals_streamed"],
        "fractal.us_per_interval": ratio(tot("fractal.iter_cover_intervals", "self_s"),
                                         c["fractal.intervals_streamed"], 1e6),
        "fractal.intervals_materialized": c["fractal.intervals_materialized"],
        "fractal.built_per_kept": ratio(c["fractal.intervals_built"],
                                        c["fractal.intervals_materialized"]),
        "fractal.self_s": layer_self["fractal"],
        "dimension.calls": tot("dimension.dimension", "calls"),
        "dimension.us_per_call": ratio(tot("dimension.dimension", "self_s"),
                                       tot("dimension.dimension", "calls"), 1e6),
        "dimension.self_s": layer_self["dimension"],
        "estimate.box_intervals": box_intervals,
        "estimate.us_per_box_interval": ratio(tot("estimate.box_dimension", "self_s"),
                                              box_intervals, 1e6),
        "estimate.self_s": layer_self["estimate"],
        "estimate.sum_self_s": tot("estimate.empirical_dimension", "self_s"),
        "estimate.box_counts_exact_frac": ratio(exact, computed),
        "render.segments": c["render.segments"],
        "render.bytes": c["render.bytes"],
        "render.self_s": layer_self["render"],
        "cli.self_s": layer_self["cli"],
        "cli.us_per_row": ratio(cli_stream_self, rows, 1e6),
        "cli.import_s": imports["metallic.cli"],
        "cli.import_numpy_s": imports["numpy"],
        "cli.import_mpmath_s": imports["mpmath"],
        "trace.overhead_frac": traced_s / untraced_s - 1,
        "trace.untraced_wall_s": untraced_s,
        "trace.self_sum_s": sum(own),
        **probes(args.quick),
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "rationale": jobs.WORKLOADS[args.workload],
        "environment": environment(worker.environment(),
                                   {"overhead_frac": metrics["trace.overhead_frac"]}),
        "jobs": rec.attempted, "spans": len(tracer.t0),
        "spans_file": spans_path.relative_to(ROOT).as_posix(),
        "layer_self_s": layer_self,
        "self_sum_vs_untraced": sum(own) / untraced_s - 1,
        "span_totals": totals,
        "box_counts_checked": {"exact": exact, "computed": computed},
        **rec.outcome_report(),
        "wall_s": perf_counter() - started,
    }
    return report, metrics, rec


def load_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    ap = argparse.ArgumentParser(description="metallic-fractals benchmark (one run)")
    ap.add_argument("--workload", choices=sorted(jobs.CYCLES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny jobs, for the smoke test")
    args = ap.parse_args()
    # One client, one job at a time: keep it and every child on one CPU, so that
    # a run is not timed partly on each of two CPUs that run at different speeds
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "metallic" / "cli.py").is_file():
        print(f"error: no package source under {SRC.relative_to(ROOT)}/metallic; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.trace:
        report, values, rec = traced(args)
        units = load_units("per_layer")
    else:
        report, values, rec = end_to_end(args)
        units = load_units("end_to_end")
    missing = set(units) ^ set(values)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}", file=sys.stderr)
        return 1
    if rec.count(DEFECT):
        print(f"known defects (ROADMAP item B): {rec.count(DEFECT)} of {rec.attempted} jobs "
              f"printed wrong values, in slots {sorted(rec.outcomes[DEFECT])}; failed_frac "
              f"{report['failed_frac']:.4f}", file=sys.stderr)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
