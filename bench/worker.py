"""The workload process: set-up probe and in-process library job server.

    python bench/worker.py setup --workload W --seed N [--quick]
        imports what workload W imports, generates its jobs from the seed and
        warms up, then prints one JSON environment record and exits. The
        benchmark times this process from spawn to exit as one set-up sample.

    python bench/worker.py serve --workload library_fit --seed N [--quick]
        the same set-up, then reads one job per line on stdin, runs it and
        answers one JSON line {"wall_s", "result"} per job until stdin closes.

The package must be importable, e.g. with PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import sys
from itertools import islice
from time import perf_counter

import jobs


def make_spec(spec):
    from metallic.fractal import FractalSpec
    from metallic.quadfield import MetallicParams

    p, q, n, l, s, policy, indices = spec
    return FractalSpec(MetallicParams(p, q), n, l, s, policy=policy,
                       indices=tuple(indices) if policy == "explicit" else None)


def run_lib_job(job: dict) -> dict:
    """One library call. Calls go through the defining modules' attributes so
    that the tracer's wrappers, when installed, see them."""
    dimension = importlib.import_module("metallic.dimension")
    estimate = importlib.import_module("metallic.estimate")
    fractal = importlib.import_module("metallic.fractal")

    spec = make_spec(job["spec"])
    call = job["call"]
    if call == "dimension":
        report = dimension.dimension(spec)
        return {"root": report.root, "dim": report.dim}
    if call == "empirical":
        return {"value": estimate.empirical_dimension(fractal.cover_summary(spec, job["depth"]))}
    if call == "box":
        fit = estimate.box_dimension(spec, job["k_max"])
        return {"counts": list(fit.box_counts), "slope": fit.slope}
    stream = islice(fractal.iter_cover_intervals(spec, job["depth"]), job["count"])
    return {"starts": [float(iv.start.to_mpf()) for iv in stream]}


def environment() -> dict:
    import mpmath

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": version("numpy"),
    }


def setup(workload: str, seed: int, quick: bool) -> list[dict]:
    """Import, generate the first cycle of jobs and warm up on it."""
    if workload == "library_fit":
        import metallic  # noqa: F401  (the import is the cost being measured)

        cycle = jobs.Generator(workload, seed, quick).first
        for job in cycle:
            make_spec(job["spec"]).survivor_counts
    else:
        import metallic.cli

        cycle = jobs.Generator(workload, seed, quick).first
        parser = metallic.cli.build_parser()
        for job in cycle:
            parser.parse_args(job["argv"])
    return cycle


def serve() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        t0 = perf_counter()
        try:
            result = run_lib_job(job)
        except Exception as exc:  # report the failure and keep serving the client
            result = {"error": repr(exc)}
        wall = perf_counter() - t0
        sys.stdout.write(json.dumps({"wall_s": wall, "result": result}) + "\n")
        sys.stdout.flush()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "serve"))
    ap.add_argument("--workload", choices=sorted(jobs.CYCLES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    setup(args.workload, args.seed, args.quick)
    if args.mode == "setup":
        print(json.dumps(environment()))
    else:
        serve()


if __name__ == "__main__":
    main()
