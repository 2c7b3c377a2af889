"""Spawns the benchmark's CLI jobs from a process that stays small.

On Linux a child's peak RSS (ru_maxrss) includes the resident size of the
process that spawned it, so CLI jobs are not spawned by the benchmark
itself, whose oracle caches grow during a run. This process reads one JSON
argv per line on stdin, runs it to exit with stdout and stderr piped, and
answers with one JSON header line {"wall_s", "code", "out", "err", "maxrss_kb"}
(out and err are byte counts) followed by the raw stdout and stderr bytes.
wall_s runs from spawn to exit and includes reading the output pipes.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from time import perf_counter

TIMEOUT_S = 120


def main() -> None:
    answer = sys.stdout.buffer
    for line in sys.stdin:
        argv = json.loads(line)
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        wall = perf_counter() - t0
        header = {"wall_s": wall, "code": proc.returncode, "out": len(out), "err": len(err),
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        answer.write(json.dumps(header).encode() + b"\n" + out + err)
        answer.flush()


if __name__ == "__main__":
    main()
