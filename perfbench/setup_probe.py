"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED SCALE WORKDIR

``run.py`` starts this once per set-up repeat.  It imports ``comptile``
and ``comptile.cli`` and makes the workload's inputs and queries from the
seed, then prints one JSON line: the set-up's CPU and wall seconds and the
calibration factor (``calibrate.py``) from kernel runs just before and
just after it.  In a fresh
interpreter the set-up pays every import, the library's third-party ones
(numpy) included, as a user's first command does.

CPU time here is the main thread's: importing numpy starts BLAS worker
threads that spin for about as long as the import takes, which would
double the process's CPU time without delaying the set-up.
"""

from __future__ import annotations

import json
import sys
import time

import calibrate
import run
import workloads


def main(argv) -> int:
    name, seed, scale, workdir = argv
    marks = [calibrate.sample(time.thread_time) for _ in range(calibrate.SAMPLES)]
    w0, c0 = time.perf_counter(), time.thread_time()
    lib = run.import_library()
    workloads.make_queries(name, workloads.make_inputs(name, int(seed), lib, scale, workdir),
                           lib)
    cpu, wall = time.thread_time() - c0, time.perf_counter() - w0
    marks += [calibrate.sample(time.thread_time) for _ in range(calibrate.SAMPLES)]
    factor = calibrate.scale(marks)
    print(json.dumps({"cpu_s": cpu, "wall_s": wall, "factor": factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
