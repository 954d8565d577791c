"""Machine-speed calibration for the timed metrics.

On a shared virtual machine the host's load changes how fast the same
Python code runs, by up to 2x within minutes, and process CPU time follows
it (caches, memory and sibling hyper-threads are shared).  The benchmark
therefore times a fixed pure-Python kernel around and inside every pass
and reports CPU times scaled to the speed this kernel measured on the
reference machine when it was quiet:

    scaled time = CPU time * REFERENCE_S / (kernel CPU time now)

The kernel is the benchmark's own brute-force clique and bad-pair counter
(``checks.py``) on a fixed input, so it does the same kind of work as the
library (small tuples, set look-ups, bit tests) without running any
library code: a change to the library cannot change the yardstick.
"""

from __future__ import annotations

import random
import statistics
import time
from types import SimpleNamespace

import checks

# kernel CPU seconds on the reference machine (2 vCPU, Python 3.11), quiet
REFERENCE_S = 0.020
SAMPLES = 3          # kernel runs before and after a pass
INTERVAL_S = 0.25    # query CPU seconds between two samples inside a pass


def _kernel_input():
    rng = random.Random(7)
    n = 24
    host = SimpleNamespace(n=n, adj=[((1 << n) - 1) & ~(1 << v) for v in range(n)])
    triples = {(v, a, b) for v in range(n) for a in range(n) for b in range(a + 1, n)
               if v not in (a, b) and rng.random() < 0.05}
    return host, triples


_HOST, _TRIPLES = _kernel_input()


def kernel() -> int:
    return (checks.ref_clique_count(3, _HOST, _TRIPLES)
            + sum(checks.ref_bad_pairs(_HOST, _TRIPLES, v) for v in range(_HOST.n)))


def sample(clock=time.process_time) -> float:
    """CPU seconds of one kernel run."""
    c0 = clock()
    kernel()
    return clock() - c0


def scale(samples) -> float:
    """Factor that turns CPU seconds measured now into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
