"""Run one benchmark workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends the workload's fixed query list in process, one query at
a time, each after the previous one returned.  A run imports the library
from ``src/`` of the checkout and sets up, times several more set-ups, each
in a fresh interpreter (the median is ``setup_s``), makes one untimed
warm-up pass whose answers are checked, then makes timed passes.  The
number of timed passes is ``--seconds`` divided by the workload's nominal
pass time, so both sides of a comparison run the same passes.  With
``--trace 1`` half of the passes are traced and the per-layer metrics are
printed instead of the end-to-end ones.  The last line of stdout is one
JSON object with the result.

Every time is taken on the wall clock and as the process's CPU time.  The
end-to-end times in the result are CPU times scaled to the reference
machine's speed by the calibration kernel timed around and inside every
pass (see ``calibrate.py``): on a shared virtual machine the wall clock also counts
the time other tenants hold the host CPU, and both clocks follow the
host's load, which swung the same code by up to 2x within minutes.  The
raw wall-clock and CPU figures are printed alongside.

Exit codes: 0 with a result, 2 when the library cannot be imported from
this checkout or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import KNOWN_DEFECTS, UNDECIDED, WORKLOADS, is_decided, status_of  # noqa: E402

SETUP_REPEATS = 7
# CPU seconds one timed pass takes on the reference machine (2 vCPU,
# Python 3.11); fixes the number of timed passes for a given --seconds.
NOMINAL_PASS_S = {"enumerate-dense": 1.5, "search-exact": 2.9,
                  "construct-solve": 7.5, "absorb-regularity": 3.8}
# the layers, plus the oracles the checks use
MODULES = ("graphs", "incompat", "coloring", "solver", "construct", "lattice",
           "absorb", "regularity", "cli", "oracles")

END_TO_END = {"setup_s": "s", "pass_s": "s", "query_ms_p50": "ms", "query_ms_tail": "ms",
              "decided_ratio": "ratio", "peak_rss_mb": "MB"}
RAW = {"wall_s": "s", "cpu_s": "s", "wall_query_ms_p50": "ms", "wall_query_ms_tail": "ms",
       "speed_factor": "ratio"}


class LibraryMissing(Exception):
    pass


def import_library():
    """Import ``comptile`` afresh from this checkout's ``src/``."""
    if not (SRC / "comptile" / "__init__.py").is_file():
        raise LibraryMissing(f"no comptile package under {SRC}")
    for name in [m for m in sys.modules if m == "comptile" or m.startswith("comptile.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("comptile")
    if Path(pkg.__file__).resolve().parent != (SRC / "comptile").resolve():
        raise LibraryMissing(f"comptile imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"comptile.{name}") for name in MODULES}
    return SimpleNamespace(**mods)


def cold_setup(name: str, seed: int, scale: str, workdir: str) -> dict:
    """One set-up timed in a fresh interpreter (see ``setup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), scale,
         tempfile.mkdtemp(prefix="setup-", dir=workdir)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------------------
# running and judging queries


def run_query(query, keep: bool = False):
    """Time one call; returns (wall s, CPU s, result or None, answer).

    Results are kept only when asked (for the checks): holding every
    pass's results would grow the heap, and the collector's work, pass
    after pass.
    """
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = query.run()
    except Exception as exc:  # a failing query is a measured outcome, not a crash
        result, answer = None, f"error:{type(exc).__name__}"
    else:
        answer = None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if answer is None:
        answer = query.answer(result)
    return wall, cpu, result if keep else None, answer


def run_pass(queries, keep: bool = False, tracer=None):
    """One pass over the query list; returns (wall s, CPU s, rows, scaled s).

    Rows are (wall s, CPU s, result, answer, scaled s).  The calibration
    kernel runs before the pass, after it, and between queries whenever
    ``calibrate.INTERVAL_S`` of query CPU time went by; each query's CPU
    time is scaled by the samples taken just before and just after it.
    The pass times are sums over the queries, so they leave the
    calibration out.
    """
    gc.collect()
    marks = [[calibrate.sample() for _ in range(calibrate.SAMPLES)]]
    mark_of = []        # index of the calibration mark taken before each query
    rows = []
    since = 0.0
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        mark_of.append(len(marks) - 1)
        rows.append(run_query(q, keep))
        since += rows[-1][1]
        if since >= calibrate.INTERVAL_S and i + 1 < len(queries):
            marks.append([calibrate.sample()])
            since = 0.0
    marks.append([calibrate.sample() for _ in range(calibrate.SAMPLES)])
    scaled_rows = [row + (row[1] * calibrate.scale(marks[m] + marks[m + 1]),)
                   for row, m in zip(rows, mark_of)]
    return (sum(r[0] for r in rows), sum(r[1] for r in rows), scaled_rows,
            sum(r[4] for r in scaled_rows))


def load_golden(path: Path, workload: str, seed: int):
    """{query id: golden answer} for this seed, or None when none was recorded."""
    if not path.is_file():
        return None
    with open(path, encoding="ascii") as fh:
        entry = json.load(fh).get(workload)
    if entry is None:
        return None
    answers = entry["answers"].get(str(seed), entry["answers"].get("any"))
    return None if answers is None else dict(zip(entry["ids"], answers))


def golden_problem(golden: str, answer: str):
    """Why ``answer`` contradicts ``golden``, or None.

    A decided answer must equal a decided golden answer.  An undecided
    golden answer (indeterminate, error, ...) accepts any answer that
    passed the reference checks, and an answer that is no longer decided
    is not a contradiction: decided_ratio shows it.
    """
    if answer == golden or status_of(golden) in UNDECIDED or status_of(answer) in UNDECIDED:
        return None
    return f"answer {answer!r}, golden {golden!r}"


def judge_warmup(queries, rows, golden):
    """Problems per query id, from the golden answers and the reference checks."""
    problems = {}
    for q, (_, _, result, answer, _) in zip(queries, rows):
        found = []
        if golden is not None:
            if q.qid not in golden:
                found.append("no golden answer recorded for this query")
            else:
                why = golden_problem(golden[q.qid], answer)
                if why:
                    found.append(why)
        if result is not None and q.check is not None:
            found += q.check(result)
        if found:
            problems[q.qid] = found
    return problems


def tally(queries, passes, reference, problems):
    """Counts over the timed passes; every pass must repeat the warm-up answers."""
    attempted = failed = tri = decided = 0
    unexpected = []
    wrong = dict(problems)
    for _, _, rows, _ in passes:
        for q, (_, _, _, answer, _), ref in zip(queries, rows, reference):
            attempted += 1
            if answer != ref:
                wrong.setdefault(q.qid, []).append(f"answer {answer!r} differs from "
                                                   f"warm-up answer {ref!r}")
            err = answer.startswith("error:")
            if err or q.qid in wrong:
                failed += 1
            if err and KNOWN_DEFECTS.get(q.qid, ("",))[0] != answer[len("error:"):]:
                unexpected.append(q.qid)
            if q.tri_state:
                tri += 1
                decided += is_decided(answer)
    return SimpleNamespace(attempted=attempted, failed=failed, tri=tri, decided=decided,
                           wrong=wrong, unexpected=sorted(set(unexpected)))


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - 10)
    return ordered[rank - 1], 100.0 * rank / n


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the self-checks")
    ap.add_argument("--golden", default=None,
                    help="golden answers file (default perfbench/golden.json)")
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return _run(args, workdir)
    except LibraryMissing as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir) -> int:
    name, seed = args.workload, args.seed
    lib = import_library()
    queries = workloads.make_queries(
        name, workloads.make_inputs(name, seed, lib, args.scale, workdir), lib)
    setups = [cold_setup(name, seed, args.scale, workdir) for _ in range(SETUP_REPEATS)]

    _, _, warm, _ = run_pass(queries, keep=True)
    golden_path = args.golden or (None if args.scale == "tiny" else BENCH / "golden.json")
    golden = None if golden_path is None else load_golden(Path(golden_path), name, seed)
    c0 = time.process_time()
    problems = judge_warmup(queries, warm, golden)
    check_cpu = time.process_time() - c0
    reference = [row[3] for row in warm]
    del warm

    total = passes_for(name, args.seconds)
    untraced_n = max(1, total // 2) if args.trace else total
    untraced = [run_pass(queries) for _ in range(untraced_n)]
    timed = list(untraced)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        origin = tracing.CLOCK()
        for _ in range(max(1, total - untraced_n)):
            tracer.install()
            try:
                timed.append(run_pass(queries, tracer=tracer))
            finally:
                tracer.uninstall()
                tracer.query = None
        tracer.write(str(OUT / f"spans-{name}-seed{seed}.jsonl"), origin)

    counts = tally(queries, timed, reference, problems)
    correct = not counts.wrong and not counts.unexpected
    scaled_ms = [1000 * row[4] for _, _, rows, _ in untraced for row in rows]
    wall_ms = [1000 * row[0] for _, _, rows, _ in untraced for row in rows]
    scaled_tail, tail_pct = tail(scaled_ms)
    wall_tail, _ = tail(wall_ms)

    print(f"workload {name}  seed {seed}  queries/pass {len(queries)}  "
          f"timed passes {len(timed)} (+1 warm-up)"
          + (f", {len(timed) - untraced_n} traced" if args.trace else ""))
    if golden is None:
        print("golden: none recorded for this seed; reference checks only")
    else:
        print(f"golden: {len(golden)} answers recorded for this seed")
    print(f"checks: {check_cpu:.2f} CPU s, outside the timed passes")
    for qid, why in sorted(counts.wrong.items()):
        print(f"WRONG {qid}: {'; '.join(why)}")
    for qid in counts.unexpected:
        print(f"UNEXPECTED EXCEPTION {qid}")
    for qid, (exc, why) in sorted(KNOWN_DEFECTS.items()):
        if any(q.qid == qid for q in queries):
            print(f"known defect {qid}: {exc} expected, {why}")

    values = {
        "setup_s": statistics.median(st["cpu_s"] * st["factor"] for st in setups),
        "pass_s": statistics.median(scaled for _, _, _, scaled in untraced),
        "query_ms_p50": statistics.median(scaled_ms),
        "query_ms_tail": scaled_tail,
        "decided_ratio": counts.decided / counts.tri if counts.tri else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wall_s": statistics.median(w for w, _, _, _ in untraced),
        "cpu_s": statistics.median(c for _, c, _, _ in untraced),
        "wall_query_ms_p50": statistics.median(wall_ms),
        "wall_query_ms_tail": wall_tail,
        "speed_factor": statistics.median(scaled / cpu for _, cpu, _, scaled in untraced),
    }
    tail_note = f"(p{tail_pct:.1f} of {len(scaled_ms)} samples)"
    scaled = "reference-speed CPU"
    setup_wall = statistics.median(st["wall_s"] for st in setups)
    notes = {"setup_s": f"({scaled}; median of {SETUP_REPEATS} set-ups in fresh "
                        f"interpreters; raw wall {setup_wall:.4f} s)",
             "pass_s": f"({scaled}; median of {untraced_n} untraced passes)",
             "query_ms_p50": f"({scaled})",
             "query_ms_tail": f"({scaled}; {tail_note[1:]}",
             "wall_s": "(raw wall clock)", "cpu_s": "(raw CPU)",
             "wall_query_ms_tail": tail_note,
             "speed_factor": "(pass_s / cpu_s: reference kernel time / kernel time now)",
             "decided_ratio": f"({counts.decided} of {counts.tri} tri-state answers)"}
    for key, unit in {**END_TO_END, **RAW}.items():
        print(f"{key:<18} {values[key]:>14.6f} {unit:<6} {notes.get(key, '')}")
    print(f"{'failed_ratio':<18} {counts.failed / counts.attempted:>14.6f} {'ratio':<6} "
          f"({counts.failed} of {counts.attempted} queries)")

    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(timed) - untraced_n)
        metrics["trace.overhead_ratio"] = (
            statistics.median(scaled for _, _, _, scaled in timed[untraced_n:])
            / values["pass_s"])
        for key, (unit, _) in tracing.PER_LAYER.items():
            print(f"{key:<30} {metrics[key]:>16.4f} {unit}")
        out = {k: {"value": metrics[k], "unit": u} for k, (u, _) in tracing.PER_LAYER.items()}
    else:
        out = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": counts.attempted,
                      "failed": counts.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
