"""Record the golden answers of every workload for a range of seeds.

    python3 perfbench/record_golden.py [--seeds N] [--out FILE]

Runs one pass per (workload, seed), applies the reference checks, and
writes ``{workload: {"ids": [...], "answers": {seed: [...]}}}`` with the
answers in the order of the sorted query ids.  construct-solve's answers
do not depend on the seed (it only orders the specs), so they are stored
once under "any".  Re-record only when a change is meant to alter answers,
and say why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED_INDEPENDENT = {"construct-solve"}


def record(name: str, seed: int, scale: str) -> dict:
    workdir = tempfile.mkdtemp(prefix="golden-", dir=run.OUT)
    try:
        lib = run.import_library()
        queries = workloads.make_queries(
            name, workloads.make_inputs(name, seed, lib, scale, workdir), lib)
        _, _, rows, _ = run.run_pass(queries, keep=True)
        problems = run.judge_warmup(queries, rows, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for qid, why in problems.items():
        sys.stderr.write(f"{name} seed {seed} {qid}: {'; '.join(why)}\n")
    if problems:
        raise SystemExit(f"{name} seed {seed}: answers fail the reference checks")
    return {q.qid: row[3] for q, row in zip(queries, rows)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", default=str(run.BENCH / "golden.json"))
    args = ap.parse_args(argv)
    run.OUT.mkdir(exist_ok=True)
    golden = {}
    for name in workloads.WORKLOADS:
        seeds = [0] if name in SEED_INDEPENDENT else range(args.seeds)
        per_seed = {seed: record(name, seed, args.scale) for seed in seeds}
        ids = sorted(per_seed[seeds[0]])
        golden[name] = {"ids": ids, "answers": {
            ("any" if name in SEED_INDEPENDENT else str(seed)): [answers[q] for q in ids]
            for seed, answers in per_seed.items()}}
        print(f"{name}: {len(ids)} queries x {len(per_seed)} seeds")
    Path(args.out).write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
