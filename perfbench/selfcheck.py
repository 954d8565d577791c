"""Self-checks for the benchmark, on tiny inputs.

    python3 perfbench/selfcheck.py

1. Every workload runs at tiny size, untraced and traced, and prints every
   metric named in BENCHMARK.json with its unit, in the human-readable
   lines and in the final JSON line.
2. A tampered golden answer is reported as a wrong answer.
3. A factor claimed on a construct-solve instance that has none fails the
   construct and solve checks.
4. Without ``src/`` (only BENCHMARK.json and the benchmark directory) the
   benchmark exits non-zero and prints no result.

Scratch files go under perfbench/out/ and are removed afterwards.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("enumerate-dense", "search-exact", "construct-solve", "absorb-regularity")


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(result, text, specs, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in specs}:
        raise AssertionError(f"{label}: metrics {sorted(result['metrics'])}")
    for m in specs:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{label}: {m['name']} printed as {got}")
        if not any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in text):
            raise AssertionError(f"{label}: no report line for {m['name']} [{m['unit']}]")


def check_false_factor_claims(scratch):
    """The construct-solve checks must catch a claimed factor that cannot exist.

    The K_3 instance at n = 24 has part sizes 9, 8, 7 and only transversal
    compatible triangles, so neither its base nor its host has a K_3-factor.
    """
    lib = run.import_library()
    inputs = workloads.make_inputs("construct-solve", 0, lib, "tiny", str(scratch))
    queries = {q.qid: q for q in workloads.make_queries("construct-solve", inputs, lib)}
    construct, solve = queries["construct-K3-n24-komlos"], queries["solve-K3-n24-komlos"]
    code, out, err = construct.run()
    problems = construct.check((code, out, err))
    if problems:
        raise AssertionError(f"untampered construct fails its check: {problems}")
    claimed = json.loads(out)
    claimed["construct"]["base_report"]["factor_status"] = "factor_exists"
    if not construct.check((code, json.dumps(claimed), err)):
        raise AssertionError("a factor_exists base status on unequal sizes passed the check")
    tiling = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(8)]
    fake = json.dumps({"status": "found", "tiling": tiling, "copies_considered": 504})
    if not solve.check((0, fake, "")):
        raise AssertionError("a found K_3-factor on the obstructed host passed the check")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from the benchmark's")
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=OUT))
    try:
        golden = scratch / "golden-tiny.json"
        proc = bench("--seeds", "1", "--scale", "tiny", "--out", str(golden),
                     script=BENCH / "record_golden.py")
        if proc.returncode != 0:
            raise AssertionError(f"recording tiny goldens failed: {proc.stderr[-2000:]}")
        common = ("--seed", "0", "--seconds", "1", "--scale", "tiny", "--golden", str(golden))
        for name in WORKLOADS:
            result, text = result_of(bench("--workload", name, "--trace", "0", *common))
            check_metrics(result, text, spec["end_to_end"], name)
            if not result["correct"]:
                raise AssertionError(f"{name}: untampered run is not correct")
            if not any(line.startswith("failed_ratio") for line in text):
                raise AssertionError(f"{name}: failed_ratio not printed")
            if not any("query_ms_tail" in line and "samples)" in line for line in text):
                raise AssertionError(f"{name}: tail percentile and sample count not printed")
            result, text = result_of(bench("--workload", name, "--trace", "1", *common))
            check_metrics(result, text, spec["per_layer"], f"{name} traced")
            print(f"ok  {name}: every metric printed with its unit")

        tampered = json.loads(golden.read_text(encoding="ascii"))
        entry = tampered["enumerate-dense"]
        answers = entry["answers"]["0"]
        status, detail = answers[0].split(":", 1)
        count = int(detail.split(",")[0].split("=")[1])
        answers[0] = answers[0].replace(f"copies={count}", f"copies={count + 1}", 1)
        bad = scratch / "golden-tampered.json"
        bad.write_text(json.dumps(tampered), encoding="ascii")
        result, text = result_of(bench("--workload", "enumerate-dense", "--trace", "0",
                                       "--seed", "0", "--seconds", "1", "--scale", "tiny",
                                       "--golden", str(bad)))
        if result["correct"] or result["failed"] < 1 or not any(
                line.startswith("WRONG " + entry["ids"][0]) for line in text):
            raise AssertionError(f"tampered golden answer not reported: {result}")
        print("ok  a tampered golden answer is reported as a wrong answer")

        check_false_factor_claims(scratch)
        print("ok  a factor claimed on a construct instance without one is reported")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out"))
        proc = bench("--workload", "search-exact", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare, script=bare / BENCH.name / "run.py")
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("benchmark ran without the library")
        print("ok  without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
