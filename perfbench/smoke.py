"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload and both trace modes it runs `run.py --tiny` and checks
that the result line has exactly the keys correct/attempted/failed/metrics,
that every metric declared in BENCHMARK.json for that mode is there with its
declared unit and a numeric value, that the checks passed, and that the
metrics marked not applicable are declared ones.  It prints one table row
per metric, "n/a" marking those that do not apply to the workload.  Last, it
runs the benchmark in a copy holding only BENCHMARK.json and the benchmark
files, where it must fail without printing a result.  Exit status 0 means
every check held.
"""

import json
import shutil
import subprocess
import sys
from numbers import Number
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload, trace, declared, problems):
    proc = run(ROOT, workload, trace)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: checks failed: {detail['failures']}")
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if list(metrics) != names:
        odd = sorted(set(names) ^ set(metrics))
        problems.append(f"{label}: metrics {odd} differ from BENCHMARK.json")
    stray = set(detail["not_applicable"]) - set(names)
    if stray:
        problems.append(f"{label}: not-applicable marks on undeclared metrics {sorted(stray)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"] or not isinstance(got["value"], Number):
            problems.append(f"{label}: {m['name']} = {got}")
        mark = "n/a" if m["name"] in detail["not_applicable"] else ""
        value, unit = got["value"], got["unit"]
        print(f"{workload:10s} {trace} {m['name']:32s} {value:>14.6g} {unit:6s} {mark}")


def check_bare_copy(problems):
    """Without the program's sources the benchmark must fail and print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run(bare, "urn-gap", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
    else:
        print(f"bare copy: exit {proc.returncode}, no result printed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(workload, 0, spec["end_to_end"], problems)
        check_run(workload, 1, spec["per_layer"], problems)
    check_bare_copy(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
