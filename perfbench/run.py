"""qperm benchmark: run one workload, check its outputs, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {reproduce,urn-gap,cumulants}
        --seed N --seconds S --trace {0,1} [--tiny]

Every batch runs in a fresh worker process, so each one starts with cold
`lru_cache` tables, as every `qperm` command does.  A run is single-process
and closed-loop: one worker at a time, one operation at a time.

--trace 0 runs batches of the workload's seeded inputs, the same inputs
each time, for as long as another batch still fits in S seconds (at least
one), and reports the end-to-end metrics: medians over the batches.  The
latency of an operation is its median over the batches, and the latency
quantiles are taken over those medians, so that a burst of load on the
host during one batch hardly moves them.  --trace 1 runs one untraced and
one traced batch and reports the per-layer metrics of the traced one; for
`reproduce` it also checks that the two print the same bytes.  --tiny
shrinks every workload for the smoke check (smoke.py).

The last line of stdout is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it holds the details: machine context, each
batch, the failure reasons, and which metrics do not apply to the workload.
The metric names and units come from BENCHMARK.json.  Exit status is 0 when
every worker ran, whatever the checks found, and non-zero, with no result
printed, when the program under test cannot be run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("reproduce", "urn-gap", "cumulants")
# Set-up probes before and again after the batches, so that the median of
# set-up times spans the whole run and not only its first seconds.
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170
# numpy's OpenBLAS starts a thread per core when it is imported.  On a
# 2-vCPU host the set-up time then depends on whether the other vCPU is
# free at that moment, which flips set-up times by about 30 %.  Workers run
# single-threaded, as every workload is.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

# End-to-end metrics with no meaning for a workload.  A reproduce run is one
# reproduce-all call, so its operation metrics only restate wall_s.
NOT_APPLICABLE_E2E = {"reproduce": ("ops_per_s", "op_p50_ms", "op_p95_ms")}
# Layers a workload never enters by design; their per-layer figures read 0.
NOT_APPLICABLE_LAYERS = {
    "urn-gap": ("acceptance.", "cli."),
    "cumulants": ("acceptance.", "cli.", "exchange."),
}


class WorkerError(RuntimeError):
    pass


def run_worker(*args):
    """Start one worker, wait for it, return its JSON result."""
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), repr(spawn), *map(str, args)],
            cwd=ROOT,
            env=WORKER_ENV,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} ran past {WORKER_TIMEOUT_S}s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def end_to_end(batches, setup_samples):
    if len({len(b["lat_s"]) for b in batches}) != 1:
        sys.exit("error: batches of one seed ran different operations")
    lat = [statistics.median(op) for op in zip(*(b["lat_s"] for b in batches))]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    return {
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": statistics.median(b["rss_mib"] for b in batches),
        "ok_ratio": 1.0 - failed / attempted,
        "ops_per_s": statistics.median(len(b["lat_s"]) / b["wall_s"] for b in batches),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p95_ms": 1000.0 * quantile(lat, 95),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qperm" / "__init__.py").is_file():
        sys.exit(f"error: no qperm sources under {ROOT / 'src'}; run from a repository checkout")
    e2e_decl, layer_decl = declared_metrics()
    load_start = os.getloadavg()
    tiny = int(args.tiny)
    try:
        probes = 1 if args.tiny else SETUP_PROBES
        setup = [run_worker("setup")["setup_s"] for _ in range(probes)]
        batches, longest = [], 0.0
        started = time.perf_counter()
        # stop when the slowest batch so far would no longer fit in the run
        while not batches or (
            not args.trace and time.perf_counter() - started + longest <= args.seconds
        ):
            begun = time.perf_counter()
            batches.append(run_worker(args.workload, args.seed, tiny, 0))
            longest = max(longest, time.perf_counter() - begun)
        setup += [run_worker("setup")["setup_s"] for _ in range(probes)]
        traced = run_worker(args.workload, args.seed, tiny, 1) if args.trace else None
    except WorkerError as exc:
        sys.exit(f"error: {exc}")
    setup += [b["setup_s"] for b in batches]
    runs = batches + ([traced] if traced else [])
    failures = [reason for b in runs for reason in b["failures"]]
    correct = all(b["correct"] for b in runs)
    reproduce_pair = traced and args.workload == "reproduce"
    if reproduce_pair and traced["stdout_sha256"] != batches[0]["stdout_sha256"]:
        correct = False
        failures.append("reproduce-all stdout differs between two processes with one seed")

    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(
            b["wall_s"] for b in batches
        )
        declared = layer_decl
        prefixes = NOT_APPLICABLE_LAYERS.get(args.workload, ())
        not_applicable = [m["name"] for m in declared if m["name"].startswith(prefixes)]
        not_applicable += [n for n in traced["layers_undefined"] if n not in not_applicable]
    else:
        values = end_to_end(batches, setup)
        declared = e2e_decl
        not_applicable = list(NOT_APPLICABLE_E2E.get(args.workload, ()))
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.exit(f"error: declared metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    attempted = sum(b["attempted"] for b in runs)
    failed = sum(b["failed"] for b in runs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": batches[0]["python"],
        "numpy": batches[0]["numpy"],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "batches": [
            {k: b[k] for k in ("wall_s", "setup_s", "rss_mib", "attempted", "failed")} for b in runs
        ],
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "failures": failures[:10],
        "not_applicable": not_applicable,
        "spans_file": traced.get("spans_file") if traced else None,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
