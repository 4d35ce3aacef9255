"""One benchmark process: import qperm cold, run one batch, print one JSON line.

Usage (from the repository root; `run.py` is the entry point that calls it):

    python3 perfbench/worker.py SPAWN_TIME setup
    python3 perfbench/worker.py SPAWN_TIME WORKLOAD SEED TINY TRACE

SPAWN_TIME is the parent's `time.perf_counter()` just before it started this
process; on Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
`setup_s` covers interpreter start-up and `import qperm` (which imports numpy).
"""

import sys
import time

SPAWN = float(sys.argv[1])

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import qperm  # noqa: E402

SETUP_S = time.perf_counter() - SPAWN

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
FAILURES_KEPT = 5


def _rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_reproduce(seed, tiny):
    start = time.perf_counter()
    code, text = workloads.run_cli(workloads.reproduce_argv(seed, tiny))
    wall = time.perf_counter() - start
    failed, reason = workloads.reproduce_failures(code, text)
    return {
        "wall_s": wall,
        "rss_mib": _rss_mib(),
        "lat_s": [wall],
        "attempted": workloads.N_CRITERIA,
        "failed": failed,
        "failures": [reason] if reason else [],
        "correct": failed == 0,
        "output_bytes": len(text.encode()),
        # run.py compares this across two processes with one seed
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def run_ops(ops):
    lat = []
    failures = []
    start = time.perf_counter()
    for call, check in ops:
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a failed operation is counted, the run goes on
            lat.append(time.perf_counter() - t0)
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        lat.append(time.perf_counter() - t0)
        try:
            reason = check(value)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(reason)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "rss_mib": _rss_mib(),
        "lat_s": lat,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:FAILURES_KEPT],
        "correct": not failures,
        "output_bytes": 0,
    }


def main():
    here = Path(qperm.__file__).resolve()
    if SRC not in here.parents:
        sys.exit(f"imported qperm from {here}, not from {SRC}")
    if sys.argv[2] == "setup":
        print(json.dumps({"setup_s": SETUP_S}))
        return
    workload, seed = sys.argv[2], int(sys.argv[3])
    tiny, trace = sys.argv[4] == "1", sys.argv[5] == "1"
    tracer = tracing.Tracer() if trace else None
    if workload == "reproduce":
        if tracer:
            tracer.install()
        result = run_reproduce(seed, tiny)
    else:
        # inputs are made before the tracer goes in and before the clock starts
        ops = workloads.build(workload, seed, tiny)
        if tracer:
            tracer.install()
            ops = [(tracer.operation(call), check) for call, check in ops]
        result = run_ops(ops)
    result["setup_s"] = SETUP_S
    result["python"] = sys.version.split()[0]
    result["numpy"] = np.__version__
    if tracer:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload}-{seed}.npz"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
        result["layers"], result["layers_undefined"] = tracer.layer_metrics(
            result["output_bytes"]
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
