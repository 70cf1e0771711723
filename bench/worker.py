"""One fresh benchmark process: set up one workload, then run its batch.

Started by bench/run.py, never by hand.  Imports multlab from the
checkout's ``src``, builds the seeded batch, performs the workload's
set-up, and stamps the moment the first task is ready on the system-wide
monotonic clock, so the parent can time set-up from before this process
existed.  Modes:

setup    stop once the first task is ready;
measure  run the batch untraced;
trace    run the batch with spans around multlab's public functions, then
         time the single-thread sieve baseline.

The report is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE_BUILDS = 3


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import multlab
    import multlab.cli
    from tracer import Tracer
    from workloads import WORKLOADS

    if not Path(multlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"multlab imported from {multlab.__file__}, not from this checkout")

    # an uninstalled tracer records nothing, so the loop below needs no branches
    tracer = Tracer()
    if args.mode == "trace":
        tracer.install()
    tracer.active = True
    traced_from = time.perf_counter()
    workload = WORKLOADS[args.workload](multlab, args.seed, args.seconds, args.work)
    workload.setup()
    t_ready = clock()
    setup_in_process = time.perf_counter() - traced_from
    tracer.active = False
    report: dict = {"t_ready": t_ready}
    if args.mode == "setup":
        args.result.write_text(json.dumps(report))
        return 0
    setup_check = getattr(workload, "setup_check", None)
    report["setup_error"] = setup_check() if setup_check else None

    task_s: list[float] = []
    failures: list[tuple[int, str]] = []
    for i in range(len(workload.tasks)):
        tracer.active = True
        t0 = time.perf_counter()
        try:
            result, problem = workload.run(i), None
        except Exception as exc:  # a task that raises is a failed task; keep going
            problem = "".join(traceback.format_exception_only(exc)).strip()
        task_s.append(time.perf_counter() - t0)
        tracer.active = False
        if problem is None:
            try:
                problem = workload.check(i, result)
            except Exception as exc:  # e.g. an output file the task did not write
                problem = f"check raised {exc!r}"
        if problem:
            failures.append((i, problem))

    report.update(
        task_s=task_s,
        failures=failures,
        maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    if args.mode == "trace":
        layers = tracer.metrics(setup_in_process + sum(task_s))
        builds = []
        for _ in range(BASELINE_BUILDS):
            t0 = time.perf_counter()
            multlab.sieve.build_sieve(workload.limit, threads=1)
            builds.append(time.perf_counter() - t0)
        layers["sieve.build_sieve_t1.s"] = (statistics.median(builds), "s")
        report["layers"] = layers
    args.result.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
