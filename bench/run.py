"""multlab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-float --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; multlab is imported from ``src``.
Workloads (see bench/workloads.py for why each exists): verify-float,
cli-exact-1e7, prime-side-1e7; without ``--workload`` all three run in turn,
each ending with its own JSON line.  Each is a closed loop with one client over a
batch of whole task cycles, about ``--seconds`` long at the time the
benchmark was written; the seed picks every input.

This process imports nothing from multlab.  It starts fresh worker
processes (bench/worker.py) one at a time, waits for each, and turns their
reports into metrics.  Workers get one BLAS/OpenMP thread, so the only
extra threads are the sieve's own pool.  All files go to a temporary
directory under bench/.work, removed at the end.

--trace 0  end-to-end metrics.  setup_s is the median over SETUP_SAMPLES
           fresh processes: the measuring worker and set-up-only workers,
           each with an empty output directory.
--trace 1  per-layer metrics.  An untraced and a traced worker run the same
           batch; trace.overhead_frac is the traced wall_s over the
           untraced one, minus 1.

Human-readable lines come first: the run's metadata and every end-to-end
figure, including task_tail_s and failed_frac, which the JSON leaves out
(too few tasks for a tail on two workloads; failed/attempted are there).
The last line is the JSON result: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-float", "cli-exact-1e7", "prime-side-1e7")
SETUP_SAMPLES = 5
#: a run must end within 180 s; workers share what is left of this budget
RUN_BUDGET_S = 170.0
#: a latency tail needs this many samples beyond it
TAIL_SAMPLES = 10


class RunError(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, mode: str, work: Path, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; (setup seconds, its report)."""
    work.mkdir()
    result = work / "result.json"
    env = worker_env()
    env["TMPDIR"] = str(work)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--work", str(work), "--result", str(result),
    ]
    t_spawn = clock()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"{mode} worker ran past the run budget")
    if proc.returncode != 0 or not result.exists():
        raise RunError(f"{mode} worker exited {proc.returncode}:\n{output[-2000:]}")
    report = json.loads(result.read_text())
    shutil.rmtree(work)
    return report["t_ready"] - t_spawn, report


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest rank with TAIL_SAMPLES samples
    beyond it; None when that rank is not above the median."""
    n = len(samples)
    if n <= 2 * TAIL_SAMPLES:
        return None
    return 100.0 * (n - TAIL_SAMPLES) / n, sorted(samples)[n - TAIL_SAMPLES - 1]


def metadata() -> dict:
    meta: dict = {"nproc": os.cpu_count()}
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        meta["git_rev"] = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        meta["git_rev"] = "unknown"
    llc = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                level = int((index / "level").read_text())
                if level >= llc:
                    llc, meta["llc_size"] = level, (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    meta["src_lines"] = {
        p.name: len(p.read_text().splitlines())
        for p in sorted((ROOT / "src" / "multlab").glob("*.py"))
    }
    return meta


def summarize(report: dict) -> tuple[int, int, list[str]]:
    failures = list(report["failures"])
    if report.get("setup_error"):
        failures.append((-1, f"set-up: {report['setup_error']}"))
    return len(report["task_s"]), len(failures), [f"task {i}: {msg}" for i, msg in failures]


def run(args) -> tuple[dict, int, int, list[str]]:
    deadline = clock() + RUN_BUDGET_S
    (BENCH / ".work").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        setup_s, main = start_worker(args, "measure", tmp / "measure", deadline)
        attempted, failed, problems = summarize(main)
        wall_s = sum(main["task_s"])
        print(f"meta {json.dumps({**metadata(), **main['versions']}, sort_keys=True)}")
        if args.trace:
            _, traced = start_worker(args, "trace", tmp / "trace", deadline)
            t_attempted, t_failed, t_problems = summarize(traced)
            layers = traced["layers"]
            layers["trace.overhead_frac"] = (sum(traced["task_s"]) / wall_s - 1.0, "ratio")
            for name, (value, unit) in layers.items():
                print(f"layer {name} = {value:.6g} {unit}")
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
            return metrics, attempted + t_attempted, failed + t_failed, problems + t_problems

        setups = [setup_s]
        for k in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, "setup", tmp / f"setup{k}", deadline)[0])
        task_s = main["task_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "task_p50_s": {"value": statistics.median(task_s), "unit": "s"},
            "peak_rss_mib": {"value": main["maxrss_kib"] / 1024.0, "unit": "MiB"},
        }
        print(f"e2e setup_s = {metrics['setup_s']['value']:.4f} s (median of {len(setups)} fresh processes)")
        print(f"e2e wall_s = {wall_s:.4f} s ({len(task_s)} tasks, closed loop, checks excluded)")
        print(f"e2e task_p50_s = {metrics['task_p50_s']['value']:.4f} s (n={len(task_s)})")
        t = tail(task_s)
        if t:
            print(f"e2e task_tail_s = {t[1]:.4f} s (p{t[0]:.1f}, n={len(task_s)})")
        else:
            print(f"e2e task_tail_s = none (n={len(task_s)}; needs more than {2 * TAIL_SAMPLES})")
        print(f"e2e peak_rss_mib = {metrics['peak_rss_mib']['value']:.1f} MiB")
        print(f"e2e failed_frac = {failed / attempted:.4f} ratio ({failed}/{attempted})")
        return metrics, attempted, failed, problems
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "multlab" / "__init__.py").is_file():
        print(f"no multlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        print(f"bench workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        try:
            metrics, attempted, failed, problems = run(args)
        except RunError as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            status = 1
            continue
        for line in problems:
            print(f"FAILED {line}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return status


if __name__ == "__main__":
    sys.exit(main())
