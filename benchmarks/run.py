"""Benchmark of the ``teamopt`` workloads at paper scale.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout: it imports ``teamopt`` from the
checkout's ``src`` and reads the metric list from ``BENCHMARK.json``. The
named workload (see ``bench_workloads.py`` for each one's definition and
why it exists) runs in a fresh process with BLAS and OpenMP limited to one
thread, which forks one process per iteration (see ``bench_worker.py``).
The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full result, with the environment and every sample, goes to
``.bench_out/BENCH_<workload>[_trace].json`` and a traced run's spans to
``.bench_out/<workload>.spans.npz``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from bench_worker import THREAD_VARIABLES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# The whole run must end within 180 seconds.
WORKER_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARIABLES:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TEAMOPT_SEED", None)
    return env


def run_worker(args, work: Path, result_path: Path, log_path: Path) -> int:
    command = [
        sys.executable, str(HERE / "bench_worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--result", str(result_path),
        "--spans", str(OUT / f"{args.workload}.spans.npz"),
        "--src", str(ROOT / "src"),
    ]
    # The worker gets a process group of its own, so killing the group also
    # stops the iteration it forked; as subreaper, this process adopts such
    # an orphan and can wait for it.
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            command, cwd=ROOT, env=worker_env(), stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            return proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"workload exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            reap_children()


def reap_children() -> None:
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def select_metrics(listed: list[dict], values: dict) -> dict:
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")
    if not (ROOT / "src" / "teamopt" / "__init__.py").is_file():
        print(f"no teamopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated benchmark still stops its worker (see run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    suffix = "_trace" if args.trace else ""
    result_path = OUT / f"BENCH_{args.workload}{suffix}.json"
    log_path = OUT / f"{args.workload}{suffix}.log"
    result_path.unlink(missing_ok=True)
    try:
        code = run_worker(args, work, result_path, log_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not result_path.is_file():
        sys.stderr.write(log_path.read_text()[-4000:])
        print(f"workload {args.workload} failed (exit {code})", file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = select_metrics(spec[kind], result[kind])
    print(json.dumps({"environment": result["environment"]}, sort_keys=True))
    samples = result["wall_s_samples"]
    print(
        f"{args.workload}: {result['why']}\n"
        f"  wall_s samples: n={len(samples)} median={statistics.median(samples):.4f} "
        f"max={max(samples):.4f} (too few samples to resolve an upper percentile)\n"
        f"  {result['items_name']} = {result[result['items_name']]:.6g} 1/s\n"
        f"  setup runs (s): {', '.join(f'{s:.4f}' for s in result['setup_runs_s'])}\n"
        f"  start-up and import runs (s): "
        f"{', '.join(f'{s:.4f}' for s in result['import_runs_s'])}\n"
        f"  failed_frac: {result['failed_frac']:.4f}; eu_gain: {result['eu_gain']:.6g}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
