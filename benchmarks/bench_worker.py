"""One workload in its own process: set up, time iterations, check outputs.

``run.py`` starts this script with BLAS and OpenMP thread counts set to 1
and ``PYTHONPATH`` set to the checkout's ``src``. It writes its result as
JSON to ``--result``; the caller prints it.

Each run sets the workload up again and again until at least
``SETUP_MIN_REPEATS`` set-ups and ``SETUP_SECONDS`` have passed. It also
times ``IMPORT_REPEATS`` fresh interpreters that import ``teamopt`` before
every iteration and once more at the end, so that the import samples span
the whole run and one slow or fast spell of a shared machine does not set
them. ``setup_s`` is the sum of the two medians. Every iteration runs in a
forked copy of the set-up process, so each one pays the first-use costs
(page faults of large temporaries, first calls) that every ``teamopt``
command pays in its own fresh process. An iteration runs every operation under one timer, then
checks every output. An untraced run (``--trace 0``) runs iterations until
``--seconds`` have passed and at least ``MIN_ITERATIONS`` have run; their
median is ``wall_s``. A traced run alternates untraced and traced
iterations until ``--seconds`` have passed; the median ratio of each pair
gives the tracing overhead.

``peak_rss_mb`` is the largest peak resident memory of this process and of
the iterations it forked.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

IMPORT_REPEATS = 2
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 1.0
MIN_ITERATIONS = 2
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "seed": seed,
    }


def import_seconds() -> float:
    """Start a fresh interpreter that imports every ``teamopt`` module."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import teamopt, teamopt.cli"], check=True)
    return time.perf_counter() - start


def in_child(fn):
    """Run ``fn()`` in a forked copy of this process and return its result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            payload = pickle.dumps((True, fn()))
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"forked child ended with status {status}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"forked child raised:\n{value}")
    return value


def iteration(workload, seed: int, out: Path, tracer=None) -> dict:
    """Run every operation once under one timer, then check the outputs.

    With a tracer, spans are recorded while the operations run, not while
    their outputs are checked.
    """
    ops = workload.operations(out)
    results, errors = {}, {}
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    for name, op in ops:
        try:
            results[name] = op()
        # a failing operation is counted, not fatal: the run goes on
        except (Exception, SystemExit):
            errors[name] = traceback.format_exc()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    problems, failed = [], 0
    for name, _ in ops:
        if name in errors:
            found = [f"{name} raised:\n{errors[name]}"]
        else:
            found = workload.check(name, results[name], seed)
        if found:
            failed += 1
            problems += found
            print("\n".join(found), file=sys.stderr, flush=True)
    complete = not errors
    return {
        "wall": wall,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "outcome": workload.outcome(results) if complete else None,
        "reference": {op: r["reference"] for op, r in results.items()},
        "spans": tracer.arrays() if tracer is not None else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args()

    import teamopt
    import teamopt.cli  # noqa: F401  (the package does not import its CLI)

    if args.src.resolve() not in Path(teamopt.__file__).resolve().parents:
        print(f"teamopt imported from {teamopt.__file__}, not {args.src}", file=sys.stderr)
        return 2

    from bench_trace import Tracer
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup_runs: list[float] = []
    while len(setup_runs) < SETUP_MIN_REPEATS or sum(setup_runs) < SETUP_SECONDS:
        work = args.work / f"setup{len(setup_runs)}"
        work.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(work, args.seed)
        setup_runs.append(time.perf_counter() - start)
        # the workload uses the files of its last set-up
        shutil.rmtree(args.work / f"setup{len(setup_runs) - 2}", ignore_errors=True)
    workload.expected = in_child(lambda: workload.prepare_checks(args.work / "check"))

    out = args.work / "out"
    import_runs: list[float] = []
    runs: list[dict] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    overhead_ratios: list[float] = []
    per_layer: dict[str, float] = {}

    def run(tracer=None) -> float:
        import_runs.extend(import_seconds() for _ in range(IMPORT_REPEATS))
        result = in_child(lambda: iteration(workload, args.seed, out, tracer))
        runs.append(result)
        return result["wall"]

    loop_start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - loop_start

    if args.trace:
        spans = Tracer()
        while not traced_walls or elapsed() < args.seconds:
            walls.append(run())
            tracer = Tracer()
            tracer.iteration_id = len(traced_walls)
            traced_walls.append(run(tracer))
            overhead_ratios.append(traced_walls[-1] / walls[-1])
            spans.absorb(runs[-1].pop("spans"))
        per_layer = spans.layer_metrics(list(range(len(traced_walls))))
        per_layer["trace.overhead_frac"] = statistics.median(overhead_ratios) - 1.0
        spans.save(args.spans)
    else:
        while len(walls) < MIN_ITERATIONS or elapsed() < args.seconds:
            walls.append(run())

    import_runs.extend(import_seconds() for _ in range(IMPORT_REPEATS))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    outcomes = [r["outcome"] for r in runs if r["outcome"] is not None]
    # 0 only when no iteration completed, and then the run reports failures
    outcome = outcomes[-1] if outcomes else {"team_eu": 0.0, "eu_gain": 0.0}
    wall_s = statistics.median(walls)
    items = workload.items_per_iteration()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    end_to_end = {
        "setup_s": statistics.median(import_runs) + statistics.median(setup_runs),
        "wall_s": wall_s,
        "items_per_s": items / wall_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "team_eu": outcome["team_eu"],
    }
    result = {
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes,
        "environment": environment(args.seed),
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": [p for r in runs for p in r["problems"]],
        "import_runs_s": import_runs,
        "setup_runs_s": setup_runs,
        "wall_s_samples": walls,
        "traced_wall_s_samples": traced_walls,
        "trace_overhead_ratios": overhead_ratios,
        "items_per_iteration": items,
        "items_name": workload.items_name,
        "eu_gain": outcome["eu_gain"],
        workload.items_name: items / wall_s,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "reference_values": runs[-1]["reference"],
    }
    args.result.write_text(json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
