"""The benchmark's own tests: at a tiny size, the traced counts of every
workload equal the counts its definition implies, so the harness cannot
silently miss a call path; and the metric lists in BENCHMARK.json match what
the code reports."""

import json
from pathlib import Path

import pytest

import teamopt.cli  # noqa: F401  (loads every teamopt module before wrapping)
from bench_trace import Tracer
from bench_workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "train": {"n": 500, "seeds": 1, "epochs": 2},
    "cv-grid": {
        "n": 500,
        "grid": {
            "learning_rates": (0.1,),
            "l2_weights": (1e-3, 1e-2),
            "batch_sizes": (32,),
            "decays": (0.1,),
            "patiences": (2,),
        },
        "epochs": 1,
    },
    "exhaustive": {"n": 500, "seeds": 1, "angles": 2, "epochs": 1},
    "eval-large": {"rows": 1000, "train_n": 500, "epochs": 1},
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_match_definition(name, tmp_path):
    workload = WORKLOADS[name](**TINY[name])
    work = tmp_path / "in"
    work.mkdir()
    workload.setup(work, seed=1)
    workload.expected = workload.prepare_checks(tmp_path / "check")
    tracer = Tracer()
    try:
        ops = workload.operations(tmp_path / "out")
        tracer.install()
        results = [(op, run()) for op, run in ops]
    finally:
        tracer.uninstall()
        workload.close()
    for op, result in results:
        assert workload.check(op, result, seed=1) == []
    expected = workload.expected_counts()
    got = tracer.layer_metrics([0])
    assert {k: got[k] for k in expected} == expected
    # gathered into one store after other spans, as a traced run gathers
    # the spans of its forked iterations, every metric stays the same
    spans = tracer.arrays()
    store = Tracer()
    store.absorb(spans)
    store.absorb({**spans, "iteration": spans["iteration"] + 1})
    assert store.layer_metrics([1]) == pytest.approx(tracer.layer_metrics([0]))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    layer_names = set(Tracer().layer_metrics([0])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "items_per_s", "peak_rss_mb", "team_eu"
    }
