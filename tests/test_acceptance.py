"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy experiment
fixtures (10-seed protocol runs on the 10k-point generators) are shared
across criteria, so the whole module finishes in a few minutes on a laptop.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import finite_difference_gradients, max_relative_error
from teamopt.analysis import behavior_curves, evaluate
from teamopt.classifiers import init_model
from teamopt.cli import main as cli_main
from teamopt.data import Dataset, gen_moons, gen_scenario1, split, standardize
from teamopt.exhaustive import (
    LinearGrid,
    exhaustive_search,
    mismatch_columns,
    write_mismatch_csv,
)
from teamopt.losses import LossSpec, batch_loss
from teamopt.optim import TrainConfig, train
from teamopt.pipeline import plan, run_experiment, seed_splits
from teamopt.team_model import HumanPolicy, UtilityParams, expected_utilities

N_SEEDS = 10
DESK_CONFIG = TrainConfig(
    learning_rate=0.1, l2_weight=1e-3, batch_size=32, max_epochs=60
)
SEARCH_GRID = LinearGrid(
    n_angles=60, n_offsets=41, sharpness=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
)
STANDARD_PARAMS = UtilityParams(beta=1.0, lam=0.5, human_accuracy=1.0)


def note(criterion, message):
    print(f"\n[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def scenario_10k():
    return gen_scenario1(10000, seed=1)


@pytest.fixture(scope="module")
def moons_10k():
    return gen_moons(10000, seed=1)


@pytest.fixture(scope="module")
def scenario_rq1(scenario_10k):
    """Reports by (a, beta): RQ1's (1, 1) and the sensitivity points, as one
    plan whose 10 references every point shares."""
    points = [
        UtilityParams(beta=beta, lam=0.5, human_accuracy=a)
        for a, beta in ((1.0, 1.0), (0.8, 1.0), (0.9, 1.0), (1.0, 5.0))
    ]
    planned = plan(
        scenario_10k, "linear", points, n_seeds=N_SEEDS, baseline_config=DESK_CONFIG, seed=0
    )
    return {(r.params.human_accuracy, r.params.beta): r for r, _ in planned}


def test_criterion_1_threshold_formula():
    for a in (0.8, 0.9, 1.0):
        for beta in (1.0, 3.0, 5.0):
            params = UtilityParams(beta=beta, lam=0.5, human_accuracy=a)
            assert abs(params.accept_threshold - (a - 0.5 / (1.0 + beta))) <= 1e-12
    assert abs(UtilityParams(1.0, 0.5, 0.8).accept_threshold - 0.55) <= 1e-12
    assert abs(UtilityParams(1.0, 0.5, 0.9).accept_threshold - 0.65) <= 1e-12
    assert abs(UtilityParams(1.0, 0.5, 1.0).accept_threshold - 0.75) <= 1e-12
    assert abs(UtilityParams(5.0, 0.5, 1.0).accept_threshold - 11.0 / 12.0) <= 1e-12
    note(1, "threshold matches a - lam/(1+beta) on all nine combinations")


def test_criterion_2_expected_utility_surface():
    policy = HumanPolicy(STANDARD_PARAMS)
    hs = np.linspace(0.0, 1.0, 1000)
    for h, got in zip(hs, expected_utilities(hs, np.ones(1000, dtype=np.int64), policy)):
        if max(1.0 - h, h) >= 0.75:
            assert got == 2.0 * h - 1.0
        else:
            assert got == 0.5
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        params = UtilityParams(
            beta=1.0 + 9.0 * rng.random(),
            lam=2.0 * rng.random(),
            human_accuracy=rng.random(),
        )
        c = params.accept_threshold
        lhs = (1.0 + params.beta) * c - params.beta
        assert abs(lhs - params.solve_utility) <= 1e-12
    note(2, "piecewise surface exact at 1000 points; boundary identity on 1000 draws")


def test_criterion_3_gradient_fidelity():
    from test_losses import TestGradientFidelity

    started = time.perf_counter()
    policy = HumanPolicy(STANDARD_PARAMS)
    for loss_kind in ("log_loss", "expected_utility_loss", "team_loss"):
        spec = LossSpec(loss_kind, policy)
        for model_kind in ("linear", "mlp"):
            rng = np.random.default_rng(sum(map(ord, f"{model_kind}/{loss_kind}")))
            for _ in range(20):
                model, x, y = TestGradientFidelity.sample_case(rng, model_kind, policy)
                _, grads = batch_loss(model, x[None, :], np.array([y]), spec)
                numeric = finite_difference_gradients(model, x[None, :], np.array([y]), spec)
                assert max_relative_error(grads.parameters(), numeric) < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    note(3, f"120 finite-difference checks within 1e-4 in {elapsed:.1f}s")


def test_criterion_4_flat_region(scenario_10k):
    tr, val = split(scenario_10k.subset(np.arange(2000)), (0.8, 0.2), seed=0)
    tr, val = standardize(tr, val)
    spec = LossSpec("expected_utility_loss", HumanPolicy(STANDARD_PARAMS))
    config = TrainConfig(
        learning_rate=0.1, l2_weight=1e-3, batch_size=32, max_epochs=50,
        checkpoint_metric="expected_utility", seed=0,
    )
    start = init_model("linear", 2)
    result = train(start, tr, val, spec, config)
    assert len(result.history) == 50
    for name, p in result.final_model.parameters().items():
        assert np.array_equal(p, start.parameters()[name])
    assert result.best_epoch == 0
    note(4, "50 epochs from the all-uncertain start leave parameters bitwise unchanged")


def test_criterion_5_rq1_desk_scale(scenario_rq1, moons_10k):
    scenario_report = scenario_rq1[1.0, 1.0]
    moons_report = run_experiment(
        moons_10k, "linear", STANDARD_PARAMS, n_seeds=N_SEEDS,
        baseline_config=DESK_CONFIG, seed=0,
    )
    for report in (scenario_report, moons_report):
        assert report.mean_delta.expected_utility >= 0.02
        for outcome in report.per_seed:
            assert outcome.team_val_gain >= 0.0
    note(
        5,
        "mean delta EU "
        f"{scenario_report.mean_delta.expected_utility:+.3f} (scenario1) and "
        f"{moons_report.mean_delta.expected_utility:+.3f} (moons), "
        "validation EU never below the warm start",
    )


def test_criterion_6_exhaustive_search(scenario_10k, tmp_path):
    policy = HumanPolicy(STANDARD_PARAMS)
    improvements = 0
    rows = []
    for seed in range(N_SEEDS):
        train80, fit, val, test, baseline_seed, _ = seed_splits(scenario_10k, seed)
        baseline = train(
            init_model("linear", 2, seed=baseline_seed), fit, val,
            LossSpec("log_loss", policy),
            replace(DESK_CONFIG, checkpoint_metric="accuracy", seed=baseline_seed),
        ).best_model
        found_eu = exhaustive_search(train80, "expected_utility", policy, SEARCH_GRID)
        found_emp = exhaustive_search(train80, "empirical_utility", policy, SEARCH_GRID)
        # argmax dominance on the shared training objective
        train_emp_eu = evaluate(found_eu, train80, policy).empirical_utility
        train_emp_emp = evaluate(found_emp, train80, policy).empirical_utility
        assert train_emp_emp >= train_emp_eu - 1e-12
        row = mismatch_columns(
            f"scenario1-seed{seed}",
            evaluate(baseline, test, policy),
            evaluate(found_eu, test, policy),
            evaluate(found_emp, test, policy),
        )
        rows.append(row)
        improvements += row["delta_eu_a"] > 0.0
    assert improvements >= 8
    out = tmp_path / "mismatch.csv"
    write_mismatch_csv(rows, out)
    header = out.read_text().splitlines()[0]
    assert header == "dataset,eu_logloss,emp_logloss,delta_eu_a,delta_emp_b,delta_emp_c"
    note(
        6,
        f"expected-utility search beat the log-loss reference on {improvements}/10 "
        "seeds; empirical-objective argmax dominance held on every seed; "
        "A/B/C columns emitted",
    )


def test_criterion_7_sensitivity_trends(scenario_rq1):
    delta_a_10 = scenario_rq1[1.0, 1.0].mean_delta.expected_utility
    delta_by_a = {a: scenario_rq1[a, 1.0].mean_delta.expected_utility for a in (0.8, 0.9)}
    delta_by_a[1.0] = delta_a_10
    assert delta_by_a[0.9] <= delta_by_a[0.8] + 0.01
    assert delta_by_a[1.0] <= delta_by_a[0.9] + 0.01

    beta5 = scenario_rq1[1.0, 5.0].mean_delta.expected_utility
    assert beta5 <= delta_a_10 + 0.01
    note(
        7,
        "delta EU non-increasing in human accuracy "
        f"({delta_by_a[0.8]:+.3f}, {delta_by_a[0.9]:+.3f}, {delta_by_a[1.0]:+.3f}) "
        f"and delta EU(beta=5) {beta5:+.3f} <= delta EU(beta=1)",
    )


def test_criterion_8_bookkeeping_identities():
    rng = np.random.default_rng(8)
    policy = HumanPolicy(UtilityParams(beta=1.5, lam=0.3, human_accuracy=0.9))
    for i in range(100):
        kind = "linear" if i % 2 == 0 else "mlp"
        model = init_model(kind, 3, seed=i)
        for p in model.parameters().values():
            p += rng.normal(0.0, 0.8, size=p.shape)
        ds = Dataset(
            features=rng.normal(size=(50 + (i % 50), 3)),
            labels=rng.integers(0, 2, 50 + (i % 50)).astype(np.int64),
            feature_names=("a", "b", "c"),
        )
        metrics = evaluate(model, ds, policy)
        curves = behavior_curves(model, ds, policy)
        assert abs(curves.accuracy_density.sum() - metrics.accuracy) <= 1e-12
        assert abs(curves.utility_density.sum() - metrics.expected_utility) <= 1e-12
        loss, _ = batch_loss(
            model, ds.features, ds.labels, LossSpec("expected_utility_loss", policy)
        )
        assert abs(loss + metrics.expected_utility) <= 1e-12
    note(8, "sum(V3) = accuracy, sum(V4) = EU, mean eu_loss = -mean EU on 100 pairs")


def test_criterion_9_cli_determinism(tmp_path):
    data_path = tmp_path / "moons.csv"
    assert (
        cli_main(
            ["gen-data", "--kind", "moons", "--n", "400", "--seed", "3", "--out", str(data_path)]
        )
        == 0
    )
    args = [
        "train", "--data", str(data_path), "--model", "linear", "--loss", "eu",
        "--beta", "1", "--lambda", "0.5", "--a", "1", "--seeds", "2",
        "--epochs", "10", "--seed", "0",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    eval_args = [
        "eval", "--data", str(data_path),
        "--model-file", str(out1 / "models" / "team_seed0.json"),
        "--beta", "1", "--lambda", "0.5", "--a", "1", "--standardize",
    ]
    ev1, ev2 = tmp_path / "ev1", tmp_path / "ev2"
    assert cli_main(eval_args + ["--out", str(ev1)]) == 0
    assert cli_main(eval_args + ["--out", str(ev2)]) == 0
    assert (ev1 / "metrics.json").read_bytes() == (ev2 / "metrics.json").read_bytes()
    note(9, "identical flags reproduce byte-identical metric JSON")
