"""Metrics, behavior curves, bookkeeping identities, and report comparison."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import outputs, policies, random_model
from teamopt.analysis import (
    behavior_curves,
    compare_reports,
    curves_from_probs,
    curves_to_csv,
    evaluate,
    metrics_to_json,
    report,
)
from teamopt.classifiers import Model, init_model
from teamopt.data import Dataset, gen_scenario1
from teamopt.losses import LossSpec, batch_loss
from teamopt.optim import TrainConfig
from teamopt.pipeline import run_experiment, seed_splits
from teamopt.team_model import (
    HumanPolicy,
    UtilityParams,
    expected_utilities,
    predicted_labels,
)


def policy(beta=1.0, lam=0.5, a=1.0, p=1.0):
    return HumanPolicy(UtilityParams(beta=beta, lam=lam, human_accuracy=a), p)


def random_dataset(rng, n=80, n_features=3):
    return Dataset(
        features=rng.normal(size=(n, n_features)),
        labels=rng.integers(0, 2, n).astype(np.int64),
        feature_names=tuple(f"f{i}" for i in range(n_features)),
    )


class TestEvaluate:
    def test_always_uncertain_model_earns_solve_utility(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        metrics = evaluate(init_model("linear", 3), ds, policy())
        assert metrics.expected_utility == 0.5
        assert metrics.empirical_utility == 0.5

    def test_perfect_confident_model(self):
        X = np.array([[-1.0, 0.0]] * 5 + [[1.0, 0.0]] * 5)
        y = np.array([0] * 5 + [1] * 5)
        ds = Dataset(features=X, labels=y, feature_names=("a", "b"))
        model = Model([(np.array([600.0, 0.0]), np.array([0.0]))])
        metrics = evaluate(model, ds, policy())
        assert metrics.accuracy == 1.0
        assert metrics.expected_utility == 1.0
        assert metrics.empirical_utility == 1.0

    def test_mean_eu_loss_negates_expected_utility(self):
        rng = np.random.default_rng(1)
        pol = policy(beta=2.0, lam=0.4, a=0.9)
        for seed in range(10):
            model = random_model("linear", 3, seed=seed)
            ds = random_dataset(rng)
            metrics = evaluate(model, ds, pol)
            loss, _ = batch_loss(
                model, ds.features, ds.labels, LossSpec("expected_utility_loss", pol)
            )
            assert abs(loss + metrics.expected_utility) < 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        model = random_model("mlp", 3, seed=1)
        ds = random_dataset(rng, n=200)
        perm = rng.permutation(200)
        a = evaluate(model, ds, policy())
        b = evaluate(model, ds.subset(perm), policy())
        assert abs(a.accuracy - b.accuracy) < 1e-12
        assert abs(a.expected_utility - b.expected_utility) < 1e-12
        assert abs(a.empirical_utility - b.empirical_utility) < 1e-12

    def test_empty_dataset_rejected(self):
        ds = Dataset(
            features=np.empty((0, 2)),
            labels=np.empty(0, dtype=np.int64),
            feature_names=("a", "b"),
        )
        with pytest.raises(ValueError):
            evaluate(init_model("linear", 2), ds, policy())


class TestBehaviorCurves:
    def test_bookkeeping_identities_on_random_pairs(self):
        rng = np.random.default_rng(3)
        pol = policy(beta=1.5, lam=0.3, a=0.9)
        for i in range(100):
            kind = "linear" if i % 2 == 0 else "mlp"
            model = random_model(kind, 3, seed=i)
            ds = random_dataset(rng, n=60 + (i % 40))
            metrics = evaluate(model, ds, pol)
            curves = behavior_curves(model, ds, pol)
            assert abs(curves.accuracy_density.sum() - metrics.accuracy) < 1e-12
            assert abs(curves.utility_density.sum() - metrics.expected_utility) < 1e-12
            assert curves.confidence_hist.sum() == ds.n_examples

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), pol=policies(), n_bins=st.integers(2, 30))
    def test_densities_sum_to_accuracy_and_expected_utility(self, data, pol, n_bins):
        # any outputs and policy: p < 1, c <= 0.5 and c > 1 included
        p1, y = data.draw(outputs(pol, max_size=60))
        curves = curves_from_probs(p1, y, pol, n_bins)
        accuracy = np.mean(predicted_labels(p1) == y)
        expected_utility = np.mean(expected_utilities(p1, y, pol))
        assert abs(curves.accuracy_density.sum() - accuracy) <= 1e-12
        assert abs(curves.utility_density.sum() - expected_utility) <= 1e-12
        assert curves.confidence_hist.sum() == len(p1)

    def test_reliability_range_and_empty_bins(self):
        rng = np.random.default_rng(4)
        p1 = rng.uniform(0.5, 0.6, 50)  # confidences in [0.5, 0.6] only
        y = rng.integers(0, 2, 50)
        curves = curves_from_probs(p1, y, policy(), n_bins=20)
        occupied = ~np.isnan(curves.reliability)
        assert occupied.sum() >= 1
        assert np.all(curves.reliability[occupied] >= 0.0)
        assert np.all(curves.reliability[occupied] <= 1.0)
        # bins far above the generated confidences must be empty, not zero
        assert np.isnan(curves.reliability[-1])

    def test_calibrated_predictor_tracks_diagonal(self):
        rng = np.random.default_rng(42)
        n = 20000
        p1 = rng.uniform(0.0, 1.0, n)
        y = (rng.random(n) < p1).astype(np.int64)
        curves = curves_from_probs(p1, y, policy(), n_bins=20)
        conf = np.maximum(p1, 1.0 - p1)
        bins = np.clip(np.floor(conf * 20).astype(int), 0, 19)
        for b in range(20):
            mask = bins == b
            count = int(mask.sum())
            if count < 20:
                continue
            center = conf[mask].mean()
            sigma = np.sqrt(np.sum(conf[mask] * (1.0 - conf[mask]))) / count
            assert abs(curves.reliability[b] - center) <= 3.0 * sigma

    def test_last_bin_right_closed(self):
        p1 = np.array([1.0, 0.0])
        y = np.array([1, 0])
        curves = curves_from_probs(p1, y, policy(), n_bins=10)
        assert curves.confidence_hist[-1] == 2

    def test_min_bins(self):
        with pytest.raises(ValueError):
            curves_from_probs(np.array([0.5]), np.array([1]), policy(), n_bins=1)


class TestCompareReports:
    def test_identical_inputs_zero_diff(self):
        rng = np.random.default_rng(5)
        model = random_model("linear", 3, seed=2)
        ds = random_dataset(rng)
        rep = report(model, ds, policy())
        diff = compare_reports(rep, rep)
        assert diff.d_accuracy == 0.0
        assert diff.d_expected_utility == 0.0
        assert np.all(diff.d_confidence_hist == 0)
        assert np.all(diff.d_accuracy_density == 0.0)
        assert diff.d_accept_accuracy_mass == 0.0

    def test_binning_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        model = random_model("linear", 3, seed=3)
        ds = random_dataset(rng)
        a = report(model, ds, policy(), n_bins=10)
        b = report(model, ds, policy(), n_bins=20)
        with pytest.raises(ValueError):
            compare_reports(a, b)

    def test_team_training_shifts_mass_into_accept_region(self):
        pol = policy()
        ds = gen_scenario1(2000, seed=7)
        config = TrainConfig(
            learning_rate=0.1, l2_weight=1e-3, batch_size=32, max_epochs=60
        )
        _, [(baseline, team)] = run_experiment(
            ds, "linear", pol.params, n_seeds=1, baseline_config=config, seed=0,
            return_models=True,
        )
        test = seed_splits(ds, 0)[3]
        rb = report(baseline, test, pol)
        rt = report(team, test, pol)
        # more high-confidence predictions, and more accuracy mass where accepted
        threshold_bin = int(np.floor(pol.accept_threshold * rb.curves.n_bins))
        assert (
            rt.curves.confidence_hist[threshold_bin:].sum()
            > rb.curves.confidence_hist[threshold_bin:].sum()
        )
        diff = compare_reports(rb, rt)
        assert diff.d_accept_accuracy_mass > 0.0

    def test_accept_aggregates_use_exact_membership(self):
        # a single-feature logistic model with unit weight outputs sigmoid(x),
        # so features placed at logits produce chosen probabilities exactly
        pol = policy()
        targets = np.array([0.76, 0.74, 0.2, 0.9])
        y = np.array([1, 1, 0, 0])
        logits = np.log(targets / (1.0 - targets))
        ds = Dataset(features=logits[:, None], labels=y, feature_names=("x",))
        model = Model([(np.array([1.0]), np.array([0.0]))])
        rep = report(model, ds, pol)
        # accepted: 0.76 (correct), 0.2 -> conf 0.8 (correct), 0.9 (wrong);
        # 0.74 falls in the solve band
        assert rep.accept_fraction == 0.75
        assert rep.accept_accuracy_mass == 0.5
        manual_utility = ((2 * 0.76 - 1) + (2 * 0.8 - 1) + (2 * 0.1 - 1)) / 4.0
        assert rep.accept_utility_mass == pytest.approx(manual_utility, abs=1e-9)


class TestWriters:
    def test_curves_csv(self, tmp_path):
        rng = np.random.default_rng(8)
        model = random_model("linear", 2, seed=4)
        ds = random_dataset(rng, n_features=2)
        curves = behavior_curves(model, ds, policy())
        path = tmp_path / "curves.csv"
        curves_to_csv(curves, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "v1", "v2", "v3", "v4"]
        assert len(rows) == 21
        total_v3 = sum(float(r[4]) for r in rows[1:])
        assert total_v3 == pytest.approx(curves.accuracy_density.sum(), abs=1e-12)

    def test_metrics_json(self, tmp_path):
        rng = np.random.default_rng(9)
        model = random_model("linear", 2, seed=5)
        metrics = evaluate(model, random_dataset(rng, n_features=2), policy())
        path = tmp_path / "metrics.json"
        metrics_to_json(metrics, path)
        data = json.loads(path.read_text())
        assert data["accuracy"] == metrics.accuracy
        assert set(data) == {"accuracy", "expected_utility", "empirical_utility"}
