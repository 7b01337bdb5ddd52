"""Metrics, behavior curves, bookkeeping identities, and report comparison."""

import csv
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    outputs,
    policies,
    random_model,
    reference_bin_index,
    reference_curves,
    reference_report,
)
from teamopt import analysis
from teamopt.analysis import (
    behavior_curves,
    compare_reports,
    curves_from_probs,
    curves_to_csv,
    evaluate,
    report,
)
from teamopt.classifiers import Model, init_model
from teamopt.data import Dataset, gen_scenario1
from teamopt.losses import LossSpec, batch_loss
from teamopt.optim import TrainConfig
from teamopt.pipeline import plan, seed_splits
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
        ((_, [(baseline, team)]),) = plan(
            ds, "linear", [pol.params], n_seeds=1, baseline_config=config, seed=0
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


def assert_same_bits(got, want):
    """Every field of two reports or curves holds the same bytes, recursing
    into nested dataclasses."""
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if dataclasses.is_dataclass(w):
            assert_same_bits(g, w)
            continue
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), field.name
        assert g.tobytes() == w.tobytes(), field.name


@st.composite
def binned_outputs(draw, pol, n_bins):
    """(prob1, labels) with probabilities in [0, 1] that include the bin
    edges k/n_bins, 0, 0.5, 1 and the policy's threshold and its mirror."""
    c = min(max(pol.accept_threshold, 0.0), 1.0)
    edges = [k / n_bins for k in range(n_bins + 1)] + [0.5, c, 1.0 - c]
    prob = st.floats(0.0, 1.0) | st.sampled_from(edges)
    n = draw(st.integers(1, 60))
    prob1 = draw(st.lists(prob, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(prob1), np.array(labels, dtype=np.int64)


class TestSameBitsAsReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), pol=policies(), n_bins=st.integers(2, 50))
    def test_curves_and_report_match_every_field(self, data, pol, n_bins):
        # policies with p < 1, c <= 0.5 and (unchecked) c > 1 included
        p1, y = data.draw(binned_outputs(pol, n_bins))
        assert_same_bits(curves_from_probs(p1, y, pol, n_bins), reference_curves(p1, y, pol, n_bins))
        ds = Dataset(features=np.zeros((len(y), 1)), labels=y, feature_names=("x",))
        # the model's outputs are the drawn probabilities
        with mock.patch.object(analysis, "_model_outputs", return_value=p1):
            got = report(init_model("linear", 1), ds, pol, n_bins)
        assert_same_bits(got, reference_report(p1, y, pol, n_bins))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6)
            | st.sampled_from([0.0, -0.0, -1e-300, -0.5, -1.0, 1.0, 1.0 + 2**-52])
            | st.floats(allow_nan=False),
            min_size=1, max_size=40,
        ),
        n_bins=st.integers(2, 50),
    )
    def test_bin_index_matches_floor_and_clamps(self, values, n_bins):
        # values outside [0, 1], below 0 too, land in the first or last bin
        with np.errstate(invalid="ignore", over="ignore"):
            got = analysis._bin_index(np.array(values), n_bins)
            want = reference_bin_index(np.array(values), n_bins)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.min() >= 0 and got.max() <= n_bins - 1


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
