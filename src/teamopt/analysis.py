"""Test-set metrics and binned behavior diagnostics.

The four diagnostic curves share one equal-width binning of [0, 1]:

* reliability: per-confidence-bin accuracy (NaN marks an empty bin),
* confidence_hist: per-bin counts of prediction confidence,
* accuracy_density: per-bin correct count / N, binned by the true-label
  probability, so the curve sums exactly to accuracy,
* utility_density: per-bin summed expected utility / N, same binning, so the
  curve sums exactly to the mean expected utility.

Accept-region aggregates are computed by exact per-example thresholding;
bins are presentation only.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .classifiers import Model, forward_batch
from .data import Dataset
from .team_model import (
    HumanPolicy,
    confidences,
    empirical_utilities,
    expected_utilities,
    predicted_labels,
    true_label_probs,
    utilities,
)

__all__ = [
    "Metrics",
    "BehaviorCurves",
    "ModelReport",
    "ReportDiff",
    "evaluate",
    "behavior_curves",
    "curves_from_probs",
    "report",
    "compare_reports",
    "curves_to_csv",
]


@dataclass(frozen=True)
class Metrics:
    """Aggregate test metrics."""

    accuracy: float
    expected_utility: float
    empirical_utility: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class BehaviorCurves:
    bin_edges: np.ndarray
    reliability: np.ndarray
    confidence_hist: np.ndarray
    accuracy_density: np.ndarray
    utility_density: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.bin_edges) - 1


@dataclass(frozen=True)
class ModelReport:
    """Metrics, curves, and exact accept-region aggregates for one model."""

    metrics: Metrics
    curves: BehaviorCurves
    accept_fraction: float
    accept_accuracy_mass: float
    accept_utility_mass: float


@dataclass(frozen=True)
class ReportDiff:
    """Team minus baseline on the test metrics and the accept-region aggregates."""

    d_accuracy: float
    d_expected_utility: float
    d_empirical_utility: float
    d_accept_fraction: float
    d_accept_accuracy_mass: float
    d_accept_utility_mass: float


def _model_outputs(model: Model, dataset: Dataset) -> np.ndarray:
    if dataset.n_examples == 0:
        raise ValueError("dataset is empty")
    prob1, _ = forward_batch(model, dataset.features)
    return prob1


def _metrics(prob1: np.ndarray, labels: np.ndarray, policy: HumanPolicy) -> Metrics:
    return Metrics(
        accuracy=float(np.mean(predicted_labels(prob1) == labels)),
        expected_utility=float(np.mean(expected_utilities(prob1, labels, policy))),
        empirical_utility=float(np.mean(empirical_utilities(prob1, labels, policy))),
    )


def evaluate(model: Model, dataset: Dataset, policy: HumanPolicy) -> Metrics:
    """Accuracy, mean expected utility, and mean empirical utility."""
    return _metrics(_model_outputs(model, dataset), dataset.labels, policy)


def _bin_index(values: np.ndarray, n_bins: int) -> np.ndarray:
    # Equal-width bins on [0, 1], last bin right-closed. The cast truncates
    # toward zero, which differs from floor only below 0, where the clip
    # sends both to bin 0.
    idx = np.multiply(values, n_bins).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1, out=idx)


def curves_from_probs(prob1, labels, policy: HumanPolicy, n_bins: int = 20) -> BehaviorCurves:
    """Behavior curves straight from positive-class probabilities."""
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    p1 = np.asarray(prob1, dtype=np.float64)
    y = np.asarray(labels)
    n = p1.shape[0]
    # one full-size bin index at a time, and none while the utility kernel's
    # temporaries are live
    correct = predicted_labels(p1) == y
    conf_bin = _bin_index(confidences(p1), n_bins)
    hist = np.bincount(conf_bin, minlength=n_bins).astype(np.int64)
    correct_by_conf = np.bincount(conf_bin, weights=correct, minlength=n_bins)
    del conf_bin
    with np.errstate(invalid="ignore"):
        reliability = np.where(hist > 0, correct_by_conf / np.maximum(hist, 1), np.nan)

    psi = expected_utilities(p1, y, policy)
    true_bin = _bin_index(true_label_probs(p1, y), n_bins)
    accuracy_density = np.bincount(true_bin, weights=correct, minlength=n_bins) / n
    utility_density = np.bincount(true_bin, weights=psi, minlength=n_bins) / n

    return BehaviorCurves(
        bin_edges=np.linspace(0.0, 1.0, n_bins + 1),
        reliability=reliability,
        confidence_hist=hist,
        accuracy_density=accuracy_density,
        utility_density=utility_density,
    )


def behavior_curves(
    model: Model, dataset: Dataset, policy: HumanPolicy, n_bins: int = 20
) -> BehaviorCurves:
    prob1 = _model_outputs(model, dataset)
    return curves_from_probs(prob1, dataset.labels, policy, n_bins)


def report(
    model: Model, dataset: Dataset, policy: HumanPolicy, n_bins: int = 20
) -> ModelReport:
    """Evaluate metrics, curves, and exact accept-region masses in one pass."""
    prob1 = _model_outputs(model, dataset)
    y = dataset.labels
    n = dataset.n_examples
    metrics = _metrics(prob1, y, policy)
    p_accept, psi = utilities(prob1, y, policy)
    accepted = p_accept > 0.0
    correct = predicted_labels(prob1) == y
    accept_fraction = float(np.mean(accepted))
    accept_accuracy_mass = np.count_nonzero(correct & accepted) / n
    accept_utility_mass = float(np.sum(psi[accepted])) / n
    # freed before the curves allocate their own full-size temporaries
    del p_accept, psi, accepted, correct
    return ModelReport(
        metrics=metrics,
        curves=curves_from_probs(prob1, y, policy, n_bins),
        accept_fraction=accept_fraction,
        accept_accuracy_mass=accept_accuracy_mass,
        accept_utility_mass=accept_utility_mass,
    )


def compare_reports(baseline: ModelReport, team: ModelReport) -> ReportDiff:
    """Team minus baseline on the metrics and the accept-region aggregates;
    the behavior curves are not compared, so their binnings may differ."""
    b, t = baseline, team
    return ReportDiff(
        d_accuracy=t.metrics.accuracy - b.metrics.accuracy,
        d_expected_utility=t.metrics.expected_utility - b.metrics.expected_utility,
        d_empirical_utility=t.metrics.empirical_utility - b.metrics.empirical_utility,
        d_accept_fraction=t.accept_fraction - b.accept_fraction,
        d_accept_accuracy_mass=t.accept_accuracy_mass - b.accept_accuracy_mass,
        d_accept_utility_mass=t.accept_utility_mass - b.accept_utility_mass,
    )


def curves_to_csv(curves: BehaviorCurves, path) -> None:
    """CSV columns (bin_lo, bin_hi, v1, v2, v3, v4); empty v1 marks empty bins."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "v1", "v2", "v3", "v4"])
        for i in range(curves.n_bins):
            v1 = curves.reliability[i]
            writer.writerow(
                [
                    repr(float(curves.bin_edges[i])),
                    repr(float(curves.bin_edges[i + 1])),
                    "" if np.isnan(v1) else repr(float(v1)),
                    int(curves.confidence_hist[i]),
                    repr(float(curves.accuracy_density[i])),
                    repr(float(curves.utility_density[i])),
                ]
            )
