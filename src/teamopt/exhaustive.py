"""Brute-force linear classifiers on two-dimensional data.

Candidates are logistic models with weights s*(cos theta, sin theta) and
bias -s*offset: theta sweeps directions, offset slides the boundary along
the data range, and the sharpness s scales the logits. The search evaluates
the mean objective (expected or expectation-mode empirical utility) on the
given split for every candidate and returns the argmax, so it cannot get
stuck the way gradient descent can; ties go to the first-enumerated
candidate in (theta, offset, sharpness) order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .classifiers import LOGIT_CLAMP, LinearModel, sigmoid
from .data import Dataset
from .team_model import HumanPolicy, utilities

__all__ = [
    "LinearGrid",
    "OBJECTIVES",
    "select_top2_features",
    "exhaustive_search",
    "mismatch_columns",
    "write_mismatch_csv",
]

OBJECTIVES = ("expected_utility", "empirical_utility")

# Defaults: offsets at +-3 cover standardized data; the sharpness ladder
# spans always-solve soft boundaries to near-hard decisions.
DEFAULT_N_ANGLES = 180
DEFAULT_N_OFFSETS = 101
DEFAULT_OFFSET_RANGE = (-3.0, 3.0)
DEFAULT_SHARPNESS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class LinearGrid:
    n_angles: int = DEFAULT_N_ANGLES
    n_offsets: int = DEFAULT_N_OFFSETS
    offset_range: tuple[float, float] = DEFAULT_OFFSET_RANGE
    sharpness: tuple[float, ...] = DEFAULT_SHARPNESS

    def __post_init__(self) -> None:
        if self.n_angles < 1 or self.n_offsets < 1 or len(self.sharpness) < 1:
            raise ValueError("grid must have at least one angle, offset, and sharpness")
        if not self.offset_range[0] < self.offset_range[1]:
            raise ValueError(f"invalid offset range {self.offset_range}")
        if any(s <= 0.0 for s in self.sharpness):
            raise ValueError("sharpness values must be > 0")

    def angles(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * np.pi, self.n_angles, endpoint=False)

    def offsets(self) -> np.ndarray:
        lo, hi = self.offset_range
        if self.n_offsets == 1:
            return np.array([(lo + hi) / 2.0])
        return np.linspace(lo, hi, self.n_offsets)

    @property
    def n_candidates(self) -> int:
        return self.n_angles * self.n_offsets * len(self.sharpness)


def _quantile_bins(values: np.ndarray, n_bins: int = 10) -> np.ndarray:
    edges = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1))
    inner = np.unique(edges[1:-1])
    return np.searchsorted(inner, values, side="right")


def mutual_information(feature: np.ndarray, labels: np.ndarray) -> float:
    """MI (nats) between a 10-quantile binning of the feature and the label."""
    bins = _quantile_bins(feature)
    n = len(labels)
    joint = np.zeros((int(bins.max()) + 1, 2))
    np.add.at(joint, (bins, labels), 1.0)
    joint /= n
    pb = joint.sum(axis=1, keepdims=True)
    pl = joint.sum(axis=0, keepdims=True)
    mask = joint > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = joint * np.log(joint / (pb * pl))
    return float(terms[mask].sum())


def select_top2_features(dataset: Dataset) -> tuple[int, int]:
    """Indices of the two most label-informative features, best first.

    Informativeness is estimated as mutual information against a 10-quantile
    equal-frequency binning; ties break to the lower index. Datasets with
    two features pass through as (0, 1).
    """
    n = dataset.n_features
    if n < 2:
        raise ValueError("need at least two features")
    if n == 2:
        return (0, 1)
    scores = [
        mutual_information(dataset.features[:, j], dataset.labels) for j in range(n)
    ]
    ranked = sorted(range(n), key=lambda j: (-scores[j], j))
    return (ranked[0], ranked[1])


def exhaustive_search(
    dataset: Dataset,
    objective: str,
    policy: HumanPolicy,
    grid: LinearGrid | None = None,
) -> LinearModel:
    """Enumerate the grid and return the candidate maximizing the mean objective."""
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if dataset.n_features != 2:
        raise ValueError(
            f"exhaustive search needs exactly 2 features, got {dataset.n_features}"
        )
    if dataset.n_examples == 0:
        raise ValueError("dataset is empty")
    grid = grid or LinearGrid()
    X = dataset.features
    y = dataset.labels[:, None]
    offsets = grid.offsets()
    sharpness = np.asarray(grid.sharpness)
    best_score = -math.inf
    best = (0, 0, 0)
    for ai, angle in enumerate(grid.angles()):
        direction = np.array([np.cos(angle), np.sin(angle)])
        proj = X @ direction
        # scores[o, s]: scan order must match (offset, sharpness) enumeration
        scores = np.empty((len(offsets), len(sharpness)))
        for si, s in enumerate(sharpness):
            z = s * (proj[:, None] - offsets[None, :])
            prob1 = sigmoid(np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP))
            scores[:, si] = utilities(prob1, y, policy, objective)[1].mean(axis=0)
        flat = np.argmax(scores)
        if scores.flat[flat] > best_score:
            best_score = float(scores.flat[flat])
            best = (ai, *np.unravel_index(flat, scores.shape))
    ai, oi, si = best
    angle = grid.angles()[ai]
    s = float(sharpness[si])
    direction = np.array([np.cos(angle), np.sin(angle)])
    return LinearModel(
        weights=s * direction, bias=np.array([-s * float(offsets[oi])])
    )


def mismatch_columns(
    dataset_name: str,
    baseline_metrics,
    search_eu_metrics,
    search_emp_metrics,
) -> dict:
    """One loss-metric-mismatch table row from three test-set Metrics.

    Columns: the gradient-trained log-loss reference (EU, empirical), the
    expected-utility search's deltas (A: expected, B: empirical), and the
    empirical-utility search's empirical delta (C).
    """
    return {
        "dataset": dataset_name,
        "eu_logloss": baseline_metrics.expected_utility,
        "emp_logloss": baseline_metrics.empirical_utility,
        "delta_eu_a": search_eu_metrics.expected_utility
        - baseline_metrics.expected_utility,
        "delta_emp_b": search_eu_metrics.empirical_utility
        - baseline_metrics.empirical_utility,
        "delta_emp_c": search_emp_metrics.empirical_utility
        - baseline_metrics.empirical_utility,
    }


def write_mismatch_csv(rows: list[dict], path) -> None:
    header = ["dataset", "eu_logloss", "emp_logloss", "delta_eu_a", "delta_emp_b", "delta_emp_c"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [row["dataset"]] + [repr(float(row[k])) for k in header[1:]]
            )
