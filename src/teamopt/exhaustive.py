"""Brute-force linear classifiers on two-dimensional data.

Candidates are logistic models with weights s*(cos theta, sin theta) and
bias -s*offset: theta sweeps directions, offset slides the boundary along
the data range, and the sharpness s scales the logits. The search evaluates
the mean objective (expected or empirical utility) on the given split for
every candidate and returns the argmax, so it cannot get stuck the way
gradient descent can; ties go to the first-enumerated candidate in (theta,
offset, sharpness) order.

Each angle's candidates are scored together, over the n projections of the
data onto the angle's direction:

- Expected utility varies continuously with every example, so every
  (example, candidate) pair is evaluated, in blocks of ``BLOCK_ROWS``
  examples held in buffers allocated once per search: O(n * candidates)
  per angle. Per-candidate sums run over the examples in row order.
- Empirical utility takes three values only: accepted and correct,
  accepted and wrong, solved. Along the sorted projections the predicted
  label switches once and the accepted examples form a low and a high
  tail, so three vectorized bisections per angle locate the switch and
  the two tail ends for all candidates at once, and a running count of
  positive labels turns them into the three counts: O(n log n +
  candidates * log n) per angle. The bisections evaluate the candidates'
  probabilities with the same expression as the dense evaluation and take
  their predicates from ``team_model``, so the counts are exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .classifiers import LOGIT_CLAMP, Model, sigmoid
from .data import Dataset
from .team_model import HumanPolicy, predicted_labels, utilities

__all__ = [
    "LinearGrid",
    "OBJECTIVES",
    "select_top2_features",
    "exhaustive_search",
    "MISMATCH_COLUMNS",
    "mismatch_columns",
    "write_mismatch_csv",
]

OBJECTIVES = ("expected_utility", "empirical_utility")

# the loss-metric mismatch table, one row per dataset or seed
MISMATCH_COLUMNS = (
    "dataset", "eu_logloss", "emp_logloss", "delta_eu_a", "delta_emp_b", "delta_emp_c",
)

# Examples per block of the expected-utility evaluation. With the default
# 707 candidates per angle a buffer holds 0.7 MB; 512-row blocks (2.9 MB)
# made the evaluation about 20% slower on a 2-core x86-64 machine.
BLOCK_ROWS = 128

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
        lo, hi = self.offset_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid offset range {self.offset_range}")
        if not all(math.isfinite(s) and s > 0.0 for s in self.sharpness):
            raise ValueError(f"sharpness values must be finite and > 0, got {self.sharpness}")

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
) -> Model:
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
    scores = _score_grid(dataset, objective, policy, grid)
    # argmax returns the first maximum in (angle, offset, sharpness) order
    ai, oi, si = np.unravel_index(np.argmax(scores), scores.shape)
    angle = grid.angles()[ai]
    s = float(grid.sharpness[si])
    direction = np.array([np.cos(angle), np.sin(angle)])
    return Model([(s * direction, np.array([-s * float(grid.offsets()[oi])]))])


def _score_grid(
    dataset: Dataset, objective: str, policy: HumanPolicy, grid: LinearGrid
) -> np.ndarray:
    """Mean objective of every candidate, shape (angles, offsets, sharpness)."""
    offsets = grid.offsets()
    sharpness = np.asarray(grid.sharpness, dtype=np.float64)
    scores = np.empty((grid.n_angles, len(offsets), len(sharpness)))
    if objective == "expected_utility":
        score_angle = _ExpectedScorer(dataset.labels, offsets, sharpness, policy)
    else:
        score_angle = _EmpiricalScorer(dataset.labels, offsets, sharpness, policy)
    for ai, angle in enumerate(grid.angles()):
        direction = np.array([np.cos(angle), np.sin(angle)])
        scores[ai] = score_angle(dataset.features @ direction)
    return scores


def _logits_to_probs(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The candidates' positive-class probabilities from z = s*(proj - offset),
    the expression the classifiers use; z is overwritten."""
    return sigmoid(np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP, out=z), out=out)


class _ExpectedScorer:
    """Mean expected utility of one angle's candidates, ``BLOCK_ROWS``
    examples at a time, in buffers allocated once and reused for every
    angle."""

    def __init__(self, labels, offsets, sharpness, policy):
        self.labels = labels[:, None, None]
        self.offsets = offsets
        self.sharpness = sharpness[:, None]
        self.policy = policy
        rows = min(BLOCK_ROWS, len(labels))
        # candidates laid out (sharpness, offset) so the innermost loops run
        # over the offsets; row 0 of ``utility`` carries the running
        # per-candidate sum, so each block's reduction continues the
        # row-order sum of the rows before it
        candidates = (len(sharpness), len(offsets))
        self.diff = np.empty((rows, len(offsets)))
        self.z = np.empty((rows, *candidates))
        self.prob1 = np.empty((rows, *candidates))
        self.p_accept = np.empty((rows, *candidates))
        self.utility = np.empty((rows + 1, *candidates))

    def __call__(self, proj: np.ndarray) -> np.ndarray:
        n = len(proj)
        for start in range(0, n, BLOCK_ROWS):
            rows = proj[start : start + BLOCK_ROWS]
            b = len(rows)
            z = self.z[:b]
            diff = np.subtract(rows[:, None], self.offsets, out=self.diff[:b])
            np.multiply(diff[:, None, :], self.sharpness, out=z)
            utilities(
                _logits_to_probs(z, out=self.prob1[:b]),
                self.labels[start : start + b],
                self.policy,
                "expected_utility",
                out=(self.p_accept[:b], self.utility[1 : b + 1]),
            )
            first = 1 if start == 0 else 0
            self.utility[0] = np.add.reduce(self.utility[first : b + 1], axis=0)
        return self.utility[0].T / n


class _EmpiricalScorer:
    """Mean empirical utility of one angle's candidates from counts.

    An example scores one of three values: accepted with the right label,
    accepted with the wrong one, or solved by the human. Sorting the
    projections puts each candidate's predicted-0 examples first; among
    those the confidence falls along the sorted order and among the rest it
    rises, so the accepted examples are a prefix of the first group and a
    suffix of the second, found by bisection.
    """

    def __init__(self, labels, offsets, sharpness, policy):
        self.labels = labels
        self.policy = policy
        # flat candidate order is the (offset, sharpness) enumeration order
        self.shape = (len(offsets), len(sharpness))
        self.offsets = np.repeat(offsets, len(sharpness))
        self.sharpness = np.tile(sharpness, len(offsets))
        # the values of an accepted correct, an accepted wrong and a solved
        # example; a kind no example can have (nothing accepted when the
        # threshold exceeds 1, nothing solved when it is <= 0.5) counts 0
        _, self.values = utilities(
            np.array([1.0, 1.0, 0.5]), np.array([1, 0, 0]), policy, "empirical_utility"
        )

    def __call__(self, proj: np.ndarray) -> np.ndarray:
        order = np.argsort(proj)
        self.proj = proj[order]
        # positives[i]: positive labels among the first i sorted examples
        positives = np.concatenate(([0], np.cumsum(self.labels[order] == 1)))
        n = len(proj)
        start = np.zeros(len(self.offsets), dtype=np.intp)
        end = np.full(len(self.offsets), n)
        switch = self._first(self._predicts_positive, start, end)
        low = self._first(self._solved, start, switch)
        high = self._first(self._accepted, switch, end)
        correct = low - positives[low] + positives[n] - positives[high]
        wrong = positives[low] + (n - high) - (positives[n] - positives[high])
        solved = high - low
        v_correct, v_wrong, v_solved = self.values
        scores = correct * v_correct + wrong * v_wrong + solved * v_solved
        return (scores / n).reshape(self.shape)

    def _probs(self, index: np.ndarray) -> np.ndarray:
        return _logits_to_probs(self.sharpness * (self.proj[index] - self.offsets))

    def _predicts_positive(self, index):
        return predicted_labels(self._probs(index)) == 1

    def _accepted(self, index):
        return utilities(self._probs(index), 1, self.policy, "empirical_utility")[0] > 0.0

    def _solved(self, index):
        return ~self._accepted(index)

    def _first(self, predicate, lo, hi):
        """Per candidate, the first index in [lo, hi) where ``predicate``
        holds, or hi; the predicate must be false before it and true after."""
        last = len(self.proj) - 1
        while True:
            open_ = lo < hi
            if not open_.any():
                return lo
            mid = (lo + hi) // 2
            holds = predicate(np.minimum(mid, last))
            hi = np.where(open_ & holds, mid, hi)
            lo = np.where(open_ & ~holds, mid + 1, lo)


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
    return dict(zip(MISMATCH_COLUMNS, (
        dataset_name,
        baseline_metrics.expected_utility,
        baseline_metrics.empirical_utility,
        search_eu_metrics.expected_utility - baseline_metrics.expected_utility,
        search_eu_metrics.empirical_utility - baseline_metrics.empirical_utility,
        search_emp_metrics.empirical_utility - baseline_metrics.empirical_utility,
    )))


def write_mismatch_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MISMATCH_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["dataset"]] + [repr(float(row[k])) for k in MISMATCH_COLUMNS[1:]]
            )
