"""Brute-force linear classifiers on two-dimensional data.

Candidates are logistic models with weights s*(cos theta, sin theta) and
bias -s*offset: theta sweeps directions, offset slides the boundary along
the data range, and the sharpness s scales the logits. The search returns
the candidate of highest mean objective (expected or empirical utility) on
the given split over the whole grid, so it cannot get stuck the way
gradient descent can; ties go to the first-enumerated candidate in (theta,
offset, sharpness) order.

Both objectives start from one count pass. Per angle, one sort of the n
projections of the data onto the angle's direction gives every candidate
three counts: accepted and correct, accepted and wrong, solved. Along the
sorted projections the predicted label switches once and the accepted
examples form a low and a high tail, so three boundaries per candidate and
a running count of positive labels give the counts. Each boundary is
guessed by ``np.searchsorted`` at its crossing point (the switch at the
offset, the tail ends at offset -+ logit(c)/s), one vectorized call of its
predicate at the guess and the index before confirms it, and only the
unconfirmed candidates are bisected: O(n log n + candidates) per angle; on
8,000 scenario1 rows with the default policy none of the default grid's
candidates is bisected. The predicates evaluate the candidates'
probabilities with the same expression as the dense evaluation and come
from ``team_model``, so the counts are exact whatever the guess.

- Empirical utility takes three values only, so the counts give it
  exactly.
- Expected utility varies continuously with every example, but the counts
  bound it: a solved example pays the solve utility S, an accepted correct
  one at most its value at h = 1, and an accepted wrong one has h <= 1 -
  max(c, 1/2). Branch and bound (Land & Doig, 1960) then takes the
  candidates by falling bound and evaluates densely, O(n) each with sums
  in row order, only those whose bound still reaches the best exact score
  so far. Every candidate that ties the maximum is among them, so the tie
  rule holds. On 8,000 scenario1 rows with the default policy, 690 of the
  127,260 default candidates are evaluated; when nothing can be pruned (a
  threshold above 1, where every candidate solves) every candidate is.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .classifiers import Model, clamped_sigmoid
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
        # a candidate's bias is -s*offset
        for s in self.sharpness:
            if not math.isfinite(float(s) * max(abs(lo), abs(hi))):
                raise ValueError(
                    f"sharpness {s!r} overflows the bias over the offset range {self.offset_range}"
                )

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
    """Mean objective of every candidate, shape (angles, offsets, sharpness).

    Empirical utility is exact in every cell. For expected utility a cell
    holds the exact mean where the candidate was evaluated and the mean of
    its ceiling otherwise; every such ceiling lies below the grid maximum,
    and every candidate that attains the maximum is evaluated.
    """
    n = dataset.n_examples
    offsets = grid.offsets()
    sharpness = np.asarray(grid.sharpness, dtype=np.float64)
    shape = (grid.n_angles, len(offsets), len(sharpness))
    directions = [np.array([np.cos(angle), np.sin(angle)]) for angle in grid.angles()]
    count = _CountPass(dataset.labels, offsets, sharpness, policy)
    # each (angles, offsets * sharpness): accepted-correct, accepted-wrong, solved
    correct, wrong, solved = np.stack(
        [count(dataset.features @ direction) for direction in directions], axis=1
    )
    if objective == "empirical_utility":
        # the values of an accepted correct, an accepted wrong and a solved
        # example; a kind no example can have (nothing accepted when the
        # threshold exceeds 1, nothing solved when it is <= 0.5) counts 0
        _, (v_correct, v_wrong, v_solved) = utilities(
            np.array([1.0, 1.0, 0.5]), np.array([1, 0, 0]), policy, "empirical_utility"
        )
        return ((correct * v_correct + wrong * v_wrong + solved * v_solved) / n).reshape(shape)
    params = policy.params
    p, beta, solve = policy.accept_probability, params.beta, params.solve_utility
    # Ceilings of one example's expected utility: a solved example pays
    # exactly the solve utility, an accepted correct one at most its value at
    # h = 1, and an accepted wrong one has h = 1 - confidence <= 1 - max(c, 1/2).
    h_wrong = 1.0 - max(policy.accept_threshold, 0.5)
    v_correct = p + (1.0 - p) * solve
    v_wrong = p * ((1.0 + beta) * h_wrong - beta) + (1.0 - p) * solve
    # covers the rounding of the ceilings and of the exact sums, so that each
    # ceiling is at least its candidate's exact sum
    slack = 1e-9 * n * max(1.0, beta, abs(solve))
    sums = (correct * v_correct + wrong * v_wrong + solved * solve + slack).ravel()
    # Branch and bound: take the candidates by falling ceiling and replace the
    # ceiling by the exact sum while it may still reach the best exact sum so
    # far. A candidate that ties the maximum has a ceiling at least as high,
    # so it is evaluated and the first-enumerated maximum still wins; the
    # ceilings left in place all lie below the maximum.
    best = -np.inf
    for flat in np.argsort(-sums, kind="stable"):
        if sums[flat] < best - slack:
            break
        ai, oi, si = np.unravel_index(flat, shape)
        sums[flat] = _expected_sum(
            dataset.features @ directions[ai], dataset.labels, offsets[oi], sharpness[si], policy
        )
        best = max(best, sums[flat])
    return (sums / n).reshape(shape)


def _expected_sum(proj, labels, offset, sharpness, policy) -> float:
    """One candidate's total expected utility over the examples, summed left
    to right in row order (numpy would sum a 1-d array pairwise)."""
    prob1 = clamped_sigmoid((proj - offset) * sharpness)
    return float(np.cumsum(utilities(prob1, labels, policy, "expected_utility")[1])[-1])


class _CountPass:
    """Per candidate of one angle, the counts of accepted-and-correct,
    accepted-and-wrong and solved examples.

    Sorting the projections puts each candidate's predicted-0 examples
    first; among those the confidence falls along the sorted order and among
    the rest it rises, so the accepted examples are a prefix of the first
    group and a suffix of the second. Each of the three boundaries is
    guessed at its crossing point, where s*(proj - offset) is 0 or +-logit(c),
    and confirmed or, failing that, found by bisection.
    """

    def __init__(self, labels, offsets, sharpness, policy):
        self.labels = labels
        self.policy = policy
        # flat candidate order is the (offset, sharpness) enumeration order
        self.offsets = np.repeat(offsets, len(sharpness))
        self.sharpness = np.tile(sharpness, len(offsets))
        # distance from the switch to the guessed accept ends: 0 when every
        # example is accepted (c <= 1/2), infinite when none is (c >= 1,
        # where only saturated probabilities reach c and bisection finds them)
        c = policy.accept_threshold
        reach = 0.0 if c <= 0.5 else math.inf if c >= 1.0 else math.log(c / (1.0 - c))
        self.reach = reach / self.sharpness

    def __call__(self, proj: np.ndarray) -> np.ndarray:
        order = np.argsort(proj)
        self.proj = proj[order]
        # positives[i]: positive labels among the first i sorted examples
        positives = np.concatenate(([0], np.cumsum(self.labels[order] == 1)))
        n = len(proj)
        start = np.zeros(len(self.offsets), dtype=np.intp)
        end = np.full(len(self.offsets), n)
        at = self.proj.searchsorted
        switch = self._first(self._predicts_positive, start, end, at(self.offsets, "right"))
        low = self._first(self._solved, start, switch, at(self.offsets - self.reach, "right"))
        high = self._first(self._accepted, switch, end, at(self.offsets + self.reach))
        correct = low - positives[low] + positives[n] - positives[high]
        wrong = positives[low] + (n - high) - (positives[n] - positives[high])
        return np.stack([correct, wrong, high - low])

    def _probs(self, index: np.ndarray, cand=slice(None)) -> np.ndarray:
        """Probabilities of the candidates ``cand`` at the sorted ``index``."""
        return clamped_sigmoid(self.sharpness[cand] * (self.proj[index] - self.offsets[cand]))

    def _predicts_positive(self, index, cand=slice(None)):
        return predicted_labels(self._probs(index, cand)) == 1

    def _accepted(self, index, cand=slice(None)):
        return utilities(self._probs(index, cand), 1, self.policy, "empirical_utility")[0] > 0.0

    def _solved(self, index, cand=slice(None)):
        return ~self._accepted(index, cand)

    def _first(self, predicate, lo, hi, guess):
        """Per candidate, the first index in [lo, hi) where ``predicate``
        holds, or hi; the predicate must be false before it and true after.
        One call of the predicate at guess - 1 and guess settles a right
        guess; bisection of the candidates still open settles the rest, so
        the result does not depend on the guess."""
        lo, hi = lo.copy(), hi.copy()
        cand = np.flatnonzero(lo < hi)
        # each row of probes holds one index in [lo, hi) per open candidate
        probes = np.clip(guess[cand] + np.array([[-1], [0]]), lo[cand], hi[cand] - 1)
        while len(cand):
            holds = predicate(probes, cand)
            hi[cand] = np.where(holds, probes, hi[cand]).min(axis=0)
            lo[cand] = np.where(holds, lo[cand], probes + 1).max(axis=0)
            cand = cand[lo[cand] < hi[cand]]
            probes = ((lo[cand] + hi[cand]) // 2)[None]
        return lo


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
