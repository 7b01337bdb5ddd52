"""Decision-theoretic core: the accept-or-solve policy and team utility.

A classifier issues a recommendation (predicted label plus confidence) and a
human overseer either accepts it or solves the task unaided at a cost. The
overseer accepts whenever the confidence is at least the threshold
c = a - lam/(1+beta) derived from the domain parameters; an accepted
recommendation earns (1+beta)*h[y] - beta in expectation, a solved task the
constant solve utility. ``utilities`` is the one implementation of this
rule; everything else in the package that scores a team calls it.

All operations are pure functions of their inputs and safe to call
concurrently. They broadcast over arbitrary shapes and back the batched code
paths in the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UtilityParams",
    "HumanPolicy",
    "predicted_labels",
    "confidences",
    "utilities",
    "expected_utilities",
    "empirical_utilities",
]


@dataclass(frozen=True)
class UtilityParams:
    """Domain parameters of the team utility.

    Attributes:
        beta: Penalty for an incorrect final decision, >= 1.
        lam: Cost of solving the task without the model, >= 0.
        human_accuracy: Probability the human decides correctly when solving,
            in [0, 1].
    """

    beta: float = 1.0
    lam: float = 0.5
    human_accuracy: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta) and self.beta >= 1.0):
            raise ValueError(f"beta must be finite and >= 1, got {self.beta}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (
            math.isfinite(self.human_accuracy) and 0.0 <= self.human_accuracy <= 1.0
        ):
            raise ValueError(
                f"human_accuracy must be in [0, 1], got {self.human_accuracy}"
            )

    @property
    def accept_threshold(self) -> float:
        """Minimum confidence at which accepting beats solving.

        May fall outside [0.5, 1]; the policy then degenerates to
        always-accept (<= 0.5) or never-accept (> 1). Both are legal.
        """
        return self.human_accuracy - self.lam / (1.0 + self.beta)

    @property
    def solve_utility(self) -> float:
        """Expected utility of the solve branch: (1+beta)*a - beta - lam."""
        return (1.0 + self.beta) * self.human_accuracy - self.beta - self.lam


@dataclass(frozen=True)
class HumanPolicy:
    """Threshold acceptance policy, optionally with imperfect compliance.

    ``accept_probability`` < 1 models an overseer who, above the threshold,
    accepts only with that probability and solves otherwise.
    """

    params: UtilityParams
    accept_probability: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.accept_probability <= 1.0):
            raise ValueError(
                f"accept_probability must be in (0, 1], got {self.accept_probability}"
            )

    @property
    def accept_threshold(self) -> float:
        return self.params.accept_threshold


# ``prob1`` is the probability of label 1 and may have any shape; ``labels``
# must broadcast to it.


def predicted_labels(prob1) -> np.ndarray:
    """Argmax labels; a 0.5 tie resolves to label 0 like a two-way argmax."""
    return (np.asarray(prob1, dtype=np.float64) > 0.5).astype(np.int64)


def confidences(prob1) -> np.ndarray:
    p = np.asarray(prob1, dtype=np.float64)
    return np.maximum(p, 1.0 - p)


def true_label_probs(prob1, labels) -> np.ndarray:
    p = np.asarray(prob1, dtype=np.float64)
    y = np.asarray(labels)
    return np.where(y == 1, p, 1.0 - p)


def utilities(
    prob1,
    labels,
    policy: HumanPolicy,
    objective: str = "expected_utility",
) -> tuple[np.ndarray, np.ndarray]:
    """Per-example accept probability and team utility; the vectorized kernel.

    The overseer accepts, with the policy's accept probability, wherever the
    confidence is >= the threshold. The accept branch pays (1+beta)*h[y] - beta,
    h[y] being the probability of the true label, for ``expected_utility``, or
    1 / -beta as the argmax label is right or wrong for ``empirical_utility``.
    The solve branch pays the solve utility (1+beta)*a - beta - lam: the human
    earns 1 - lam when right, with probability a, and -beta - lam when wrong.
    With accept probability p the utility is p*accept + (1-p)*solve.

    Both results have the shape of ``prob1``.
    """
    params = policy.params
    # confidences() and true_label_probs() inlined to share 1-p: the kernel
    # runs once per mini-batch
    p = np.asarray(prob1, dtype=np.float64)
    positive = np.equal(labels, 1)
    q = 1.0 - p
    # accept*p is where(accept, p, 0.0) for the policy's p in (0, 1]
    p_accept = (np.maximum(p, q) >= params.accept_threshold) * policy.accept_probability
    if objective == "expected_utility":
        # h[y]: p where y = 1, 1 - p elsewhere
        u = np.where(positive, p, q)
        u *= 1.0 + params.beta
        u -= params.beta
    elif objective == "empirical_utility":
        # predicted_labels(p) == labels for 0/1 labels, without the int copy
        u = np.where((p > 0.5) == positive, 1.0, -params.beta)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    del q
    # p_accept*u + (1 - p_accept)*solve_utility, on the kernel's own
    # temporaries so that at most three arrays of the full size are live
    u *= p_accept
    solve = 1.0 - p_accept
    solve *= params.solve_utility
    u += solve
    return p_accept, u


def expected_utilities(prob1, labels, policy: HumanPolicy) -> np.ndarray:
    """Expected team utility per example: (1+beta)*h[y] - beta where the
    overseer accepts, the solve utility where they solve, mixed by the accept
    probability."""
    return utilities(prob1, labels, policy, "expected_utility")[1]


def empirical_utilities(prob1, labels, policy: HumanPolicy) -> np.ndarray:
    """Empirical team utility per example: 1 for a correct and -beta for a
    wrong accepted label, the solve utility where the overseer solves, mixed
    by the accept probability."""
    return utilities(prob1, labels, policy, "empirical_utility")[1]
