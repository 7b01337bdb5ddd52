"""Decision-theoretic core: payoffs, the accept-or-solve policy, and team utility.

A classifier issues a recommendation (predicted label plus confidence) and a
human overseer either accepts it or solves the task unaided at a cost. The
overseer accepts whenever the confidence clears a threshold derived from the
domain parameters; expected team utility mixes the classifier's probability
of the true label with the human's own accuracy accordingly.

All operations are pure functions of their inputs and safe to call
concurrently. Array-valued helpers (``expected_utilities`` and friends)
broadcast over arbitrary shapes and back the batched code paths in the rest
of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "MetaDecision",
    "UtilityParams",
    "HumanPolicy",
    "Prediction",
    "accept_threshold",
    "meta_decision",
    "payoff",
    "expected_utility",
    "empirical_utility",
    "predicted_labels",
    "confidences",
    "utilities",
    "expected_utilities",
    "empirical_utilities",
]


class MetaDecision(Enum):
    """The overseer's choice: take the recommendation, or solve unaided."""

    ACCEPT = "accept"
    SOLVE = "solve"


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


@dataclass(frozen=True, eq=False)
class Prediction:
    """Calibrated two-class output: probabilities, argmax label, confidence."""

    probs: np.ndarray
    predicted_label: int
    confidence: float

    @classmethod
    def from_probs(cls, probs) -> "Prediction":
        p = np.asarray(probs, dtype=np.float64)
        if p.shape != (2,):
            raise ValueError(f"probs must have shape (2,), got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError(f"probs must lie in [0, 1], got {p}")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probs must sum to 1 within 1e-9, got {p}")
        label = int(np.argmax(p))
        return cls(probs=p, predicted_label=label, confidence=float(p[label]))

    @classmethod
    def from_positive_prob(cls, prob1: float) -> "Prediction":
        return cls.from_probs(np.array([1.0 - prob1, prob1], dtype=np.float64))


def accept_threshold(params: UtilityParams) -> float:
    """Confidence above which a rational overseer accepts: a - lam/(1+beta)."""
    return params.accept_threshold


def meta_decision(
    pred: Prediction, policy: HumanPolicy, uniform_draw: float = 0.0
) -> MetaDecision:
    """Resolve the accept-or-solve choice for one recommendation.

    Below the threshold the overseer always solves. At or above it
    (comparison uses >=), they accept when ``uniform_draw`` falls below the
    policy's accept probability; with the default draw of 0.0 and a rational
    policy this is deterministic acceptance.
    """
    if not (0.0 <= uniform_draw < 1.0):
        raise ValueError(f"uniform_draw must be in [0, 1), got {uniform_draw}")
    if pred.confidence >= policy.accept_threshold:
        if uniform_draw < policy.accept_probability:
            return MetaDecision.ACCEPT
    return MetaDecision.SOLVE


def payoff(meta: MetaDecision, final_correct: bool, params: UtilityParams) -> float:
    """Discrete reward: 1 or -beta for the decision, minus lam when solving."""
    value = 1.0 if final_correct else -params.beta
    if meta is MetaDecision.SOLVE:
        value -= params.lam
    return value


def _check_label(true_label: int) -> int:
    if true_label not in (0, 1):
        raise ValueError(f"true_label must be 0 or 1, got {true_label}")
    return int(true_label)


def expected_utility(pred: Prediction, true_label: int, policy: HumanPolicy) -> float:
    """Per-example expected team utility.

    In the accept region the utility is affine in the probability assigned to
    the true label, (1+beta)*h[y] - beta; in the solve region it is the
    constant solve utility. An accept probability p < 1 mixes the two
    branches linearly within the accept region.
    """
    y = _check_label(true_label)
    params = policy.params
    if pred.confidence >= params.accept_threshold:
        p_accept = policy.accept_probability
    else:
        p_accept = 0.0
    accept_term = (1.0 + params.beta) * float(pred.probs[y]) - params.beta
    return p_accept * accept_term + (1.0 - p_accept) * params.solve_utility


def empirical_utility(
    pred: Prediction,
    true_label: int,
    policy: HumanPolicy,
    mode: str = "expectation",
    rng: np.random.Generator | None = None,
) -> float:
    """Per-example discrete-payoff utility.

    In ``expectation`` mode the meta-decision and, on the solve branch, human
    correctness are both averaged out, so the result is deterministic. In
    ``sampled`` mode one uniform draw resolves the meta-decision and, when
    solving, one more draws human correctness at rate ``human_accuracy``.
    """
    y = _check_label(true_label)
    if mode not in ("expectation", "sampled"):
        raise ValueError(f"mode must be 'expectation' or 'sampled', got {mode!r}")
    params = policy.params
    accept_payoff = payoff(MetaDecision.ACCEPT, pred.predicted_label == y, params)
    if mode == "expectation":
        if pred.confidence >= params.accept_threshold:
            p_accept = policy.accept_probability
        else:
            p_accept = 0.0
        return p_accept * accept_payoff + (1.0 - p_accept) * params.solve_utility
    if rng is None:
        raise ValueError("sampled mode requires an rng")
    meta = meta_decision(pred, policy, uniform_draw=float(rng.random()))
    if meta is MetaDecision.ACCEPT:
        return accept_payoff
    human_correct = bool(rng.random() < params.human_accuracy)
    return payoff(MetaDecision.SOLVE, human_correct, params)


# Array-valued counterparts. ``prob1`` is the probability of label 1 and may
# have any shape; ``labels`` must broadcast to it.


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
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-example accept probability and team utility; the vectorized kernel.

    The overseer accepts, with the policy's accept probability, wherever the
    confidence is >= the threshold. The accept branch pays (1+beta)*h[y] - beta
    for ``expected_utility`` or the discrete payoff 1 / -beta of the argmax
    label for ``empirical_utility`` (expectation mode); the solve branch pays
    the solve utility. Matches ``expected_utility`` / ``empirical_utility``
    example by example.

    Both results have the shape of ``prob1``. Like a numpy ufunc, the kernel
    writes them into ``out=(p_accept, utility)`` when given, float64 arrays
    of that shape, and returns those arrays.
    """
    params = policy.params
    # confidences() and true_label_probs() inlined to share 1-p: the kernel
    # runs once per mini-batch and per exhaustive-search block
    p = np.asarray(prob1, dtype=np.float64)
    positive = np.equal(labels, 1)
    # without out, every step writes a fresh array (out=None)
    p_accept_out, utility_out = (None, None) if out is None else out
    u = np.subtract(1.0, p, out=utility_out)
    accept = np.maximum(p, u, out=p_accept_out) >= params.accept_threshold
    # accept*p is where(accept, p, 0.0) for the policy's p in (0, 1]
    p_accept = np.multiply(accept, policy.accept_probability, out=p_accept_out)
    if objective == "expected_utility":
        # h[y]: p where y = 1, 1 - p elsewhere; asarray because a 0-d p
        # makes 1 - p a numpy scalar, which copyto cannot write into
        u = np.asarray(u)
        np.copyto(u, p, where=positive)
        u = np.multiply(u, 1.0 + params.beta, out=utility_out)
        u = np.subtract(u, params.beta, out=utility_out)
    elif objective == "empirical_utility":
        # predicted_labels(p) == labels for 0/1 labels, without the int copy
        u = np.where((p > 0.5) == positive, 1.0, -params.beta)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    # p_accept*u + (1 - p_accept)*solve_utility. Given buffers, the solve
    # term passes through the p_accept buffer, so that no temporary of the
    # full size is allocated, and p_accept is written again after it.
    u = np.multiply(p_accept, u, out=utility_out)
    solve = np.subtract(1.0, p_accept, out=p_accept_out)
    solve = np.multiply(solve, params.solve_utility, out=p_accept_out)
    u = np.add(u, solve, out=utility_out)
    if out is not None:
        np.multiply(accept, policy.accept_probability, out=p_accept_out)
    return p_accept, u


def expected_utilities(prob1, labels, policy: HumanPolicy) -> np.ndarray:
    """Vectorized expected team utility; see ``expected_utility``."""
    return utilities(prob1, labels, policy, "expected_utility")[1]


def empirical_utilities(prob1, labels, policy: HumanPolicy) -> np.ndarray:
    """Vectorized expectation-mode empirical utility; see ``empirical_utility``."""
    return utilities(prob1, labels, policy, "empirical_utility")[1]
