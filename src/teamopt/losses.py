"""Training objectives: log-loss, negated team utility, and the team-shaped log loss.

``per_example_loss`` returns vectorized per-example values and derivatives
with respect to the positive-class probability; ``batch_loss`` reduces them
over a mini-batch, adds L2 weight decay, and backpropagates through the model.

The accept/solve branch indicator is treated as a constant under
differentiation: it is a step function with zero derivative almost
everywhere, so the solve branch contributes exactly zero gradient and the
accept branch differentiates only its affine (or logarithmic) term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import GradientBuffer, Model, backward_batch, forward_batch
from .team_model import HumanPolicy, true_label_probs, utilities

__all__ = [
    "LOSS_KINDS",
    "LossSpec",
    "per_example_loss",
    "batch_loss",
]

LOSS_KINDS = ("log_loss", "expected_utility_loss", "team_loss")

# Probabilities and log arguments are clamped here before taking logs.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossSpec:
    """Which objective to optimize, and the policy it is evaluated under.

    ``team_offset`` is the positive constant added to the utility inside the
    team loss's logarithm; left unset it defaults to beta, which makes the
    accept branch exactly log-loss shaped (shifted by -log(1+beta)).
    """

    kind: str
    policy: HumanPolicy | None = None
    team_offset: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.kind != "log_loss" and self.policy is None:
            raise ValueError(f"{self.kind} requires a policy")
        if self.team_offset is not None and not self.team_offset > 0.0:
            raise ValueError(f"team_offset must be > 0, got {self.team_offset}")

    @property
    def offset(self) -> float:
        if self.team_offset is not None:
            return self.team_offset
        if self.policy is None:
            raise ValueError("team offset undefined without a policy")
        return self.policy.params.beta


def per_example_loss(prob1, labels, spec: LossSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-example loss values and d(value)/d(prob1).

    ``log_loss`` is -log h[y] (h floored at 1e-12); ``expected_utility_loss``
    is the negated team utility, with gradient -p_accept*(1+beta) w.r.t. h[y];
    ``team_loss`` is -log(utility + offset). Where the overseer solves
    (p_accept == 0) both team losses are flat with exactly zero gradient.
    """
    p1 = np.asarray(prob1, dtype=np.float64)
    y = np.asarray(labels)
    to_p1 = np.where(y == 1, 1.0, -1.0)
    if spec.kind == "log_loss":
        clamped = np.maximum(true_label_probs(p1, y), PROB_FLOOR)
        return -np.log(clamped), (-1.0 / clamped) * to_p1
    p_accept, psi = utilities(p1, y, spec.policy)
    slope = 1.0 + spec.policy.params.beta
    if spec.kind == "expected_utility_loss":
        return -psi, -p_accept * slope * to_p1
    shifted = np.maximum(psi + spec.offset, PROB_FLOOR)
    grad = -p_accept * slope / shifted
    return -np.log(shifted), grad * to_p1


def batch_loss(
    model: Model,
    features,
    labels,
    spec: LossSpec,
    l2_weight: float = 0.0,
) -> tuple[float, GradientBuffer]:
    """Mean per-example loss plus l2_weight*||weights||^2 (biases excluded).

    Returns the scalar value and the exact gradient with respect to every
    model parameter. The reduction order is fixed, so results are
    reproducible for identical inputs.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"batch must be a non-empty 2-d array, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match batch {X.shape}")
    if l2_weight < 0.0:
        raise ValueError(f"l2_weight must be >= 0, got {l2_weight}")
    prob1, cache = forward_batch(model, X)
    values, d_p1 = per_example_loss(prob1, y, spec)
    n = X.shape[0]
    grads = backward_batch(model, cache, d_p1 / n)
    value = float(values.sum() / n)  # np.mean's bits, without its dispatch
    if l2_weight > 0.0:
        # overflow here just means divergence; the caller's finiteness check
        # turns it into an abort
        with np.errstate(over="ignore"):
            for name in model.weight_names():
                w = getattr(model, name)
                # np.sum's reduction, without its Python-level dispatch
                value += l2_weight * float(np.add.reduce(w * w, axis=None))
                grads.data[name] += 2.0 * l2_weight * w
    return value, grads
