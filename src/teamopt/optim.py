"""Adam, a reduce-on-plateau scheduler, and checkpointed mini-batch training.

Training maximizes a validation metric (accuracy or expected team utility)
by checkpointing the best-scoring parameters. The evaluation before the
first step counts as a checkpoint candidate, so a warm-started run can never
finish below its initialization on the checkpoint metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifiers import Model, forward_batch
from .data import Dataset
from .losses import LossSpec, batch_loss
from .team_model import expected_utilities, predicted_labels

__all__ = [
    "AdamState",
    "SchedulerState",
    "TrainConfig",
    "EpochRecord",
    "TrainResult",
    "adam_step",
    "scheduler_step",
    "validation_metric",
    "train",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

MIN_LEARNING_RATE = 1e-8
IMPROVEMENT_EPS = 1e-6

CHECKPOINT_METRICS = ("accuracy", "expected_utility")


@dataclass
class AdamState:
    """First/second moments laid out like ``model.flat``, plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_model(cls, model: Model) -> "AdamState":
        return cls(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat))


def adam_step(
    model: Model,
    grads: Model,
    state: AdamState,
    learning_rate: float,
) -> tuple[Model, AdamState]:
    """One bias-corrected Adam update of the whole flat buffer, in place,
    given gradients laid out like the model; returns (model, state)."""
    if grads.layout != model.layout:
        raise ValueError(
            f"gradient layout {grads.layout} does not match model parameters {model.layout}"
        )
    g = grads.flat
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    model.flat -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return model, state


@dataclass
class SchedulerState:
    """Reduce-on-plateau state for a maximized metric."""

    learning_rate: float
    decay: float
    patience: int
    best: float = -math.inf
    stall: int = 0


def scheduler_step(
    state: SchedulerState, validation_metric: float
) -> tuple[float, SchedulerState]:
    """Decay the learning rate after `patience` consecutive non-improving epochs."""
    if not math.isfinite(validation_metric):
        raise ValueError(f"validation metric must be finite, got {validation_metric}")
    if validation_metric > state.best + IMPROVEMENT_EPS:
        state.best = validation_metric
        state.stall = 0
    else:
        state.stall += 1
        if state.stall >= state.patience:
            state.learning_rate = max(
                state.learning_rate * state.decay, MIN_LEARNING_RATE
            )
            state.stall = 0
    return state.learning_rate, state


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    l2_weight: float = 1e-3
    batch_size: int = 32
    scheduler_decay: float = 0.1
    scheduler_patience: int = 5
    max_epochs: int = 200
    checkpoint_metric: str = "accuracy"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not (math.isfinite(self.l2_weight) and self.l2_weight >= 0.0):
            raise ValueError(f"l2_weight must be >= 0, got {self.l2_weight}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 < self.scheduler_decay < 1.0):
            raise ValueError(
                f"scheduler_decay must be in (0, 1), got {self.scheduler_decay}"
            )
        if self.scheduler_patience < 1:
            raise ValueError(
                f"scheduler_patience must be >= 1, got {self.scheduler_patience}"
            )
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.checkpoint_metric not in CHECKPOINT_METRICS:
            raise ValueError(
                f"checkpoint_metric must be one of {CHECKPOINT_METRICS}, "
                f"got {self.checkpoint_metric!r}"
            )


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metric: float
    learning_rate: float


@dataclass
class TrainResult:
    """Best-checkpoint parameters plus the full epoch history.

    ``best_epoch`` 0 means no epoch improved on the initialization.
    ``final_model`` is the parameter state after the last epoch, kept for
    plateau diagnostics.
    """

    best_model: Model
    history: list[EpochRecord]
    best_epoch: int
    best_val_metric: float
    initial_val_metric: float
    final_model: Model | None = field(repr=False, default=None)


def validation_metric(model: Model, dataset: Dataset, spec: LossSpec, which: str) -> float:
    """Checkpoint metric on a dataset: accuracy or mean expected utility."""
    if which not in CHECKPOINT_METRICS:
        raise ValueError(f"unknown checkpoint metric {which!r}")
    prob1, _ = forward_batch(model, dataset.features)
    if which == "accuracy":
        return float(np.mean(predicted_labels(prob1) == dataset.labels))
    if spec.policy is None:
        raise ValueError("expected_utility checkpointing requires a policy")
    return float(np.mean(expected_utilities(prob1, dataset.labels, spec.policy)))


def train(
    model: Model,
    train_set: Dataset,
    val_set: Dataset,
    spec: LossSpec,
    config: TrainConfig,
) -> TrainResult:
    """Run seeded mini-batch Adam training with best-validation checkpointing.

    The input model is copied, never mutated. Epochs iterate a fresh seeded
    shuffle; the last incomplete mini-batch is kept. After each epoch the
    checkpoint metric is evaluated on the validation set, the best parameters
    are retained, and the plateau scheduler may decay the learning rate.
    Raises RuntimeError if the training loss turns non-finite.
    """
    if train_set.n_examples == 0 or val_set.n_examples == 0:
        raise ValueError("train and validation sets must be non-empty")
    if train_set.n_features != model.n_features:
        raise ValueError(
            f"dataset feature width {train_set.n_features} does not match "
            f"model n_features {model.n_features}"
        )
    model = model.copy()
    X, y = train_set.features, train_set.labels
    n, bs = train_set.n_examples, config.batch_size
    adam = AdamState.for_model(model)
    sched = SchedulerState(
        learning_rate=config.learning_rate,
        decay=config.scheduler_decay,
        patience=config.scheduler_patience,
    )
    initial = validation_metric(model, val_set, spec, config.checkpoint_metric)
    best_metric = initial
    best_model = model.copy()
    best_epoch = 0
    history: list[EpochRecord] = []
    rng = np.random.default_rng(config.seed)
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        # one gather per epoch; mini-batches are contiguous slices of it
        X_epoch, y_epoch = X[perm], y[perm]
        lr = sched.learning_rate
        total = 0.0
        for start in range(0, n, bs):
            X_batch, y_batch = X_epoch[start : start + bs], y_epoch[start : start + bs]
            value, grads = batch_loss(model, X_batch, y_batch, spec, config.l2_weight)
            if not math.isfinite(value):
                raise RuntimeError(
                    f"non-finite training loss {value!r} at epoch {epoch} "
                    f"(lr={lr}, batch starting at {start}); aborting"
                )
            adam_step(model, grads, adam, lr)
            total += value * y_batch.size
        val = validation_metric(model, val_set, spec, config.checkpoint_metric)
        if val > best_metric:
            best_metric = val
            best_model = model.copy()
            best_epoch = epoch
        history.append(
            EpochRecord(
                epoch=epoch, train_loss=total / n, val_metric=val, learning_rate=lr
            )
        )
        scheduler_step(sched, val)
    return TrainResult(
        best_model=best_model,
        history=history,
        best_epoch=best_epoch,
        best_val_metric=best_metric,
        initial_val_metric=initial,
        final_model=model,
    )
