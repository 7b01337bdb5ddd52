"""End-to-end experiment protocol: grid search, warm-started team training,
multi-seed aggregation, and the sweep CSV.

The protocol per seed: split 80/20 into train/test, standardize on the
training portion, train the log-loss reference (checkpointed on accuracy),
then warm-start a copy from the reference's best parameters and train it on
the team objective (checkpointed on expected utility). Because the
pre-training evaluation is a checkpoint candidate, the team model's
validation expected utility can never end below its warm start.

``plan`` runs this over (points x seeds) for any list of utility points;
``run_experiment`` is a plan at one point, and a sensitivity sweep is a
plan over an (a x beta) product whose reports ``write_sweep_csv`` writes.
A seed's reference does not depend on the utility parameters (its loss,
checkpoint metric and splits ignore them), so it is trained once and
shared by every point; with ``team_loss_kind=None`` the plan trains and
scores the references only. Seeds are independent, so ``jobs`` fans them
out over worker processes once per plan; results are collected in seed
order and identical to a serial run.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from dataclasses import asdict, astuple, dataclass, replace
from functools import partial

import numpy as np

from .analysis import Metrics, evaluate
from .classifiers import Model, init_model
from .data import Dataset, split, standardize
from .exhaustive import OBJECTIVES, LinearGrid, exhaustive_search
from .losses import LossSpec
from .optim import TrainConfig, train
from .team_model import HumanPolicy, UtilityParams

__all__ = [
    "GridSpec",
    "SeedOutcome",
    "ExperimentReport",
    "derive_seeds",
    "seed_splits",
    "fan_out",
    "cross_validate",
    "mismatch_seed",
    "plan",
    "run_experiment",
    "write_sweep_csv",
]

N_FOLDS = 5
TEST_FRACTION = 0.2
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter candidates for cross-validated grid search."""

    learning_rates: tuple[float, ...]
    l2_weights: tuple[float, ...]
    batch_sizes: tuple[int, ...]
    decays: tuple[float, ...]
    patiences: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("learning_rates", "l2_weights", "batch_sizes", "decays", "patiences"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")

    @classmethod
    def default(cls) -> "GridSpec":
        return cls(
            learning_rates=(1e-3, 1e-2, 1e-1, 1.0),
            l2_weights=(1e-3, 1e-2, 1e-1),
            batch_sizes=(4, 8, 32),
            decays=(0.1, 0.9),
            patiences=(2, 5, 10),
        )

    def cells(self):
        return itertools.product(
            self.learning_rates,
            self.l2_weights,
            self.batch_sizes,
            self.decays,
            self.patiences,
        )


def derive_seeds(seed: int, count: int) -> list[int]:
    """Independent child seeds for the sub-steps of one experiment seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def seed_splits(
    dataset: Dataset, seed: int
) -> tuple[Dataset, Dataset, Dataset, Dataset, int, int]:
    """One seed's standardized splits: (train80, fit, val, test, b_seed, t_seed).

    ``train80`` is the full standardized training portion; ``fit``/``val`` is
    its 80/20 sub-split used for checkpointing.
    """
    outer_seed, inner_seed, baseline_seed, team_seed = derive_seeds(seed, 4)
    train80, test = split(dataset, (1.0 - TEST_FRACTION, TEST_FRACTION), seed=outer_seed)
    train80, test = standardize(train80, test)
    fit, val = split(train80, (1.0 - VAL_FRACTION, VAL_FRACTION), seed=inner_seed)
    return train80, fit, val, test, baseline_seed, team_seed


def fan_out(fn, seeds: list[int], jobs: int = 1) -> list:
    """``[fn(s) for s in seeds]``; ``jobs`` > 1 runs the calls in up to that
    many freshly spawned worker processes (``fn`` must pickle), and the
    results still come back in seed order."""
    if jobs > 1 and len(seeds) > 1:
        workers = min(jobs, len(seeds))
        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            return list(pool.map(fn, seeds))
    return [fn(s) for s in seeds]


def cross_validate(
    dataset: Dataset,
    model_kind: str,
    spec: LossSpec,
    grid: GridSpec,
    base_config: TrainConfig | None = None,
) -> TrainConfig:
    """Pick the grid cell with the best mean checkpoint metric over 5 folds.

    Divergent cells (non-finite training loss) score -inf and are never
    selected; RuntimeError if every cell diverges. Ties break toward smaller
    learning rate, then larger L2 weight, then larger batch, then smaller
    decay, then smaller patience.
    """
    n = dataset.n_examples
    if n < N_FOLDS * 5:
        raise ValueError(
            f"cross-validation needs at least {N_FOLDS * 5} examples, got {n}"
        )
    base = base_config or TrainConfig()
    perm = np.random.default_rng(base.seed).permutation(n)
    bounds = [round(n * (f + 1) / N_FOLDS) for f in range(N_FOLDS)]
    folds = []
    start = 0
    for stop in bounds:
        folds.append(perm[start:stop])
        start = stop
    fold_seeds = derive_seeds(base.seed, N_FOLDS)

    best_key: tuple | None = None
    best_config = None
    for lr, l2, batch, decay, patience in grid.cells():
        config = replace(
            base,
            learning_rate=lr,
            l2_weight=l2,
            batch_size=batch,
            scheduler_decay=decay,
            scheduler_patience=patience,
        )
        scores = []
        for f, val_idx in enumerate(folds):
            train_idx = np.concatenate([folds[g] for g in range(N_FOLDS) if g != f])
            fold_train, fold_val = standardize(
                dataset.subset(train_idx), dataset.subset(val_idx)
            )
            model = init_model(model_kind, dataset.n_features, seed=fold_seeds[f])
            try:
                result = train(
                    model,
                    fold_train,
                    fold_val,
                    spec,
                    replace(config, seed=fold_seeds[f]),
                )
            except RuntimeError:
                scores.append(-math.inf)
                continue
            scores.append(result.best_val_metric)
        mean_score = float(np.mean(scores)) if all(map(math.isfinite, scores)) else -math.inf
        key = (mean_score, -lr, l2, batch, -decay, -patience)
        if best_key is None or key > best_key:
            best_key = key
            best_config = config
    if best_key[0] == -math.inf:
        raise RuntimeError("every grid cell diverged (non-finite training loss)")
    return best_config


@dataclass(frozen=True)
class SeedOutcome:
    """One seed at one point; the team fields are None in a references-only plan."""

    seed: int
    baseline: Metrics
    team: Metrics | None
    delta: Metrics | None
    team_val_gain: float | None


def _mean_metrics(items: list[Metrics | None]) -> Metrics | None:
    if items[0] is None:
        return None
    # one mean per 1-d column: a 2-d mean over axis 0 sums in another order
    return Metrics(*(float(np.mean(column)) for column in zip(*map(astuple, items))))


@dataclass(frozen=True)
class ExperimentReport:
    model_kind: str
    params: UtilityParams
    accept_probability: float
    n_seeds: int
    baseline_config: TrainConfig
    team_config: TrainConfig
    team_loss_kind: str | None
    per_seed: tuple[SeedOutcome, ...]
    mean_baseline: Metrics
    mean_team: Metrics | None
    mean_delta: Metrics | None

    def to_dict(self) -> dict:
        out = asdict(self)
        out["params"]["accept_threshold"] = self.params.accept_threshold
        return out


def _delta(team: Metrics, baseline: Metrics) -> Metrics:
    return Metrics(*(t - b for t, b in zip(astuple(team), astuple(baseline))))


def _train_reference(
    fit: Dataset, val: Dataset, model_kind: str, config: TrainConfig, seed: int
) -> Model:
    """A fresh model trained on log-loss, checkpointed on validation accuracy."""
    return train(
        init_model(model_kind, fit.n_features, seed=seed),
        fit,
        val,
        LossSpec(kind="log_loss"),
        replace(config, checkpoint_metric="accuracy", seed=seed),
    ).best_model


def mismatch_seed(
    seed: int, dataset: Dataset, policy: HumanPolicy, config: TrainConfig, grid: LinearGrid
) -> tuple[Metrics, Metrics, Metrics]:
    """Test metrics of one seed's linear reference and of both exhaustive
    searches (expected, then empirical utility) on its training portion."""
    train80, fit, val, test, baseline_seed, _ = seed_splits(dataset, seed)
    reference = _train_reference(fit, val, "linear", config, baseline_seed)
    searched = [exhaustive_search(train80, obj, policy, grid) for obj in OBJECTIVES]
    return tuple(evaluate(model, test, policy) for model in (reference, *searched))


def _run_seed(
    seed: int,
    dataset: Dataset,
    model_kind: str,
    config: TrainConfig,
    policies: tuple[HumanPolicy, ...],
    team_loss_kind: str | None,
    baseline_model: Model | None,
) -> tuple[Model, list[tuple[SeedOutcome, Model | None]]]:
    """One seed of the plan: ``(reference, runs)``, one ``(SeedOutcome, team
    model)`` run per policy.

    The log-loss reference is trained once (a supplied ``baseline_model``
    replaces it) and scored on the test split under every policy. With a
    ``team_loss_kind``, each run's team training warm-starts from the
    reference under that policy; without one, a run is the reference's score
    alone, with no team fields or model.
    """
    _, fit, val, test, baseline_seed, team_seed = seed_splits(dataset, seed)
    reference = baseline_model
    if reference is None:
        reference = _train_reference(fit, val, model_kind, config, baseline_seed)
    baselines = [evaluate(reference, test, policy) for policy in policies]
    if team_loss_kind is None:
        return reference, [(SeedOutcome(seed, b, None, None, None), None) for b in baselines]
    team_config = replace(config, checkpoint_metric="expected_utility", seed=team_seed)
    runs = []
    for policy, baseline in zip(policies, baselines):
        spec = LossSpec(kind=team_loss_kind, policy=policy)
        result = train(reference, fit, val, spec, team_config)
        team = evaluate(result.best_model, test, policy)
        gain = result.best_val_metric - result.initial_val_metric
        outcome = SeedOutcome(seed, baseline, team, _delta(team, baseline), gain)
        runs.append((outcome, result.best_model))
    return reference, runs


def plan(
    dataset: Dataset,
    model_kind: str,
    points: Sequence[UtilityParams],
    n_seeds: int = 10,
    *,
    accept_probability: float = 1.0,
    baseline_config: TrainConfig | None = None,
    grid: GridSpec | None = None,
    team_loss_kind: str | None = "expected_utility_loss",
    seed: int = 0,
    baseline_model: Model | None = None,
    jobs: int = 1,
) -> list[tuple[ExperimentReport, list[tuple[Model, Model | None]]]]:
    """Multi-seed comparison of the log-loss reference vs team training at
    every point: per point, its report and per-seed (reference, team) models.

    Both trainings use ``baseline_config``; the team run switches the
    checkpoint metric only. When a grid is given, hyperparameters are
    cross-validated once on the first seed's training portion, under
    log-loss with accuracy checkpoints (the reference's objective), and
    replace ``baseline_config``. A supplied ``baseline_model`` is used as the
    warm start on every seed instead of training the reference. With
    ``team_loss_kind=None`` no team model is trained: every team metric and
    model is None. ``jobs`` > 1 fans the seeds out over worker processes;
    results are identical to a serial run.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if baseline_model is not None and baseline_model.kind != model_kind:
        raise ValueError(
            f"baseline model of kind {baseline_model.kind!r} does not match "
            f"model_kind {model_kind!r}"
        )
    if not points:
        return []
    policies = tuple(HumanPolicy(params, accept_probability) for params in points)
    # the report carries the configs exactly as trained
    config = replace(baseline_config or TrainConfig(), checkpoint_metric="accuracy")
    if grid is not None:
        outer_seed = derive_seeds(seed, 1)[0]
        train80, _ = split(dataset, (1.0 - TEST_FRACTION, TEST_FRACTION), seed=outer_seed)
        config = cross_validate(train80, model_kind, LossSpec(kind="log_loss"), grid, config)
    run_one = partial(
        _run_seed,
        dataset=dataset,
        model_kind=model_kind,
        config=config,
        policies=policies,
        team_loss_kind=team_loss_kind,
        baseline_model=baseline_model,
    )
    per_seed = fan_out(run_one, [seed + s for s in range(n_seeds)], jobs)
    planned = []
    for p, params in enumerate(points):
        outcomes = [runs[p][0] for _, runs in per_seed]
        report = ExperimentReport(
            model_kind=model_kind,
            params=params,
            accept_probability=accept_probability,
            n_seeds=n_seeds,
            baseline_config=config,
            team_config=replace(config, checkpoint_metric="expected_utility"),
            team_loss_kind=team_loss_kind,
            per_seed=tuple(outcomes),
            mean_baseline=_mean_metrics([o.baseline for o in outcomes]),
            mean_team=_mean_metrics([o.team for o in outcomes]),
            mean_delta=_mean_metrics([o.delta for o in outcomes]),
        )
        planned.append((report, [(reference, runs[p][1]) for reference, runs in per_seed]))
    return planned


def run_experiment(
    dataset: Dataset,
    model_kind: str,
    params: UtilityParams,
    n_seeds: int = 10,
    accept_probability: float = 1.0,
    baseline_config: TrainConfig | None = None,
    grid: GridSpec | None = None,
    team_loss_kind: str = "expected_utility_loss",
    seed: int = 0,
    baseline_model: Model | None = None,
    jobs: int = 1,
) -> ExperimentReport:
    """``plan`` at the one point ``params``: its report."""
    ((report, _),) = plan(
        dataset, model_kind, [params], n_seeds, accept_probability=accept_probability,
        baseline_config=baseline_config, grid=grid, team_loss_kind=team_loss_kind,
        seed=seed, baseline_model=baseline_model, jobs=jobs,
    )
    return report


def write_sweep_csv(reports: Sequence[ExperimentReport], path) -> None:
    """Header (a_or_beta, baseline_eu, delta_eu), one row per report; the
    varying parameter fills the first column, or "a=..|beta=.." when both
    vary. ValueError, before the file is opened, for references-only reports."""
    if any(r.mean_delta is None for r in reports):
        raise ValueError("sweep reports need team metrics: team_loss_kind=None trains none")
    a_varies = len({r.params.human_accuracy for r in reports}) > 1
    beta_varies = len({r.params.beta for r in reports}) > 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_or_beta", "baseline_eu", "delta_eu"])
        for r in reports:
            a, beta = r.params.human_accuracy, r.params.beta
            if a_varies and beta_varies:
                label = f"a={a!r}|beta={beta!r}"
            elif beta_varies:
                label = repr(beta)
            else:
                label = repr(a)
            baseline_eu, delta_eu = r.mean_baseline.expected_utility, r.mean_delta.expected_utility
            writer.writerow([label, repr(baseline_eu), repr(delta_eu)])
