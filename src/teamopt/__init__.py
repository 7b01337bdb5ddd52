"""Classifiers optimized for human-AI team utility under accept-or-solve oversight.

The library trains binary classifiers against the expected utility of the
whole human-AI team rather than raw accuracy: a human overseer accepts
confident recommendations and solves uncertain cases unaided at a cost.
It ships the decision-theoretic primitives, linear and MLP models with
analytic gradients, the team-utility training objectives, a checkpointed
Adam training loop, synthetic data generators, behavior diagnostics, a
brute-force linear search for two-dimensional studies, and a CLI.
"""

from .analysis import (
    BehaviorCurves,
    Metrics,
    ModelReport,
    behavior_curves,
    compare_reports,
    evaluate,
    report,
)
from .classifiers import (
    Model,
    forward_batch,
    init_model,
    load_model,
    save_model,
)
from .data import (
    BlobSpec,
    Dataset,
    IngestionError,
    gen_moons,
    gen_scenario1,
    load_csv,
    save_csv,
    select_features,
    split,
    standardize,
)
from .exhaustive import LinearGrid, exhaustive_search, select_top2_features
from .losses import LossSpec, batch_loss, per_example_loss
from .optim import (
    AdamState,
    TrainConfig,
    TrainResult,
    adam_step,
    scheduler_step,
    train,
)
from .pipeline import (
    ExperimentReport,
    GridSpec,
    cross_validate,
    plan,
    run_experiment,
    sweep,
)
from .team_model import HumanPolicy, UtilityParams

__version__ = "0.1.0"
