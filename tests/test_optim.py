"""Adam updates, the plateau scheduler, and the checkpointed training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import model_of, per_array_adam_step, random_model
from teamopt.classifiers import Model, init_model
from teamopt.data import Dataset, gen_scenario1, split, standardize
from teamopt.losses import LossSpec
from teamopt.optim import (
    AdamState,
    SchedulerState,
    TrainConfig,
    adam_step,
    scheduler_step,
    train,
    validation_metric,
)
from teamopt.team_model import HumanPolicy, UtilityParams


def policy():
    return HumanPolicy(UtilityParams(1.0, 0.5, 1.0))


def tiny_dataset():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([0, 1])
    return Dataset(features=X, labels=y, feature_names=("x1", "x2"))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        model = random_model("linear", 3, seed=0)
        before = {k: v.copy() for k, v in model.parameters().items()}
        state = AdamState.for_model(model)
        zeros = model_of(np.zeros_like(p) for p in before.values())
        adam_step(model, zeros, state, 0.1)
        assert state.step == 1
        for name, p in model.parameters().items():
            assert np.array_equal(p, before[name])

    def test_first_step_moves_by_lr_times_sign(self):
        model = random_model("linear", 4, seed=1)
        before = model.weights.copy()
        rng = np.random.default_rng(2)
        g = rng.uniform(0.5, 1.5, 4) * rng.choice([-1.0, 1.0], 4)
        grads = Model([(g, np.array([1.0]))])
        adam_step(model, grads, AdamState.for_model(model), 0.01)
        delta = model.weights - before
        np.testing.assert_allclose(delta, -0.01 * np.sign(g), atol=0.01 * 1e-4)

    def test_deterministic_sequences(self):
        def run():
            model = random_model("mlp", 2, seed=3)
            state = AdamState.for_model(model)
            rng = np.random.default_rng(4)
            for _ in range(10):
                grads = model_of(rng.normal(size=v.shape) for v in model.parameters().values())
                adam_step(model, grads, state, 0.05)
            return model

        a, b = run(), run()
        for name, p in a.parameters().items():
            assert np.array_equal(p, b.parameters()[name])

    def test_shape_mismatch_rejected(self):
        model = init_model("linear", 2)
        bad = Model([(np.zeros(3), np.zeros(1))])
        with pytest.raises(ValueError):
            adam_step(model, bad, AdamState.for_model(model), 0.1)


    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["linear", "mlp"]),
        n_features=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        steps=st.integers(1, 12),
    )
    def test_flat_update_matches_per_array_oracle(self, data, kind, n_features, seed, steps):
        model = random_model(kind, n_features, seed=seed)
        params = {k: p.copy() for k, p in model.parameters().items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        state = AdamState.for_model(model)
        rng = np.random.default_rng(seed)
        for step in range(1, steps + 1):
            lr = data.draw(st.floats(1e-8, 1.0))
            scale = 10.0 ** rng.uniform(-8.0, 3.0)
            # exact zeros included, as on the team losses' solve plateau
            grads = {
                k: rng.normal(0.0, scale, p.shape) * (rng.random(p.shape) < 0.8)
                for k, p in params.items()
            }
            adam_step(model, model_of(grads.values()), state, lr)
            per_array_adam_step(params, grads, m, v, step, lr)
        assert state.step == steps
        for name, p in model.parameters().items():
            assert np.array_equal(p.view(np.int64), params[name].view(np.int64)), name
        for flat, per_array in ((state.m, m), (state.v, v)):
            want = np.concatenate([a.ravel() for a in per_array.values()])
            assert np.array_equal(flat.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind, n_features", [("linear", 3), ("mlp", 2)])
    def test_gradient_layout_mismatch_rejected(self, kind, n_features):
        model = init_model("linear", 2)
        bad = init_model(kind, n_features)
        with pytest.raises(ValueError, match="does not match model parameters"):
            adam_step(model, bad, AdamState.for_model(model), 0.1)


class TestScheduler:
    def test_improving_metric_keeps_lr(self):
        state = SchedulerState(learning_rate=0.1, decay=0.1, patience=2)
        for metric in (0.1, 0.2, 0.3, 0.4):
            lr, state = scheduler_step(state, metric)
        assert lr == 0.1

    def test_flat_metric_decays_after_patience(self):
        state = SchedulerState(learning_rate=0.1, decay=0.1, patience=2)
        lrs = []
        for _ in range(3):
            lr, state = scheduler_step(state, 0.5)
            lrs.append(lr)
        # first call sets the best; the next two stall out the patience
        assert lrs == [0.1, 0.1, pytest.approx(0.01)]

    def test_lr_floor(self):
        state = SchedulerState(learning_rate=1e-7, decay=0.1, patience=1)
        scheduler_step(state, 0.5)
        lr, state = scheduler_step(state, 0.5)
        assert lr == 1e-8
        lr, state = scheduler_step(state, 0.5)
        assert lr == 1e-8

    def test_improvement_epsilon(self):
        state = SchedulerState(learning_rate=0.1, decay=0.5, patience=1)
        scheduler_step(state, 0.5)
        # within epsilon looks flat
        lr, state = scheduler_step(state, 0.5 + 1e-9)
        assert lr == pytest.approx(0.05)

    def test_non_finite_metric_rejected(self):
        with pytest.raises(ValueError):
            scheduler_step(SchedulerState(0.1, 0.1, 2), math.nan)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(scheduler_decay=1.0)
        with pytest.raises(ValueError):
            TrainConfig(checkpoint_metric="f1")


class TestTrain:
    def test_separable_two_points_reach_full_accuracy(self):
        ds = tiny_dataset()
        config = TrainConfig(
            learning_rate=0.1, l2_weight=0.0, batch_size=2, max_epochs=200, seed=0
        )
        result = train(init_model("linear", 2), ds, ds, LossSpec("log_loss"), config)
        assert result.best_val_metric == 1.0

    def test_flat_start_keeps_parameters_bitwise(self):
        ds = gen_scenario1(400, seed=2)
        tr, val = split(ds, (0.8, 0.2), seed=0)
        tr, val = standardize(tr, val)
        spec = LossSpec("expected_utility_loss", policy())
        config = TrainConfig(
            learning_rate=0.1,
            l2_weight=1e-2,
            batch_size=16,
            max_epochs=30,
            checkpoint_metric="expected_utility",
            seed=0,
        )
        result = train(init_model("linear", 2), tr, val, spec, config)
        assert result.best_epoch == 0
        assert np.all(result.final_model.weights == 0.0)
        assert result.final_model.bias[0] == 0.0
        losses = [rec.train_loss for rec in result.history]
        assert all(v == losses[0] for v in losses)

    def test_checkpoint_optimality(self):
        ds = gen_scenario1(600, seed=3)
        tr, val = split(ds, (0.8, 0.2), seed=1)
        tr, val = standardize(tr, val)
        config = TrainConfig(max_epochs=25, seed=5)
        result = train(
            init_model("linear", 2), tr, val, LossSpec("log_loss"), config
        )
        assert result.best_val_metric >= result.initial_val_metric
        for rec in result.history:
            assert result.best_val_metric >= rec.val_metric
        assert len(result.history) == 25
        spec = LossSpec("log_loss")
        recomputed = validation_metric(result.best_model, val, spec, "accuracy")
        assert recomputed == result.best_val_metric

    def test_determinism(self):
        ds = gen_scenario1(400, seed=4)
        tr, val = split(ds, (0.8, 0.2), seed=2)
        tr, val = standardize(tr, val)
        config = TrainConfig(max_epochs=10, seed=9)
        a = train(init_model("linear", 2), tr, val, LossSpec("log_loss"), config)
        b = train(init_model("linear", 2), tr, val, LossSpec("log_loss"), config)
        for name, p in a.final_model.parameters().items():
            assert np.array_equal(p, b.final_model.parameters()[name])
        assert [r.val_metric for r in a.history] == [r.val_metric for r in b.history]

    def test_input_model_not_mutated(self):
        ds = tiny_dataset()
        model = init_model("linear", 2)
        train(model, ds, ds, LossSpec("log_loss"), TrainConfig(max_epochs=5))
        assert np.all(model.weights == 0.0)

    def test_non_finite_loss_aborts(self):
        ds = tiny_dataset()
        config = TrainConfig(learning_rate=1e160, l2_weight=1e-3, batch_size=2, max_epochs=5)
        with pytest.raises(RuntimeError, match="non-finite"):
            train(init_model("linear", 2), ds, ds, LossSpec("log_loss"), config)

    def test_dimension_mismatch(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            train(init_model("linear", 3), ds, ds, LossSpec("log_loss"), TrainConfig())

    def test_eu_checkpoint_requires_policy(self):
        ds = tiny_dataset()
        config = TrainConfig(max_epochs=2, checkpoint_metric="expected_utility")
        with pytest.raises(ValueError):
            train(init_model("linear", 2), ds, ds, LossSpec("log_loss"), config)
