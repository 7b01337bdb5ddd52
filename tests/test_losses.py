"""Loss values, gradients, branch behavior, and the batched reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    finite_difference_gradients,
    forward,
    max_relative_error,
    outputs,
    policies,
    random_model,
    scalar_utility,
)
from teamopt.classifiers import init_model
from teamopt.losses import LossSpec, batch_loss, per_example_loss
from teamopt.team_model import HumanPolicy, UtilityParams, utilities


def policy(beta=1.0, lam=0.5, a=1.0, p=1.0):
    return HumanPolicy(UtilityParams(beta=beta, lam=lam, human_accuracy=a), p)


def loss_at(h, spec):
    """(value, derivative) of ``per_example_loss`` for one label-1 example
    whose true-label probability is h; the derivative with respect to prob1
    is then the derivative with respect to h."""
    values, grads = per_example_loss(np.array([h]), np.array([1]), spec)
    return float(values[0]), float(grads[0])


LOG = LossSpec("log_loss")


def eu(pol):
    return LossSpec("expected_utility_loss", pol)


def team(pol):
    return LossSpec("team_loss", pol)


class TestLogLoss:
    def test_reference_values(self):
        assert loss_at(1.0, LOG)[0] == 0.0
        assert loss_at(0.5, LOG)[0] == pytest.approx(np.log(2.0), abs=1e-12)
        assert loss_at(0.25, LOG)[0] == pytest.approx(np.log(4.0), abs=1e-12)

    def test_derivative(self):
        value, grad = loss_at(0.25, LOG)
        assert grad == -4.0

    def test_floor_keeps_value_finite(self):
        value, grad = loss_at(0.0, LOG)
        assert np.isfinite(value) and np.isfinite(grad)
        assert value == pytest.approx(-np.log(1e-12))


class TestEuLoss:
    def test_accept_region_values(self):
        pol = policy()
        assert loss_at(1.0, eu(pol))[0] == -1.0
        # gradient is -(1+beta) everywhere in the accept branch
        assert loss_at(0.8, eu(pol))[1] == -2.0
        assert loss_at(0.99, eu(pol))[1] == -2.0

    def test_solve_region_flat(self):
        value, grad = loss_at(0.6, eu(policy()))
        assert value == -0.5
        assert grad == 0.0

    def test_negates_expected_utility_exactly(self):
        pol = policy(beta=2.5, lam=0.7, a=0.9, p=0.6)
        hs = np.random.default_rng(4).random(200)
        values, _ = per_example_loss(hs, np.ones(200, dtype=int), eu(pol))
        for h, value in zip(hs, values):
            assert value == -scalar_utility(h, 1, pol)[1]


class TestTeamLoss:
    @pytest.mark.parametrize("beta", [1.0, 3.0])
    def test_accept_branch_is_shifted_log_loss(self, beta):
        pol = policy(beta=beta)
        shift = np.log(1.0 + beta)
        hs = np.linspace(pol.accept_threshold + 1e-6, 1.0, 100)
        y = np.ones(100, dtype=int)
        tv, _ = per_example_loss(hs, y, team(pol))
        lv, _ = per_example_loss(hs, y, LOG)
        np.testing.assert_allclose(tv - lv, -shift, rtol=0.0, atol=1e-12)

    def test_solve_branch_flat(self):
        value, grad = loss_at(0.6, team(policy()))
        assert grad == 0.0
        # constant equals -log(solve utility + beta)
        assert value == pytest.approx(-np.log(0.5 + 1.0), abs=1e-12)

    def test_reference_value(self):
        value, _ = loss_at(1.0, team(policy()))
        assert value == pytest.approx(-np.log(2.0), abs=1e-12)

    def test_offset_is_policy_beta(self):
        """The loss is -log(utility + beta) on both branches; a beta other
        than 1 tells the offset apart from a constant."""
        pol = policy(beta=4.0, lam=0.3, a=0.9, p=0.7)
        hs = np.linspace(0.0, 1.0, 101)
        values, _ = per_example_loss(hs, np.ones(101, dtype=int), team(pol))
        want = [-np.log(scalar_utility(h, 1, pol)[1] + 4.0) for h in hs]
        np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-12)


class TestPerExampleLoss:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        pol=policies(),
        kind=st.sampled_from(["expected_utility_loss", "team_loss"]),
    )
    def test_gradient_zero_exactly_where_solving(self, data, pol, kind):
        p1, y = data.draw(outputs(pol))
        p_accept, _ = utilities(p1, y, pol)
        values, grads = per_example_loss(p1, y, LossSpec(kind, pol))
        assert np.all(np.isfinite(values))
        assert np.all((grads == 0.0) == (p_accept == 0.0))


class TestLossSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossSpec("hinge")
        with pytest.raises(ValueError):
            LossSpec("expected_utility_loss")


class TestBatchLoss:
    def test_zero_init_log_loss_is_log_two(self):
        model = init_model("linear", 2)
        X = np.random.default_rng(0).normal(size=(32, 2))
        y = np.random.default_rng(1).integers(0, 2, 32)
        value, _ = batch_loss(model, X, y, LossSpec("log_loss"), l2_weight=0.0)
        assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_single_example_matches_per_example_plus_l2(self):
        model = random_model("linear", 2, seed=2)
        x = np.array([0.3, -1.1])
        h = float(forward(model, x)[1])
        expected_value = -np.log(h) + 0.01 * float(np.sum(model.weights**2))
        value, _ = batch_loss(model, x[None, :], np.array([1]), LossSpec("log_loss"), 0.01)
        assert value == pytest.approx(expected_value, rel=1e-12)

    def test_duplicated_batch_matches_single(self):
        model = random_model("mlp", 2, seed=9)
        x = np.array([[0.4, 0.2]])
        spec = LossSpec("expected_utility_loss", policy())
        single, _ = batch_loss(model, x, np.array([1]), spec)
        repeated, _ = batch_loss(model, np.repeat(x, 5, axis=0), np.ones(5, dtype=int), spec)
        assert repeated == pytest.approx(single, rel=1e-12)

    def test_empty_batch_rejected(self):
        model = init_model("linear", 2)
        with pytest.raises(ValueError):
            batch_loss(model, np.empty((0, 2)), np.empty(0, dtype=int), LossSpec("log_loss"))

    def test_l2_excludes_biases(self):
        model = init_model("linear", 2)
        model.bias[:] = [3.0]
        X = np.zeros((4, 2))
        y = np.array([1, 1, 1, 1])
        with_l2, grads = batch_loss(model, X, y, LossSpec("log_loss"), l2_weight=10.0)
        without, _ = batch_loss(model, X, y, LossSpec("log_loss"), l2_weight=0.0)
        assert with_l2 == without  # zero weights, bias not penalized
        value_w, grads_w = batch_loss(model, X, y, LossSpec("log_loss"), l2_weight=1.0)
        model.weights[:] = [2.0, 0.0]
        value2, grads2 = batch_loss(model, X, y, LossSpec("log_loss"), l2_weight=1.0)
        assert grads2.weights[0] == pytest.approx(2.0 * 1.0 * 2.0, abs=1e-12)

    def test_solve_region_gradients_exactly_zero(self):
        # zero-init model predicts 0.5 < threshold everywhere
        model = init_model("linear", 3)
        X = np.random.default_rng(5).normal(size=(16, 3))
        y = np.random.default_rng(6).integers(0, 2, 16)
        for kind in ("expected_utility_loss", "team_loss"):
            _, grads = batch_loss(model, X, y, LossSpec(kind, policy()))
            for g in grads.parameters().values():
                assert np.all(g == 0.0)


class TestGradientFidelity:
    """Analytic gradients vs central finite differences for all three losses."""

    @staticmethod
    def sample_case(rng, kind, policy_):
        """A (model, x, y) triple away from the threshold and saturation.

        Some random models saturate their outputs for nearly all inputs, so
        after a bounded number of input draws a fresh model is drawn instead.
        """
        c = policy_.accept_threshold
        while True:
            model = random_model(kind, 3, seed=int(rng.integers(1_000_000)), scale=0.5)
            for _ in range(100):
                x = rng.normal(size=3)
                p1 = float(forward(model, x)[1])
                conf = max(p1, 1.0 - p1)
                if abs(conf - c) > 1e-3 and 0.01 < p1 < 0.99:
                    return model, x, int(rng.integers(0, 2))

    @pytest.mark.parametrize("model_kind", ["linear", "mlp"])
    @pytest.mark.parametrize("loss_kind", ["log_loss", "expected_utility_loss", "team_loss"])
    def test_matches_finite_differences(self, model_kind, loss_kind):
        pol = policy()
        spec = LossSpec(loss_kind, pol)
        seed = sum(map(ord, f"{model_kind}:{loss_kind}"))
        rng = np.random.default_rng(seed)
        for _ in range(20):
            model, x, y = self.sample_case(rng, model_kind, pol)
            _, grads = batch_loss(model, x[None, :], np.array([y]), spec, l2_weight=0.0)
            numeric = finite_difference_gradients(
                model, x[None, :], np.array([y]), spec, l2_weight=0.0
            )
            assert max_relative_error(grads.parameters(), numeric) < 1e-4
