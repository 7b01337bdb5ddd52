"""Model initialization, forward passes, analytic gradients, serialization."""

import copy
import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_array_backward, random_model
from teamopt.classifiers import (
    GradientBuffer,
    LinearModel,
    backward,
    backward_batch,
    forward,
    forward_batch,
    init_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    sigmoid,
)
from teamopt.data import gen_scenario1
from teamopt.exhaustive import LinearGrid, exhaustive_search
from teamopt.optim import AdamState, adam_step
from teamopt.team_model import HumanPolicy, UtilityParams


class TestInit:
    def test_linear_zero_init(self):
        model = init_model("linear", 2, seed=0)
        assert np.all(model.weights == 0.0)
        assert model.bias[0] == 0.0

    def test_mlp_deterministic(self):
        a = init_model("mlp", 2, seed=7)
        b = init_model("mlp", 2, seed=7)
        for name, p in a.parameters().items():
            assert np.array_equal(p, b.parameters()[name])

    def test_mlp_glorot_bound(self):
        model = init_model("mlp", 2, seed=7)
        assert np.all(np.abs(model.w1) <= np.sqrt(6.0 / 52.0))
        assert np.all(np.abs(model.w2) <= np.sqrt(6.0 / 60.0))
        assert np.all(np.abs(model.w3) <= np.sqrt(6.0 / 11.0))
        assert np.all(model.b1 == 0.0) and np.all(model.b2 == 0.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            init_model("linear", 0)
        with pytest.raises(ValueError):
            init_model("tree", 2)


def two_branch_sigmoid(z):
    """The logistic function as 1/(1+e^-z) on z >= 0 and e^z/(1+e^z) below,
    each branch evaluated on its own boolean-masked subset."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 500.0, -500.0, 745.0, -745.0]

    def test_matches_two_branch_formula_bit_for_bit(self):
        rng = np.random.default_rng(0)
        z = np.concatenate(
            [self.EDGES, rng.normal(0.0, 30.0, 500_000), rng.uniform(-800.0, 800.0, 500_000)]
        )
        got, want = sigmoid(z), two_branch_sigmoid(z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_out_form_writes_into_out(self):
        z = np.array(self.EDGES + [0.3, -2.5])
        want = sigmoid(z)
        buf = np.empty_like(z)
        assert sigmoid(z.copy(), out=buf) is buf
        assert np.array_equal(buf.view(np.int64), want.view(np.int64))

    def test_zero_dimensional_input(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(np.float64(-745.0)).shape == ()


class TestForward:
    def test_zero_init_predicts_half(self):
        model = init_model("linear", 3)
        pred = forward(model, [5.0, -2.0, 0.3])
        np.testing.assert_array_equal(pred.probs, [0.5, 0.5])

    def test_hand_computed_logistic(self):
        model = init_model("linear", 2)
        model.weights[:] = [1.0, 0.0]
        pred = forward(model, [np.log(3.0), 0.0])
        assert pred.probs[1] == pytest.approx(0.75, abs=1e-12)
        assert pred.probs[0] == pytest.approx(0.25, abs=1e-12)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(0)
        for i in range(1000):
            kind = "linear" if i % 2 == 0 else "mlp"
            model = random_model(kind, 3, seed=i)
            pred = forward(model, rng.normal(size=3))
            assert abs(pred.probs.sum() - 1.0) < 1e-12

    def test_extreme_logits_stay_finite(self):
        model = init_model("linear", 1)
        model.weights[:] = [1000.0]
        assert forward(model, [1000.0]).probs[1] == 1.0
        tiny = forward(model, [-1000.0]).probs[1]
        assert 0.0 <= tiny < 1e-200

    def test_errors(self):
        model = init_model("linear", 2)
        with pytest.raises(ValueError):
            forward(model, [1.0])
        with pytest.raises(ValueError):
            forward(model, [1.0, np.nan])

    def test_batch_order_independence(self):
        model = random_model("mlp", 4, seed=5)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(64, 4))
        perm = rng.permutation(64)
        p_full, _ = forward_batch(model, X)
        p_perm, _ = forward_batch(model, X[perm])
        assert np.array_equal(p_full[perm], p_perm)


class TestBackward:
    def _fd_oracle(self, model, x, upstream, h=1e-5):
        grads = {}
        for name, p in model.parameters().items():
            g = np.zeros_like(p)
            fp, fg = p.reshape(-1), g.reshape(-1)
            for i in range(fp.size):
                orig = fp[i]
                fp[i] = orig + h
                up = float(forward(model, x).probs[1])
                fp[i] = orig - h
                down = float(forward(model, x).probs[1])
                fp[i] = orig
                fg[i] = upstream * (up - down) / (2.0 * h)
            grads[name] = g
        return grads

    def _max_rel_err(self, analytic, numeric, floor=1e-6):
        worst = 0.0
        for name, a in analytic.items():
            f = numeric[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
            worst = max(worst, float(np.max(np.abs(a - f) / denom)))
        return worst

    def test_linear_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            model = random_model("linear", 3, seed=seed)
            x = rng.normal(size=3)
            upstream = float(rng.normal())
            analytic = backward(model, x, upstream)
            numeric = self._fd_oracle(model, x, upstream)
            assert self._max_rel_err(dict(analytic.items()), numeric) < 1e-6

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for seed in range(20):
            model = random_model("mlp", 3, seed=seed, scale=0.4)
            x = rng.normal(size=3)
            upstream = float(rng.normal())
            analytic = backward(model, x, upstream)
            numeric = self._fd_oracle(model, x, upstream)
            assert self._max_rel_err(dict(analytic.items()), numeric) < 1e-4

    def test_zero_upstream_gives_zero_gradient(self):
        model = random_model("mlp", 2, seed=0)
        grads = backward(model, np.array([0.4, -1.2]), 0.0)
        for g in grads.data.values():
            assert np.all(g == 0.0)

    def test_stale_cache_rejected(self):
        model = random_model("linear", 2, seed=1)
        _, cache = forward_batch(model, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            backward(model, np.array([9.0, 9.0]), 1.0, cache=cache)

    def test_matching_cache_accepted(self):
        model = random_model("linear", 2, seed=1)
        x = np.array([1.0, 2.0])
        _, cache = forward_batch(model, x[None, :])
        fresh = backward(model, x, 0.7)
        cached = backward(model, x, 0.7, cache=cache)
        for name, g in fresh.items():
            assert np.array_equal(g, cached[name])


    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["linear", "mlp"]),
        n_features=st.integers(1, 4),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_views_hold_the_per_array_gradients(self, kind, n_features, rows, seed):
        model = random_model(kind, n_features, seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, n_features))
        # some rows on a zero-gradient plateau, as team losses produce
        d_prob1 = rng.normal(size=rows) * (rng.random(rows) < 0.7)
        _, cache = forward_batch(model, X)
        grads = backward_batch(model, cache, d_prob1)
        want = per_array_backward(model, cache, d_prob1)
        assert list(grads.data) == list(want)
        for name, w in want.items():
            assert grads[name].shape == w.shape
            assert np.array_equal(grads[name].view(np.int64), w.view(np.int64))
            assert np.shares_memory(grads[name], grads.flat)


class TestMonotonicity:
    def test_probability_increases_along_weight_direction(self):
        model = random_model("linear", 2, seed=3)
        x0 = np.array([0.1, -0.4])
        ts = np.linspace(-3.0, 3.0, 41)
        probs = [float(forward(model, x0 + t * model.weights).probs[1]) for t in ts]
        assert all(a < b for a, b in zip(probs, probs[1:]))


class TestSerialization:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_round_trip_bit_exact(self, kind, tmp_path):
        model = random_model(kind, 3, seed=17)
        clone = model_from_dict(model_to_dict(model))
        for name, p in model.parameters().items():
            assert np.array_equal(p, clone.parameters()[name])
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for name, p in model.parameters().items():
            assert np.array_equal(p, loaded.parameters()[name])

    def test_seed_format_file_loads(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "linear", "n_features": 2, "weights": [0.5, -1.25], "bias": [0.1]}\n')
        model = load_model(path)
        assert model.weights.tolist() == [0.5, -1.25]
        assert model.bias.tolist() == [0.1]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"kind": None}, "missing key 'kind'"),
            ({"n_features": None}, "missing key 'n_features'"),
            ({"bias": None}, "missing key 'bias'"),
            ({"extra": [1.0]}, "unknown key 'extra'"),
            ({"kind": "svm"}, "unknown model kind 'svm'"),
            ({"n_features": 2.5}, "n_features must be an integer"),
            ({"weights": [1.0, 2.0, 3.0]}, "'weights' has shape (3,), expected 2 values"),
            ({"weights": [[1.0, 2.0]]}, "'weights' has shape (1, 2), expected 2 values"),
            ({"weights": ["a", "b"]}, "'weights' is not a numeric array"),
            ({"weights": [1.0, float("nan")]}, "'weights' holds non-finite values"),
            ({"bias": [float("inf")]}, "'bias' holds non-finite values"),
            ({"weights": ["1", "2"]}, "'weights' is not a numeric array"),
            ({"weights": [True, 2.0]}, "'weights' is not a numeric array"),
            ({"weights": [1.0, 10**400]}, "'weights' holds non-finite values"),
        ],
    )
    def test_invalid_model_rejected(self, change, message):
        data = {"kind": "linear", "n_features": 2, "weights": [1.0, 2.0], "bias": [0.0]}
        data.update(change)
        data = {k: v for k, v in data.items() if v is not None}
        with pytest.raises(ValueError) as exc:
            model_from_dict(data)
        assert message in str(exc.value)

    def test_mlp_wrong_layer_shape_rejected(self):
        data = model_to_dict(init_model("mlp", 3))
        data["w2"] = data["w2"][:-1]
        with pytest.raises(ValueError, match="'w2' has shape"):
            model_from_dict(data)

    def test_load_error_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="bad.json: model must be a JSON object"):
            load_model(path)

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["linear", "mlp"]),
        n_features=st.integers(1, 4),
        data=st.data(),
    )
    def test_round_trip_is_bit_exact_for_any_values(self, kind, n_features, data):
        model = init_model(kind, n_features)
        model.flat[:] = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=model.flat.size, max_size=model.flat.size,
            )
        )
        clone = model_from_dict(model_to_dict(model))
        assert clone.flat.tobytes() == model.flat.tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(model, path)
            assert load_model(path).flat.tobytes() == model.flat.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["linear", "mlp"]),
        n_features=st.integers(1, 3),
        mutation=st.sampled_from(
            ["drop", "add", "longer", "shorter", "non_finite", "not_a_list",
             "bad_element", "kind", "n_features"]
        ),
        data=st.data(),
    )
    def test_mutated_file_is_rejected_by_name(self, kind, n_features, mutation, data):
        """Any one mutation of a valid file raises a ValueError naming the file."""
        model = model_to_dict(init_model(kind, n_features, seed=1))
        params = [k for k in model if k not in ("kind", "n_features")]
        name = data.draw(st.sampled_from(params))
        if mutation == "drop":
            del model[data.draw(st.sampled_from(sorted(model)))]
        elif mutation == "add":
            extra = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in model))
            model[extra] = data.draw(st.sampled_from([[1.0], 0, "x", None]))
        elif mutation == "longer":
            model[name] = model[name] + [0.5]
        elif mutation == "shorter":
            model[name] = model[name][:-1]
        elif mutation == "non_finite":
            at = data.draw(st.integers(0, len(model[name]) - 1))
            model[name][at] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif mutation == "not_a_list":
            model[name] = data.draw(
                st.sampled_from(["1.0", 1.0, 2, None, True, {"values": model[name]}, [model[name]]])
            )
        elif mutation == "bad_element":
            at = data.draw(st.integers(0, len(model[name]) - 1))
            model[name][at] = data.draw(
                st.sampled_from(["1.0", True, False, None, [1.0], {}, 10**400])
            )
        elif mutation == "kind":
            model["kind"] = data.draw(st.sampled_from(["svm", "", None, 1, ["linear"]]))
        else:
            model["n_features"] = data.draw(
                st.sampled_from([0, -1, 2.5, "2", True, None, n_features + 1])
            )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(json.dumps(model))
            with pytest.raises(ValueError) as exc:
                load_model(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_dict_shape(self):
        model = init_model("linear", 2)
        data = model_to_dict(model)
        assert data["kind"] == "linear"
        assert data["n_features"] == 2
        assert data["weights"] == [0.0, 0.0]
        assert data["bias"] == [0.0]


def _exhaustive_model():
    pol = HumanPolicy(UtilityParams(1.0, 0.5, 0.9))
    grid = LinearGrid(n_angles=4, n_offsets=5)
    return exhaustive_search(gen_scenario1(200, seed=0), "expected_utility", pol, grid)


MAKERS = {
    "init_linear": lambda: init_model("linear", 2),
    "init_mlp": lambda: init_model("mlp", 2, seed=1),
    "copy_linear": lambda: random_model("linear", 3, seed=2).copy(),
    "copy_mlp": lambda: random_model("mlp", 3, seed=2).copy(),
    "from_dict_linear": lambda: model_from_dict(model_to_dict(random_model("linear", 2, seed=3))),
    "from_dict_mlp": lambda: model_from_dict(model_to_dict(random_model("mlp", 2, seed=3))),
    "exhaustive": _exhaustive_model,
}

TRANSFERS = {
    "as_made": lambda model: model,
    "pickled": lambda model: pickle.loads(pickle.dumps(model)),
    "deepcopied": copy.deepcopy,
}


class TestFlatBuffer:
    """Every parameter is a view of model.flat, however the model was made or
    moved, so an update of the buffer moves the named fields."""

    @pytest.mark.parametrize("transfer", sorted(TRANSFERS))
    @pytest.mark.parametrize("make", sorted(MAKERS))
    def test_adam_step_moves_the_named_fields(self, make, transfer):
        original = MAKERS[make]()
        kept = original.copy()
        model = TRANSFERS[transfer](original)
        params = model.parameters()
        assert model.flat.dtype == np.float64 and model.flat.flags.c_contiguous
        assert model.flat.size == sum(p.size for p in params.values())
        for name, p in params.items():
            assert np.shares_memory(p, model.flat), name
            assert np.array_equal(p, kept.parameters()[name])
        first = model.weight_names()[0]
        before = getattr(model, first).copy()
        grads = GradientBuffer({k: np.ones_like(p) for k, p in params.items()})
        adam_step(model, grads, AdamState.for_model(model), 0.1)
        assert np.all(getattr(model, first) != before)
        assert np.array_equal(
            model.flat, np.concatenate([p.ravel() for p in model.parameters().values()])
        )
        if model is not original:
            for name, p in original.parameters().items():
                assert np.array_equal(p, kept.parameters()[name])

    def test_constructor_copies_into_the_buffer(self):
        weights, bias = np.array([1.0, 2.0]), np.array([3.0])
        model = LinearModel(weights=weights, bias=bias)
        model.weights[0] = 9.0
        assert weights[0] == 1.0
        assert model.flat.tolist() == [9.0, 2.0, 3.0]

    def test_gradient_buffer_from_dict_keeps_its_order(self):
        grads = GradientBuffer({"bias": np.array([1.0]), "weights": np.array([2.0, 3.0])})
        assert grads.flat.tolist() == [1.0, 2.0, 3.0]
        grads["weights"][0] = 7.0
        assert grads.flat.tolist() == [1.0, 7.0, 3.0]
