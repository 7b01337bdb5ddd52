"""Model initialization, forward passes, analytic gradients, serialization."""

import copy
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    backward,
    forward,
    mlp_pre_activations,
    per_array_backward,
    random_model,
    two_step_clamped_sigmoid,
)
from teamopt import classifiers
from teamopt.classifiers import (
    BLOCK_ROWS,
    HIDDEN,
    Model,
    backward_batch,
    clamped_sigmoid,
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

    def test_clamped_form_matches_clip(self):
        z = np.array(self.EDGES + [499.9, -499.9, 1e308, -1e308, 0.3, -2.5])
        want = sigmoid(np.clip(z, -classifiers.LOGIT_CLAMP, classifiers.LOGIT_CLAMP))
        got = clamped_sigmoid(z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(
        z=st.lists(
            st.floats()
            | st.sampled_from([
                0.0, -0.0, np.inf, -np.inf, np.nan,
                *(s * np.nextafter(classifiers.LOGIT_CLAMP, t)
                  for s in (1.0, -1.0) for t in (0.0, np.inf)),
                classifiers.LOGIT_CLAMP, -classifiers.LOGIT_CLAMP,
            ]),
            min_size=1, max_size=40,
        )
    )
    def test_folded_clamp_matches_two_steps_bit_for_bit(self, z):
        # the fold relies on |clip(z)| = min(|z|, C) and clip(z) >= 0 <=> z >= 0
        z = np.array(z)
        with np.errstate(invalid="ignore"):
            got, want = clamped_sigmoid(z), two_step_clamped_sigmoid(z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_zero_dimensional_input(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(np.float64(-745.0)).shape == ()


class TestForward:
    def test_zero_init_predicts_half(self):
        model = init_model("linear", 3)
        pred = forward(model, [5.0, -2.0, 0.3])
        np.testing.assert_array_equal(pred, [0.5, 0.5])

    def test_hand_computed_logistic(self):
        model = init_model("linear", 2)
        model.weights[:] = [1.0, 0.0]
        pred = forward(model, [np.log(3.0), 0.0])
        assert pred[1] == pytest.approx(0.75, abs=1e-12)
        assert pred[0] == pytest.approx(0.25, abs=1e-12)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(0)
        for i in range(1000):
            kind = "linear" if i % 2 == 0 else "mlp"
            model = random_model(kind, 3, seed=i)
            pred = forward(model, rng.normal(size=3))
            assert abs(pred.sum() - 1.0) < 1e-12

    def test_extreme_logits_stay_finite(self):
        model = init_model("linear", 1)
        model.weights[:] = [1000.0]
        assert forward(model, [1000.0])[1] == 1.0
        tiny = forward(model, [-1000.0])[1]
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


# sizes around the block edges, where the last block takes the remainder
BLOCKED_SIZES = [
    1, 32, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1,
    2 * BLOCK_ROWS + 7, 3 * BLOCK_ROWS + 1, 400_003,
]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# eval on two full blocks and a remainder; forward runs one matmul per block
EVAL_ROWS = 2 * BLOCK_ROWS + 3
# sizes whose backward_batch bits differ between one and two BLAS threads
THREAD_DEPENDENT = {
    "linear": {400_003},
    "mlp": {2 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7, 3 * BLOCK_ROWS + 1, 400_003},
}


def run_fresh(code, threads, cwd=None):
    """The last line that ``code`` prints, read as JSON, run in a fresh
    interpreter whose BLAS uses the given number of threads."""
    paths = [str(Path(classifiers.__file__).parents[1]), str(Path(__file__).parent)]
    env = {
        **os.environ, **dict.fromkeys(THREAD_VARIABLES, str(threads)),
        "PYTHONPATH": os.pathsep.join(paths),
    }
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def thread_case(kind, n):
    if n not in THREAD_DEPENDENT[kind]:
        return f"{kind}-{n}"
    return pytest.param(f"{kind}-{n}", marks=pytest.mark.xfail(
        len(os.sched_getaffinity(0)) > 1, strict=True,
        reason=f"backward_batch's {kind} gradients at {n} rows differ in their last bits "
        "between one and two BLAS threads",
    ))


@pytest.fixture(scope="module")
def digests_by_threads():
    """helpers.pass_digest for each kind and blocked size, and
    helpers.cli_digests, run once in a fresh interpreter whose BLAS uses one
    thread and once in one whose BLAS uses two."""
    code = (
        "import json, helpers\n"
        "passes = {f'{k}-{n}': helpers.pass_digest(k, n)"
        f" for k in ('linear', 'mlp') for n in {BLOCKED_SIZES}}}\n"
        f"print(json.dumps({{**passes, **helpers.cli_digests({EVAL_ROWS})}}))"
    )
    runs = {}
    for threads in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            runs[threads] = run_fresh(code, threads, cwd=tmp)
    return runs


@pytest.fixture(scope="module")
def one_thread_mismatches():
    """helpers.blocked_pass_mismatches for each kind and size, run in a fresh
    interpreter whose BLAS uses one thread. With several threads, OpenBLAS
    splits a full batch's rows between them at a row that need not be a
    multiple of its kernel's row unroll, and the rows at that split then take
    an edge kernel whose last bits differ; so neither layout has thread-free
    bits, and the identity is tested where the rows alone decide them."""
    code = (
        "import json, helpers\n"
        "print(json.dumps({f'{k}-{n}': helpers.blocked_pass_mismatches(k, n)"
        f" for k in ('linear', 'mlp') for n in {BLOCKED_SIZES}}}))"
    )
    return run_fresh(code, 1)


class TestBlockedInference:
    @pytest.mark.parametrize("n", BLOCKED_SIZES)
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_same_bits_as_one_full_batch(self, one_thread_mismatches, kind, n):
        # forward's prob1 and z, and backward's gradients from its cache
        mismatches = one_thread_mismatches[f"{kind}-{n}"]
        assert mismatches == [], f"this BLAS breaks the blocked pass's bits in {mismatches}"

    @pytest.mark.parametrize(
        "case",
        [thread_case(kind, n) for kind in ("linear", "mlp") for n in BLOCKED_SIZES]
        + ["train", "eval"],
    )
    def test_same_bytes_under_one_and_two_blas_threads(self, digests_by_threads, case):
        assert digests_by_threads[1][case] == digests_by_threads[2][case]

    @pytest.mark.parametrize("n, kept", [(2 * BLOCK_ROWS - 1, True), (2 * BLOCK_ROWS, False)])
    def test_activations_kept_only_for_one_block(self, n, kept):
        model = random_model("mlp", 2, seed=0)
        X = np.random.default_rng(0).normal(size=(n, 2))
        _, cache = forward_batch(model, X)
        assert (cache.hidden is not None) == kept
        if kept:
            assert [h.shape for h in cache.hidden] == [(n, 50), (n, 10)]
            for h, a in zip(cache.hidden, mlp_pre_activations(model, X)):
                assert np.array_equal(h.view(np.int64), np.maximum(a, 0.0).view(np.int64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_last_row_raises_before_any_block(self, monkeypatch, bad):
        model = random_model("mlp", 2, seed=0)
        X = np.zeros((3 * BLOCK_ROWS + 1, 2))
        X[-1, 1] = bad
        blocks = []
        monkeypatch.setattr(classifiers, "_block_logits", lambda *args: blocks.append(args))
        with pytest.raises(ValueError, match="features must be finite"):
            forward_batch(model, X)
        assert blocks == []
        # the patched helper is the one the blocked pass calls
        X[-1, 1] = 0.0
        forward_batch(model, X)
        assert len(blocks) == 3

    def test_peak_memory_below_one_activation_array(self):
        # a whole-dataset cache would hold h1 and h2 of every row
        n = 200_000
        model = random_model("mlp", 2, seed=0)
        X = np.random.default_rng(0).normal(size=(n, 2))
        tracemalloc.start()
        try:
            forward_batch(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * HIDDEN["mlp"][0] * 8

    def test_peak_memory_is_the_outputs_and_one_block(self):
        # z and prob1 of every row, and besides them only the hidden-layer
        # buffers that every block reuses and one block's sigmoid
        # temporaries; with 1,024-row blocks those stay under 1 MiB for any
        # n, while one full-size temporary takes 1.6 MB here
        n = 200_000
        model = random_model("mlp", 2, seed=0)
        X = np.random.default_rng(0).normal(size=(n, 2))
        tracemalloc.start()
        try:
            forward_batch(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * 8 + 2**20

    def test_recompute_peak_memory_holds_one_array_per_hidden_layer(self):
        # backward on a blocked cache recomputes each hidden layer's
        # activation alone; (pre-activation, activation) pairs would take
        # 2 * n * 60 * 8 bytes before the first gradient
        n = 20_000
        model = random_model("mlp", 2, seed=0)
        _, cache = forward_batch(model, np.random.default_rng(0).normal(size=(n, 2)))
        assert cache.hidden is None
        tracemalloc.start()
        try:
            backward_batch(model, cache, np.ones(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * sum(HIDDEN["mlp"]) * 8


class TestBackward:
    def _fd_oracle(self, model, x, upstream, h=1e-5):
        grads = {}
        for name, p in model.parameters().items():
            g = np.zeros_like(p)
            fp, fg = p.reshape(-1), g.reshape(-1)
            for i in range(fp.size):
                orig = fp[i]
                fp[i] = orig + h
                up = float(forward(model, x)[1])
                fp[i] = orig - h
                down = float(forward(model, x)[1])
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
            assert self._max_rel_err(analytic.parameters(), numeric) < 1e-6

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for seed in range(20):
            model = random_model("mlp", 3, seed=seed, scale=0.4)
            x = rng.normal(size=3)
            upstream = float(rng.normal())
            analytic = backward(model, x, upstream)
            numeric = self._fd_oracle(model, x, upstream)
            assert self._max_rel_err(analytic.parameters(), numeric) < 1e-4

    def test_zero_upstream_gives_zero_gradient(self):
        model = random_model("mlp", 2, seed=0)
        grads = backward(model, np.array([0.4, -1.2]), 0.0)
        for g in grads.parameters().values():
            assert np.all(g == 0.0)

    def test_stale_cache_rejected(self):
        model = random_model("linear", 2, seed=1)
        _, cache = forward_batch(model, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            backward(model, np.array([9.0, 9.0]), 1.0, cache=cache)

    # a mini-batch cache, and a blocked one that holds no activations
    @pytest.mark.parametrize("rows", [4, 2 * BLOCK_ROWS])
    @pytest.mark.parametrize("made_by, given_to", [("linear", "mlp"), ("mlp", "linear")])
    def test_cache_of_another_depth_rejected(self, made_by, given_to, rows):
        _, cache = forward_batch(random_model(made_by, 2, seed=0), np.ones((rows, 2)))
        model = random_model(given_to, 2, seed=0)
        with pytest.raises(ValueError, match="forward cache of a .-layer model does not match"):
            backward_batch(model, cache, np.ones(rows))

    def test_matching_cache_accepted(self):
        model = random_model("linear", 2, seed=1)
        x = np.array([1.0, 2.0])
        _, cache = forward_batch(model, x[None, :])
        fresh = backward(model, x, 0.7)
        cached = backward(model, x, 0.7, cache=cache)
        for name, g in fresh.parameters().items():
            assert np.array_equal(g, getattr(cached, name))


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
        assert grads.layout == model.layout
        assert list(grads.parameters()) == list(want)
        views = [v for layer in grads.layers for v in layer]
        for (name, w), view in zip(want.items(), views):
            g = getattr(grads, name)
            assert g is view
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
            assert np.shares_memory(g, grads.flat)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from([1, 32, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 1]),
        seed=st.integers(0, 2**16),
    )
    def test_zero_pre_activations_give_the_oracle_bits(self, rows, seed):
        # ReLU masks on their boundary: zero rows of X, units with a bias of
        # +0.0 or -0.0, and units whose weight row is zeroed too, give
        # pre-activations of exactly zero, where the mask of the activation,
        # h > 0, must agree with the oracle's a > 0
        model = random_model("mlp", 2, seed=seed)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, 2))
        X[rng.random(rows) < 0.3] = 0.0
        for w, b in model.layers[:-1]:
            units = rng.permutation(b.size)[: b.size // 5 * 2]
            zero = rng.choice([0.0, -0.0], size=units.size)
            b[units] = zero
            w[units[::2]] = zero[::2, None]
        d_prob1 = rng.normal(size=rows) * (rng.random(rows) < 0.7)
        assert all((a == 0.0).any() for a in mlp_pre_activations(model, X))
        _, cache = forward_batch(model, X)
        grads = backward_batch(model, cache, d_prob1)
        for name, want in per_array_backward(model, cache, d_prob1).items():
            assert np.array_equal(getattr(grads, name).view(np.int64), want.view(np.int64)), name

    def test_mask_of_the_activation_is_the_mask_of_the_pre_activation(self):
        a = np.array([-0.0, 0.0, np.nan, -np.nan, 5e-324, -5e-324, np.inf, -np.inf, 1.0, -1.0])
        assert np.array_equal(np.maximum(a, 0.0) > 0.0, a > 0.0)


class TestMonotonicity:
    def test_probability_increases_along_weight_direction(self):
        model = random_model("linear", 2, seed=3)
        x0 = np.array([0.1, -0.4])
        ts = np.linspace(-3.0, 3.0, 41)
        probs = [float(forward(model, x0 + t * model.weights)[1]) for t in ts]
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

    def test_model_of_no_kind_is_not_saved(self, tmp_path):
        model = Model([(np.zeros((3, 2)), np.zeros(3)), (np.zeros(3), np.zeros(1))])
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=r"hidden widths \(3,\)"):
            save_model(model, path)
        assert not path.exists()

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
        first = next(iter(params))  # the first layer's weights
        before = getattr(model, first).copy()
        grads = Model([(np.ones_like(w), np.ones_like(b)) for w, b in model.layers])
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
        model = Model([(weights, bias)])
        model.weights[0] = 9.0
        assert weights[0] == 1.0
        assert model.flat.tolist() == [9.0, 2.0, 3.0]
