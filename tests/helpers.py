"""Shared test utilities: random models, single-example forward and backward
passes, the one-example team-utility reference, the finite-difference
gradient oracle, the two-step clamped sigmoid, the MLP's pre-activations,
the unblocked forward, per-array backward and Adam oracles, the report and curves written with a
full-size array per quantity, the dense exhaustive-search scorer, the
bisection-only count pass, the row-by-row CSV writer, digests of the outputs
that BLAS threading could change, and hypothesis strategies for policies and
model outputs."""

import csv
import hashlib
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from teamopt import cli, data
from teamopt.analysis import BehaviorCurves, Metrics, ModelReport
from teamopt.classifiers import (
    LOGIT_CLAMP,
    ForwardCache,
    Model,
    backward_batch,
    forward_batch,
    init_model,
    sigmoid,
)
from teamopt.exhaustive import _CountPass
from teamopt.losses import batch_loss
from teamopt.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from teamopt.team_model import (
    HumanPolicy,
    UtilityParams,
    confidences,
    empirical_utilities,
    expected_utilities,
    predicted_labels,
    true_label_probs,
    utilities,
)


def random_model(kind, n_features, seed, scale=0.8):
    """A model with parameters perturbed away from the standard init."""
    model = init_model(kind, n_features, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters().values():
        p += rng.normal(0.0, scale, size=p.shape)
    return model


def forward(model, features):
    """Single-example forward pass yielding the two class probabilities."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"features must be a 1-d vector, got shape {x.shape}")
    prob1, _ = forward_batch(model, x[None, :])
    return np.array([1.0 - prob1[0], prob1[0]])


def scalar_utility(prob1, label, policy, objective="expected_utility"):
    """One example's accept probability and team utility, written branch by
    branch from the definition; the reference ``utilities`` is tested against.

    The overseer accepts, with the policy's accept probability, when the
    confidence (the larger class probability) is at least the threshold. An
    accepted label pays 1 if right and -beta if wrong; solving pays the solve
    utility.
    """
    params = policy.params
    prob1 = float(prob1)
    if max(prob1, 1.0 - prob1) >= params.accept_threshold:
        p_accept = policy.accept_probability
    else:
        p_accept = 0.0
    if objective == "expected_utility":
        # right with the probability of the true label: 1*h - beta*(1 - h)
        h = prob1 if label == 1 else 1.0 - prob1
        accept = (1.0 + params.beta) * h - params.beta
    elif objective == "empirical_utility":
        # the argmax label; a tie goes to label 0
        predicted = 1 if prob1 > 1.0 - prob1 else 0
        accept = 1.0 if predicted == label else -params.beta
    else:
        raise ValueError(f"unknown objective {objective!r}")
    return p_accept, p_accept * accept + (1.0 - p_accept) * params.solve_utility


def backward(model, features, d_loss_d_prob1, cache=None):
    """Single-example gradient of a loss with upstream derivative d_loss_d_prob1.

    When no cache is supplied the matching forward pass is recomputed; a
    supplied cache is validated against the features to reject stale
    activations.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"features must be a 1-d vector, got shape {x.shape}")
    if cache is None:
        _, cache = forward_batch(model, x[None, :])
    else:
        if cache.features.shape != (1, x.shape[0]) or not np.array_equal(
            cache.features[0], x
        ):
            raise ValueError("forward cache does not match the given features")
    return backward_batch(model, cache, np.array([d_loss_d_prob1]))


def finite_difference_gradients(model, features, labels, spec, l2_weight=0.0, h=1e-5):
    """Central differences of batch_loss with respect to every parameter."""
    grads = {}
    for name, p in model.parameters().items():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up, _ = batch_loss(model, features, labels, spec, l2_weight)
            flat_p[i] = orig - h
            down, _ = batch_loss(model, features, labels, spec, l2_weight)
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """Worst elementwise relative error between two gradient dicts."""
    worst = 0.0
    for name, a in analytic.items():
        f = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def two_step_clamped_sigmoid(z):
    """classifiers.clamped_sigmoid as a clamp and then the sigmoid; the
    reference the folded form is tested against."""
    return sigmoid(np.minimum(np.maximum(z, -LOGIT_CLAMP), LOGIT_CLAMP))


def mlp_pre_activations(model, X):
    """The MLP's two hidden pre-activations a1 and a2 for the rows of X, each
    a fresh expression; the reference the cached activations max(a, 0) and
    the ReLU masks a > 0 are tested against."""
    a1 = X @ model.w1.T + model.b1
    return a1, np.maximum(a1, 0.0) @ model.w2.T + model.b2


def unblocked_forward(model, features):
    """forward_batch as one pass over every row that keeps every hidden
    activation; the reference the blocked pass is tested against."""
    X = np.asarray(features, dtype=np.float64)
    if model.kind == "linear":
        z = X @ model.weights + model.bias[0]
        prob1 = sigmoid(np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP))
        return prob1, ForwardCache(X, z, prob1, [], 1)
    h1, h2 = (np.maximum(a, 0.0) for a in mlp_pre_activations(model, X))
    z = h2 @ model.w3 + model.b3[0]
    prob1 = sigmoid(np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP))
    return prob1, ForwardCache(X, z, prob1, [h1, h2], 3)


def blocked_pass_mismatches(kind, n, seed=0):
    """Names of the arrays in which forward_batch on n random rows, and
    backward_batch on its cache, differ in any bit from unblocked_forward and
    per_array_backward on the full cache."""
    model = random_model(kind, 2, seed=seed)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    d_prob1 = rng.normal(size=n)
    prob1, cache = forward_batch(model, X)
    want_prob1, want_cache = unblocked_forward(model, X)
    got = {"prob1": prob1, "z": cache.z, **backward_batch(model, cache, d_prob1).parameters()}
    want = {
        "prob1": want_prob1, "z": want_cache.z,
        **per_array_backward(model, want_cache, d_prob1),
    }
    return [
        name for name, w in want.items()
        if not np.array_equal(got[name].view(np.int64), w.view(np.int64))
    ]


def per_array_backward(model, cache, d_prob1):
    """backward_batch's gradients as separate arrays, one expression each;
    the reference the gradients written into the flat buffer's views are
    tested against. The hidden layers are recomputed from the cached
    features, and each ReLU's derivative is taken on its pre-activation."""
    X = cache.features
    dz = d_prob1 * cache.prob1 * (1.0 - cache.prob1)
    if model.kind == "linear":
        return {"weights": X.T @ dz, "bias": np.array([dz.sum()])}
    a1, a2 = mlp_pre_activations(model, X)
    h1, h2 = np.maximum(a1, 0.0), np.maximum(a2, 0.0)
    da2 = (dz[:, None] * model.w3[None, :]) * (a2 > 0.0)
    da1 = (da2 @ model.w2) * (a1 > 0.0)
    return {
        "w1": da1.T @ X,
        "b1": da1.sum(axis=0),
        "w2": da2.T @ h1,
        "b2": da2.sum(axis=0),
        "w3": h2.T @ dz,
        "b3": np.array([dz.sum()]),
    }


def reference_bin_index(values, n_bins):
    """analysis._bin_index through floor; the reference the truncating cast
    is tested against."""
    idx = np.floor(np.asarray(values) * n_bins).astype(np.int64)
    return np.clip(idx, 0, n_bins - 1)


def reference_curves(prob1, labels, policy, n_bins=20):
    """analysis.curves_from_probs with every per-example quantity a float
    array held to the end; the reference the leaner pass is tested against."""
    p1 = np.asarray(prob1, dtype=np.float64)
    y = np.asarray(labels)
    n = p1.shape[0]
    conf = confidences(p1)
    correct = (predicted_labels(p1) == y).astype(np.float64)
    h_true = true_label_probs(p1, y)
    psi = expected_utilities(p1, y, policy)
    conf_bin = reference_bin_index(conf, n_bins)
    true_bin = reference_bin_index(h_true, n_bins)
    hist = np.bincount(conf_bin, minlength=n_bins).astype(np.int64)
    correct_by_conf = np.bincount(conf_bin, weights=correct, minlength=n_bins)
    with np.errstate(invalid="ignore"):
        reliability = np.where(hist > 0, correct_by_conf / np.maximum(hist, 1), np.nan)
    return BehaviorCurves(
        bin_edges=np.linspace(0.0, 1.0, n_bins + 1),
        reliability=reliability,
        confidence_hist=hist,
        accuracy_density=np.bincount(true_bin, weights=correct, minlength=n_bins) / n,
        utility_density=np.bincount(true_bin, weights=psi, minlength=n_bins) / n,
    )


def reference_report(prob1, labels, policy, n_bins=20):
    """analysis.report of a model whose outputs are prob1, with the correct
    flags as floats and every array held until the report is built."""
    y = np.asarray(labels)
    n = len(y)
    correct = (predicted_labels(prob1) == y).astype(np.float64)
    psi = expected_utilities(prob1, y, policy)
    accepted = utilities(prob1, y, policy)[0] > 0.0
    return ModelReport(
        metrics=Metrics(
            accuracy=float(np.mean(correct)),
            expected_utility=float(np.mean(psi)),
            empirical_utility=float(np.mean(empirical_utilities(prob1, y, policy))),
        ),
        curves=reference_curves(prob1, y, policy, n_bins),
        accept_fraction=float(np.mean(accepted)),
        accept_accuracy_mass=float(np.sum(correct[accepted])) / n,
        accept_utility_mass=float(np.sum(psi[accepted])) / n,
    )


def pass_digest(kind, n, seed=0):
    """sha1 of forward_batch's prob1 and z on n random rows and of
    backward_batch's gradients from its cache."""
    model = random_model(kind, 2, seed=seed)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    prob1, cache = forward_batch(model, X)
    grads = backward_batch(model, cache, rng.normal(size=n))
    digest = hashlib.sha1()
    for array in (prob1, cache.z, *grads.parameters().values()):
        digest.update(array.tobytes())
    return digest.hexdigest()


def cli_digests(eval_rows):
    """sha1 of the files that a 1-seed MLP ``train --loss team`` and an
    ``eval`` of its team model on ``eval_rows`` scenario1 rows write, one per
    command, run in the current directory."""
    data.save_csv(data.gen_scenario1(1000, seed=1), "train.csv")
    data.save_csv(data.gen_scenario1(eval_rows, seed=2), "eval.csv")
    commands = {
        "train": ["train", "--data", "train.csv", "--model", "mlp", "--loss", "team",
                  "--seeds", "1", "--epochs", "5", "--out", "train"],
        "eval": ["eval", "--data", "eval.csv", "--model-file", "train/models/team_seed0.json",
                 "--out", "eval"],
    }
    digests = {}
    for name, argv in commands.items():
        assert cli.main(argv) == 0
        digest = hashlib.sha1()
        for path in sorted(Path(name).rglob("*")):
            if path.is_file():
                digest.update(str(path).encode() + b"\0" + path.read_bytes())
        digests[name] = digest.hexdigest()
    return digests


def model_of(arrays):
    """A model holding the given arrays, one per parameter in ``parameters()``
    order: a gradient laid out like any model of that kind and width."""
    arrays = list(arrays)
    return Model(list(zip(arrays[::2], arrays[1::2])))


def per_array_adam_step(params, grads, m, v, step, learning_rate):
    """One Adam update looped over dicts of separate arrays, in place; the
    reference the single pass over the flat buffer is tested against."""
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for name, p in params.items():
        g = grads[name]
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * g
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * (g * g)
        p -= learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)


def dense_score_grid(dataset, objective, policy, grid):
    """Every exhaustive-search candidate's mean objective, shape (angles,
    offsets, sharpness), from one dense (examples x offsets) slab per angle
    and sharpness rung; the reference the search's scorers are tested
    against."""
    X = dataset.features
    y = dataset.labels[:, None]
    offsets = grid.offsets()
    sharpness = np.asarray(grid.sharpness)
    scores = np.empty((grid.n_angles, len(offsets), len(sharpness)))
    for ai, angle in enumerate(grid.angles()):
        direction = np.array([np.cos(angle), np.sin(angle)])
        proj = X @ direction
        for si, s in enumerate(sharpness):
            z = s * (proj[:, None] - offsets[None, :])
            prob1 = sigmoid(np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP))
            scores[ai, :, si] = utilities(prob1, y, policy, objective)[1].mean(axis=0)
    return scores


class BisectionCountPass(_CountPass):
    """_CountPass that finds every boundary by bisection from the whole
    range, without a guess; the reference the guessed boundaries are tested
    against."""

    def __call__(self, proj: np.ndarray) -> np.ndarray:
        order = np.argsort(proj)
        self.proj = proj[order]
        # positives[i]: positive labels among the first i sorted examples
        positives = np.concatenate(([0], np.cumsum(self.labels[order] == 1)))
        n = len(proj)
        start = np.zeros(len(self.offsets), dtype=np.intp)
        end = np.full(len(self.offsets), n)
        switch = self._first(self._predicts_positive, start, end)
        low = self._first(self._solved, start, switch)
        high = self._first(self._accepted, switch, end)
        correct = low - positives[low] + positives[n] - positives[high]
        wrong = positives[low] + (n - high) - (positives[n] - positives[high])
        return np.stack([correct, wrong, high - low])

    def _first(self, predicate, lo, hi):
        """Per candidate, the first index in [lo, hi) where ``predicate``
        holds, or hi; the predicate must be false before it and true after."""
        last = len(self.proj) - 1
        while True:
            open_ = lo < hi
            if not open_.any():
                return lo
            mid = (lo + hi) // 2
            holds = predicate(np.minimum(mid, last))
            hi = np.where(open_ & holds, mid, hi)
            lo = np.where(open_ & ~holds, mid + 1, lo)


def save_csv_rows(dataset, path, label_column="label"):
    """data.save_csv one row at a time, each value through repr(float(v));
    the reference the chunked writer is tested against."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def unchecked_params(beta, lam, human_accuracy):
    """UtilityParams built without validation, so human accuracy may exceed 1
    and lift the threshold above 1 (never accept), which UtilityParams rejects."""
    params = object.__new__(UtilityParams)
    for name, value in (("beta", beta), ("lam", lam), ("human_accuracy", human_accuracy)):
        object.__setattr__(params, name, value)
    return params


@st.composite
def policies(draw):
    """Policies spanning partial compliance (p < 1), thresholds c <= 0.5
    (always accept), c in (0.5, 1] and, via unchecked parameters, c > 1."""
    beta = draw(st.floats(1.0, 10.0))
    lam = draw(st.floats(0.0, 5.0))
    p = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        return HumanPolicy(UtilityParams(beta, lam, draw(st.floats(0.0, 1.0))), p)
    # threshold a - lam/(1+beta) lands in (1, 1.5]
    a = 1.0 + lam / (1.0 + beta) + draw(st.floats(1e-6, 0.5))
    return HumanPolicy(unchecked_params(beta, lam, a), p)


@st.composite
def outputs(draw, policy, max_size=20):
    """(prob1, labels) arrays, with probabilities on the threshold included."""
    c = min(max(policy.accept_threshold, 0.0), 1.0)
    prob = st.floats(0.0, 1.0) | st.sampled_from([c, 1.0 - c, 0.5, 0.0, 1.0])
    n = draw(st.integers(1, max_size))
    prob1 = draw(st.lists(prob, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(prob1), np.array(labels)
