"""Binary probabilistic classifiers with exact analytic gradients.

Two architectures: a logistic-regression linear model and a fixed
two-hidden-layer perceptron (50 and 10 rectified-linear units) with a single
sigmoid output head. Batched forward passes return the positive-class
probability together with a cache of intermediate activations; the matching
backward pass consumes that cache and produces exact parameter gradients for
any upstream derivative with respect to the positive-class probability.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .team_model import Prediction

__all__ = [
    "LinearModel",
    "MlpModel",
    "Model",
    "GradientBuffer",
    "ForwardCache",
    "sigmoid",
    "init_model",
    "forward",
    "forward_batch",
    "backward",
    "backward_batch",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

# Logits are clamped here before the sigmoid; sigma(500) is within one ulp of
# 1.0, so only pathological inputs are affected.
LOGIT_CLAMP = 500.0

HIDDEN1 = 50
HIDDEN2 = 10


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function (no overflow for any finite z).

    1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|) in
    [0, 1]; the numerator max(e, [z >= 0]) is 1 or e without a masked
    select. Given ``out``, a float64 array of z's shape, the result goes
    there and z serves as scratch, so a float64 array z is overwritten:
    the allocation-free form for callers that reuse both buffers.
    """
    z = np.asarray(z, dtype=np.float64)
    # without out, every step writes a fresh array (out=None)
    e_out, p_out = (None, None) if out is None else (z, out)
    numerator = np.greater_equal(z, 0.0, out=p_out)
    e = np.exp(np.negative(np.abs(z, out=e_out), out=e_out), out=e_out)
    numerator = np.maximum(numerator, e, out=p_out)
    return np.divide(numerator, np.add(1.0, e, out=e_out), out=p_out)


# Where each array sits in a flat buffer: (name, slice, shape), in order, with
# shape None for vectors, which need no reshape.
Layout = tuple[tuple[str, slice, tuple[int, ...] | None], ...]


def _layout(arrays: dict[str, np.ndarray]) -> Layout:
    """The layout of the arrays packed one after another."""
    layout, offset = [], 0
    for name, a in arrays.items():
        layout.append((name, slice(offset, offset + a.size), a.shape if a.ndim > 1 else None))
        offset += a.size
    return tuple(layout)


def _views(flat: np.ndarray, layout: Layout) -> dict[str, np.ndarray]:
    """Views of ``flat`` at the places the layout gives."""
    views = {}
    for name, where, shape in layout:
        # reshape only matrices: it costs more than the slice on every step
        views[name] = flat[where] if shape is None else flat[where].reshape(shape)
    return views


def _pack(arrays: dict) -> tuple[np.ndarray, Layout]:
    """Copy arrays into one contiguous float64 buffer; returns it and its layout."""
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    return np.concatenate([a.ravel() for a in arrays.values()]), _layout(arrays)


class _FlatParameters:
    """Parameter fields as views of ``flat``, one float64 buffer in
    ``parameters()`` order that an optimizer updates in one pass, placed by
    ``layout``, which gradient buffers share. The constructor copies its
    arguments into it; pickle and deepcopy rebuild through the constructor,
    which keeps the views attached to the buffer."""

    def __post_init__(self) -> None:
        self._bind(*_pack(self.parameters()))

    def _bind(self, flat: np.ndarray, layout: Layout):
        self.flat = flat
        self.layout = layout
        for name, view in _views(flat, layout).items():
            setattr(self, name, view)
        return self

    def copy(self):
        return object.__new__(type(self))._bind(self.flat.copy(), self.layout)

    def __reduce__(self):
        return type(self), tuple(self.parameters().values())


@dataclass
class LinearModel(_FlatParameters):
    weights: np.ndarray
    bias: np.ndarray  # shape (1,)

    kind = "linear"

    @property
    def n_features(self) -> int:
        return int(self.weights.shape[0])

    def parameters(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def weight_names(self) -> tuple[str, ...]:
        return ("weights",)


@dataclass
class MlpModel(_FlatParameters):
    w1: np.ndarray  # (50, n)
    b1: np.ndarray  # (50,)
    w2: np.ndarray  # (10, 50)
    b2: np.ndarray  # (10,)
    w3: np.ndarray  # (10,)
    b3: np.ndarray  # (1,)

    kind = "mlp"

    @property
    def n_features(self) -> int:
        return int(self.w1.shape[1])

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "w1": self.w1,
            "b1": self.b1,
            "w2": self.w2,
            "b2": self.b2,
            "w3": self.w3,
            "b3": self.b3,
        }

    def weight_names(self) -> tuple[str, ...]:
        return ("w1", "w2", "w3")


Model = Union[LinearModel, MlpModel]


@dataclass
class GradientBuffer:
    """Per-parameter gradients, laid out in one flat buffer like a model's.

    ``data`` maps parameter names to views of ``flat``; a dict given without
    ``flat`` is copied into a fresh buffer in its own key order.
    """

    data: dict[str, np.ndarray]
    flat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.flat is None:
            self.flat, layout = _pack(self.data)
            self.data = _views(self.flat, layout)

    @classmethod
    def zeros_like(cls, model: Model) -> "GradientBuffer":
        flat = np.zeros_like(model.flat)
        return cls(_views(flat, model.layout), flat)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[name]

    def items(self):
        return self.data.items()


@dataclass
class ForwardCache:
    """Intermediate activations of one batched forward pass."""

    kind: str
    features: np.ndarray
    z: np.ndarray
    prob1: np.ndarray
    a1: np.ndarray | None = None
    h1: np.ndarray | None = None
    a2: np.ndarray | None = None
    h2: np.ndarray | None = None


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(kind: str, n_features: int, seed: int = 0) -> Model:
    """Create a fresh model: zeros for linear, Glorot-uniform weights for mlp.

    Zero linear initialization predicts 0.5 everywhere; the log-loss objective
    is convex for this model, so the start does not matter. Biases are zero
    for both kinds. Deterministic given the seed.
    """
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    if kind == "linear":
        return LinearModel(
            weights=np.zeros(n_features), bias=np.zeros(1)
        )
    if kind == "mlp":
        rng = np.random.default_rng(seed)
        return MlpModel(
            w1=_glorot_uniform(rng, n_features, HIDDEN1, (HIDDEN1, n_features)),
            b1=np.zeros(HIDDEN1),
            w2=_glorot_uniform(rng, HIDDEN1, HIDDEN2, (HIDDEN2, HIDDEN1)),
            b2=np.zeros(HIDDEN2),
            w3=_glorot_uniform(rng, HIDDEN2, 1, (HIDDEN2,)),
            b3=np.zeros(1),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def _check_batch(model: Model, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be a 2-d batch, got shape {X.shape}")
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"feature width {X.shape[1]} does not match model "
            f"n_features {model.n_features}"
        )
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    return X


def _clamp(z: np.ndarray) -> np.ndarray:
    # np.clip's bits through two ufunc calls, without its Python-level dispatch
    return np.minimum(np.maximum(z, -LOGIT_CLAMP), LOGIT_CLAMP)


def forward_batch(model: Model, features) -> tuple[np.ndarray, ForwardCache]:
    """Positive-class probabilities for a batch, plus the activation cache."""
    X = _check_batch(model, features)
    if model.kind == "linear":
        z = X @ model.weights + model.bias[0]
        prob1 = sigmoid(_clamp(z))
        return prob1, ForwardCache(kind="linear", features=X, z=z, prob1=prob1)
    a1 = X @ model.w1.T + model.b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ model.w2.T + model.b2
    h2 = np.maximum(a2, 0.0)
    z = h2 @ model.w3 + model.b3[0]
    prob1 = sigmoid(_clamp(z))
    return prob1, ForwardCache(
        kind="mlp", features=X, z=z, prob1=prob1, a1=a1, h1=h1, a2=a2, h2=h2
    )


def forward(model: Model, features) -> Prediction:
    """Single-example forward pass yielding a two-class Prediction."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"features must be a 1-d vector, got shape {x.shape}")
    prob1, _ = forward_batch(model, x[None, :])
    return Prediction.from_positive_prob(float(prob1[0]))


def backward_batch(model: Model, cache: ForwardCache, d_prob1) -> GradientBuffer:
    """Exact parameter gradients given upstream d(loss)/d(prob1) per example.

    The cache must come from a forward pass of the same model on the same
    batch; mismatched shapes or kinds are rejected.
    """
    g = np.asarray(d_prob1, dtype=np.float64)
    if cache.kind != model.kind:
        raise ValueError(
            f"forward cache kind {cache.kind!r} does not match model {model.kind!r}"
        )
    if cache.features.shape[1] != model.n_features:
        raise ValueError("forward cache does not match model feature width")
    if g.shape != cache.prob1.shape:
        raise ValueError(
            f"d_prob1 shape {g.shape} does not match batch shape {cache.prob1.shape}"
        )
    X = cache.features
    dz = g * cache.prob1 * (1.0 - cache.prob1)
    flat = np.empty(model.flat.size)
    out = _views(flat, model.layout)
    if model.kind == "linear":
        np.matmul(X.T, dz, out=out["weights"])
        dz.sum(keepdims=True, out=out["bias"])
        return GradientBuffer(out, flat)
    da2 = (dz[:, None] * model.w3[None, :]) * (cache.a2 > 0.0)
    da1 = (da2 @ model.w2) * (cache.a1 > 0.0)
    np.matmul(da1.T, X, out=out["w1"])
    da1.sum(axis=0, out=out["b1"])
    np.matmul(da2.T, cache.h1, out=out["w2"])
    da2.sum(axis=0, out=out["b2"])
    np.matmul(cache.h2.T, dz, out=out["w3"])
    dz.sum(keepdims=True, out=out["b3"])
    return GradientBuffer(out, flat)


def backward(
    model: Model,
    features,
    d_loss_d_prob1: float,
    cache: ForwardCache | None = None,
) -> GradientBuffer:
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


# Serialization: a flat JSON object {kind, n_features, <param>: row-major list}.
# JSON floats use repr, so decimal round-trips are bit-exact.


def model_to_dict(model: Model) -> dict:
    out: dict = {"kind": model.kind, "n_features": model.n_features}
    for name, value in model.parameters().items():
        out[name] = value.ravel(order="C").tolist()
    return out


def _param_shapes(kind: str, n: int) -> dict[str, tuple[int, ...]]:
    if kind == "linear":
        return {"weights": (n,), "bias": (1,)}
    return {
        "w1": (HIDDEN1, n), "b1": (HIDDEN1,), "w2": (HIDDEN2, HIDDEN1),
        "b2": (HIDDEN2,), "w3": (HIDDEN2,), "b3": (1,),
    }


def model_from_dict(data: dict) -> Model:
    """Rebuild a model from ``model_to_dict`` output.

    Raises ValueError naming the problem for a missing or unknown key, an
    unknown kind, a parameter of the wrong length, or a non-finite value.
    Parameters are flat row-major lists, as ``model_to_dict`` writes them.
    """
    if not isinstance(data, dict):
        raise ValueError(f"model must be a JSON object, got {type(data).__name__}")
    for key in ("kind", "n_features"):
        if key not in data:
            raise ValueError(f"model is missing key {key!r}")
    kind, n = data["kind"], data["n_features"]
    if kind not in ("linear", "mlp"):
        raise ValueError(f"unknown model kind {kind!r}")
    if type(n) is not int or n < 1:
        raise ValueError(f"n_features must be an integer >= 1, got {n!r}")
    shapes = _param_shapes(kind, n)
    problems = [f"missing key {k!r}" for k in sorted(set(shapes) - set(data))]
    problems += [
        f"unknown key {k!r}" for k in sorted(set(data) - set(shapes) - {"kind", "n_features"})
    ]
    if problems:
        raise ValueError(f"{kind} model: " + ", ".join(problems))
    arrays = {}
    for name, shape in shapes.items():
        try:
            value = np.asarray(data[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"model parameter {name!r} is not a numeric array") from None
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"model parameter {name!r} holds non-finite values") from None
        if value.shape != (math.prod(shape),):
            raise ValueError(
                f"model parameter {name!r} has shape {value.shape}, expected "
                f"{math.prod(shape)} values for shape {shape}"
            )
        # numpy also converts numeric strings, booleans and null
        if not all(type(v) in (int, float) for v in data[name]):
            raise ValueError(f"model parameter {name!r} is not a numeric array")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"model parameter {name!r} holds non-finite values")
        arrays[name] = value.reshape(shape)
    return LinearModel(**arrays) if kind == "linear" else MlpModel(**arrays)


def save_model(model: Model, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)) + "\n")


def load_model(path) -> Model:
    """Read a model file; ValueError names the file and what is wrong with it."""
    try:
        return model_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
