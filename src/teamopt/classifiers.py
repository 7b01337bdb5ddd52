"""Binary probabilistic classifiers with exact analytic gradients.

Every model is a stack of dense layers with a single sigmoid output head:
logistic regression is the stack with no hidden layers, and the MLP has two
hidden layers of 50 and 10 rectified-linear units. Batched forward passes
return the positive-class probability together with a cache of intermediate
activations; the matching backward pass consumes that cache and produces
exact parameter gradients for any upstream derivative with respect to the
positive-class probability.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Model",
    "ForwardCache",
    "sigmoid",
    "clamped_sigmoid",
    "init_model",
    "forward_batch",
    "backward_batch",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

# Logits are clamped here before the sigmoid; sigma(500) is within one ulp of
# 1.0, so only pathological inputs are affected.
LOGIT_CLAMP = 500.0

# Hidden-layer widths of each model kind; the linear model has none.
HIDDEN = {"linear": (), "mlp": (50, 10)}

# Rows per block of a large forward pass. Each hidden layer of a block is
# written into one buffer reused by every block, and at 1,024 rows the MLP's
# buffers (the last block's at most 2,047 rows by 60 units, under 1 MB) stay
# in a core's 2 MB L2 cache between layers: one 400k-row MLP forward under one
# BLAS thread took 0.125 s with fresh arrays per block of 8,192 rows, 0.086 s
# with reused buffers at 8,192 rows, 0.070 s at 2,048 and 4,096, 0.067 s at
# 1,024 and 0.074 s at 512 (medians of 5, Xeon with 2 MB of L2 per core,
# OpenBLAS 0.3.31). Blocks start at multiples of it and the last
# one takes the remainder, so no block is a short ragged tail and a BLAS
# kernel's row tail falls on the same rows as in one full-batch call: with a
# single-threaded OpenBLAS the blocks give the full batch's bits, while 1- or
# 7-row blocks take other kernels and differ in the last digits.
BLOCK_ROWS = 1024


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no overflow for any finite z).

    1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|) in
    [0, 1]; the numerator max(e, [z >= 0]) is 1 or e without a masked
    select.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    p = np.maximum(z >= 0.0, e)
    e += 1.0
    p /= e
    return p


def clamped_sigmoid(z: np.ndarray) -> np.ndarray:
    """The positive-class probability of logits z: the sigmoid of z clamped
    to +-LOGIT_CLAMP, with np.clip's bits for finite z."""
    # sigmoid's e = exp(-|z|) with the clamp folded in: -|clip(z)| is
    # max(-|z|, -LOGIT_CLAMP), and clip(z) >= 0 exactly where z >= 0
    z = np.asarray(z, dtype=np.float64)
    e = np.copysign(z, -1.0)
    np.maximum(e, -LOGIT_CLAMP, out=e)
    np.exp(e, out=e)
    p = np.maximum(z >= 0.0, e)
    e += 1.0
    p /= e
    return p


# Where each array sits in a flat buffer: (name, slice, shape), in order, with
# shape None for vectors, which need no reshape.
Layout = tuple[tuple[str, slice, tuple[int, ...] | None], ...]


def _names(depth: int) -> tuple[str, ...]:
    """Parameter names of a stack of ``depth`` layers, in ``flat`` order."""
    if depth == 1:
        return ("weights", "bias")
    return tuple(f"{p}{k}" for k in range(1, depth + 1) for p in "wb")


def _shapes(kind: str, n_features: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(weight shape, bias shape) of each layer of a model of this kind."""
    widths = (n_features, *HIDDEN[kind])
    return [((o, i), (o,)) for i, o in zip(widths, widths[1:])] + [((widths[-1],), (1,))]


class Model:
    """A stack of dense layers with a sigmoid head.

    ``layers`` holds one (weight, bias) pair per layer: ReLU hidden layers
    with an (out, in) weight and an (out,) bias, then the output layer with
    an (in,) weight and a (1,) bias. The linear model is the stack with no
    hidden layers. The parameters are views of ``flat``, one float64 buffer
    in ``parameters()`` order that an optimizer updates in one pass, placed
    by ``layout``; they are also named fields, ``weights``/``bias`` for the
    linear model and ``w1``, ``b1``, ... for deeper ones. A gradient is a
    Model too, with the layout of the model it belongs to, so binding a
    buffer builds only the views in ``layers``: one is made every training
    step. The constructor copies its arguments into the buffer; pickle and
    deepcopy rebuild through it, which keeps the views attached.
    """

    def __init__(self, layers) -> None:
        arrays = [np.asarray(a, dtype=np.float64) for layer in layers for a in layer]
        layout, offset = [], 0
        for name, a in zip(_names(len(layers)), arrays):
            layout.append((name, slice(offset, offset + a.size), a.shape if a.ndim > 1 else None))
            offset += a.size
        self._bind(np.concatenate([a.ravel() for a in arrays]), tuple(layout))

    def _bind(self, flat: np.ndarray, layout: Layout) -> "Model":
        self.flat = flat
        self.layout = layout
        layers, entries = [], iter(layout)
        for (_, w_at, w_shape), (_, b_at, _) in zip(entries, entries):
            # biases are vectors; reshape only matrices, as it costs more than a slice
            w = flat[w_at] if w_shape is None else flat[w_at].reshape(w_shape)
            layers.append((w, flat[b_at]))
        self.layers = tuple(layers)
        return self

    def __getattr__(self, name: str) -> np.ndarray:
        # the named fields; reached only for names that are not attributes
        params = self.parameters() if "layers" in self.__dict__ else {}
        if name not in params:
            raise AttributeError(f"'Model' object has no attribute {name!r}")
        return params[name]

    @property
    def n_features(self) -> int:
        return self.layers[0][0].shape[-1]

    @property
    def kind(self) -> str | None:
        """The kind whose hidden widths the stack has; None if no kind has them."""
        widths = tuple(b.size for _, b in self.layers[:-1])
        return next((k for k, w in HIDDEN.items() if w == widths), None)

    def parameters(self) -> dict[str, np.ndarray]:
        names = (name for name, _, _ in self.layout)
        return dict(zip(names, (p for layer in self.layers for p in layer)))

    def copy(self) -> "Model":
        return object.__new__(Model)._bind(self.flat.copy(), self.layout)

    def __reduce__(self):
        return Model, (self.layers,)


@dataclass
class ForwardCache:
    """Intermediate activations of one batched forward pass.

    ``hidden`` holds each hidden layer's activation, a (rows, width) array,
    kept only for a batch of fewer than ``2 * BLOCK_ROWS`` rows (2,048),
    which covers training mini-batches. A larger batch is scored in blocks
    through buffers that each block overwrites, and keeps none (``hidden`` is
    None), so scoring a whole dataset never holds the activations of all its
    rows; given such a cache, ``backward_batch`` recomputes them from
    ``features`` in one pass, as a training step on a batch that large does.
    ``depth`` is the number of layers of the model that made the cache.
    """

    features: np.ndarray
    z: np.ndarray
    prob1: np.ndarray
    hidden: list[np.ndarray] | None
    depth: int


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
    if kind not in tuple(HIDDEN):
        raise ValueError(f"unknown model kind {kind!r}")
    rng = np.random.default_rng(seed)
    layers = []
    for w_shape, b_shape in _shapes(kind, n_features):
        if HIDDEN[kind]:
            fan_out = w_shape[0] if len(w_shape) == 2 else 1
            w = _glorot_uniform(rng, w_shape[-1], fan_out, w_shape)
        else:
            w = np.zeros(w_shape)
        layers.append((w, np.zeros(b_shape)))
    return Model(layers)


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


def _block_logits(
    model: Model, X: np.ndarray, z: np.ndarray, buffers: list[np.ndarray] | None = None
) -> list[np.ndarray]:
    """Write the logits for the rows of X into z: the only code that applies a
    layer. Each hidden layer's matmul goes into the first len(X) rows of its
    buffer, fresh arrays if ``buffers`` is None, and its bias and ReLU are
    applied there in place; returns the buffers."""
    if buffers is None:
        buffers = [np.empty((len(X), b.size)) for _, b in model.layers[:-1]]
    h = X
    for (w, b), buffer in zip(model.layers[:-1], buffers):
        a = buffer[: len(X)]
        np.matmul(h, w.T, out=a)
        a += b
        h = np.maximum(a, 0.0, out=a)
    w, b = model.layers[-1]
    np.matmul(h, w, out=z)
    z += b[0]
    return buffers


def forward_batch(model: Model, features) -> tuple[np.ndarray, ForwardCache]:
    """Positive-class probabilities for a batch, plus the activation cache.

    A batch of fewer than ``2 * BLOCK_ROWS`` rows is one ``_block_logits``
    call on fresh arrays, which the cache keeps. A larger batch is computed
    in blocks of ``BLOCK_ROWS`` rows, the last taking the remainder, which
    all write their hidden layers into the same buffers, one per layer, and
    their logits and probabilities into the outputs; so the pass holds its
    outputs and one block's activations, and the cache keeps none.
    """
    X = _check_batch(model, features)
    n_blocks = len(X) // BLOCK_ROWS
    z = np.empty(len(X))
    if n_blocks < 2:
        hidden = _block_logits(model, X, z)
        prob1 = clamped_sigmoid(z)
    else:
        prob1, hidden = np.empty(len(X)), None
        # blocks start at multiples of BLOCK_ROWS; the remainder joins the last one
        edges = [k * BLOCK_ROWS for k in range(n_blocks)] + [len(X)]
        # sized for the last block, the largest
        buffers = [np.empty((len(X) - edges[-2], b.size)) for _, b in model.layers[:-1]]
        for lo, hi in zip(edges[:-1], edges[1:]):
            _block_logits(model, X[lo:hi], z[lo:hi], buffers)
            prob1[lo:hi] = clamped_sigmoid(z[lo:hi])
    return prob1, ForwardCache(X, z, prob1, hidden, len(model.layers))


def backward_batch(model: Model, cache: ForwardCache, d_prob1) -> Model:
    """Exact parameter gradients given upstream d(loss)/d(prob1) per example,
    as a Model with ``model``'s layout over a fresh buffer.

    The cache must come from a forward pass of the same model on the same
    batch; mismatched shapes or depths are rejected. A cache without
    activations has them recomputed by one ``_block_logits`` call. Each
    ReLU's derivative is the mask h > 0 of its activation h = max(a, 0),
    which is a > 0 bit for bit, at +-0.0 and NaN too.
    """
    g = np.asarray(d_prob1, dtype=np.float64)
    if cache.depth != len(model.layers):
        raise ValueError(
            f"forward cache of a {cache.depth}-layer model does not match a "
            f"{len(model.layers)}-layer model"
        )
    if cache.features.shape[1] != model.n_features:
        raise ValueError("forward cache does not match model feature width")
    if g.shape != cache.prob1.shape:
        raise ValueError(
            f"d_prob1 shape {g.shape} does not match batch shape {cache.prob1.shape}"
        )
    X, hidden = cache.features, cache.hidden
    if hidden is None:
        hidden = _block_logits(model, X, np.empty(len(X)))
    inputs = [X, *hidden]  # the input of each layer
    dz = g * cache.prob1 * (1.0 - cache.prob1)
    grads = object.__new__(Model)._bind(np.empty(model.flat.size), model.layout)
    dw, db = grads.layers[-1]
    np.matmul(inputs[-1].T, dz, out=dw)
    dz.sum(keepdims=True, out=db)
    if hidden:
        delta = dz[:, None] * model.layers[-1][0][None, :]
        for k in reversed(range(len(hidden))):
            delta *= inputs[k + 1] > 0.0
            dw, db = grads.layers[k]
            np.matmul(delta.T, inputs[k], out=dw)
            delta.sum(axis=0, out=db)
            if k:
                delta = delta @ model.layers[k][0]
    return grads


# Serialization: a flat JSON object {kind, n_features, <param>: row-major list}.
# JSON floats use repr, so decimal round-trips are bit-exact.


def model_to_dict(model: Model) -> dict:
    """Raises ValueError for a stack whose hidden widths no kind in ``HIDDEN``
    has, since a model file names its kind and not its widths."""
    if model.kind is None:
        widths = tuple(b.size for _, b in model.layers[:-1])
        raise ValueError(f"no model kind has the hidden widths {widths}: {HIDDEN}")
    out: dict = {"kind": model.kind, "n_features": model.n_features}
    for name, value in model.parameters().items():
        out[name] = value.ravel(order="C").tolist()
    return out


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
    # a tuple: an unhashable kind (a list, say) is not in it rather than a TypeError
    if kind not in tuple(HIDDEN):
        raise ValueError(f"unknown model kind {kind!r}")
    if type(n) is not int or n < 1:
        raise ValueError(f"n_features must be an integer >= 1, got {n!r}")
    layers = _shapes(kind, n)
    shapes = dict(zip(_names(len(layers)), (shape for layer in layers for shape in layer)))
    problems = [f"missing key {k!r}" for k in sorted(set(shapes) - set(data))]
    problems += [
        f"unknown key {k!r}" for k in sorted(set(data) - set(shapes) - {"kind", "n_features"})
    ]
    if problems:
        raise ValueError(f"{kind} model: " + ", ".join(problems))
    arrays = []
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
        arrays.append(value.reshape(shape))
    return Model(list(zip(arrays[::2], arrays[1::2])))


def save_model(model: Model, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)) + "\n")


def load_model(path) -> Model:
    """Read a model file; ValueError names the file and what is wrong with it."""
    try:
        return model_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
