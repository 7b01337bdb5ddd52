"""Synthetic dataset generators, CSV ingestion, splitting, and standardization.

Two generators ship with the package. ``gen_scenario1`` builds a fixed
layout of uniform square blobs in two dimensions: well-separated majority
blobs of both classes, one positive blob adjacent to the natural class
boundary, and one small negative blob embedded on the positive side, with
counts allocated to a 0.43 positive fraction. ``gen_moons`` is the classic
two interleaving half-circles with isotropic Gaussian noise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

__all__ = [
    "Dataset",
    "BlobSpec",
    "IngestionError",
    "scenario1_blobs",
    "gen_scenario1",
    "gen_moons",
    "load_csv",
    "save_csv",
    "split",
    "standardize",
    "select_features",
]


class IngestionError(ValueError):
    """Raised when a CSV file violates the ingestion contract."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable feature matrix plus binary labels.

    ``norm_mean``/``norm_std`` record the statistics that produced a
    standardized copy; they are None on raw data and always come from the
    training portion, never from the data they were applied to.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match features "
                f"{self.features.shape}"
            )
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 or 1")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length must match feature count")

    @property
    def n_examples(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def positive_fraction(self) -> float:
        return float(np.mean(self.labels == 1))

    def subset(self, indices) -> "Dataset":
        return replace(
            self, features=self.features[indices], labels=self.labels[indices]
        )


@dataclass(frozen=True)
class BlobSpec:
    """Axis-aligned uniform square blob: center, half-width, count, label."""

    center: tuple[float, float]
    half_width: float
    count: int
    label: int

    def __post_init__(self) -> None:
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be > 0, got {self.half_width}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


# Blob layout: three standard negative blobs on the left, two standard
# positive blobs on the right, a boundary-adjacent positive blob A, and an
# embedded negative blob B (half the standard negative count) inside the
# positive region. All half-widths 0.6.
_POSITIVE_FRACTION = 0.43
_HALF_WIDTH = 0.6
_NEGATIVE_CENTERS = ((-2.0, -2.0), (-2.0, 2.0), (-2.0, 0.0))
_EMBEDDED_NEGATIVE_CENTER = (2.0, 0.0)
_POSITIVE_CENTERS = ((2.0, -2.0), (2.0, 2.0), (0.4, 0.0))


def _allocate(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder apportionment; deterministic, ties to lower index."""
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(math.floor(r)) for r in raw]
    remainder = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def scenario1_blobs(n: int) -> list[BlobSpec]:
    """Blob specifications for an n-point draw of the scenario1 layout."""
    if n < 100:
        raise ValueError(f"n must be >= 100, got {n}")
    n_pos = round(_POSITIVE_FRACTION * n)
    n_neg = n - n_pos
    pos_counts = _allocate(n_pos, [1.0] * len(_POSITIVE_CENTERS))
    neg_counts = _allocate(n_neg, [1.0] * len(_NEGATIVE_CENTERS) + [0.5])
    blobs = [
        BlobSpec(center=c, half_width=_HALF_WIDTH, count=k, label=0)
        for c, k in zip(_NEGATIVE_CENTERS, neg_counts[:-1])
    ]
    blobs.append(
        BlobSpec(
            center=_EMBEDDED_NEGATIVE_CENTER,
            half_width=_HALF_WIDTH,
            count=neg_counts[-1],
            label=0,
        )
    )
    blobs.extend(
        BlobSpec(center=c, half_width=_HALF_WIDTH, count=k, label=1)
        for c, k in zip(_POSITIVE_CENTERS, pos_counts)
    )
    return blobs


def gen_scenario1(n: int, seed: int = 0) -> Dataset:
    """Sample the fixed two-dimensional blob layout; deterministic given seed."""
    blobs = scenario1_blobs(n)
    rng = np.random.default_rng(seed)
    parts = []
    labels = []
    for blob in blobs:
        low = np.array(blob.center) - blob.half_width
        high = np.array(blob.center) + blob.half_width
        parts.append(rng.uniform(low, high, size=(blob.count, 2)))
        labels.append(np.full(blob.count, blob.label, dtype=np.int64))
    X = np.concatenate(parts)
    y = np.concatenate(labels)
    perm = rng.permutation(n)
    return Dataset(features=X[perm], labels=y[perm], feature_names=("x1", "x2"))


def gen_moons(n: int, noise_std: float = 0.2, seed: int = 0) -> Dataset:
    """Two interleaving half-circles, n/2 points per class.

    Class 0 lies on (cos t, sin t) and class 1 on (1 - cos t, 0.5 - sin t)
    for t uniform on [0, pi], plus isotropic Gaussian noise of the given
    standard deviation. The positive fraction is exactly 0.5.
    """
    if n < 100 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 100, got {n}")
    if noise_std < 0.0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    half = n // 2
    t0 = rng.uniform(0.0, np.pi, half)
    t1 = rng.uniform(0.0, np.pi, half)
    pts0 = np.column_stack([np.cos(t0), np.sin(t0)])
    pts1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    X = np.concatenate([pts0, pts1]) + rng.normal(0.0, noise_std, size=(n, 2))
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    perm = rng.permutation(n)
    return Dataset(features=X[perm], labels=y[perm], feature_names=("x1", "x2"))


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a headered CSV with numeric features and a 0/1 label column.

    The body is parsed in one ``np.loadtxt`` pass over the open file, and
    that result is kept only where it provably equals the row loop's
    (``_load_rows``). Everything else goes to the row loop, which decides
    and is the only source of ``IngestionError``: blank lines, lines longer
    than ``csv.field_size_limit()``, the separator characters 0x1C-0x1F,
    an empty body, a row count or width other than the lines' and the
    header's, non-finite values, labels other than 0/1, and whatever
    loadtxt rejects (quotes, underscores, non-ASCII digits, a carriage
    return inside a line, ragged rows, ...).
    """
    dataset = _load_parsed(path, label_column)
    return dataset if dataset is not None else _load_rows(path, label_column)


# Characters ``loadtxt`` strips as whitespace around a number and float() does not.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
_CHUNK_CHARS = 1 << 16


class _Unproven(Exception):
    """The body holds something the row loop may read differently."""


class _BodyLines:
    """The lines after the header, read in chunks and handed out as one list
    of lines per chunk, split at line feeds (the carriage return of a CRLF
    stays on its line, where loadtxt takes it as the line end). Counts the
    lines, and raises ``_Unproven`` where loadtxt and the row loop part
    ways: a blank line (loadtxt skips it), a line longer than csv's field
    size limit, one of ``_SEPARATORS``, and an empty body (loadtxt warns)."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.count = 0

    def __iter__(self):
        limit = csv.field_size_limit()
        tail = ""
        for chunk in iter(partial(self.fh.read, _CHUNK_CHARS), ""):
            if any(c in chunk for c in _SEPARATORS):
                raise _Unproven
            lines = (tail + chunk).split("\n")
            tail = lines.pop()
            # an unfinished line already over the limit is not carried on
            if len(tail) > limit:
                raise _Unproven
            yield self._checked(lines, limit)
        if tail:
            yield self._checked([tail], limit)
        if self.count == 0:
            raise _Unproven

    def _checked(self, lines: list[str], limit: int) -> list[str]:
        if "" in lines or "\r" in lines or max(map(len, lines), default=0) > limit:
            raise _Unproven
        self.count += len(lines)
        return lines


def _load_parsed(path, label_column: str) -> Dataset | None:
    """``load_csv`` through one loadtxt pass over the open file; None
    wherever the result could differ from ``_load_rows``."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is None or label_column not in header:
                return None
            body = _BodyLines(fh)
            table = np.loadtxt(
                chain.from_iterable(body), delimiter=",", comments=None, ndmin=2,
                dtype=np.float64,
            )
        except (ValueError, csv.Error, _Unproven):
            return None
    if table.shape != (body.count, len(header)) or not np.isfinite(table).all():
        return None
    label_idx = header.index(label_column)
    labels = table[:, label_idx]
    if not ((labels == 0.0) | (labels == 1.0)).all():
        return None
    keep = [i for i in range(len(header)) if i != label_idx]
    return Dataset(
        features=table.take(keep, axis=1),  # C-ordered, as the row loop builds it
        labels=labels.astype(np.int64),
        feature_names=tuple(header[i] for i in keep),
    )


def _load_rows(path, label_column: str = "label") -> Dataset:
    """``load_csv`` one cell at a time: the definition of what is accepted."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        row_num = 0  # the last row read; the header is row 1
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise IngestionError(f"{path}: empty file, header row required") from None
            row_num = 1
            if label_column not in header:
                raise IngestionError(f"{path}: missing label column {label_column!r}")
            label_idx = header.index(label_column)
            feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
            rows = []
            labels = []
            for row_num, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise IngestionError(
                        f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
                    )
                values = []
                for i, cell in enumerate(row):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise IngestionError(
                            f"{path}: row {row_num}, column {header[i]!r}: "
                            f"non-numeric value {cell!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise IngestionError(
                            f"{path}: row {row_num}, column {header[i]!r}: "
                            f"non-finite value {cell!r}"
                        )
                    if i == label_idx:
                        if value not in (0.0, 1.0):
                            raise IngestionError(
                                f"{path}: row {row_num}: label must be 0 or 1, "
                                f"got {cell!r}"
                            )
                        labels.append(int(value))
                    else:
                        values.append(value)
                rows.append(values)
        except csv.Error as exc:
            raise IngestionError(f"{path}: row {row_num + 1}: {exc}") from None
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return Dataset(
        features=np.array(rows, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        feature_names=feature_names,
    )


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write features plus the label column; floats via repr (exact round-trip)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def split(dataset: Dataset, fractions, seed: int = 0) -> list[Dataset]:
    """Partition by a seeded permutation into len(fractions) pieces."""
    fractions = list(fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    n = dataset.n_examples
    bounds = [round(f * n) for f in np.cumsum(fractions)]
    bounds[-1] = n
    perm = np.random.default_rng(seed).permutation(n)
    pieces = []
    start = 0
    for stop in bounds:
        if stop <= start:
            raise ValueError(f"fractions {fractions} produce an empty split for n={n}")
        pieces.append(dataset.subset(perm[start:stop]))
        start = stop
    return pieces


def standardize(train: Dataset, *others: Dataset) -> tuple[Dataset, ...]:
    """Standardize with the training split's statistics applied everywhere.

    Zero-variance features pass through unscaled and unshifted.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    degenerate = std == 0.0
    mean = np.where(degenerate, 0.0, mean)
    std = np.where(degenerate, 1.0, std)
    out = []
    for ds in (train,) + others:
        if ds.n_features != train.n_features:
            raise ValueError("all datasets must share the training feature width")
        out.append(
            replace(
                ds,
                features=(ds.features - mean) / std,
                norm_mean=mean,
                norm_std=std,
            )
        )
    return tuple(out)


def select_features(dataset: Dataset, indices) -> Dataset:
    """Project onto the given feature columns, keeping their names."""
    idx = list(indices)
    return Dataset(
        features=dataset.features[:, idx],
        labels=dataset.labels,
        feature_names=tuple(dataset.feature_names[i] for i in idx),
    )
