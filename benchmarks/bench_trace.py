"""Span tracing of the ``teamopt`` layers, installed from outside the program.

The traced run replaces each public function named in ``TRACED`` with a
wrapper that records one span per call: name, start, end, parent span and
iteration id. The wrapper is installed in every ``teamopt`` module namespace
that bound the function, because ``from .classifiers import forward_batch``
in ``losses``, ``optim`` and ``analysis`` would otherwise bypass a wrapper
set only on ``classifiers``. Spans stay in compact in-memory arrays, can be
gathered from several processes into one store, and are written out when the
run ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs the traced run wraps; the module names are the layers.
TRACED = (
    ("cli", "main"),
    ("pipeline", "run_experiment"),
    ("pipeline", "cross_validate"),
    ("optim", "train"),
    ("optim", "validation_metric"),
    ("optim", "adam_step"),
    ("losses", "batch_loss"),
    ("classifiers", "forward_batch"),
    ("classifiers", "backward_batch"),
    ("exhaustive", "exhaustive_search"),
    ("analysis", "evaluate"),
    ("analysis", "report"),
    ("analysis", "behavior_curves"),
    ("team_model", "expected_utilities"),
    ("team_model", "empirical_utilities"),
    ("data", "load_csv"),
    ("data", "standardize"),
    ("data", "split"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TRACED)

# forward_batch calls of at most this many rows are training mini-batches;
# larger ones score whole datasets.
SMALL_BATCH_ROWS = 64


def teamopt_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "teamopt" or name.startswith("teamopt."))
    ]


def rebind(target, replacement) -> list[tuple]:
    """Point every ``teamopt`` module attribute bound to ``target`` at
    ``replacement``; returns (module, attribute, old value) for undoing."""
    changed = []
    for module in teamopt_modules():
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, replacement)
                changed.append((module, attr, value))
    return changed


def unbind(changed: list[tuple]) -> None:
    for module, attr, value in reversed(changed):
        setattr(module, attr, value)


def _argument(fn, name: str):
    """Read a named argument from a call, positional or keyword."""
    signature = inspect.signature(fn)

    def get(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    Per span it keeps two counts whose meaning depends on the function:
    rows for ``forward_batch`` and ``load_csv``; rows and rows with a
    non-zero upstream gradient for ``backward_batch``; candidates and rows
    for ``exhaustive_search``. ``train`` spans add (epochs run, epochs after
    the best checkpoint) to ``train_notes``.
    """

    def __init__(self) -> None:
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.iteration = array("I")
        self.raised = array("B")
        self.count = array("q")
        self.count2 = array("q")
        self.train_notes: dict[int, tuple[int, int]] = {}
        self.iteration_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for name_id, (module, function) in enumerate(TRACED):
            target = getattr(sys.modules[f"teamopt.{module}"], function)
            counter = getattr(self, f"_count_{function}", None)
            wrapper = self._wrap(name_id, target, counter)
            self._installed += rebind(target, wrapper)

    def uninstall(self) -> None:
        unbind(self._installed)
        self._installed = []

    def _wrap(self, name_id: int, fn, counter):
        if counter is not None:
            counter = counter(fn)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.iteration.append(self.iteration_id)
            self.end.append(0.0)
            self.raised.append(0)
            self.count.append(0)
            self.count2.append(0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(i, args, kwargs, result)
            return result

        return wrapper

    # Counters run after the span has closed, so their cost lands in the
    # parent's self time, not in the counted function's.

    def _count_forward_batch(self, fn):
        def count(i, args, kwargs, result):
            features = args[1] if len(args) > 1 else kwargs["features"]
            self.count[i] = len(features)

        return count

    def _count_backward_batch(self, fn):
        def count(i, args, kwargs, result):
            d_prob1 = np.asarray(args[2] if len(args) > 2 else kwargs["d_prob1"])
            self.count[i] = d_prob1.size
            self.count2[i] = int(np.count_nonzero(d_prob1))

        return count

    def _count_exhaustive_search(self, fn):
        get_dataset = _argument(fn, "dataset")
        get_grid = _argument(fn, "grid")

        def count(i, args, kwargs, result):
            grid = get_grid(args, kwargs)
            if grid is None:
                grid = sys.modules["teamopt.exhaustive"].LinearGrid()
            self.count[i] = grid.n_candidates
            self.count2[i] = get_dataset(args, kwargs).n_examples

        return count

    def _count_load_csv(self, fn):
        def count(i, args, kwargs, result):
            self.count[i] = result.n_examples

        return count

    def _count_train(self, fn):
        def count(i, args, kwargs, result):
            epochs = len(result.history)
            self.train_notes[i] = (epochs, epochs - result.best_epoch)

        return count

    def arrays(self) -> dict[str, np.ndarray]:
        """Every span as arrays; ``train_notes`` rows are (span, *note)."""
        # copies, so the arrays can keep growing afterwards
        return {
            "name_id": np.array(self.name_id, dtype=np.uint16),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "iteration": np.array(self.iteration, dtype=np.uint32),
            "raised": np.array(self.raised, dtype=np.uint8),
            "count": np.array(self.count, dtype=np.int64),
            "count2": np.array(self.count2, dtype=np.int64),
            "train_notes": np.array(
                [(i, *note) for i, note in sorted(self.train_notes.items())],
                dtype=np.int64,
            ).reshape(-1, 3),
        }

    def absorb(self, spans: dict[str, np.ndarray]) -> None:
        """Append the ``arrays()`` of another tracer, e.g. one that ran in a
        child process, renumbering its span indices."""
        offset = len(self.start)
        parent = spans["parent"]
        self.parent.extend(np.where(parent >= 0, parent + offset, -1).tolist())
        for key in ("name_id", "start", "end", "iteration", "raised", "count", "count2"):
            getattr(self, key).extend(spans[key].tolist())
        for i, *note in spans["train_notes"].tolist():
            self.train_notes[i + offset] = tuple(note)

    def save(self, path) -> None:
        """Write every span, named, to a compressed ``.npz`` file."""
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())

    def layer_metrics(self, iterations: list[int]) -> dict[str, float]:
        """Per-layer metrics per traced iteration, from the stored spans."""
        a = self.arrays()
        keep = np.isin(a["iteration"], iterations)
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        per = 1.0 / len(iterations)

        def spans(name):
            return keep & (a["name_id"] == NAMES.index(name))

        def calls(name, mask=None):
            m = spans(name) if mask is None else mask
            return float(np.count_nonzero(m)) * per

        def self_s(name, mask=None):
            m = spans(name) if mask is None else mask
            return float(np.sum(self_time[m])) * per

        def us_per_call(name, mask=None):
            n = calls(name, mask)
            return self_s(name, mask) / n * 1e6 if n else 0.0

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        out: dict[str, float] = {}
        fwd = spans("classifiers.forward_batch")
        small = fwd & (a["count"] <= SMALL_BATCH_ROWS)
        out["classifiers.forward_batch.calls"] = calls("classifiers.forward_batch")
        out["classifiers.forward_batch.rows"] = float(np.sum(a["count"][fwd])) * per
        out["classifiers.forward_batch.self_s"] = self_s("classifiers.forward_batch")
        out["classifiers.forward_batch.small.us_per_call"] = us_per_call(
            "classifiers.forward_batch", small
        )
        out["classifiers.forward_batch.large.self_s"] = self_s(
            "classifiers.forward_batch", fwd & ~small
        )
        bwd = spans("classifiers.backward_batch")
        for name in ("classifiers.backward_batch", "losses.batch_loss", "optim.adam_step"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
            out[f"{name}.us_per_call"] = us_per_call(name)
        out["classifiers.backward_batch.nonzero_row_frac"] = ratio(
            float(np.sum(a["count2"][bwd])), float(np.sum(a["count"][bwd]))
        )

        train = np.flatnonzero(spans("optim.train"))
        notes = np.array(
            [self.train_notes[i] for i in train if i in self.train_notes], dtype=np.int64
        ).reshape(-1, 2)
        steps = np.isin(a["parent"][spans("optim.adam_step")], train)
        out["optim.train.calls"] = calls("optim.train")
        out["optim.train.steps"] = float(np.count_nonzero(steps)) * per
        out["optim.train.self_s"] = self_s("optim.train")
        out["optim.train.epochs_after_best_frac"] = ratio(
            float(notes[:, 1].sum()), float(notes[:, 0].sum())
        )
        out["optim.validation_metric.calls"] = calls("optim.validation_metric")
        out["optim.validation_metric.self_s"] = self_s("optim.validation_metric")

        cv_ids = NAMES.index("pipeline.cross_validate")
        under_cv = [i for i in train if self._has_ancestor(a, i, cv_ids)]
        out["pipeline.cross_validate.self_s"] = self_s("pipeline.cross_validate")
        out["pipeline.cross_validate.trainings"] = len(under_cv) * per
        out["pipeline.cross_validate.diverged_trainings"] = (
            float(np.sum(a["raised"][under_cv])) * per
        )
        out["pipeline.run_experiment.self_s"] = self_s("pipeline.run_experiment")

        ex = spans("exhaustive.exhaustive_search")
        candidates = float(np.sum(a["count"][ex]))
        candidate_rows = float(np.sum(a["count"][ex] * a["count2"][ex]))
        out["exhaustive.exhaustive_search.calls"] = calls("exhaustive.exhaustive_search")
        out["exhaustive.exhaustive_search.candidates"] = candidates * per
        out["exhaustive.exhaustive_search.self_s"] = self_s("exhaustive.exhaustive_search")
        out["exhaustive.exhaustive_search.ns_per_candidate_row"] = ratio(
            out["exhaustive.exhaustive_search.self_s"] * 1e9, candidate_rows * per
        )

        out["team_model.expected_utilities.calls"] = calls("team_model.expected_utilities")
        out["team_model.expected_utilities.self_s"] = self_s("team_model.expected_utilities")
        out["team_model.empirical_utilities.self_s"] = self_s("team_model.empirical_utilities")
        out["analysis.evaluate.calls"] = calls("analysis.evaluate")
        out["analysis.evaluate.self_s"] = self_s("analysis.evaluate")
        out["analysis.report.self_s"] = self_s("analysis.report")
        out["analysis.behavior_curves.self_s"] = self_s("analysis.behavior_curves")

        csv_spans = spans("data.load_csv")
        out["data.load_csv.calls"] = calls("data.load_csv")
        out["data.load_csv.rows"] = float(np.sum(a["count"][csv_spans])) * per
        out["data.load_csv.self_s"] = self_s("data.load_csv")
        out["data.standardize.calls"] = calls("data.standardize")
        out["data.standardize.self_s"] = self_s("data.standardize")
        out["data.split.self_s"] = self_s("data.split")
        out["cli.main.calls"] = calls("cli.main")
        out["cli.main.self_s"] = self_s("cli.main")
        return out

    @staticmethod
    def _has_ancestor(a, i: int, name_id: int) -> bool:
        p = a["parent"][i]
        while p >= 0:
            if a["name_id"][p] == name_id:
                return True
            p = a["parent"][p]
        return False
