"""The benchmark's workloads: inputs, operations, correctness checks, and the
counts each workload's definition implies.

Every workload runs serially (``--jobs 1``). An iteration is a list of
operations, each one CLI command or library call. An operation fails if it
raises, exits non-zero, or fails its correctness check. Inputs are generated
from the benchmark seed; the program itself always runs with seed 0
(``PROGRAM_SEED``), as the CLI does by default.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from bench_trace import rebind, unbind

DEFAULT_SEED = 1
PROGRAM_SEED = 0
# Values recorded at the seed commit with the default seed and sizes; a run
# reports the same keys as "reference_values" in its BENCH_<workload>.json.
REFERENCE = Path(__file__).with_name("reference_seed1.json")

# At the default seed, results are compared with values recorded from the
# seed commit. Faster paths may change floating-point bits, and training
# amplifies such changes, so metrics need only agree within METRIC_TOL. The
# exhaustive argmax involves no training and must agree within ARGMAX_TOL;
# the selected cross-validation cell ("cell." keys) must match exactly.
METRIC_TOL = 0.01
ARGMAX_TOL = 1e-9
# Identities that hold up to summation order.
SUM_TOL = 1e-9
# Random grid candidates drawn per exhaustive iteration for the argmax check.
ARGMAX_PROBES = 256

FOLDS = 5
OFFSETS = 101
SHARPNESS = 7
BATCH = 32


class OpFailed(Exception):
    """An operation exited non-zero or produced unusable output."""


def _teamopt(module: str):
    # looked up at call time, so wrappers installed by a traced run apply
    return sys.modules[f"teamopt.{module}"]


def _cli(argv: list) -> None:
    code = _teamopt("cli").main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"teamopt {argv[0]} exited with {code}")


def _train80_rows(n: int) -> int:
    return round(0.8 * n)


def _fit_rows(n: int) -> int:
    return round(0.8 * _train80_rows(n))


def _metrics(prefix: str, d: dict) -> dict:
    return {f"{prefix}.{k}": float(v) for k, v in sorted(d.items())}


def _read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _density_problems(label: str, metrics_path: Path, curves_path: Path) -> list[str]:
    eu = json.loads(metrics_path.read_text())["expected_utility"]
    density = sum(float(r["v4"]) for r in _read_csv_rows(curves_path))
    if abs(density - eu) > SUM_TOL:
        return [f"{label}: utility density sums to {density!r}, expected utility is {eu!r}"]
    return []


class Workload:
    """One named workload. Subclasses define the sizes and the work."""

    name = ""
    why = ""
    # name of the workload-specific throughput in the detailed output
    items_name = ""
    # what prepare_checks returned, for the checks
    expected: dict = {}

    DEFAULTS: dict = {}

    def __init__(self, **sizes) -> None:
        self.sizes = {**self.DEFAULTS, **sizes}
        self.is_default = self.sizes == self.DEFAULTS

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def prepare_checks(self, out: Path) -> dict:
        """Values the checks compare outputs with, worked out once after
        set-up and outside its timing; stored as ``expected``."""
        return {}

    def operations(self, out: Path) -> list:
        """[(operation name, callable returning its result dict)]"""
        raise NotImplementedError

    def check(self, op: str, result: dict, seed: int) -> list[str]:
        """Problems with one operation's result; empty when correct."""
        problems = self.invariants(op, result, seed)
        if self.is_default and seed == DEFAULT_SEED:
            problems += self._reference_problems(op, result["reference"])
        return problems

    def invariants(self, op: str, result: dict, seed: int) -> list[str]:
        return []

    def close(self) -> None:
        """Undo any hook the workload installed in the program."""

    def _reference_problems(self, op: str, values: dict) -> list[str]:
        expected = json.loads(REFERENCE.read_text())[self.name][op]
        problems = []
        for key, want in expected.items():
            got = values.get(key)
            if key.startswith("cell."):
                ok = got == want
            else:
                tol = ARGMAX_TOL if key.startswith("argmax.") else METRIC_TOL
                ok = got is not None and abs(got - want) <= tol
            if not ok:
                problems.append(f"{op}: {key} = {got!r}, reference {want!r}")
        return problems

    def outcome(self, results: dict) -> dict[str, float]:
        """The paper's result, averaged over the operations that train or
        search: the team model's mean test expected utility, and its gain
        over the log-loss reference."""
        scored = [r for r in results.values() if "team_eu" in r]
        return {
            key: float(np.mean([r[key] for r in scored])) for key in ("team_eu", "eu_gain")
        }

    def items_per_iteration(self) -> int:
        """Units of work per iteration, from the definition alone."""
        raise NotImplementedError

    def expected_counts(self) -> dict[str, int]:
        """Per-layer counts per iteration that the definition implies."""
        raise NotImplementedError


def _team_gain_problems(op: str, gains: list[float]) -> list[str]:
    return [
        f"{op}: seed {i} team_val_gain {g!r} < 0 (a warm start regressed)"
        for i, g in enumerate(gains)
        if not g >= 0.0
    ]


def _report_values(report: dict) -> dict:
    return {
        **_metrics("baseline", report["mean_baseline"]),
        **_metrics("team", report["mean_team"]),
    }


class Train(Workload):
    name = "train"
    why = (
        "tiny-batch training steps dominate (classifiers, losses, optim); seeds "
        "share no work; both model kinds and team losses run; exhaustive bypassed"
    )
    items_name = "train_examples_per_s"
    DEFAULTS = {"n": 10_000, "seeds": 3, "epochs": 20}
    RUNS = (("scenario1", "linear", "eu"), ("moons", "mlp", "team"))

    def setup(self, work, seed):
        data = _teamopt("data")
        self.csv = {}
        for kind, _, _ in self.RUNS:
            gen = data.gen_scenario1 if kind == "scenario1" else data.gen_moons
            self.csv[kind] = work / f"{kind}.csv"
            data.save_csv(gen(self.sizes["n"], seed=seed), self.csv[kind])

    def operations(self, out):
        return [
            (f"{kind}-{model}-{loss}", lambda k=kind, m=model, l=loss: self._train(out, k, m, l))
            for kind, model, loss in self.RUNS
        ]

    def _train(self, out, kind, model, loss):
        run_dir = out / kind
        _cli([
            "train", "--data", self.csv[kind], "--model", model, "--loss", loss,
            "--seeds", self.sizes["seeds"], "--epochs", self.sizes["epochs"],
            "--seed", PROGRAM_SEED, "--jobs", 1, "--out", run_dir,
        ])
        report = json.loads((run_dir / "report.json").read_text())
        return {
            "team_val_gain": [s["team_val_gain"] for s in report["per_seed"]],
            "team_eu": report["mean_team"]["expected_utility"],
            "eu_gain": report["mean_delta"]["expected_utility"],
            "reference": _report_values(report),
        }

    def invariants(self, op, result, seed):
        return _team_gain_problems(op, result["team_val_gain"])

    def _trainings(self) -> int:
        return len(self.RUNS) * self.sizes["seeds"] * 2

    def items_per_iteration(self):
        return self._trainings() * self.sizes["epochs"] * _fit_rows(self.sizes["n"])

    def expected_counts(self):
        n, seeds, epochs = self.sizes["n"], self.sizes["seeds"], self.sizes["epochs"]
        runs = len(self.RUNS)
        trainings = self._trainings()
        steps = trainings * epochs * math.ceil(_fit_rows(n) / BATCH)
        validations = trainings * (epochs + 1)
        evaluations = runs * seeds * 2
        return {
            **_step_counts(steps),
            "optim.train.calls": trainings,
            "optim.validation_metric.calls": validations,
            "classifiers.forward_batch.calls": steps + validations + evaluations,
            "analysis.evaluate.calls": evaluations,
            # team trainings checkpoint on expected utility
            "team_model.expected_utilities.calls": runs * seeds * (epochs + 1) + evaluations,
            "data.load_csv.calls": runs,
            "data.load_csv.rows": runs * n,
            "data.standardize.calls": runs * seeds,
            "cli.main.calls": runs,
            "pipeline.cross_validate.trainings": 0,
            "exhaustive.exhaustive_search.candidates": 0,
        }


def _step_counts(steps: int) -> dict[str, int]:
    return {
        "losses.batch_loss.calls": steps,
        "classifiers.backward_batch.calls": steps,
        "optim.adam_step.calls": steps,
        "optim.train.steps": steps,
    }


class CvGrid(Workload):
    name = "cv-grid"
    why = (
        "all 16 grid cells of a fold see the identical mini-batch stream, the shared "
        "work stacked training exploits; train is its no-sharing counterpart"
    )
    items_name = "train_examples_per_s"
    DEFAULTS = {
        "n": 10_000,
        "grid": {
            "learning_rates": (0.01, 0.1),
            "l2_weights": (1e-3, 1e-2),
            "batch_sizes": (BATCH,),
            "decays": (0.1, 0.9),
            "patiences": (2, 5),
        },
        "epochs": 6,
    }

    def setup(self, work, seed):
        self.dataset = _teamopt("data").gen_scenario1(self.sizes["n"], seed=seed)

    def operations(self, out):
        return [("run_experiment", self._run)]

    def _run(self):
        pipeline = _teamopt("pipeline")
        report = pipeline.run_experiment(
            self.dataset,
            "linear",
            _teamopt("team_model").UtilityParams(beta=1.0, lam=0.5, human_accuracy=1.0),
            n_seeds=1,
            grid=pipeline.GridSpec(**self.sizes["grid"]),
            baseline_config=_teamopt("optim").TrainConfig(max_epochs=self.sizes["epochs"]),
            seed=PROGRAM_SEED,
        )
        cfg = report.baseline_config
        cell = {
            "cell.learning_rate": cfg.learning_rate,
            "cell.l2_weight": cfg.l2_weight,
            "cell.batch_size": cfg.batch_size,
            "cell.scheduler_decay": cfg.scheduler_decay,
            "cell.scheduler_patience": cfg.scheduler_patience,
        }
        return {
            "team_val_gain": [s.team_val_gain for s in report.per_seed],
            "team_eu": report.mean_team.expected_utility,
            "eu_gain": report.mean_delta.expected_utility,
            "reference": {
                **cell,
                **_metrics("baseline", report.mean_baseline.to_dict()),
                **_metrics("team", report.mean_team.to_dict()),
            },
        }

    def invariants(self, op, result, seed):
        return _team_gain_problems(op, result["team_val_gain"])

    def _cells(self) -> int:
        return math.prod(len(v) for v in self.sizes["grid"].values())

    def _fold_sizes(self) -> list[int]:
        m = _train80_rows(self.sizes["n"])
        bounds = [0] + [round(m * (f + 1) / FOLDS) for f in range(FOLDS)]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def items_per_iteration(self):
        m = _train80_rows(self.sizes["n"])
        cv_rows = self._cells() * (FOLDS - 1) * m
        return (cv_rows + 2 * _fit_rows(self.sizes["n"])) * self.sizes["epochs"]

    def expected_counts(self):
        n, epochs, cells = self.sizes["n"], self.sizes["epochs"], self._cells()
        m = _train80_rows(n)
        cv_steps = cells * epochs * sum(
            math.ceil((m - size) / BATCH) for size in self._fold_sizes()
        )
        steps = cv_steps + 2 * epochs * math.ceil(_fit_rows(n) / BATCH)
        trainings = cells * FOLDS + 2
        validations = trainings * (epochs + 1)
        return {
            **_step_counts(steps),
            "optim.train.calls": trainings,
            "optim.validation_metric.calls": validations,
            "classifiers.forward_batch.calls": steps + validations + 2,
            "analysis.evaluate.calls": 2,
            "team_model.expected_utilities.calls": (epochs + 1) + 2,
            "data.standardize.calls": cells * FOLDS + 1,
            "pipeline.cross_validate.trainings": cells * FOLDS,
            "pipeline.cross_validate.diverged_trainings": 0,
            "data.load_csv.calls": 0,
            "cli.main.calls": 0,
            "exhaustive.exhaustive_search.candidates": 0,
        }


class Exhaustive(Workload):
    name = "exhaustive"
    why = (
        "over 90% of the time is exhaustive_search, with the per-angle shape "
        "of the default 180-angle grid; every other workload bypasses it"
    )
    items_name = "candidates_per_s"
    DEFAULTS = {"n": 10_000, "seeds": 1, "angles": 24, "epochs": 20}
    _capture = ()

    def setup(self, work, seed):
        data = _teamopt("data")
        self.csv = work / "scenario1.csv"
        data.save_csv(data.gen_scenario1(self.sizes["n"], seed=seed), self.csv)
        self.searches = []

    def operations(self, out):
        if not self._capture:
            self._start_capture()
        return [("exhaustive", lambda: self._run(out))]

    def _start_capture(self):
        """Record each search's arguments and argmax for the invariant check.

        The hook adds two Python calls per search; it is in place in every
        run, traced or not, so it cannot bias a comparison.
        """
        search = _teamopt("exhaustive").exhaustive_search

        def capture(dataset, objective, policy, grid=None):
            model = search(dataset, objective, policy, grid)
            self.searches.append((dataset, objective, policy, grid, model))
            return model

        self._capture = rebind(search, capture)

    def close(self):
        unbind(self._capture)
        self._capture = ()

    def _run(self, out):
        self.searches.clear()
        run_dir = out / "exhaustive"
        _cli([
            "exhaustive", "--data", self.csv, "--seeds", self.sizes["seeds"],
            "--angles", self.sizes["angles"], "--epochs", self.sizes["epochs"],
            "--seed", PROGRAM_SEED, "--jobs", 1, "--out", run_dir,
        ])
        (mean,) = _read_csv_rows(run_dir / "mismatch.csv")
        argmax = {}
        for _, objective, _, _, model in self.searches[:2]:
            params = [*model.weights, model.bias[0]]
            for i, v in enumerate(params):
                argmax[f"argmax.{objective}.{i}"] = float(v)
        return {
            # the team model here is the expected-utility search's argmax
            "team_eu": float(mean["eu_logloss"]) + float(mean["delta_eu_a"]),
            "eu_gain": float(mean["delta_eu_a"]),
            "searches": list(self.searches),
            "reference": {
                **{k: float(v) for k, v in mean.items() if k != "dataset"},
                **argmax,
            },
        }

    def invariants(self, op, result, seed):
        """No random grid candidate beats the expected-utility argmax on the
        split the search ran on, both scored with team_model.expected_utilities."""
        team_model = _teamopt("team_model")
        classifiers = _teamopt("classifiers")
        problems = []
        rng = np.random.default_rng(seed)
        for dataset, objective, policy, grid, model in result["searches"]:
            if objective != "expected_utility":
                continue
            angles = rng.choice(grid.angles(), ARGMAX_PROBES)
            offsets = rng.choice(grid.offsets(), ARGMAX_PROBES)
            sharp = rng.choice(np.asarray(grid.sharpness), ARGMAX_PROBES)
            weights = np.stack(
                [sharp * np.cos(angles), sharp * np.sin(angles), -sharp * offsets]
            )
            weights = np.column_stack([weights, [*model.weights, model.bias[0]]])
            z = dataset.features @ weights[:2] + weights[2]
            prob1 = classifiers.sigmoid(
                np.clip(z, -classifiers.LOGIT_CLAMP, classifiers.LOGIT_CLAMP)
            )
            scores = team_model.expected_utilities(
                prob1, dataset.labels[:, None], policy
            ).mean(axis=0)
            if scores[:-1].max() > scores[-1] + SUM_TOL:
                problems.append(
                    f"{op}: a random candidate scores {scores[:-1].max()!r}, "
                    f"above the argmax's {scores[-1]!r}"
                )
        if not result["searches"]:
            problems.append(f"{op}: no search ran")
        return problems

    def items_per_iteration(self):
        return 2 * self.sizes["seeds"] * self.sizes["angles"] * OFFSETS * SHARPNESS

    def expected_counts(self):
        n, seeds, epochs = self.sizes["n"], self.sizes["seeds"], self.sizes["epochs"]
        steps = seeds * epochs * math.ceil(_fit_rows(n) / BATCH)
        validations = seeds * (epochs + 1)
        return {
            **_step_counts(steps),
            "optim.train.calls": seeds,
            "optim.validation_metric.calls": validations,
            "classifiers.forward_batch.calls": steps + validations + 3 * seeds,
            "analysis.evaluate.calls": 3 * seeds,
            "team_model.expected_utilities.calls": 3 * seeds,
            "exhaustive.exhaustive_search.calls": 2 * seeds,
            "exhaustive.exhaustive_search.candidates": self.items_per_iteration(),
            "data.load_csv.calls": 1,
            "data.load_csv.rows": n,
            "data.standardize.calls": seeds,
            "cli.main.calls": 1,
        }


class EvalLarge(Workload):
    name = "eval-large"
    why = (
        "only workload where load_csv, analysis and team_model dominate; classifiers "
        "run as one huge batch whose activation cache sets peak memory"
    )
    items_name = "rows_per_s"
    DEFAULTS = {"rows": 400_000, "train_n": 10_000, "epochs": 20}
    # the scored rows are drawn apart from the training draw
    LARGE_SEED_OFFSET = 1_000_003

    def setup(self, work, seed):
        data = _teamopt("data")
        train_csv = work / "moons-train.csv"
        moons = data.gen_moons(self.sizes["train_n"], seed=seed)
        data.save_csv(moons, train_csv)
        _cli([
            "train", "--data", train_csv, "--model", "mlp", "--loss", "team",
            "--seeds", 1, "--epochs", self.sizes["epochs"], "--seed", PROGRAM_SEED,
            "--jobs", 1, "--out", work / "train",
        ])
        self.models = work / "train" / "models"
        # Written already standardized with the statistics the models were
        # trained under, so eval and analyze run without --standardize.
        train80 = _teamopt("pipeline").seed_splits(moons, PROGRAM_SEED)[0]
        large = data.gen_moons(self.sizes["rows"], seed=seed + self.LARGE_SEED_OFFSET)
        self.csv = work / "moons-large.csv"
        data.save_csv(
            replace(large, features=(large.features - train80.norm_mean) / train80.norm_std),
            self.csv,
        )

    def prepare_checks(self, out):
        """The baseline model scored on its own by ``teamopt eval``: what
        analyze must report for it. The eval operation does the same for
        the team model."""
        return {"baseline": self._eval(out, "baseline")["metrics"]}

    def operations(self, out):
        return [
            ("eval", lambda: self._eval(out / "eval", "team")),
            ("analyze", lambda: self._analyze(out)),
        ]

    def _eval(self, run_dir, side):
        _cli([
            "eval", "--data", self.csv, "--model-file",
            self.models / f"{side}_seed0.json", "--out", run_dir,
        ])
        metrics = json.loads((run_dir / "metrics.json").read_text())
        return {"dir": run_dir, "metrics": metrics, "reference": _metrics(side, metrics)}

    def _analyze(self, out):
        run_dir = out / "analyze"
        _cli([
            "analyze", "--data", self.csv,
            "--baseline-model", self.models / "baseline_seed0.json",
            "--team-model", self.models / "team_seed0.json",
            "--out", run_dir,
        ])
        diff = json.loads((run_dir / "diff.json").read_text())
        metrics = {
            side: json.loads((run_dir / f"{side}_metrics.json").read_text())
            for side in ("baseline", "team")
        }
        return {
            "dir": run_dir,
            "eval_dir": out / "eval",
            "diff": diff,
            "metrics": metrics,
            "team_eu": metrics["team"]["expected_utility"],
            "eu_gain": diff["d_expected_utility"],
            "reference": {
                **_metrics("baseline", metrics["baseline"]),
                **_metrics("team", metrics["team"]),
                **_metrics("diff", diff),
            },
        }

    def invariants(self, op, result, seed):
        d = result["dir"]
        if op == "eval":
            return _density_problems(op, d / "metrics.json", d / "curves.csv")
        problems = []
        metrics = result["metrics"]
        eval_metrics = result["eval_dir"] / "metrics.json"
        if not eval_metrics.is_file():
            return [f"{op}: no eval output to compare the team model's metrics with"]
        expected = {**self.expected, "team": json.loads(eval_metrics.read_text())}
        for side in ("baseline", "team"):
            problems += _density_problems(
                f"{op} {side}", d / f"{side}_metrics.json", d / f"{side}_curves.csv"
            )
            for key, want in expected[side].items():
                if abs(metrics[side][key] - want) > SUM_TOL:
                    problems.append(
                        f"{op}: {side} {key} = {metrics[side][key]!r}, but eval of the "
                        f"{side} model gives {want!r}"
                    )
        eu_diff = metrics["team"]["expected_utility"] - metrics["baseline"]["expected_utility"]
        if abs(result["diff"]["d_expected_utility"] - eu_diff) > SUM_TOL:
            problems.append(f"{op}: d_expected_utility is not team minus baseline")
        return problems

    def items_per_iteration(self):
        # eval scores one model, analyze two
        return 3 * self.sizes["rows"]

    def expected_counts(self):
        rows = self.sizes["rows"]
        return {
            "cli.main.calls": 2,
            "data.load_csv.calls": 2,
            "data.load_csv.rows": 2 * rows,
            "data.standardize.calls": 0,
            "analysis.evaluate.calls": 1,
            # evaluate and behavior_curves in eval; report twice in analyze
            "classifiers.forward_batch.calls": 4,
            "classifiers.forward_batch.rows": 4 * rows,
            "team_model.expected_utilities.calls": 6,
            "losses.batch_loss.calls": 0,
            "exhaustive.exhaustive_search.candidates": 0,
        }


WORKLOADS = {w.name: w for w in (Train, CvGrid, Exhaustive, EvalLarge)}
