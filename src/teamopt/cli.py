"""Command-line surface binding the library into reproducible experiments.

Every command writes a ``config.resolved.json`` next to its outputs with the
fully merged flag values, so a run can be reproduced exactly from its output
directory. Flags override values from an optional ``--config`` JSON file,
which in turn overrides built-in defaults. The global seed falls back to the
TEAMOPT_SEED environment variable when not given.

Each flag is one ``Flag`` row of ``COMMANDS``; the parser, the defaults and
the checks on merged values are all derived from those rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import analysis, data, exhaustive, pipeline
from .classifiers import HIDDEN, load_model, save_model
from .optim import TrainConfig
from .team_model import HumanPolicy, UtilityParams

LOSS_NAMES = {"log": "log_loss", "eu": "expected_utility_loss", "team": "team_loss"}
MODEL_KINDS = tuple(HIDDEN)


class Flag(NamedTuple):
    """One flag and the resolved-config key (``dest``) it sets.

    A ``None`` default makes the flag required, and a ``bool`` flag is a
    switch that stores True. ``floor`` bounds an integer; ``env`` names a
    variable that replaces the default when set; ``field`` is the
    TrainConfig field the value fills; ``numbers`` marks text holding a
    comma-separated list of numbers.
    """

    option: str
    dest: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    floor: int | None = None
    env: str | None = None
    field: str | None = None
    numbers: bool = False


_DATA = Flag("--data", "data", help="dataset CSV with a 0/1 label column")
_LABEL = Flag("--label-column", "label_column", str, "label", "name of the label column")
_MODEL = Flag("--model", "model", str, "linear", "model kind", choices=MODEL_KINDS)
_NOISE_STD = Flag("--noise-std", "noise_std", float, 0.2, "moons noise standard deviation")
_BINS = Flag("--bins", "bins", int, 20, "confidence bins of the behavior curves", floor=2)
_STANDARDIZE = Flag(
    "--standardize", "standardize", bool, False, "standardize --data by its own statistics"
)
_OUT = Flag("--out", "out", help="output path")
_SEED = Flag(
    "--seed", "seed", int, 0, "base seed (default: TEAMOPT_SEED or 0)", floor=0, env="TEAMOPT_SEED"
)
_SEEDS = (
    Flag("--seeds", "seeds", int, 10, "number of seeds, one train/test split each", floor=1),
    _SEED,
    Flag("--jobs", "jobs", int, 1, "worker processes for seeds", floor=1),
)
_POLICY = (
    Flag("--beta", "beta", float, 1.0, "penalty for an incorrect decision"),
    Flag("--lambda", "lam", float, 0.5, "cost of solving unaided"),
    Flag("--a", "human_accuracy", float, 1.0, "human accuracy when solving"),
    Flag("--p", "accept_probability", float, 1.0, "accept probability above the threshold"),
)
_TRAIN = (
    Flag("--lr", "lr", float, 0.1, "learning rate", field="learning_rate"),
    Flag("--l2", "l2", float, 1e-3, "L2 weight-decay coefficient", field="l2_weight"),
    Flag("--batch", "batch", int, 32, "mini-batch size", field="batch_size"),
    Flag("--decay", "decay", float, 0.1, "scheduler decay factor", field="scheduler_decay"),
    Flag("--patience", "patience", int, 5, "scheduler patience in epochs", field="scheduler_patience"),
    Flag("--epochs", "epochs", int, 200, "training epochs", field="max_epochs"),
)


def _default(flag: Flag):
    """A flag's default, or the integer its environment variable holds."""
    text = os.environ.get(flag.env) if flag.env else None
    if not text:
        return flag.default
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < flag.floor:
        raise ValueError(f"{flag.env} must be an integer >= {flag.floor}, got {text!r}")
    return value


def _fits(kind: type, value) -> bool:
    """Whether a config value can stand in for a flag of type ``kind``: an int
    flag takes an int and a float flag an int or a float, neither a bool."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _numbers(resolved: dict, key: str) -> list[float]:
    """The numbers of a comma-list flag's text."""
    text = resolved[key]
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        message = f"--{key} must be a comma-separated list of numbers, got {text!r}"
        raise ValueError(message) from None


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < --config file < explicit flags, each value checked against its flag."""
    flags = COMMANDS[args.command][2]
    merged = {f.dest: _default(f) for f in flags}
    given = {k: v for k, v in vars(args).items() if v is not None and k not in ("func", "command")}
    config_path = given.pop("config", None)
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{config_path}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValueError(f"{config_path}: config file must hold a JSON object")
        # a resolved config written by a previous run names its command
        command = file_values.pop("command", None)
        if command is not None and command != args.command:
            raise ValueError(
                f"{config_path}: config was written by {command!r}, "
                f"not {args.command!r}"
            )
        unknown = sorted(set(file_values) - set(merged))
        if unknown:
            raise ValueError(f"{config_path}: unknown config keys {unknown}")
        merged.update(file_values)
    merged.update(given)
    merged["command"] = args.command
    for f in flags:
        value = merged[f.dest]
        if f.floor is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value < f.floor
        ):
            raise ValueError(f"{f.option} must be an integer >= {f.floor}, got {value!r}")
        if f.choices and value not in f.choices:
            raise ValueError(f"{f.option} must be one of {f.choices}, got {value!r}")
        # argparse types the flags, so a mismatch comes from the config file
        if not _fits(f.type, value):
            raise ValueError(
                f"{config_path}: {f.dest!r} must be of type {f.type.__name__}, got {value!r}"
            )
        if f.numbers:
            _numbers(merged, f.dest)
    return merged


def _write_json(path: Path, value: dict) -> None:
    """Every JSON file the CLI writes itself: indented, keys sorted."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")


def _policy(resolved: dict) -> HumanPolicy:
    values = {f.dest: resolved[f.dest] for f in _POLICY}
    accept_probability = values.pop("accept_probability")
    return HumanPolicy(params=UtilityParams(**values), accept_probability=accept_probability)


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(seed=resolved["seed"], **{f.field: resolved[f.dest] for f in _TRAIN})


def _load_model_for(path, dataset: data.Dataset):
    """A model file that can score ``dataset``."""
    model = load_model(path)
    if model.n_features != dataset.n_features:
        raise ValueError(
            f"{path}: model takes {model.n_features} features, "
            f"the data has {dataset.n_features}"
        )
    return model


def cmd_gen_data(resolved: dict) -> int:
    if resolved["kind"] == "scenario1":
        if resolved["noise_std"] != _NOISE_STD.default:
            noise = resolved["noise_std"]
            raise ValueError(f"--noise-std applies to --kind moons only, got {noise!r}")
        ds = data.gen_scenario1(resolved["n"], seed=resolved["seed"])
    else:
        ds = data.gen_moons(resolved["n"], noise_std=resolved["noise_std"], seed=resolved["seed"])
    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_csv(ds, out)
    # the output here is a file, so the resolved config sits next to it
    _write_json(Path(f"{out}.config.resolved.json"), resolved)
    print(
        f"wrote {out}: n={ds.n_examples} features={ds.n_features} "
        f"positive_fraction={ds.positive_fraction:.4f}"
    )
    return 0


def cmd_train(resolved: dict) -> int:
    loss_kind = LOSS_NAMES[resolved["loss"]]
    # "auto" trains the log-loss reference first; a path warm-starts from it
    warm_start = resolved["warm_start"] != "auto"
    if warm_start and loss_kind == "log_loss":
        raise ValueError("--warm-start takes a model path only with --loss eu or team")
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    policy = _policy(resolved)
    config = _train_config(resolved)
    warm_model = _load_model_for(resolved["warm_start"], dataset) if warm_start else None
    if warm_model is not None and warm_model.kind != resolved["model"]:
        raise ValueError(
            f"{resolved['warm_start']}: warm-start model is of kind {warm_model.kind!r}, "
            f"not the --model {resolved['model']!r}"
        )
    # the log-loss reference is the whole of a log run: a references-only plan
    ((experiment, pairs),) = pipeline.plan(
        dataset, resolved["model"], [policy.params], resolved["seeds"],
        accept_probability=policy.accept_probability, baseline_config=config,
        team_loss_kind=None if loss_kind == "log_loss" else loss_kind, seed=resolved["seed"],
        baseline_model=warm_model, jobs=resolved["jobs"],
    )
    stages = {"baseline": [b for b, _ in pairs]}
    if loss_kind == "log_loss":
        report = {"per_seed": [o.baseline.to_dict() for o in experiment.per_seed]}
        summary = f"trained log-loss model on {resolved['seeds']} seeds"
    else:
        report = experiment.to_dict()
        stages["team"] = [t for _, t in pairs]
        summary = (
            f"mean delta expected utility: {experiment.mean_delta.expected_utility:+.4f} "
            f"over {resolved['seeds']} seeds"
        )
    out_dir = Path(resolved["out"])
    _write_json(out_dir / "config.resolved.json", resolved)
    (out_dir / "models").mkdir(exist_ok=True)
    _write_json(out_dir / "report.json", report)
    for stage, models in stages.items():
        for s, model in enumerate(models):
            save_model(model, out_dir / "models" / f"{stage}_seed{s}.json")
    print(f"{summary} -> {out_dir}")
    return 0


def cmd_eval(resolved: dict) -> int:
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    if resolved["standardize"]:
        (dataset,) = data.standardize(dataset)
    model = _load_model_for(resolved["model_file"], dataset)
    policy = _policy(resolved)
    out_dir = Path(resolved["out"])
    _write_json(out_dir / "config.resolved.json", resolved)
    metrics = analysis.evaluate(model, dataset, policy)
    _write_json(out_dir / "metrics.json", metrics.to_dict())
    curves = analysis.behavior_curves(model, dataset, policy, n_bins=resolved["bins"])
    analysis.curves_to_csv(curves, out_dir / "curves.csv")
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    return 0


def cmd_exhaustive(resolved: dict) -> int:
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    policy = _policy(resolved)
    config = _train_config(resolved)
    grid = exhaustive.LinearGrid(
        n_angles=resolved["angles"], n_offsets=resolved["offsets"],
        sharpness=tuple(_numbers(resolved, "sharpness")),
    )
    top2 = exhaustive.select_top2_features(dataset)
    dataset2d = data.select_features(dataset, top2)
    scored = pipeline.fan_out(
        partial(
            pipeline.mismatch_seed, dataset=dataset2d, policy=policy, config=config, grid=grid
        ),
        [resolved["seed"] + s for s in range(resolved["seeds"])],
        resolved["jobs"],
    )
    rows = [
        exhaustive.mismatch_columns(f"{resolved['dataset_name']}-seed{s}", *metrics)
        for s, metrics in enumerate(scored)
    ]
    mean_row = {"dataset": resolved["dataset_name"]} | {
        k: float(sum(r[k] for r in rows) / len(rows)) for k in exhaustive.MISMATCH_COLUMNS[1:]
    }
    out_dir = Path(resolved["out"])
    _write_json(out_dir / "config.resolved.json", resolved)
    exhaustive.write_mismatch_csv([mean_row], out_dir / "mismatch.csv")
    exhaustive.write_mismatch_csv(rows, out_dir / "mismatch_per_seed.csv")
    print(
        f"exhaustive search over {grid.n_candidates} candidates, "
        f"{resolved['seeds']} seeds: mean delta EU {mean_row['delta_eu_a']:+.4f} -> {out_dir}"
    )
    return 0


def cmd_sweep(resolved: dict) -> int:
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    points = pipeline.sweep(
        dataset, resolved["model"], a_values=_numbers(resolved, "a"),
        beta_values=_numbers(resolved, "beta"), lam=resolved["lam"], n_seeds=resolved["seeds"],
        baseline_config=_train_config(resolved), seed=resolved["seed"], jobs=resolved["jobs"],
    )
    out_dir = Path(resolved["out"])
    _write_json(out_dir / "config.resolved.json", resolved)
    pipeline.write_sweep_csv(points, out_dir / "sweep.csv")
    for p in points:
        print(
            f"a={p.human_accuracy} beta={p.beta}: baseline EU {p.baseline_eu:.4f}, "
            f"delta EU {p.delta_eu:+.4f}"
        )
    return 0


def cmd_analyze(resolved: dict) -> int:
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    if resolved["standardize"]:
        (dataset,) = data.standardize(dataset)
    baseline_model = _load_model_for(resolved["baseline_model"], dataset)
    team_model = _load_model_for(resolved["team_model"], dataset)
    policy = _policy(resolved)
    out_dir = Path(resolved["out"])
    _write_json(out_dir / "config.resolved.json", resolved)
    baseline = analysis.report(baseline_model, dataset, policy, n_bins=resolved["bins"])
    team = analysis.report(team_model, dataset, policy, n_bins=resolved["bins"])
    diff = analysis.compare_reports(baseline, team)
    _write_json(out_dir / "baseline_metrics.json", baseline.metrics.to_dict())
    _write_json(out_dir / "team_metrics.json", team.metrics.to_dict())
    analysis.curves_to_csv(baseline.curves, out_dir / "baseline_curves.csv")
    analysis.curves_to_csv(team.curves, out_dir / "team_curves.csv")
    # the accept-region and metric deltas; the per-bin curves go to no file
    diff_dict = {k: v for k, v in vars(diff).items() if isinstance(v, float)}
    _write_json(out_dir / "diff.json", diff_dict)
    print(json.dumps(diff_dict, sort_keys=True))
    return 0


# command -> (function, help, flags in --help order); --config follows the flags
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a synthetic dataset CSV", (
        Flag("--kind", "kind", help="generator", choices=("scenario1", "moons")),
        Flag("--n", "n", int, 10000, "number of examples"),
        _SEED, _NOISE_STD, _OUT,
    )),
    "train": (cmd_train, "train the log-loss reference and a team model", (
        _DATA, _MODEL,
        Flag("--loss", "loss", str, "eu", "training loss", choices=tuple(LOSS_NAMES)),
        *_SEEDS,
        Flag(
            "--warm-start", "warm_start", str, "auto",
            "'auto' trains the log-loss reference first; a model path warm-starts from it",
        ),
        _LABEL, *_POLICY, *_TRAIN, _OUT,
    )),
    "eval": (cmd_eval, "evaluate a saved model on a dataset", (
        _DATA, Flag("--model-file", "model_file", help="saved model JSON"),
        _BINS, _STANDARDIZE, _LABEL, *_POLICY, _OUT,
    )),
    "exhaustive": (cmd_exhaustive, "brute-force linear search on 2-d data", (
        _DATA, *_SEEDS,
        Flag("--angles", "angles", int, exhaustive.DEFAULT_N_ANGLES, "boundary angles"),
        Flag("--offsets", "offsets", int, exhaustive.DEFAULT_N_OFFSETS, "boundary offsets"),
        Flag(
            "--sharpness", "sharpness", str, ",".join(map(str, exhaustive.DEFAULT_SHARPNESS)),
            "comma-separated sigmoid sharpness values", numbers=True,
        ),
        Flag("--dataset-name", "dataset_name", str, "dataset", "row name in mismatch.csv"),
        _LABEL, *_POLICY, *_TRAIN, _OUT,
    )),
    "sweep": (cmd_sweep, "sensitivity sweep over a and beta", (
        _DATA, _MODEL,
        Flag("--a", "a", str, "1.0", "comma-separated human accuracies", numbers=True),
        Flag("--beta", "beta", str, "1.0", "comma-separated mistake penalties", numbers=True),
        _POLICY[1], *_SEEDS, _LABEL, *_TRAIN, _OUT,
    )),
    "analyze": (cmd_analyze, "behavior diagnostics for two saved models", (
        _DATA,
        Flag("--baseline-model", "baseline_model", help="saved reference model JSON"),
        Flag("--team-model", "team_model", help="saved team model JSON"),
        _BINS, _STANDARDIZE, _LABEL, *_POLICY, _OUT,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamopt",
        description="Train and analyze classifiers for human-AI team utility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for f in flags:
            kind = (
                {"action": "store_const", "const": True} if f.type is bool
                else {"type": f.type, "choices": f.choices, "required": f.default is None}
            )
            p.add_argument(f.option, dest=f.dest, help=f.help, **kind)
        p.add_argument("--config", help="JSON file of flag values; explicit flags override it")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
