"""Command-line surface binding the library into reproducible experiments.

Every command writes a ``config.resolved.json`` next to its outputs with the
fully merged flag values, so a run can be reproduced exactly from its output
directory. Flags override values from an optional ``--config`` JSON file,
which in turn overrides built-in defaults. The global seed falls back to the
TEAMOPT_SEED environment variable when not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import analysis, data, exhaustive, pipeline
from .classifiers import load_model, save_model
from .optim import TrainConfig
from .team_model import HumanPolicy, UtilityParams

LOSS_NAMES = {
    "log": "log_loss",
    "eu": "expected_utility_loss",
    "team": "team_loss",
}
MODEL_KINDS = ("linear", "mlp")


def _base_seed() -> int:
    env = os.environ.get("TEAMOPT_SEED")
    return int(env) if env else 0


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, help="penalty for an incorrect decision")
    parser.add_argument("--lambda", type=float, dest="lam", help="cost of solving unaided")
    parser.add_argument("--a", type=float, dest="human_accuracy", help="human accuracy when solving")
    parser.add_argument("--p", type=float, dest="accept_probability", help="accept probability above the threshold")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lr", type=float, help="learning rate")
    parser.add_argument("--l2", type=float, help="L2 weight-decay coefficient")
    parser.add_argument("--batch", type=int, help="mini-batch size")
    parser.add_argument("--decay", type=float, help="scheduler decay factor")
    parser.add_argument("--patience", type=int, help="scheduler patience in epochs")
    parser.add_argument("--epochs", type=int, help="training epochs")


_POLICY_DEFAULTS = {"beta": 1.0, "lam": 0.5, "human_accuracy": 1.0, "accept_probability": 1.0}
_TRAIN_DEFAULTS = {"lr": 0.1, "l2": 1e-3, "batch": 32, "decay": 0.1, "patience": 5, "epochs": 200}


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < --config file < explicit flags."""
    given = {
        k: v
        for k, v in vars(args).items()
        if v is not None and k not in ("func", "command")
    }
    merged = dict(defaults)
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
    # integers that size or seed a run, whether from a flag or the config file
    for key, low in (("seeds", 1), ("jobs", 1), ("bins", 2), ("seed", 0)):
        if key not in merged:
            continue
        value = merged[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"--{key} must be an integer >= {low}, got {value!r}")
    # names that argparse checks, but a config file can still set
    for key, names in (("model", MODEL_KINDS), ("loss", tuple(LOSS_NAMES))):
        if key in merged and merged[key] not in names:
            raise ValueError(f"--{key} must be one of {names}, got {merged[key]!r}")
    return merged


def _write_resolved(out_dir: Path, resolved: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    clean = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in resolved.items()
        if k != "func"
    }
    (out_dir / "config.resolved.json").write_text(
        json.dumps(clean, indent=2, sort_keys=True) + "\n"
    )


def _policy(resolved: dict) -> HumanPolicy:
    params = UtilityParams(
        beta=resolved["beta"],
        lam=resolved["lam"],
        human_accuracy=resolved["human_accuracy"],
    )
    return HumanPolicy(params=params, accept_probability=resolved["accept_probability"])


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=resolved["lr"],
        l2_weight=resolved["l2"],
        batch_size=resolved["batch"],
        scheduler_decay=resolved["decay"],
        scheduler_patience=resolved["patience"],
        max_epochs=resolved["epochs"],
        seed=resolved["seed"],
    )


def _load_model_for(path, dataset: data.Dataset):
    """A model file that can score ``dataset``."""
    model = load_model(path)
    if model.n_features != dataset.n_features:
        raise ValueError(
            f"{path}: model takes {model.n_features} features, "
            f"the data has {dataset.n_features}"
        )
    return model


def _seeds(resolved: dict) -> list[int]:
    return [resolved["seed"] + s for s in range(resolved["seeds"])]


def cmd_gen_data(args: argparse.Namespace) -> int:
    resolved = _resolve(args, {"kind": None, "n": 10000, "seed": _base_seed(), "out": None, "noise_std": 0.2})
    if resolved["kind"] == "scenario1":
        ds = data.gen_scenario1(resolved["n"], seed=resolved["seed"])
    else:
        ds = data.gen_moons(resolved["n"], noise_std=resolved["noise_std"], seed=resolved["seed"])
    out = Path(resolved["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_csv(ds, out)
    # the output here is a file, so the resolved config sits next to it
    Path(f"{out}.config.resolved.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"wrote {out}: n={ds.n_examples} features={ds.n_features} "
        f"positive_fraction={ds.positive_fraction:.4f}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "data": None, "model": "linear", "loss": "eu", "seeds": 10,
            "seed": _base_seed(), "out": None, "warm_start": "auto",
            "jobs": 1, "label_column": "label",
            **_POLICY_DEFAULTS, **_TRAIN_DEFAULTS,
        },
    )
    loss_kind = LOSS_NAMES[resolved["loss"]]
    # "auto" trains the log-loss reference first; a path warm-starts from it
    warm_start = resolved["warm_start"] != "auto"
    if warm_start and loss_kind == "log_loss":
        raise ValueError("--warm-start takes a model path only with --loss eu or team")
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    policy = _policy(resolved)
    config = _train_config(resolved)
    warm_model = _load_model_for(resolved["warm_start"], dataset) if warm_start else None
    out_dir = Path(resolved["out"])
    _write_resolved(out_dir, resolved)

    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    if loss_kind == "log_loss":
        runs = pipeline.fan_out(
            partial(
                pipeline.reference_seed,
                dataset=dataset, model_kind=resolved["model"], policy=policy, config=config,
            ),
            _seeds(resolved),
            resolved["jobs"],
        )
        for s, (model, _) in enumerate(runs):
            save_model(model, models_dir / f"baseline_seed{s}.json")
        outcomes = [metrics.to_dict() for _, metrics in runs]
        (out_dir / "report.json").write_text(
            json.dumps({"per_seed": outcomes}, indent=2, sort_keys=True) + "\n"
        )
        print(f"trained log-loss model on {resolved['seeds']} seeds -> {out_dir}")
        return 0

    report, models = pipeline.run_experiment(
        dataset,
        resolved["model"],
        policy.params,
        n_seeds=resolved["seeds"],
        accept_probability=resolved["accept_probability"],
        baseline_config=config,
        team_config=config,
        team_loss_kind=loss_kind,
        seed=resolved["seed"],
        return_models=True,
        baseline_model=warm_model,
        jobs=resolved["jobs"],
    )
    pipeline.report_to_json(report, out_dir / "report.json")
    for s, (baseline, team) in enumerate(models):
        save_model(baseline, models_dir / f"baseline_seed{s}.json")
        save_model(team, models_dir / f"team_seed{s}.json")
    print(
        f"mean delta expected utility: {report.mean_delta.expected_utility:+.4f} "
        f"over {resolved['seeds']} seeds -> {out_dir}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "data": None, "model_file": None, "out": None, "bins": 20,
            "standardize": False, "label_column": "label", **_POLICY_DEFAULTS,
        },
    )
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    if resolved["standardize"]:
        (dataset,) = data.standardize(dataset)
    model = _load_model_for(resolved["model_file"], dataset)
    policy = _policy(resolved)
    out_dir = Path(resolved["out"])
    _write_resolved(out_dir, resolved)
    metrics = analysis.evaluate(model, dataset, policy)
    analysis.metrics_to_json(metrics, out_dir / "metrics.json")
    curves = analysis.behavior_curves(model, dataset, policy, n_bins=resolved["bins"])
    analysis.curves_to_csv(curves, out_dir / "curves.csv")
    print(json.dumps(metrics.to_dict(), sort_keys=True))
    return 0


def cmd_exhaustive(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "data": None, "out": None, "seeds": 10, "seed": _base_seed(),
            "jobs": 1,
            "angles": exhaustive.DEFAULT_N_ANGLES,
            "offsets": exhaustive.DEFAULT_N_OFFSETS,
            "sharpness": ",".join(str(s) for s in exhaustive.DEFAULT_SHARPNESS),
            "dataset_name": "dataset", "label_column": "label",
            **_POLICY_DEFAULTS, **_TRAIN_DEFAULTS,
        },
    )
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    policy = _policy(resolved)
    config = _train_config(resolved)
    grid = exhaustive.LinearGrid(
        n_angles=resolved["angles"],
        n_offsets=resolved["offsets"],
        sharpness=tuple(float(s) for s in str(resolved["sharpness"]).split(",")),
    )
    top2 = exhaustive.select_top2_features(dataset)
    dataset2d = data.select_features(dataset, top2)
    out_dir = Path(resolved["out"])
    _write_resolved(out_dir, resolved)

    scored = pipeline.fan_out(
        partial(
            pipeline.mismatch_seed, dataset=dataset2d, policy=policy, config=config, grid=grid
        ),
        _seeds(resolved),
        resolved["jobs"],
    )
    rows = [
        exhaustive.mismatch_columns(f"{resolved['dataset_name']}-seed{s}", *metrics)
        for s, metrics in enumerate(scored)
    ]
    mean_row = {"dataset": resolved["dataset_name"]}
    for key in ("eu_logloss", "emp_logloss", "delta_eu_a", "delta_emp_b", "delta_emp_c"):
        mean_row[key] = float(sum(r[key] for r in rows) / len(rows))
    exhaustive.write_mismatch_csv([mean_row], out_dir / "mismatch.csv")
    exhaustive.write_mismatch_csv(rows, out_dir / "mismatch_per_seed.csv")
    print(
        f"exhaustive search over {grid.n_candidates} candidates, "
        f"{resolved['seeds']} seeds: mean delta EU {mean_row['delta_eu_a']:+.4f} -> {out_dir}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "data": None, "model": "linear", "out": None, "seeds": 10,
            "seed": _base_seed(), "jobs": 1, "a": "1.0", "beta": "1.0",
            "lam": 0.5, "label_column": "label", **_TRAIN_DEFAULTS,
        },
    )
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    config = _train_config(resolved)
    a_values = [float(v) for v in str(resolved["a"]).split(",")]
    beta_values = [float(v) for v in str(resolved["beta"]).split(",")]
    for a in a_values:  # each point's utility parameters, checked before any output
        for beta in beta_values:
            UtilityParams(beta=beta, lam=resolved["lam"], human_accuracy=a)
    out_dir = Path(resolved["out"])
    _write_resolved(out_dir, resolved)
    points = pipeline.sweep(
        dataset,
        resolved["model"],
        a_values=a_values,
        beta_values=beta_values,
        lam=resolved["lam"],
        n_seeds=resolved["seeds"],
        baseline_config=config,
        team_config=config,
        seed=resolved["seed"],
        jobs=resolved["jobs"],
    )
    pipeline.write_sweep_csv(points, out_dir / "sweep.csv")
    for p in points:
        print(
            f"a={p.human_accuracy} beta={p.beta}: baseline EU {p.baseline_eu:.4f}, "
            f"delta EU {p.delta_eu:+.4f}"
        )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    resolved = _resolve(
        args,
        {
            "data": None, "baseline_model": None, "team_model": None,
            "out": None, "bins": 20, "standardize": False,
            "label_column": "label", **_POLICY_DEFAULTS,
        },
    )
    dataset = data.load_csv(resolved["data"], label_column=resolved["label_column"])
    if resolved["standardize"]:
        (dataset,) = data.standardize(dataset)
    baseline_model = _load_model_for(resolved["baseline_model"], dataset)
    team_model = _load_model_for(resolved["team_model"], dataset)
    policy = _policy(resolved)
    out_dir = Path(resolved["out"])
    _write_resolved(out_dir, resolved)
    baseline = analysis.report(baseline_model, dataset, policy, n_bins=resolved["bins"])
    team = analysis.report(team_model, dataset, policy, n_bins=resolved["bins"])
    diff = analysis.compare_reports(baseline, team)
    analysis.metrics_to_json(baseline.metrics, out_dir / "baseline_metrics.json")
    analysis.metrics_to_json(team.metrics, out_dir / "team_metrics.json")
    analysis.curves_to_csv(baseline.curves, out_dir / "baseline_curves.csv")
    analysis.curves_to_csv(team.curves, out_dir / "team_curves.csv")
    diff_dict = {
        "d_accuracy": diff.d_accuracy,
        "d_expected_utility": diff.d_expected_utility,
        "d_empirical_utility": diff.d_empirical_utility,
        "d_accept_fraction": diff.d_accept_fraction,
        "d_accept_accuracy_mass": diff.d_accept_accuracy_mass,
        "d_accept_utility_mass": diff.d_accept_utility_mass,
    }
    (out_dir / "diff.json").write_text(json.dumps(diff_dict, indent=2, sort_keys=True) + "\n")
    print(json.dumps(diff_dict, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamopt",
        description="Train and analyze classifiers for human-AI team utility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", choices=("scenario1", "moons"), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-std", type=float, dest="noise_std")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the log-loss reference and a team model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--loss", choices=tuple(LOSS_NAMES))
    p.add_argument("--seeds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, help="worker processes for seeds")
    p.add_argument(
        "--warm-start",
        dest="warm_start",
        help="'auto' trains the log-loss reference first; a model path warm-starts from it",
    )
    p.add_argument("--label-column", dest="label_column")
    _add_policy_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model-file", dest="model_file", required=True)
    p.add_argument("--bins", type=int)
    p.add_argument("--standardize", action="store_const", const=True)
    p.add_argument("--label-column", dest="label_column")
    _add_policy_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("exhaustive", help="brute-force linear search on 2-d data")
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, help="worker processes for seeds")
    p.add_argument("--angles", type=int)
    p.add_argument("--offsets", type=int)
    p.add_argument("--sharpness")
    p.add_argument("--dataset-name", dest="dataset_name")
    p.add_argument("--label-column", dest="label_column")
    _add_policy_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_exhaustive)

    p = sub.add_parser("sweep", help="sensitivity sweep over a and beta")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--a")
    p.add_argument("--beta")
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--seeds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, help="worker processes for seeds")
    p.add_argument("--label-column", dest="label_column")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="behavior diagnostics for two saved models")
    p.add_argument("--data", required=True)
    p.add_argument("--baseline-model", dest="baseline_model", required=True)
    p.add_argument("--team-model", dest="team_model", required=True)
    p.add_argument("--bins", type=int)
    p.add_argument("--standardize", action="store_const", const=True)
    p.add_argument("--label-column", dest="label_column")
    _add_policy_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
