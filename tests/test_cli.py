"""End-to-end checks of the command-line interface."""

import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamopt import cli
from teamopt.analysis import Metrics
from teamopt.classifiers import init_model, save_model
from teamopt.cli import main


def run(argv):
    return main(argv)


@pytest.fixture()
def moons_csv(tmp_path):
    path = tmp_path / "moons.csv"
    assert run(["gen-data", "--kind", "moons", "--n", "400", "--seed", "1", "--out", str(path)]) == 0
    return path


class TestGenData:
    def test_moons_line_count(self, tmp_path):
        path = tmp_path / "moons.csv"
        code = run(["gen-data", "--kind", "moons", "--n", "10000", "--seed", "1", "--out", str(path)])
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 10001

    def test_scenario_reports_positive_fraction(self, tmp_path, capsys):
        path = tmp_path / "s1.csv"
        run(["gen-data", "--kind", "scenario1", "--n", "2000", "--seed", "1", "--out", str(path)])
        out = capsys.readouterr().out
        assert "positive_fraction=0.43" in out

    def test_invalid_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--kind", "blobs", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEAMOPT_SEED", "77")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gen-data", "--kind", "moons", "--n", "200", "--out", str(a)])
        run(["gen-data", "--kind", "moons", "--n", "200", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", ["abc", "-3"])
    def test_bad_env_seed_writes_nothing(self, tmp_path, monkeypatch, capsys, seed):
        monkeypatch.setenv("TEAMOPT_SEED", seed)
        out = tmp_path / "d" / "m.csv"
        assert run(["gen-data", "--kind", "moons", "--n", "200", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: TEAMOPT_SEED must be an integer >= 0, got {seed!r}\n"
        assert not out.parent.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_scenario1_rejects_noise_std(self, tmp_path, capsys, source):
        out = tmp_path / "d" / "s1.csv"
        argv = ["gen-data", "--kind", "scenario1", "--n", "100", "--out", str(out)]
        if source == "flag":
            argv += ["--noise-std", "5"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"noise_std": 5}))
            argv += ["--config", str(cfg)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --noise-std applies to --kind moons only, got 5")
        assert not out.parent.exists()

    def test_resolved_scenario1_config_reloads(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gen-data", "--kind", "scenario1", "--n", "100", "--seed", "3", "--out", str(first)])
        config = f"{first}.config.resolved.json"
        assert json.loads(Path(config).read_text())["noise_std"] == 0.2
        argv = ["gen-data", "--kind", "scenario1", "--config", config, "--out", str(second)]
        assert run(argv) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_resolved_config_written_next_to_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        run(["gen-data", "--kind", "moons", "--n", "200", "--seed", "5", "--out", str(path)])
        resolved = json.loads((tmp_path / "m.csv.config.resolved.json").read_text())
        assert resolved["command"] == "gen-data"
        assert resolved["seed"] == 5


class TestTrain:
    def test_two_stage_run_writes_artifacts(self, moons_csv, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "train", "--data", str(moons_csv), "--model", "linear", "--loss", "eu",
                "--beta", "1", "--lambda", "0.5", "--a", "1", "--warm-start", "auto",
                "--seeds", "2", "--epochs", "10", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_seeds"] == 2
        assert (out / "config.resolved.json").exists()
        assert (out / "models" / "baseline_seed0.json").exists()
        assert (out / "models" / "team_seed1.json").exists()

    def test_log_loss_only_run(self, moons_csv, tmp_path):
        out = tmp_path / "ll"
        code = run(
            [
                "train", "--data", str(moons_csv), "--loss", "log",
                "--seeds", "1", "--epochs", "5", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_seed"]) == 1

    def test_log_and_eu_runs_share_their_references(self, moons_csv, tmp_path):
        # a log run is the eu run's reference stage alone
        outs = {}
        for loss in ("log", "eu"):
            outs[loss] = tmp_path / loss
            argv = ["train", "--data", str(moons_csv), "--loss", loss, "--seeds", "2"]
            assert run(argv + ["--epochs", "5", "--out", str(outs[loss])]) == 0
        log, eu = (json.loads((outs[k] / "report.json").read_text()) for k in ("log", "eu"))
        for s in range(2):
            name = f"models/baseline_seed{s}.json"
            assert (outs["log"] / name).read_bytes() == (outs["eu"] / name).read_bytes()
            assert log["per_seed"][s] == eu["per_seed"][s]["baseline"]

    def test_rerun_is_byte_identical(self, moons_csv, tmp_path):
        args = [
            "train", "--data", str(moons_csv), "--loss", "eu", "--beta", "1",
            "--lambda", "0.5", "--a", "1", "--seeds", "1", "--epochs", "8",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_missing_data_file_is_runtime_error(self, tmp_path):
        code = run(
            ["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_warm_start_from_saved_model(self, moons_csv, tmp_path):
        first = tmp_path / "first"
        run(
            [
                "train", "--data", str(moons_csv), "--loss", "log", "--seeds", "1",
                "--epochs", "6", "--out", str(first),
            ]
        )
        warm = tmp_path / "warm"
        code = run(
            [
                "train", "--data", str(moons_csv), "--loss", "eu", "--seeds", "1",
                "--epochs", "6", "--warm-start",
                str(first / "models" / "baseline_seed0.json"), "--out", str(warm),
            ]
        )
        assert code == 0
        report = json.loads((warm / "report.json").read_text())
        assert report["per_seed"][0]["team_val_gain"] >= 0.0

    def test_parallel_jobs_reproduce_serial(self, moons_csv, tmp_path):
        args = [
            "train", "--data", str(moons_csv), "--loss", "eu", "--seeds", "2",
            "--epochs", "6",
        ]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run(args + ["--out", str(serial)])
        run(args + ["--jobs", "2", "--out", str(parallel)])
        assert (serial / "report.json").read_bytes() == (parallel / "report.json").read_bytes()


    def test_log_loss_parallel_jobs_reproduce_serial(self, moons_csv, tmp_path):
        args = [
            "train", "--data", str(moons_csv), "--loss", "log", "--model", "mlp",
            "--seeds", "2", "--epochs", "4",
        ]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run(args + ["--out", str(serial)]) == 0
        assert run(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert (serial / "report.json").read_bytes() == (parallel / "report.json").read_bytes()
        for s in range(2):
            name = f"models/baseline_seed{s}.json"
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_log_loss_rejects_warm_start_path(self, moons_csv, tmp_path, capsys):
        first = tmp_path / "first"
        run(
            [
                "train", "--data", str(moons_csv), "--loss", "log", "--seeds", "1",
                "--epochs", "2", "--out", str(first),
            ]
        )
        code = run(
            [
                "train", "--data", str(moons_csv), "--loss", "log", "--seeds", "1",
                "--warm-start", str(first / "models" / "baseline_seed0.json"),
                "--out", str(tmp_path / "again"),
            ]
        )
        assert code == 1
        assert "error: --warm-start" in capsys.readouterr().err
        assert not (tmp_path / "again").exists()


class TestConfigFile:
    def test_flags_override_file(self, moons_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": 1, "epochs": 4, "loss": "eu"}))
        out = tmp_path / "o"
        run(
            [
                "train", "--data", str(moons_csv), "--config", str(cfg),
                "--epochs", "6", "--out", str(out),
            ]
        )
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["epochs"] == 6
        assert resolved["seeds"] == 1

    def test_unknown_config_key_fails(self, moons_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimizer": "sgd"}))
        code = run(
            [
                "train", "--data", str(moons_csv), "--config", str(cfg),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 1


# train's settings: resolved key -> (flag, values a run may take)
_TRAIN_SETTINGS = {
    "lr": ("--lr", st.floats(1e-4, 1.0)),
    "l2": ("--l2", st.floats(0.0, 1.0)),
    "batch": ("--batch", st.integers(1, 64)),
    "decay": ("--decay", st.floats(0.01, 0.99)),
    "patience": ("--patience", st.integers(1, 9)),
    "epochs": ("--epochs", st.integers(1, 300)),
    "seeds": ("--seeds", st.integers(1, 20)),
    "seed": ("--seed", st.integers(0, 10**6)),
    "jobs": ("--jobs", st.integers(1, 4)),
    "beta": ("--beta", st.floats(1.0, 10.0)),
    "lam": ("--lambda", st.floats(0.0, 5.0)),
    "human_accuracy": ("--a", st.floats(0.0, 1.0)),
    "accept_probability": ("--p", st.floats(0.0, 1.0)),
    "model": ("--model", st.sampled_from(cli.MODEL_KINDS)),
    "loss": ("--loss", st.sampled_from(sorted(cli.LOSS_NAMES))),
    "label_column": ("--label-column", st.sampled_from(["label", "y"])),
}
_TRAIN_DEFAULTS = {
    "data": None, "out": None, "model": "linear", "loss": "eu", "seeds": 10, "seed": 0,
    "warm_start": "auto", "jobs": 1, "label_column": "label",
    "beta": 1.0, "lam": 0.5, "human_accuracy": 1.0, "accept_probability": 1.0,
    "lr": 0.1, "l2": 1e-3, "batch": 32, "decay": 0.1, "patience": 5, "epochs": 200,
}


def _resolve_train(flags, file_values=None):
    """train's resolved settings for the given flags and --config contents."""
    argv = ["train", "--data", "d.csv", "--out", "o"]
    for key, value in flags.items():
        argv += [_TRAIN_SETTINGS[key][0], str(value)]
    with tempfile.TemporaryDirectory() as tmp:
        if file_values is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(file_values))
            argv += ["--config", str(path)]
        return cli._resolve(cli.build_parser().parse_args(argv))


def _settings(draw, keys):
    return {k: draw(_TRAIN_SETTINGS[k][1]) for k in keys}


class TestConfigMerging:
    """The resolved config is defaults < --config file < flags."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_flags_over_file_over_defaults(self, data):
        keys = sorted(_TRAIN_SETTINGS)
        in_file = data.draw(st.lists(st.sampled_from(keys), unique=True))
        flagged = data.draw(st.lists(st.sampled_from(keys), unique=True))
        file_values = _settings(data.draw, in_file)
        flags = _settings(data.draw, flagged)
        resolved = _resolve_train(flags, file_values)
        for key in keys:
            want = flags.get(key, file_values.get(key, _TRAIN_DEFAULTS[key]))
            assert resolved[key] == want, key
        assert resolved["command"] == "train"

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_resolved_config_reproduces_itself(self, data):
        keys = data.draw(st.lists(st.sampled_from(sorted(_TRAIN_SETTINGS)), unique=True))
        flags = _settings(data.draw, keys)
        resolved = _resolve_train(flags)
        with tempfile.TemporaryDirectory() as tmp:
            cli._write_json(Path(tmp) / "config.resolved.json", resolved)
            written = json.loads((Path(tmp) / "config.resolved.json").read_text())
        assert _resolve_train({}, written) == resolved

    def test_json_files_are_indented_with_sorted_keys(self, tmp_path):
        # a report and the metrics that eval and analyze write
        metrics = Metrics(accuracy=0.875, expected_utility=-0.1, empirical_utility=1 / 3)
        for name, value in [
            ("report.json", {"seeds": 2, "a": [1.0, 0.5], "nested": {"z": None, "b": "x"}}),
            ("metrics.json", metrics.to_dict()),
        ]:
            path = tmp_path / "new_dir" / name
            cli._write_json(path, value)
            assert path.read_text() == json.dumps(value, indent=2, sort_keys=True) + "\n"
            assert json.loads(path.read_text()) == value
        assert list(json.loads(path.read_text())) == [
            "accuracy", "empirical_utility", "expected_utility"
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        key=st.text(min_size=1, max_size=12).filter(
            lambda k: k not in _TRAIN_DEFAULTS and k != "command"
        )
    )
    def test_unknown_key_is_rejected(self, key):
        with pytest.raises(ValueError, match="cfg.json: unknown config keys"):
            _resolve_train({}, {key: 1})

    @settings(max_examples=50, deadline=None)
    @given(
        command=st.one_of(
            st.sampled_from(["eval", "analyze", "sweep", "exhaustive", "gen-data"]),
            st.text(max_size=8),
        ).filter(lambda c: c != "train")
    )
    def test_foreign_command_is_rejected(self, command):
        with pytest.raises(ValueError, match="cfg.json: config was written by"):
            _resolve_train({}, {"command": command, "epochs": 3})

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_value_of_another_type_is_rejected(self, data):
        key = data.draw(st.sampled_from(sorted(_TRAIN_SETTINGS)))
        default = _TRAIN_DEFAULTS[key]
        others = {
            int: st.floats(allow_nan=False) | st.text() | st.booleans(),
            float: st.text() | st.booleans(),
            str: st.integers() | st.floats(allow_nan=False) | st.booleans(),
        }[type(default)]
        value = data.draw(others | st.none() | st.lists(st.integers(), max_size=2))
        with pytest.raises(ValueError, match=key):
            _resolve_train({}, {key: value})

    def test_int_stands_in_for_a_float(self):
        resolved = _resolve_train({}, {"lr": 1, "beta": 2})
        assert (resolved["lr"], resolved["beta"]) == (1, 2)
        assert type(resolved["lr"]) is int

    @pytest.mark.parametrize("contents", [[], 3, "train", False])
    def test_non_object_file_is_rejected(self, contents):
        with pytest.raises(ValueError, match="cfg.json: config file must hold a JSON object"):
            _resolve_train({}, contents)

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 3,}')
        out = tmp_path / "o"
        argv = ["train", "--data", "d.csv", "--config", str(cfg), "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not out.exists()


# each command's required flags, the least argv it parses
_REQUIRED = {
    "gen-data": ["gen-data", "--kind", "moons", "--out", "o.csv"],
    "train": ["train", "--data", "d.csv", "--out", "o"],
    "eval": ["eval", "--data", "d.csv", "--model-file", "m.json", "--out", "o"],
    "exhaustive": ["exhaustive", "--data", "d.csv", "--out", "o"],
    "sweep": ["sweep", "--data", "d.csv", "--out", "o"],
    "analyze": [
        "analyze", "--data", "d.csv", "--baseline-model", "b.json",
        "--team-model", "t.json", "--out", "o",
    ],
}


def _flag_text(flag):
    """argv text a run may give an optional flag; None for a switch."""
    if flag.type is bool:
        return st.none()
    if flag.choices:
        return st.sampled_from(flag.choices)
    if flag.numbers:
        numbers = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3)
        return numbers.map(lambda values: ",".join(map(repr, values)))
    if flag.type is int:
        return st.integers(flag.floor or 0, 50).map(str)
    if flag.type is float:
        return st.floats(0.0, 10.0).map(repr)
    return st.sampled_from(["x", "y.json"])


class TestFlagTable:
    """Every command's parser and resolved config come from the same flags."""

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_resolved_config_reproduces_itself(self, command, data):
        optional = [f for f in cli.COMMANDS[command][2] if f.default is not None]
        argv = list(_REQUIRED[command])
        for flag in data.draw(st.lists(st.sampled_from(optional), unique=True)):
            text = data.draw(_flag_text(flag))
            argv += [flag.option] if text is None else [flag.option, text]
        resolved = cli._resolve(cli.build_parser().parse_args(argv))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.resolved.json"
            cli._write_json(path, resolved)
            again = cli.build_parser().parse_args([*_REQUIRED[command], "--config", str(path)])
            assert cli._resolve(again) == resolved

    @pytest.mark.parametrize("command", sorted(_REQUIRED))
    def test_parser_dests_are_the_resolved_keys(self, command):
        args = cli.build_parser().parse_args(_REQUIRED[command])
        dests = set(vars(args)) - {"func", "command", "config"}
        assert dests == set(cli._resolve(args)) - {"command"}


class TestRunCounts:
    """--seeds and --jobs must be integers >= 1, from flags or the config file."""

    @pytest.mark.parametrize("command", ["train", "exhaustive", "sweep"])
    @pytest.mark.parametrize("flag", ["--seeds", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_flag_below_one_is_error(self, moons_csv, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        code = run([command, "--data", str(moons_csv), flag, value, "--out", str(out)])
        assert code == 1
        assert f"error: {flag} must be an integer >= 1, got {int(value)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "exhaustive", "sweep"])
    @pytest.mark.parametrize(
        "key, value", [("seeds", 0), ("jobs", 0), ("seeds", 1.5), ("jobs", "2"), ("seeds", True)]
    )
    def test_config_value_is_checked(self, moons_csv, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        code = run([command, "--data", str(moons_csv), "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert f"error: --{key} must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_log_loss_train_with_zero_seeds_is_error(self, moons_csv, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(
            ["train", "--data", str(moons_csv), "--loss", "log", "--seeds", "0", "--out", str(out)]
        )
        assert code == 1
        assert "error: --seeds" in capsys.readouterr().err
        assert not out.exists()


def _model_file(tmp_path, n_features=2):
    path = tmp_path / f"model{n_features}.json"
    path.write_text(json.dumps({
        "kind": "linear", "n_features": n_features,
        "weights": [0.5] * n_features, "bias": [0.1],
    }))
    return path


def _argv(command, data, tmp_path):
    """A small run of each command, before its --out."""
    model = str(_model_file(tmp_path))
    return {
        "train": ["train", "--data", data, "--seeds", "1", "--epochs", "1"],
        "eval": ["eval", "--data", data, "--model-file", model],
        "analyze": ["analyze", "--data", data, "--baseline-model", model, "--team-model", model],
        "exhaustive": [
            "exhaustive", "--data", data, "--seeds", "1", "--angles", "4",
            "--offsets", "3", "--epochs", "1",
        ],
        "sweep": ["sweep", "--data", data, "--seeds", "1", "--epochs", "1"],
    }[command]


class TestRejectedCommandsWriteNothing:
    """Inputs are loaded and validated before the first output is written."""

    COMMANDS = ["train", "eval", "analyze", "exhaustive", "sweep"]

    def _rejected(self, argv, tmp_path, capsys, message):
        out = tmp_path / "o"
        assert run([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_data_file(self, tmp_path, capsys, command):
        argv = _argv(command, str(tmp_path / "absent.csv"), tmp_path)
        self._rejected(argv, tmp_path, capsys, "absent.csv")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "row, message",
        [
            ("3,4,7", "row 3: label must be 0 or 1"),
            # a csv.Error, not a ValueError, inside the csv module
            ("0." + "0" * csv.field_size_limit() + ",4,1", "row 3: field larger than field limit"),
        ],
    )
    def test_malformed_data_file(self, tmp_path, capsys, command, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,label\n1,2,0\n{row}\n")
        self._rejected(_argv(command, str(path), tmp_path), tmp_path, capsys, message)

    @pytest.mark.parametrize("command", ["train", "eval", "analyze", "exhaustive"])
    def test_bad_policy_value(self, moons_csv, tmp_path, capsys, command):
        argv = _argv(command, str(moons_csv), tmp_path) + ["--beta", "0.5"]
        self._rejected(argv, tmp_path, capsys, "beta must be finite and >= 1")

    @pytest.mark.parametrize("flag, value", [("--a", "1.5"), ("--beta", "1,0.5"), ("--a", "x")])
    def test_bad_sweep_axis(self, moons_csv, tmp_path, capsys, flag, value):
        argv = _argv("sweep", str(moons_csv), tmp_path) + [flag, value]
        self._rejected(argv, tmp_path, capsys, "")

    @pytest.mark.parametrize("command", ["train", "exhaustive", "sweep"])
    def test_bad_train_config(self, moons_csv, tmp_path, capsys, command):
        argv = _argv(command, str(moons_csv), tmp_path) + ["--lr", "0"]
        self._rejected(argv, tmp_path, capsys, "learning_rate must be > 0")

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sweep", "--a", "x"), ("sweep", "--a", ""), ("sweep", "--beta", "1,,2"),
            ("exhaustive", "--sharpness", ","), ("exhaustive", "--sharpness", "1,x"),
        ],
    )
    def test_comma_list_names_its_flag(self, moons_csv, tmp_path, capsys, command, flag, value):
        argv = _argv(command, str(moons_csv), tmp_path) + [flag, value]
        message = f"error: {flag} must be a comma-separated list of numbers, got {value!r}"
        self._rejected(argv, tmp_path, capsys, message)

    @pytest.mark.parametrize("command, key", [("sweep", "a"), ("sweep", "beta"), ("exhaustive", "sharpness")])
    def test_comma_list_in_config_names_its_flag(self, moons_csv, tmp_path, capsys, command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "1;2"}))
        argv = _argv(command, str(moons_csv), tmp_path) + ["--config", str(cfg)]
        message = f"error: --{key} must be a comma-separated list of numbers, got '1;2'"
        self._rejected(argv, tmp_path, capsys, message)

    @pytest.mark.parametrize("sharpness", [",", "1,x", "0", "nan", "inf", "1,nan"])
    def test_bad_grid(self, moons_csv, tmp_path, capsys, sharpness):
        argv = _argv("exhaustive", str(moons_csv), tmp_path) + ["--sharpness", sharpness]
        self._rejected(argv, tmp_path, capsys, "")

    def test_sharpness_whose_bias_overflows(self, moons_csv, tmp_path, capsys):
        argv = _argv("exhaustive", str(moons_csv), tmp_path) + ["--sharpness", "1,1e308"]
        self._rejected(argv, tmp_path, capsys, "sharpness 1e+308 overflows the bias")

    @pytest.mark.parametrize(
        "command, flags",
        [("train", ["--loss", "eu"]), ("train", ["--loss", "log"]), ("exhaustive", []), ("sweep", [])],
        ids=["train-eu", "train-log", "exhaustive", "sweep"],
    )
    def test_too_few_rows_for_the_splits(self, tmp_path, capsys, command, flags):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,label\n1,2,0\n3,4,1\n")
        argv = _argv(command, str(path), tmp_path) + flags
        self._rejected(argv, tmp_path, capsys, "produce an empty split for n=2")

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    @pytest.mark.parametrize("bins", ["0", "1"])
    def test_too_few_bins(self, moons_csv, tmp_path, capsys, command, bins):
        argv = _argv(command, str(moons_csv), tmp_path) + ["--bins", bins]
        self._rejected(argv, tmp_path, capsys, f"--bins must be an integer >= 2, got {bins}")

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_model_of_another_width(self, moons_csv, tmp_path, capsys, command):
        argv = _argv(command, str(moons_csv), tmp_path)
        argv[argv.index(str(_model_file(tmp_path)))] = str(_model_file(tmp_path, 3))
        self._rejected(argv, tmp_path, capsys, "model takes 3 features, the data has 2")

    def test_warm_start_of_another_width(self, moons_csv, tmp_path, capsys):
        argv = _argv("train", str(moons_csv), tmp_path)
        argv += ["--warm-start", str(_model_file(tmp_path, 3))]
        self._rejected(argv, tmp_path, capsys, "model takes 3 features")

    @pytest.mark.parametrize("saved, flag", [("mlp", "linear"), ("linear", "mlp")])
    def test_warm_start_of_another_kind(self, moons_csv, tmp_path, capsys, saved, flag):
        path = tmp_path / f"{saved}.json"
        save_model(init_model(saved, 2), path)
        argv = _argv("train", str(moons_csv), tmp_path)
        argv += ["--model", flag, "--warm-start", str(path)]
        message = f"{path}: warm-start model is of kind {saved!r}, not the --model {flag!r}"
        self._rejected(argv, tmp_path, capsys, message)

    @pytest.mark.parametrize("command", ["train", "exhaustive", "sweep"])
    @pytest.mark.parametrize("seed", ["abc", "-3"])
    def test_bad_env_seed(self, moons_csv, tmp_path, capsys, monkeypatch, command, seed):
        monkeypatch.setenv("TEAMOPT_SEED", seed)
        argv = _argv(command, str(moons_csv), tmp_path)
        message = f"TEAMOPT_SEED must be an integer >= 0, got {seed!r}"
        self._rejected(argv, tmp_path, capsys, message)

    @pytest.mark.parametrize("command", ["train", "exhaustive", "sweep"])
    @pytest.mark.parametrize("seed", ["x", 1.5, -1])
    def test_bad_seed_in_config(self, moons_csv, tmp_path, capsys, command, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        argv = _argv(command, str(moons_csv), tmp_path) + ["--config", str(cfg)]
        self._rejected(argv, tmp_path, capsys, f"--seed must be an integer >= 0, got {seed!r}")

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("train", "lr", "0.1"), ("train", "beta", "2"), ("train", "patience", 1.5),
            ("train", "label_column", 3), ("exhaustive", "batch", 4.0),
            ("exhaustive", "sharpness", [1, 2]), ("sweep", "a", 0.9),
            ("sweep", "batch", True), ("eval", "standardize", 1), ("eval", "beta", "2"),
            ("analyze", "standardize", "yes"), ("analyze", "lam", None),
        ],
    )
    def test_config_value_of_another_type(self, moons_csv, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = _argv(command, str(moons_csv), tmp_path) + ["--config", str(cfg)]
        self._rejected(argv, tmp_path, capsys, f"cfg.json: {key!r} must be of type")

    @pytest.mark.parametrize(
        "command, key, value",
        [("train", "model", "cnn"), ("sweep", "model", "cnn"), ("train", "loss", "hinge")],
    )
    def test_unknown_name_in_config(self, moons_csv, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = _argv(command, str(moons_csv), tmp_path) + ["--config", str(cfg)]
        self._rejected(argv, tmp_path, capsys, f"--{key} must be one of")


class TestEvalAnalyze:
    def test_eval_and_analyze(self, moons_csv, tmp_path):
        train_out = tmp_path / "run"
        run(
            [
                "train", "--data", str(moons_csv), "--loss", "eu", "--seeds", "1",
                "--epochs", "8", "--out", str(train_out),
            ]
        )
        eval_out = tmp_path / "eval"
        code = run(
            [
                "eval", "--data", str(moons_csv),
                "--model-file", str(train_out / "models" / "team_seed0.json"),
                "--beta", "1", "--lambda", "0.5", "--a", "1", "--standardize",
                "--out", str(eval_out),
            ]
        )
        assert code == 0
        metrics = json.loads((eval_out / "metrics.json").read_text())
        assert set(metrics) == {"accuracy", "expected_utility", "empirical_utility"}
        assert (eval_out / "curves.csv").read_text().startswith("bin_lo,bin_hi,v1,v2,v3,v4")

        analyze_out = tmp_path / "analyze"
        code = run(
            [
                "analyze", "--data", str(moons_csv),
                "--baseline-model", str(train_out / "models" / "baseline_seed0.json"),
                "--team-model", str(train_out / "models" / "team_seed0.json"),
                "--standardize", "--out", str(analyze_out),
            ]
        )
        assert code == 0
        diff = json.loads((analyze_out / "diff.json").read_text())
        assert "d_expected_utility" in diff
        assert set(diff) == {
            "d_accuracy", "d_expected_utility", "d_empirical_utility",
            "d_accept_fraction", "d_accept_accuracy_mass", "d_accept_utility_mass",
        }

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda m: m.pop("bias"), "missing key 'bias'"),
            (lambda m: m["weights"].__setitem__(0, float("nan")), "non-finite"),
        ],
    )
    def test_corrupt_model_file_is_error(self, moons_csv, tmp_path, capsys, corrupt, message):
        model = {"kind": "linear", "n_features": 2, "weights": [1.0, -0.5], "bias": [0.2]}
        corrupt(model)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = run(
            [
                "eval", "--data", str(moons_csv), "--model-file", str(path),
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "eval").exists()


class TestExhaustiveAndSweep:
    def test_exhaustive_outputs(self, tmp_path):
        data_path = tmp_path / "s1.csv"
        run(["gen-data", "--kind", "scenario1", "--n", "600", "--seed", "2", "--out", str(data_path)])
        out = tmp_path / "ex"
        code = run(
            [
                "exhaustive", "--data", str(data_path), "--seeds", "1",
                "--angles", "12", "--offsets", "9", "--sharpness", "1,4",
                "--epochs", "8", "--dataset-name", "s1", "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "mismatch.csv").read_text().strip().splitlines()
        assert lines[0] == "dataset,eu_logloss,emp_logloss,delta_eu_a,delta_emp_b,delta_emp_c"
        assert len(lines) == 2
        per_seed = (out / "mismatch_per_seed.csv").read_text().strip().splitlines()
        assert len(per_seed) == 2

    def test_exhaustive_parallel_jobs_reproduce_serial(self, tmp_path):
        data_path = tmp_path / "s1.csv"
        run(["gen-data", "--kind", "scenario1", "--n", "600", "--seed", "2", "--out", str(data_path)])
        args = [
            "exhaustive", "--data", str(data_path), "--seeds", "2", "--angles", "8",
            "--offsets", "9", "--sharpness", "1,4", "--epochs", "4",
        ]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert run(args + ["--out", str(serial)]) == 0
        assert run(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        for name in ("mismatch.csv", "mismatch_per_seed.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_sweep_outputs(self, moons_csv, tmp_path):
        out = tmp_path / "sweep"
        code = run(
            [
                "sweep", "--data", str(moons_csv), "--a", "0.9,1.0", "--beta", "1.0",
                "--lambda", "0.5", "--seeds", "1", "--epochs", "5", "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "a_or_beta,baseline_eu,delta_eu"
        assert len(lines) == 3
