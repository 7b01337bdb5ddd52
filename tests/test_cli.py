"""End-to-end checks of the command-line interface."""

import json

import pytest

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
        assert not (tmp_path / "eval" / "metrics.json").exists()


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
