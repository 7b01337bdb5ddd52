"""Cross-validation, the two-stage training protocol, and sweeps."""

from dataclasses import replace

import numpy as np
import pytest

from teamopt.classifiers import init_model
from teamopt.cli import main
from teamopt.data import gen_moons, gen_scenario1, save_csv, standardize
from teamopt.losses import LossSpec
from teamopt.optim import TrainConfig, train, validation_metric
from teamopt.pipeline import (
    GridSpec,
    cross_validate,
    derive_seeds,
    plan,
    run_experiment,
    seed_splits,
    write_sweep_csv,
)
from teamopt.team_model import HumanPolicy, UtilityParams

QUICK = TrainConfig(learning_rate=0.1, l2_weight=1e-3, batch_size=32, max_epochs=40)


def policy(beta=1.0, lam=0.5, a=1.0):
    return HumanPolicy(UtilityParams(beta, lam, a))


@pytest.fixture
def trainings(monkeypatch):
    """Every ``pipeline.train`` call as (spec, config, result), in call order."""
    import teamopt.pipeline as pipeline

    calls = []

    def recorded(model, train_set, val_set, spec, config):
        result = train(model, train_set, val_set, spec, config)
        calls.append((spec, config, result))
        return result

    monkeypatch.setattr(pipeline, "train", recorded)
    return calls


class TestGridSpec:
    def test_default_matches_search_space(self):
        grid = GridSpec.default()
        assert grid.learning_rates == (1e-3, 1e-2, 1e-1, 1.0)
        assert grid.l2_weights == (1e-3, 1e-2, 1e-1)
        assert grid.batch_sizes == (4, 8, 32)
        assert grid.decays == (0.1, 0.9)
        assert grid.patiences == (2, 5, 10)
        assert len(list(grid.cells())) == 4 * 3 * 3 * 2 * 3

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((), (1e-3,), (4,), (0.1,), (2,))


class TestCrossValidate:
    def test_single_cell_returned(self):
        ds = gen_moons(300, seed=0)
        grid = GridSpec((0.05,), (1e-3,), (32,), (0.1,), (5,))
        config = cross_validate(
            ds, "linear", LossSpec("log_loss"), grid,
            base_config=TrainConfig(max_epochs=5),
        )
        assert config.learning_rate == 0.05
        assert config.l2_weight == 1e-3
        assert config.batch_size == 32

    def test_divergent_cell_never_selected(self):
        ds = gen_moons(300, seed=1)
        grid = GridSpec((1e160, 0.05), (1e-3,), (32,), (0.1,), (5,))
        config = cross_validate(
            ds, "linear", LossSpec("log_loss"), grid,
            base_config=TrainConfig(max_epochs=5),
        )
        assert config.learning_rate == 0.05

    def test_every_cell_diverging_raises(self):
        ds = gen_moons(300, seed=1)
        grid = GridSpec((1e300,), (1e-3,), (32,), (0.1,), (5,))
        with pytest.raises(RuntimeError, match="every grid cell diverged"):
            cross_validate(
                ds, "linear", LossSpec("log_loss"), grid,
                base_config=TrainConfig(max_epochs=5),
            )

    def test_moons_selected_config_scores_well(self):
        ds = gen_moons(2000, seed=2)
        grid = GridSpec((0.01, 0.1), (1e-3,), (32,), (0.1,), (5,))
        base = TrainConfig(max_epochs=30)
        config = cross_validate(ds, "linear", LossSpec("log_loss"), grid, base_config=base)
        # recompute the winning cell's fold scores with the same fold layout
        perm = np.random.default_rng(base.seed).permutation(ds.n_examples)
        bounds = [round(ds.n_examples * (f + 1) / 5) for f in range(5)]
        folds, start = [], 0
        for stop in bounds:
            folds.append(perm[start:stop])
            start = stop
        fold_seeds = derive_seeds(base.seed, 5)
        scores = []
        for f, val_idx in enumerate(folds):
            train_idx = np.concatenate([folds[g] for g in range(5) if g != f])
            fold_train, fold_val = standardize(ds.subset(train_idx), ds.subset(val_idx))
            result = train(
                init_model("linear", 2, seed=fold_seeds[f]),
                fold_train,
                fold_val,
                LossSpec("log_loss"),
                replace(config, seed=fold_seeds[f]),
            )
            scores.append(result.best_val_metric)
        assert float(np.mean(scores)) > 0.8

    def test_too_small_dataset_rejected(self):
        ds = gen_moons(100, seed=3).subset(np.arange(20))
        grid = GridSpec((0.1,), (1e-3,), (4,), (0.1,), (2,))
        with pytest.raises(ValueError):
            cross_validate(ds, "linear", LossSpec("log_loss"), grid)

    def test_tie_break_prefers_smaller_lr(self):
        # max_epochs=1 on separable-ish data often ties; the guard is the key
        ds = gen_moons(250, seed=4)
        grid = GridSpec((0.1, 0.2), (1e-3,), (250,), (0.1,), (5,))
        config = cross_validate(
            ds, "linear", LossSpec("log_loss"), grid,
            base_config=TrainConfig(max_epochs=1),
        )
        assert config.learning_rate in (0.1, 0.2)


class TestTeamStage:
    def test_warm_start_equals_baseline_at_epoch_zero(self, trainings):
        pol = policy()
        ds = gen_scenario1(1500, seed=5)
        ((_, [(baseline, team)]),) = plan(
            ds, "linear", [pol.params], n_seeds=1, baseline_config=QUICK, seed=3
        )
        (_, _, baseline_result), (spec, _, team_result) = trainings
        assert baseline_result.best_model is baseline
        assert team_result.best_model is team
        # the team run's pre-step evaluation is the baseline model's EU
        _, fit, val, _, _, _ = seed_splits(ds, 3)
        assert spec == LossSpec("expected_utility_loss", pol)
        assert team_result.initial_val_metric == validation_metric(
            baseline, val, spec, "expected_utility"
        )
        assert team_result.best_val_metric >= team_result.initial_val_metric

    def test_team_loss_variant_runs(self, trainings):
        ds = gen_scenario1(800, seed=6)
        rep = run_experiment(
            ds, "linear", policy().params, n_seeds=1, baseline_config=QUICK, seed=0,
            team_loss_kind="team_loss",
        )
        spec, _, team_result = trainings[-1]
        assert spec.kind == "team_loss"
        assert team_result.best_val_metric >= team_result.initial_val_metric
        assert rep.per_seed[0].team_val_gain == (
            team_result.best_val_metric - team_result.initial_val_metric
        )


class TestRunExperiment:
    def test_determinism(self):
        ds = gen_moons(800, seed=7)
        params = UtilityParams(1.0, 0.5, 1.0)
        a = run_experiment(ds, "linear", params, n_seeds=2, baseline_config=QUICK, seed=1)
        b = run_experiment(ds, "linear", params, n_seeds=2, baseline_config=QUICK, seed=1)
        assert a.to_dict() == b.to_dict()

    def test_report_arithmetic(self):
        ds = gen_scenario1(1200, seed=8)
        params = UtilityParams(1.0, 0.5, 1.0)
        rep = run_experiment(ds, "linear", params, n_seeds=3, baseline_config=QUICK, seed=0)
        for outcome in rep.per_seed:
            assert outcome.delta.expected_utility == (
                outcome.team.expected_utility - outcome.baseline.expected_utility
            )
            assert outcome.team_val_gain >= 0.0
        assert rep.mean_delta.expected_utility == pytest.approx(
            rep.mean_team.expected_utility - rep.mean_baseline.expected_utility,
            abs=1e-12,
        )

    def test_scenario_improves_expected_utility(self):
        ds = gen_scenario1(4000, seed=9)
        rep = run_experiment(
            ds, "linear", UtilityParams(1.0, 0.5, 1.0), n_seeds=3,
            baseline_config=QUICK, seed=0,
        )
        assert rep.mean_delta.expected_utility > 0.0

    def test_moons_improves_expected_utility(self):
        ds = gen_moons(4000, seed=10)
        rep = run_experiment(
            ds, "linear", UtilityParams(1.0, 0.5, 1.0), n_seeds=3,
            baseline_config=QUICK, seed=0,
        )
        assert rep.mean_delta.expected_utility > 0.0

    def test_grid_path_selects_and_reuses(self):
        ds = gen_moons(600, seed=11)
        grid = GridSpec((0.05,), (1e-3,), (32,), (0.1,), (5,))
        rep = run_experiment(
            ds, "linear", UtilityParams(1.0, 0.5, 1.0), n_seeds=1,
            baseline_config=TrainConfig(max_epochs=8), grid=grid, seed=0,
        )
        assert rep.baseline_config.learning_rate == 0.05
        assert rep.team_config.learning_rate == 0.05
        assert rep.team_config.checkpoint_metric == "expected_utility"

    def test_parallel_jobs_match_serial(self):
        ds = gen_moons(600, seed=15)
        params = UtilityParams(1.0, 0.5, 1.0)
        config = TrainConfig(max_epochs=8)
        serial = run_experiment(ds, "linear", params, n_seeds=2, baseline_config=config, seed=0)
        parallel = run_experiment(
            ds, "linear", params, n_seeds=2, baseline_config=config, seed=0, jobs=2
        )
        assert serial.to_dict() == parallel.to_dict()

    def test_grid_cross_validated_once_on_accuracy(self, monkeypatch, trainings):
        import teamopt.pipeline as pipeline

        searches = []

        def counted_cross_validate(*args, **kwargs):
            selected = cross_validate(*args, **kwargs)
            searches.append((args, selected))
            return selected

        monkeypatch.setattr(pipeline, "cross_validate", counted_cross_validate)
        ds = gen_moons(400, seed=19)
        grid = GridSpec((0.01, 0.1), (1e-3,), (32,), (0.1,), (5,))
        # a checkpoint metric other than the reference's does not steer the
        # search, and the cell in no grid axis survives it
        config = TrainConfig(
            learning_rate=0.5, batch_size=16, max_epochs=3, checkpoint_metric="expected_utility"
        )
        n_seeds = 2
        run_experiment(
            ds, "linear", UtilityParams(1.0, 0.5, 0.8), n_seeds=n_seeds,
            baseline_config=config, grid=grid, seed=0,
        )
        ((args, selected),) = searches
        assert args[2] == LossSpec("log_loss")
        assert (selected.learning_rate, selected.batch_size) in [(0.01, 32), (0.1, 32)]
        cells = len(list(grid.cells())) * 5
        assert all(
            spec == LossSpec("log_loss") and cfg.checkpoint_metric == "accuracy"
            for spec, cfg, _ in trainings[:cells]
        )
        # every seed's reference and team run train under the selected cell
        trained = trainings[cells:]
        assert [spec.kind for spec, _, _ in trained] == [
            "log_loss", "expected_utility_loss"
        ] * n_seeds
        for spec, cfg, _ in trained:
            metric = "accuracy" if spec.kind == "log_loss" else "expected_utility"
            assert replace(cfg, seed=selected.seed) == replace(selected, checkpoint_metric=metric)

    def test_supplied_baseline_model_is_warm_start_and_reference(self):
        ds = gen_scenario1(800, seed=16)
        params = UtilityParams(1.0, 0.5, 1.0)
        fixed = init_model("linear", 2)
        fixed.weights[:] = [2.0, 0.0]
        rep = run_experiment(
            ds, "linear", params, n_seeds=1,
            baseline_config=TrainConfig(max_epochs=5), baseline_model=fixed, seed=0,
        )
        # the reference metrics come from the supplied model, not a trained one
        from teamopt.analysis import evaluate

        _, _, _, test, _, _ = seed_splits(ds, 0)
        pol = HumanPolicy(params)
        assert rep.per_seed[0].baseline == evaluate(fixed, test, pol)

    @pytest.mark.parametrize("given, declared", [("mlp", "linear"), ("linear", "mlp")])
    def test_supplied_baseline_model_of_another_kind_rejected(self, given, declared):
        ds = gen_scenario1(200, seed=16)
        with pytest.raises(ValueError, match=f"baseline model of kind {given!r} does not match"):
            run_experiment(
                ds, declared, UtilityParams(1.0, 0.5, 1.0), n_seeds=1,
                baseline_model=init_model(given, 2),
            )

    def test_report_dict(self):
        ds = gen_moons(600, seed=12)
        rep = run_experiment(
            ds, "linear", UtilityParams(1.0, 0.5, 1.0), n_seeds=1,
            baseline_config=TrainConfig(max_epochs=5), seed=0,
        )
        data = rep.to_dict()
        assert data["n_seeds"] == 1
        assert data["params"]["accept_threshold"] == 0.75
        assert len(data["per_seed"]) == 1


class TestPlan:
    def test_references_only_trains_the_references(self, trainings):
        n_seeds = 2
        ((rep, models),) = plan(
            gen_scenario1(600, seed=17), "linear", [UtilityParams(1.0, 0.5, 0.9)], n_seeds,
            baseline_config=TrainConfig(max_epochs=6), team_loss_kind=None, seed=0,
        )
        assert [spec.kind for spec, _, _ in trainings] == ["log_loss"] * n_seeds
        assert [reference for reference, _ in models] == [r.best_model for _, _, r in trainings]
        assert [team for _, team in models] == [None] * n_seeds
        assert [(o.team, o.delta, o.team_val_gain) for o in rep.per_seed] == [(None,) * 3] * n_seeds
        assert (rep.mean_team, rep.mean_delta) == (None, None)
        assert rep.mean_baseline.expected_utility == np.mean(
            [o.baseline.expected_utility for o in rep.per_seed]
        )


def product(a_values, beta_values, lam=0.5):
    """The (a x beta) points of a sweep, in the order ``teamopt sweep`` plans them."""
    return [UtilityParams(beta, lam, a) for a in a_values for beta in beta_values]


def sweep_cli(data_path, out, *flags):
    """``teamopt sweep`` on ``data_path`` with a few short trainings."""
    return main(
        ["sweep", "--data", str(data_path), "--lambda", "0.5", "--seeds", "1", "--epochs", "5",
         *flags, "--out", str(out)]
    )


@pytest.fixture
def scenario_csv(tmp_path):
    path = tmp_path / "s1.csv"
    save_csv(gen_scenario1(600, seed=13), path)
    return path


def csv_rows(path):
    return path.read_text().strip().splitlines()


class TestSweep:
    def test_product_grid_and_csv(self, scenario_csv, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert sweep_cli(scenario_csv, out, "--a", "0.9,1.0", "--beta", "1.0,5.0") == 0
        lines = csv_rows(out / "sweep.csv")
        assert lines[0] == "a_or_beta,baseline_eu,delta_eu"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "a=0.9|beta=1.0", "a=0.9|beta=5.0", "a=1.0|beta=1.0", "a=1.0|beta=5.0"
        ]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == [
            "a=0.9 beta=1.0", "a=0.9 beta=5.0", "a=1.0 beta=1.0", "a=1.0 beta=5.0"
        ]
        # one varying parameter fills the first column alone
        assert sweep_cli(scenario_csv, tmp_path / "a", "--a", "0.9,1.0", "--beta", "1.0") == 0
        assert [line.split(",")[0] for line in csv_rows(tmp_path / "a" / "sweep.csv")[1:]] == [
            "0.9", "1.0"
        ]

    def test_invalid_last_point_fails_before_any_training(
        self, scenario_csv, tmp_path, capsys, trainings
    ):
        out = tmp_path / "sweep"
        assert sweep_cli(scenario_csv, out, "--a", "0.9,1.0,1.5", "--beta", "1.0") == 1
        assert "human_accuracy must be in" in capsys.readouterr().err
        assert not out.exists()
        assert trainings == []

    def test_sweep_is_its_points(self, tmp_path, trainings):
        ds = gen_scenario1(600, seed=17)
        config = TrainConfig(max_epochs=6)
        n_seeds = 2
        points = product([0.8, 0.9], [1.0, 5.0])
        reports = [r for r, _ in plan(ds, "linear", points, n_seeds, baseline_config=config, seed=0)]
        # each seed's reference is trained once and shared by the four points
        kinds = [spec.kind for spec, _, _ in trainings]
        assert kinds.count("log_loss") == n_seeds
        assert kinds.count("expected_utility_loss") == 4 * n_seeds
        assert len(kinds) == 5 * n_seeds
        assert [r.params for r in reports] == points
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        rows = [line.split(",") for line in csv_rows(path)[1:]]
        # a point list that is no product grid plans its points the same way
        planned = plan(
            ds, "linear", [UtilityParams(5.0, 0.5, 0.9), UtilityParams(1.0, 0.5, 0.8)],
            n_seeds, baseline_config=config, seed=0,
        )
        by_point = {r.params: r for r, _ in planned}
        assert list(by_point) == [UtilityParams(5.0, 0.5, 0.9), UtilityParams(1.0, 0.5, 0.8)]
        for params, row in zip(points, rows):
            rep = run_experiment(ds, "linear", params, n_seeds=n_seeds, baseline_config=config, seed=0)
            assert row == [
                f"a={params.human_accuracy!r}|beta={params.beta!r}",
                repr(rep.mean_baseline.expected_utility),
                repr(rep.mean_delta.expected_utility),
            ]
            if params in by_point:
                assert by_point[params].to_dict() == rep.to_dict()

    def test_parallel_jobs_match_serial(self, scenario_csv, tmp_path, capsys):
        flags = ["--a", "0.9,1.0", "--beta", "1.0,3.0", "--seeds", "2"]
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert sweep_cli(scenario_csv, serial, *flags) == 0
        serial_out = capsys.readouterr().out
        assert sweep_cli(scenario_csv, parallel, *flags, "--jobs", "2") == 0
        assert capsys.readouterr().out == serial_out
        assert (parallel / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()

    def test_references_only_reports_are_rejected(self, tmp_path):
        reports = [
            r for r, _ in plan(
                gen_scenario1(300, seed=5), "linear", product([0.9, 1.0], [1.0]), 1,
                baseline_config=TrainConfig(max_epochs=2), team_loss_kind=None, seed=0,
            )
        ]
        path = tmp_path / "sweep.csv"
        with pytest.raises(ValueError, match="sweep reports need team metrics"):
            write_sweep_csv(reports, path)
        assert not path.exists()

    def test_always_accept_degenerate_point(self):
        # a=0 with lam=0 puts the threshold at 0: nothing is ever solved, so
        # team utility reduces to the automation payoff
        from teamopt.analysis import evaluate
        from helpers import random_model

        params = UtilityParams(beta=1.0, lam=0.0, human_accuracy=0.0)
        assert params.accept_threshold == 0.0
        pol = HumanPolicy(params)
        ds = gen_scenario1(500, seed=14)
        model = random_model("linear", 2, seed=3)
        metrics = evaluate(model, ds, pol)
        assert metrics.empirical_utility == pytest.approx(
            2.0 * metrics.accuracy - 1.0, abs=1e-12
        )
