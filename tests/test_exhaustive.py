"""Feature selection, grid enumeration, and the brute-force linear search."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    BisectionCountPass,
    dense_score_grid,
    policies,
    scalar_utility,
    unchecked_params,
)
from teamopt.analysis import Metrics, evaluate
from teamopt.classifiers import Model, init_model
from teamopt.data import Dataset, gen_scenario1, split, standardize
from teamopt import exhaustive as exhaustive_module
from teamopt.exhaustive import (
    MISMATCH_COLUMNS,
    OBJECTIVES,
    LinearGrid,
    _CountPass,
    _score_grid,
    exhaustive_search,
    mismatch_columns,
    mutual_information,
    select_top2_features,
    write_mismatch_csv,
)
from teamopt.losses import LossSpec
from teamopt.optim import TrainConfig, train
from teamopt.team_model import HumanPolicy, UtilityParams


def policy():
    return HumanPolicy(UtilityParams(1.0, 0.5, 1.0))


class TestSelectTop2:
    def test_two_feature_identity(self):
        ds = gen_scenario1(500, seed=0)
        assert select_top2_features(ds) == (0, 1)

    def test_label_copy_ranks_first(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 400).astype(np.int64)
        X = np.column_stack([y.astype(float), rng.normal(size=400), rng.normal(size=400)])
        ds = Dataset(features=X, labels=y, feature_names=("copy", "n1", "n2"))
        assert select_top2_features(ds)[0] == 0

    def test_constant_feature_scores_zero(self):
        assert mutual_information(np.ones(100), np.arange(100) % 2) == 0.0

    def test_scenario_features_beat_noise_columns(self):
        base = gen_scenario1(4000, seed=11)
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            X = np.hstack([base.features, rng.normal(size=(base.n_examples, 3))])
            ds = Dataset(
                features=X,
                labels=base.labels,
                feature_names=("x1", "x2", "n1", "n2", "n3"),
            )
            assert set(select_top2_features(ds)) == {0, 1}

    def test_single_feature_rejected(self):
        ds = Dataset(
            features=np.zeros((10, 1)),
            labels=np.zeros(10, dtype=np.int64),
            feature_names=("x",),
        )
        with pytest.raises(ValueError):
            select_top2_features(ds)


class TestLinearGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearGrid(n_angles=0)
        with pytest.raises(ValueError):
            LinearGrid(sharpness=())
        with pytest.raises(ValueError):
            LinearGrid(sharpness=(0.0,))
        with pytest.raises(ValueError):
            LinearGrid(offset_range=(1.0, 1.0))
        for offset_range in [(-np.inf, 3.0), (-3.0, np.inf), (np.nan, 3.0), (-3.0, np.nan)]:
            with pytest.raises(ValueError, match="invalid offset range"):
                LinearGrid(offset_range=offset_range)
        for sharpness in [(np.nan,), (np.inf,), (1.0, np.nan)]:
            with pytest.raises(ValueError, match="finite and > 0"):
                LinearGrid(sharpness=sharpness)

    def test_sharpness_whose_bias_overflows_is_rejected(self):
        # the bias -s*offset of 1e308 times an offset of 3 is not finite
        with pytest.raises(ValueError, match=r"sharpness 1e\+308 overflows"):
            LinearGrid(sharpness=(1.0, 1e308))
        with pytest.raises(ValueError, match=r"sharpness 1e\+300 overflows"):
            LinearGrid(offset_range=(-1e10, 0.0), sharpness=(1e300,))
        assert LinearGrid(sharpness=(1e307,)).sharpness == (1e307,)

    def test_default_size(self):
        grid = LinearGrid()
        assert grid.n_candidates == 180 * 101 * 7
        assert grid.angles()[0] == 0.0
        assert grid.angles()[-1] < 2.0 * np.pi


def nested_loop_oracle(dataset, objective, pol, grid):
    """Independent enumeration using the one-example utility reference."""
    best_score = -np.inf
    best = None
    for angle in grid.angles():
        u = np.array([np.cos(angle), np.sin(angle)])
        for offset in grid.offsets():
            for s in grid.sharpness:
                total = 0.0
                for x, y in zip(dataset.features, dataset.labels):
                    z = float(np.clip(s * (x @ u - offset), -500, 500))
                    p1 = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1 + np.exp(z))
                    total += scalar_utility(p1, int(y), pol, objective)[1]
                score = total / dataset.n_examples
                if score > best_score:
                    best_score = score
                    best = (s * u, -s * offset)
    return best, best_score


@pytest.fixture(scope="module")
def small_scenario():
    ds = gen_scenario1(240, seed=3)
    (ds,) = standardize(ds)
    return ds


class TestExhaustiveSearch:
    @pytest.mark.parametrize("objective", ["expected_utility", "empirical_utility"])
    def test_matches_nested_loop_oracle(self, small_scenario, objective):
        grid = LinearGrid(n_angles=8, n_offsets=5, offset_range=(-2.0, 2.0), sharpness=(1.0, 4.0))
        pol = policy()
        model = exhaustive_search(small_scenario, objective, pol, grid)
        (oracle_w, oracle_b), oracle_score = nested_loop_oracle(
            small_scenario, objective, pol, grid
        )
        np.testing.assert_allclose(model.weights, oracle_w, atol=1e-12)
        assert model.bias[0] == pytest.approx(oracle_b, abs=1e-12)

    def test_argmax_dominates_every_candidate(self, small_scenario):
        grid = LinearGrid(n_angles=8, n_offsets=5, offset_range=(-2.0, 2.0), sharpness=(1.0, 4.0))
        pol = policy()
        model = exhaustive_search(small_scenario, "expected_utility", pol, grid)
        best = evaluate(model, small_scenario, pol).expected_utility
        for angle in grid.angles():
            u = np.array([np.cos(angle), np.sin(angle)])
            for offset in grid.offsets():
                for s in grid.sharpness:
                    candidate = Model([(s * u, np.array([-s * offset]))])
                    score = evaluate(candidate, small_scenario, pol).expected_utility
                    assert best >= score - 1e-12

    def test_tie_breaks_to_first_enumerated(self, small_scenario):
        grid = LinearGrid(n_angles=4, n_offsets=3, offset_range=(-1.0, 1.0), sharpness=(2.0, 2.0))
        model = exhaustive_search(small_scenario, "expected_utility", policy(), grid)
        # duplicated sharpness rungs tie exactly; the first one wins, and the
        # result is identical to searching the deduplicated ladder
        dedup = LinearGrid(n_angles=4, n_offsets=3, offset_range=(-1.0, 1.0), sharpness=(2.0,))
        model2 = exhaustive_search(small_scenario, "expected_utility", policy(), dedup)
        assert np.array_equal(model.weights, model2.weights)
        assert model.bias[0] == model2.bias[0]

    def test_confidence_monotone_in_sharpness(self, small_scenario):
        X = small_scenario.features
        u = np.array([np.cos(0.7), np.sin(0.7)])
        offset = 0.3
        prev = None
        for s in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            z = s * (X @ u - offset)
            p1 = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
            conf = np.maximum(p1, 1.0 - p1)
            if prev is not None:
                assert np.all(conf >= prev - 1e-15)
            prev = conf

    def test_input_validation(self):
        ds3 = Dataset(
            features=np.zeros((10, 3)),
            labels=np.zeros(10, dtype=np.int64),
            feature_names=("a", "b", "c"),
        )
        with pytest.raises(ValueError):
            exhaustive_search(ds3, "expected_utility", policy())
        ds2 = gen_scenario1(200, seed=1)
        with pytest.raises(ValueError):
            exhaustive_search(ds2, "accuracy", policy())


class TestMismatchTable:
    def test_search_beats_trained_reference_on_expected_utility(self):
        pol = policy()
        ds = gen_scenario1(2000, seed=5)
        train80, test = split(ds, (0.8, 0.2), seed=0)
        train80, test = standardize(train80, test)
        fit, val = split(train80, (0.8, 0.2), seed=1)
        config = TrainConfig(
            learning_rate=0.1, l2_weight=1e-3, batch_size=32, max_epochs=40,
            checkpoint_metric="accuracy", seed=0,
        )
        baseline = train(init_model("linear", 2), fit, val, LossSpec("log_loss", pol), config).best_model
        grid = LinearGrid(n_angles=45, n_offsets=31, sharpness=(0.5, 2.0, 8.0, 16.0))
        found = exhaustive_search(train80, "expected_utility", pol, grid)
        row = mismatch_columns(
            "scenario1",
            evaluate(baseline, test, pol),
            evaluate(found, test, pol),
            evaluate(
                exhaustive_search(train80, "empirical_utility", pol, grid), test, pol
            ),
        )
        assert row["delta_eu_a"] > 0.0

    def test_csv_round_trip(self, tmp_path):
        rows = [
            {
                "dataset": "toy",
                "eu_logloss": 0.5,
                "emp_logloss": 0.6,
                "delta_eu_a": 0.05,
                "delta_emp_b": -0.01,
                "delta_emp_c": 0.02,
            }
        ]
        path = tmp_path / "mismatch.csv"
        write_mismatch_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dataset,eu_logloss,emp_logloss,delta_eu_a,delta_emp_b,delta_emp_c"
        assert lines[1].startswith("toy,0.5,0.6,")

    def test_row_keys_are_the_csv_columns(self, tmp_path):
        metrics = Metrics(accuracy=0.9, expected_utility=0.5, empirical_utility=0.25)
        row = mismatch_columns("toy", metrics, metrics, metrics)
        assert tuple(row) == MISMATCH_COLUMNS
        path = tmp_path / "mismatch.csv"
        write_mismatch_csv([row], path)
        assert path.read_text().splitlines() == [",".join(MISMATCH_COLUMNS), "toy,0.5,0.25,0.0,0.0,0.0"]


@st.composite
def search_problems(draw):
    """(dataset, grid) pairs for the scorer-versus-oracle tests.

    Sizes include 1, 2 and a few hundred; features on a coarse lattice
    repeat projection values; grids include a single offset.
    """
    n = draw(st.sampled_from([1, 2, 127, 128, 129, 293]) | st.integers(1, 384))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        features = rng.integers(-4, 5, size=(n, 2)) * 0.5
    else:
        features = rng.normal(size=(n, 2)) * draw(st.sampled_from([0.5, 1.0, 3.0]))
    dataset = Dataset(
        features=features,
        labels=rng.integers(0, 2, n).astype(np.int64),
        feature_names=("x1", "x2"),
    )
    grid = LinearGrid(
        n_angles=draw(st.integers(1, 4)),
        n_offsets=draw(st.integers(1, 7)),
        offset_range=draw(st.sampled_from([(-3.0, 3.0), (-1.0, 2.0), (-0.5, 0.5)])),
        sharpness=tuple(
            draw(st.lists(st.sampled_from([0.25, 1.0, 2.0, 16.0, 300.0]), min_size=1, max_size=3))
        ),
    )
    return dataset, grid


@st.composite
def dyadic_policies(draw):
    """Policies whose payoffs are dyadic rationals, so that every sum of
    them is exact; thresholds span c <= 0.5, c in (0.5, 1] and c > 1."""
    beta = draw(st.sampled_from([1.0, 2.0, 3.0]))
    lam = draw(st.sampled_from([0.25, 0.5]))
    a = draw(st.sampled_from([0.75, 1.0, 1.25]))
    params = unchecked_params(beta, lam, a) if a > 1.0 else UtilityParams(beta, lam, a)
    return HumanPolicy(params, draw(st.sampled_from([0.5, 1.0])))


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_is_candidate(model, grid, flat):
    """The model is, bit for bit, the grid's candidate at a flat index."""
    ai, oi, si = np.unravel_index(flat, (grid.n_angles, grid.n_offsets, len(grid.sharpness)))
    angle = grid.angles()[ai]
    s = float(grid.sharpness[si])
    assert_bitwise_equal(model.weights, s * np.array([np.cos(angle), np.sin(angle)]))
    assert_bitwise_equal(model.bias, np.array([-s * float(grid.offsets()[oi])]))


def assert_equal_within_rounding(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    # each side's argmax is a maximum of the other within that rounding;
    # candidates with equal counts tie exactly in the count-based scores
    assert want.flat[np.argmax(got)] >= want.max() - 1e-12
    assert got.flat[np.argmax(want)] >= got.max() - 1e-12


class TestScoreGridOracle:
    """The search's scorers against the dense per-angle evaluation."""

    @settings(max_examples=60, deadline=None)
    @given(problem=search_problems(), pol=policies())
    def test_expected_utility_is_bit_identical(self, problem, pol):
        """Each cell is the oracle's value, or a ceiling at least that value
        and below the grid maximum, and the search returns the oracle's
        argmax."""
        dataset, grid = problem
        got = _score_grid(dataset, "expected_utility", pol, grid)
        want = dense_score_grid(dataset, "expected_utility", pol, grid)
        if grid.n_offsets > 1:
            evaluated = got.view(np.int64) == want.view(np.int64)
            best = np.argmax(want)
        else:
            # the oracle's single-offset slab is one column, which numpy sums
            # pairwise instead of in row order
            evaluated = np.abs(got - want) <= 1e-12
            best = np.argmax(got)
            assert want.flat[best] >= want.max() - 1e-12
        assert np.all(got[~evaluated] >= want[~evaluated])
        assert np.all(got[~evaluated] < got.max())
        assert np.argmax(got) == best
        assert_is_candidate(exhaustive_search(dataset, "expected_utility", pol, grid), grid, best)

    @settings(max_examples=60, deadline=None)
    @given(problem=search_problems(), pol=dyadic_policies())
    def test_empirical_utility_is_bit_identical_for_dyadic_payoffs(self, problem, pol):
        dataset, grid = problem
        assert_bitwise_equal(
            _score_grid(dataset, "empirical_utility", pol, grid),
            dense_score_grid(dataset, "empirical_utility", pol, grid),
        )

    @settings(max_examples=60, deadline=None)
    @given(problem=search_problems(), pol=policies())
    def test_empirical_utility_matches_within_rounding(self, problem, pol):
        dataset, grid = problem
        got = _score_grid(dataset, "empirical_utility", pol, grid)
        want = dense_score_grid(dataset, "empirical_utility", pol, grid)
        assert_equal_within_rounding(got, want)


    @pytest.mark.parametrize(
        "beta, above_one",
        [(1.2, True), (1.3, False), (3.4, True), (3.6, False), (7.2, False), (7.3, True)],
    )
    def test_argmax_where_the_accept_value_at_h1_rounds_off_one(self, beta, above_one):
        """The accept value at h = 1, (1+beta) - beta, rounds above or below 1
        at these betas; every cell is still the oracle's value or a ceiling
        below the maximum, and the search returns the oracle's argmax."""
        rounded = (1.0 + beta) - beta
        assert rounded > 1.0 if above_one else rounded < 1.0
        ds = split(gen_scenario1(1000, seed=4), [0.6, 0.4], seed=0)[0]
        pol = HumanPolicy(UtilityParams(beta, 0.5, 1.0))
        grid = LinearGrid(n_angles=24, n_offsets=41)
        got = _score_grid(ds, "expected_utility", pol, grid)
        want = dense_score_grid(ds, "expected_utility", pol, grid)
        evaluated = got.view(np.int64) == want.view(np.int64)
        assert np.all(got[~evaluated] >= want[~evaluated])
        assert np.all(got[~evaluated] < got.max())
        assert_is_candidate(exhaustive_search(ds, "expected_utility", pol, grid), grid, np.argmax(want))


def lattice_problem():
    """Half-integer lattice labelled by the sign of x1, each point three
    times: projections repeat, and at sharpness 300 the offsets 0.125, 0.25
    and 0.375 all separate it with saturated probabilities."""
    ticks = np.arange(-2.0, 2.5, 0.5)
    X = np.array([(a, b) for a in ticks for b in ticks] * 3)
    ds = Dataset(
        features=X, labels=(X[:, 0] > 0.0).astype(np.int64), feature_names=("x1", "x2")
    )
    return ds, LinearGrid(
        n_angles=4, n_offsets=17, offset_range=(-1.0, 1.0), sharpness=(1.0, 300.0)
    )


class TestPruning:
    """The expected-utility search evaluates densely only the candidates
    whose count bound can reach the maximum."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        calls = []
        dense = exhaustive_module._expected_sum

        def counted(*args):
            calls.append(args)
            return dense(*args)

        monkeypatch.setattr(exhaustive_module, "_expected_sum", counted)
        return calls

    def test_few_candidates_are_evaluated(self, evaluated):
        (ds,) = standardize(gen_scenario1(2000, seed=0))
        grid = LinearGrid(n_angles=24)
        model = exhaustive_search(ds, "expected_utility", policy(), grid)
        assert 0 < len(evaluated) < 0.05 * grid.n_candidates
        assert_is_candidate(
            model, grid, np.argmax(dense_score_grid(ds, "expected_utility", policy(), grid))
        )

    def test_never_accept_evaluates_every_candidate_and_returns_the_first(self, evaluated):
        ds = gen_scenario1(200, seed=2)
        grid = LinearGrid(n_angles=6, n_offsets=7, sharpness=(1.0, 4.0))
        # threshold 1.5 - 0.5/2 = 1.25 > 1: every example is solved, so every
        # candidate scores the solve utility and all of them tie
        never = HumanPolicy(unchecked_params(1.0, 0.5, 1.5))
        model = exhaustive_search(ds, "expected_utility", never, grid)
        assert len(evaluated) == grid.n_candidates
        assert_is_candidate(model, grid, 0)

    def test_tied_maxima_on_a_lattice_go_to_the_first(self):
        # the saturated separating offsets' scores tie exactly
        ds, grid = lattice_problem()
        want = dense_score_grid(ds, "expected_utility", policy(), grid)
        assert np.count_nonzero(want == want.max()) >= 3
        model = exhaustive_search(ds, "expected_utility", policy(), grid)
        assert_is_candidate(model, grid, np.argmax(want))
        assert model.bias[0] == -300.0 * 0.125


def single_example_problem():
    ds = Dataset(
        features=np.array([[0.3, -1.2]]), labels=np.array([1]), feature_names=("x1", "x2")
    )
    return ds, LinearGrid(n_angles=3, n_offsets=5, sharpness=(0.25, 300.0))


# c = 1 exactly: only saturated probabilities are accepted
CERTAIN = HumanPolicy(UtilityParams(1.0, 0.0, 1.0))
# c = 0.25 <= 1/2, every example accepted; c = 1.25 > 1, none is
ALWAYS = HumanPolicy(UtilityParams(1.0, 1.5, 1.0), 0.6)
NEVER = HumanPolicy(unchecked_params(1.0, 0.5, 1.5))

count_policies = policies() | st.builds(
    lambda beta, p: HumanPolicy(UtilityParams(beta, 0.0, 1.0), p),
    st.floats(1.0, 10.0), st.floats(0.01, 1.0),
)


def count_passes(dataset, grid, pol):
    """The guessing count pass, the bisection oracle, and the projections
    of the data on each of the grid's angles."""
    args = (dataset.labels, grid.offsets(), np.asarray(grid.sharpness), pol)
    projections = [
        dataset.features @ np.array([np.cos(angle), np.sin(angle)]) for angle in grid.angles()
    ]
    return _CountPass(*args), BisectionCountPass(*args), projections


class TestCountPass:
    """The count pass guesses each boundary at its crossing point; the
    predicates decide it, so the counts are the bisection oracle's."""

    @settings(max_examples=80, deadline=None)
    @given(problem=search_problems(), pol=count_policies)
    @example(problem=lattice_problem(), pol=policy())
    @example(problem=lattice_problem(), pol=CERTAIN)
    @example(problem=single_example_problem(), pol=CERTAIN)
    @example(problem=single_example_problem(), pol=ALWAYS)
    @example(problem=lattice_problem(), pol=NEVER)
    def test_counts_equal_the_bisection_oracle(self, problem, pol):
        count, oracle, projections = count_passes(*problem, pol)
        for proj in projections:
            assert np.array_equal(count(proj), oracle(proj))

    @settings(max_examples=60, deadline=None)
    @given(
        problem=search_problems(), pol=count_policies,
        kind=st.sampled_from(["random", "out of range", "lo", "hi"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(problem=lattice_problem(), pol=CERTAIN, kind="random", seed=0)
    def test_any_guess_gives_the_oracle_index(self, problem, pol, kind, seed):
        count, oracle, projections = count_passes(*problem, pol)
        proj = projections[0]
        count(proj)
        oracle(proj)
        n, m = len(proj), len(count.offsets)
        rng = np.random.default_rng(seed)
        start, end = np.zeros(m, dtype=np.intp), np.full(m, n)
        switch = oracle._first(oracle._predicts_positive, start, end)
        for name, lo, hi in (
            ("_predicts_positive", start, end),
            ("_solved", start, switch),
            ("_accepted", switch, end),
        ):
            guess = {
                "random": rng.integers(0, n, size=m, endpoint=True),
                "out of range": np.where(
                    rng.random(m) < 0.5,
                    rng.integers(-n - 3, 0, size=m),
                    rng.integers(n + 1, 2 * n + 4, size=m),
                ),
                "lo": lo,
                "hi": hi,
            }[kind]
            got = count._first(getattr(count, name), lo, hi, guess)
            assert np.array_equal(got, oracle._first(getattr(oracle, name), lo, hi))

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_no_candidate_bisects_on_scenario1(self, monkeypatch, objective):
        # one predicate call per boundary and angle confirms every guess
        calls = []
        probs = _CountPass._probs

        def counted(self, index, cand=slice(None)):
            calls.append(index.shape)
            return probs(self, index, cand)

        monkeypatch.setattr(_CountPass, "_probs", counted)
        (ds,) = standardize(gen_scenario1(2000, seed=0))
        grid = LinearGrid(n_angles=24)
        exhaustive_search(ds, objective, policy(), grid)
        assert len(calls) == 3 * grid.n_angles
        assert all(shape[0] == 2 for shape in calls)
