"""Generators, CSV ingestion, splitting, and standardization."""

import csv
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import save_csv_rows
from teamopt import data as data_module
from teamopt.analysis import evaluate
from teamopt.classifiers import Model
from teamopt.data import (
    Dataset,
    IngestionError,
    gen_moons,
    gen_scenario1,
    load_csv,
    save_csv,
    select_features,
    split,
    standardize,
)
from teamopt.data import _load_parsed, _load_rows
from teamopt.team_model import HumanPolicy, UtilityParams


class TestScenario1:
    def test_positive_fraction(self):
        ds = gen_scenario1(10000, seed=1)
        assert 0.41 <= ds.positive_fraction <= 0.45
        assert ds.positive_fraction == pytest.approx(0.43, abs=1e-3)

    def test_deterministic(self):
        a = gen_scenario1(500, seed=9)
        b = gen_scenario1(500, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_scenario1(99)

    def test_blob_allocation(self):
        ds = gen_scenario1(10000, seed=3)
        blobs = data_module._BLOBS
        centers = np.array([center for center, _, _ in blobs])
        # (points, blobs): the point lies in the blob's square
        inside = (
            np.max(np.abs(ds.features[:, None, :] - centers), axis=2)
            <= data_module._HALF_WIDTH + 1e-12
        )
        assert np.all(inside.sum(axis=1) == 1)
        blob = inside.argmax(axis=1)
        assert np.array_equal(ds.labels, np.array([label for _, label, _ in blobs])[blob])
        assert np.count_nonzero(ds.labels == 1) == 4300
        # the embedded blob carries half the standard negative count
        counts = np.bincount(blob, minlength=len(blobs))
        embedded = [center for center, _, _ in blobs].index((2.0, 0.0))
        assert counts[embedded] == pytest.approx(counts[0] / 2, abs=1.0)

    def test_accuracy_utility_tradeoff_with_fixed_predictors(self):
        # A soft boundary left of the near-boundary positive blob is the more
        # accurate model; a hard boundary cutting through that blob is less
        # accurate yet earns more team utility.
        ds = gen_scenario1(10000, seed=5)
        policy = HumanPolicy(UtilityParams(1.0, 0.5, 1.0))
        soft_accurate = Model([(np.array([0.8, 0.0]), np.array([0.8 * 0.5]))])
        hard_cutting = Model([(np.array([16.0, 0.0]), np.array([-16.0 * 0.4]))])
        m_soft = evaluate(soft_accurate, ds, policy)
        m_hard = evaluate(hard_cutting, ds, policy)
        assert m_soft.accuracy > m_hard.accuracy
        assert m_soft.expected_utility < m_hard.expected_utility


@pytest.fixture(scope="module")
def trained_vs_searched():
    """Both pipelines on the blob layout: per-seed (d_accuracy, d_eu) of the
    expected-utility exhaustive search against the trained log-loss model."""
    from dataclasses import replace

    from teamopt.classifiers import init_model
    from teamopt.exhaustive import LinearGrid, exhaustive_search
    from teamopt.losses import LossSpec
    from teamopt.optim import TrainConfig, train
    from teamopt.pipeline import seed_splits

    ds = gen_scenario1(4000, seed=1)
    pol = HumanPolicy(UtilityParams(1.0, 0.5, 1.0))
    config = TrainConfig(learning_rate=0.1, l2_weight=1e-3, batch_size=32, max_epochs=60)
    grid = LinearGrid(n_angles=60, n_offsets=41, sharpness=(0.25, 0.5, 1, 2, 4, 8, 16))
    deltas = []
    for seed in range(10):
        train80, fit, val, test, baseline_seed, _ = seed_splits(ds, seed)
        baseline = train(
            init_model("linear", 2, seed=baseline_seed), fit, val,
            LossSpec("log_loss", pol),
            replace(config, checkpoint_metric="accuracy", seed=baseline_seed),
        ).best_model
        searched = exhaustive_search(train80, "expected_utility", pol, grid)
        mb = evaluate(baseline, test, pol)
        ms = evaluate(searched, test, pol)
        deltas.append((ms.accuracy - mb.accuracy, ms.expected_utility - mb.expected_utility))
    return deltas


class TestPipelineComparison:
    def test_utility_search_improves_expected_utility(self, trained_vs_searched):
        improved = sum(d_eu > 0 for _, d_eu in trained_vs_searched)
        assert improved >= 8

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "On this fixed blob layout the embedded negative blob is not "
            "linearly separable, so the log-loss optimum drags the boundary "
            "into the boundary-adjacent positive blob and the trained "
            "reference loses accuracy AND utility together; the "
            "utility-searched model is more accurate on every seed (measured "
            "0/10 opposite-sign). The accuracy/utility trade-off does hold "
            "for fixed predictors, see "
            "TestScenario1.test_accuracy_utility_tradeoff_with_fixed_predictors."
        ),
    )
    def test_accuracy_and_utility_deltas_have_opposite_signs(self, trained_vs_searched):
        opposite = sum(
            (d_acc != 0.0 and d_eu != 0.0 and (d_acc < 0.0) != (d_eu < 0.0))
            for d_acc, d_eu in trained_vs_searched
        )
        assert opposite >= 7


class TestMoons:
    def test_positive_fraction_exact(self):
        ds = gen_moons(10000, seed=1)
        assert ds.positive_fraction == 0.5

    def test_deterministic(self):
        a = gen_moons(400, seed=2)
        b = gen_moons(400, seed=2)
        assert np.array_equal(a.features, b.features)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            gen_moons(501)
        with pytest.raises(ValueError):
            gen_moons(50)

    def test_zero_noise_lies_on_arcs(self):
        ds = gen_moons(200, noise_std=0.0, seed=3)
        pts0 = ds.features[ds.labels == 0]
        radii = np.linalg.norm(pts0, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)
        pts1 = ds.features[ds.labels == 1]
        radii1 = np.linalg.norm(pts1 - np.array([1.0, 0.5]), axis=1)
        np.testing.assert_allclose(radii1, 1.0, atol=1e-12)

    def test_zero_noise_mlp_separates_perfectly(self):
        from teamopt.classifiers import init_model
        from teamopt.losses import LossSpec
        from teamopt.optim import TrainConfig, train

        ds = gen_moons(600, noise_std=0.0, seed=5)
        tr, te = split(ds, (0.8, 0.2), seed=0)
        tr, te = standardize(tr, te)
        fit, val = split(tr, (0.8, 0.2), seed=1)
        config = TrainConfig(
            learning_rate=0.01, l2_weight=0.0, batch_size=32, max_epochs=80, seed=0
        )
        result = train(init_model("mlp", 2, seed=0), fit, val, LossSpec("log_loss"), config)
        policy = HumanPolicy(UtilityParams(1.0, 0.5, 1.0))
        assert evaluate(result.best_model, te, policy).accuracy == 1.0


def _outcome(load):
    """What a loader gives: the Dataset's exact bits, or the error message."""
    try:
        ds = load()
    except IngestionError as exc:
        return ("error", str(exc))
    return (
        ds.features.shape, ds.features.dtype, ds.features.tobytes(),
        ds.labels.dtype, ds.labels.tobytes(), ds.feature_names,
    )


@contextmanager
def _field_size_limit(limit):
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


_CLEAN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "1", "-0", "2", "-3.25", ".5", "5.", "+1", "1E-3", " 4 ", "\t0"]),
)
_CLEAN_LABELS = st.sampled_from(["0", "1", "1.0", "-0", "0e3", " 1"])
_DIRTY_CELLS = st.sampled_from([
    "", " ", "abc", "inf", "-inf", "nan", "NaN", "1e400", "-1e400", "Infinity",
    "\x0c1", "1\x0b", "\u00a01", "1\u2003", "\u20281", "1\x85",
    "1_0", "1__0", "_1", "\u0661", "\u0660", "\uff11",
    '"1"', '"0', '1"', '"1,2"', '""', '"1\n2"', "\ufeff1", "1\x00",
    "\x1c1", "0\x1d", "\x1e0", "1\x1f", "0x10", "1 2", "1e", "+-1", "1j", "1\r2",
])
_BAD_LABELS = st.sampled_from(["2", "0.5", "-1", "x", "nan", "inf", "", "1e400", "\u0661"])
_HEADER_NAMES = st.sampled_from(
    ["a", "label", "\ufefflabel", '"label"', '"la,bel"', "lab el", " label", ""]
)
_TRAPS = ("cell", "label", "header", "ragged", "width", "blank", "bom", "lone_cr")


@st.composite
def csv_texts(draw, clean=False):
    """CSV text built to probe where loadtxt and csv + float() could part
    ways: CRLF, LF and lone CR line ends, a missing final newline, blank and
    whitespace-only lines, quotes, a BOM, underscores, non-ASCII digits and
    spaces, separator characters, non-finite values, bad labels, ragged
    rows, and the label column at any position, alone or missing. A clean
    file is well formed; any other carries up to three traps."""
    n_features = draw(st.integers(0, 3))
    header = [draw(st.sampled_from(["a", "b", "x1", "x 2"])) for _ in range(n_features)]
    label_at = draw(st.integers(0, len(header)))
    header.insert(label_at, "label")
    rows = [[draw(_CLEAN_CELLS) for _ in header] for _ in range(draw(st.integers(1, 6)))]
    for row in rows:
        row[label_at] = draw(_CLEAN_LABELS)
    ends = ["\n", "\r\n"]
    traps = [] if clean else draw(st.lists(st.sampled_from(_TRAPS), max_size=3))
    blank_at = []
    for trap in traps:
        r = draw(st.integers(0, len(rows) - 1))
        if trap == "cell" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(_DIRTY_CELLS)
        elif trap == "label" and label_at < len(rows[r]):
            rows[r][label_at] = draw(_BAD_LABELS)
        elif trap == "header":
            header[draw(st.integers(0, len(header) - 1))] = draw(_HEADER_NAMES)
        elif trap == "ragged":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
        elif trap == "width":
            rows = [row + ["0"] for row in rows]
        elif trap == "blank":
            at = draw(st.integers(0, len(rows)))
            blank_at.append((at, draw(st.sampled_from(["", " ", "\t", "\r"]))))
        elif trap == "lone_cr":
            ends.append("\r")
    if not clean and draw(st.integers(0, 7)) == 0:
        rows = []  # an empty body, or one of only blank lines
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for at, blank in sorted(blank_at, reverse=True):
        lines.insert(1 + min(at, len(rows)), blank)
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if "bom" in traps:
        text = "\ufeff" + text
    return text


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        ds = gen_moons(200, seed=4)
        path = tmp_path / "moons.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.feature_names == ds.feature_names

    def test_small_well_formed_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,1\n")
        ds = load_csv(path)
        assert ds.n_examples == 3
        assert ds.feature_names == ("a", "b")
        assert list(ds.labels) == [0, 1, 1]

    def test_bad_label_cites_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1,0\n2,2\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\n1,0\nfoo,1\n")
        with pytest.raises(IngestionError, match=r"row 3, column 'a'"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(IngestionError, match="label"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,label\ninf,0\n")
        with pytest.raises(IngestionError, match="non-finite"):
            load_csv(path)

    def test_cell_over_the_field_size_limit_cites_row(self, tmp_path):
        path = tmp_path / "t.csv"
        long_cell = "0." + "0" * csv.field_size_limit()
        path.write_text(f"a,label\n1,0\n{long_cell},1\n")
        with pytest.raises(IngestionError, match=r"t\.csv: row 3: field larger than field limit"):
            load_csv(path)

    def test_header_over_the_field_size_limit_cites_row_1(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a" * (csv.field_size_limit() + 1) + ",label\n1,0\n")
        with pytest.raises(IngestionError, match=r"t\.csv: row 1: field larger"):
            load_csv(path)

    def test_save_csv_files_take_the_single_parse(self, tmp_path):
        ds = gen_scenario1(300, seed=2)
        path = tmp_path / "s.csv"
        save_csv(ds, path)
        assert b"\r\n" in path.read_bytes()
        parsed = _load_parsed(path, "label")
        assert parsed is not None
        assert parsed.features.flags.c_contiguous
        assert parsed.features.tobytes() == ds.features.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        [
            "a,label\n1,0\n\n", "a,label\n\n1,0\n", "a,label\n\n", "a,label\r\n\r\n",
            "a,label\n", "a,label", "label\n1\n\r\n", "label\n0\n \n", "label\n0\n\r",
            "a,label\r\n1,0\r2,1\r\n", "a,label\n1,0\r\r\n", "a,label\n1,0\r",
            'a,label\n"1",0\n', 'a,label\n"1\n2",0\n', "\ufeffa,label\n1,0\n",
            "a,label\n1_0,0\n", "a,label\n\u0661,0\n", "a,label\n\u00a01\u2003,0\n",
            "a,label\n1\x1c,0\n", "a,label\ninf,0\n", "a,label\n1e400,0\n",
            "a,label\n1,2\n", "a,label\n1,0,3\n", "a,label\n1,0\n2\n",
        ],
    )
    def test_probed_differences_match_the_row_loop(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(lambda: load_csv(path)) == _outcome(lambda: _load_rows(path))

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), limit=st.sampled_from([None, 4, 7]))
    def test_single_parse_matches_the_row_loop(self, text, limit):
        """The same Dataset bits, or the same IngestionError message."""
        with _field_size_limit(limit), tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(lambda: load_csv(path)) == _outcome(lambda: _load_rows(path))

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150, deadline=None)
    @given(text=csv_texts(clean=True))
    def test_clean_files_are_not_sent_to_the_row_loop(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            parsed = _load_parsed(path, "label")
            assert parsed is not None
            assert _outcome(lambda: parsed) == _outcome(lambda: _load_rows(path))


# names that csv must quote, and one that needs no quoting
NAMES = ("x1", "a,b", 'say "hi"', "two\nlines", "cr\rreturn", " padded ", "\u00fcml\u00e4ut")
EDGE_VALUES = (-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308, 0.1)


@st.composite
def saved_datasets(draw):
    """(dataset, label column) pairs for the save_csv tests: 1 to 5
    features, values including -0.0, subnormals and +-1e308, feature names
    that need quoting, labels of several dtypes, and label columns other
    than "label"."""
    n = draw(st.sampled_from([1, 2, 7]) | st.integers(1, 40))
    d = draw(st.sampled_from([1, 5]) | st.integers(1, 5))
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    label_column = draw(st.sampled_from(["label", "y", "the, label", 'q"uote']))
    names = draw(st.lists(st.sampled_from(NAMES), min_size=d, max_size=d, unique=True))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.bool_, np.float64]))
    dataset = Dataset(
        features=np.array(rows, dtype=np.float64), labels=labels.astype(dtype),
        feature_names=tuple(names),
    )
    return dataset, label_column


class TestSaveCsv:
    """save_csv formats a chunk of rows at a time and writes the bytes of
    the row-by-row writer."""

    @settings(max_examples=150, deadline=None)
    @given(saved=saved_datasets(), chunk=st.sampled_from([1, 3, data_module._SAVE_ROWS]))
    def test_bytes_equal_the_row_loop_and_load_back_exactly(self, saved, chunk):
        dataset, label_column = saved
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            with mock.patch.object(data_module, "_SAVE_ROWS", chunk):
                save_csv(dataset, got, label_column)
            save_csv_rows(dataset, want, label_column)
            assert got.read_bytes() == want.read_bytes()
            loaded = load_csv(got, label_column)
        assert loaded.features.tobytes() == dataset.features.tobytes()
        assert np.array_equal(loaded.labels, dataset.labels)
        assert loaded.feature_names == dataset.feature_names

    def test_bytes_across_chunk_edges(self, tmp_path):
        ds = gen_scenario1(2 * data_module._SAVE_ROWS + 1, seed=3)
        save_csv(ds, tmp_path / "got.csv")
        save_csv_rows(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestSplit:
    def test_sizes(self):
        ds = gen_moons(1000, seed=1)
        tr, te = split(ds, (0.8, 0.2), seed=0)
        assert tr.n_examples == 800
        assert te.n_examples == 200

    def test_partition_covers_everything(self):
        ds = gen_moons(300, seed=1)
        parts = split(ds, (0.5, 0.3, 0.2), seed=7)
        stacked = np.concatenate([p.features for p in parts])
        assert stacked.shape[0] == 300
        assert len(np.unique(stacked, axis=0)) == len(np.unique(ds.features, axis=0))

    def test_validation(self):
        ds = gen_moons(100, seed=1)
        with pytest.raises(ValueError):
            split(ds, (0.7, 0.2), seed=0)
        with pytest.raises(ValueError):
            split(ds, (0.999, 0.001), seed=0)  # empty second piece


class TestStandardize:
    def test_train_moments(self):
        ds = gen_scenario1(1000, seed=2)
        (std_ds,) = standardize(ds)
        assert np.all(np.abs(std_ds.features.mean(axis=0)) < 1e-10)
        np.testing.assert_allclose(std_ds.features.std(axis=0), 1.0, atol=1e-10)

    def test_others_use_train_statistics(self):
        train_ds = gen_scenario1(500, seed=3)
        test_ds = gen_moons(200, seed=4)
        tr, te = standardize(train_ds, test_ds)
        mean = train_ds.features.mean(axis=0)
        std = train_ds.features.std(axis=0)
        np.testing.assert_array_equal(te.features, (test_ds.features - mean) / std)
        assert np.array_equal(te.norm_mean, mean)
        assert np.array_equal(te.norm_std, std)

    def test_zero_variance_column_unchanged(self):
        X = np.column_stack([np.ones(50), np.arange(50.0)])
        ds = Dataset(features=X, labels=np.zeros(50, dtype=np.int64), feature_names=("c", "v"))
        (out,) = standardize(ds)
        assert np.array_equal(out.features[:, 0], X[:, 0])


class TestSelectFeatures:
    def test_projection(self):
        ds = gen_scenario1(200, seed=6)
        sub = select_features(ds, (1, 0))
        assert np.array_equal(sub.features[:, 0], ds.features[:, 1])
        assert sub.feature_names == ("x2", "x1")
