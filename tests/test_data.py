import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthlab import data, nn
from stealthlab.errors import LabelError, ParseError, SchemaError
from stealthlab.rng import derive_rng


def tiny_dataset(n_per_class=6, seed=0):
    spec = data.SyntheticSpec(samples_per_class=n_per_class, separation=0.3,
                              std=0.05, seed=seed)
    return data.synth_generate(spec)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "data.csv"
        data.save_csv(path, ds)
        loaded = data.load_csv(path)
        assert loaded.n == ds.n
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.features, ds.features)
        assert loaded.feature_names == ds.feature_names

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        names = ",".join(f"f{i:02d}" for i in range(30))
        path.write_text(names + "\n" + ",".join(["0.5"] * 30) + "\n")
        with pytest.raises(SchemaError):
            data.load_csv(path)

    def test_wrong_feature_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        names = ",".join(f"f{i:02d}" for i in range(29)) + ",label"
        path.write_text(names + "\n" + ",".join(["0.5"] * 29) + ",benign\n")
        with pytest.raises(SchemaError):
            data.load_csv(path)

    def test_non_numeric_cell_names_position(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "data.csv"
        data.save_csv(path, ds)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[5] = "oops"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            data.load_csv(path)
        assert "row" in str(err.value) and "col" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity"])
    def test_non_finite_cell_names_position(self, tmp_path, cell):
        ds = tiny_dataset()
        path = tmp_path / "data.csv"
        data.save_csv(path, ds)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[7] = cell
        lines[3] = ",".join(cells)
        # blank rows are skipped but still count towards the row number
        lines[1:1] = ["", ""]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match="row 6, column 'f07': non-finite"):
            data.load_csv(path)

    def test_unknown_label_rejected(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "data.csv"
        data.save_csv(path, ds)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = "martian"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LabelError):
            data.load_csv(path)

    def test_label_column_any_position_case_insensitive(self, tmp_path):
        path = tmp_path / "data.csv"
        names = ["Label"] + [f"f{i:02d}" for i in range(30)]
        row = ["deauth"] + ["0.25"] * 30
        path.write_text(",".join(names) + "\n" + ",".join(row) + "\n")
        ds = data.load_csv(path)
        assert ds.n == 1
        assert ds.labels[0] == data.CLASS_NAMES.index("deauth")


class TestScaler:
    def test_basic_mapping(self):
        ds = data.Dataset(
            np.tile(np.array([[2.0], [4.0], [6.0]]), (1, 30)),
            np.array([0, 1, 2]), data.default_feature_names(),
            list(data.CLASS_NAMES))
        params = data.fit_minmax(ds)
        scaled = data.apply_minmax(ds, params)
        assert np.allclose(scaled.features[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = data.Dataset(
            np.full((4, 30), 7.0), np.array([0, 1, 2, 3]),
            data.default_feature_names(), list(data.CLASS_NAMES))
        params = data.fit_minmax(ds)
        scaled = data.apply_minmax(ds, params)
        assert np.all(scaled.features == 0.0)

    def test_apply_then_invert_round_trip(self, rng):
        features = rng.uniform(-3.0, 9.0, size=(20, 30))
        ds = data.Dataset(features, np.zeros(20, dtype=np.int64),
                          data.default_feature_names(), list(data.CLASS_NAMES))
        params = data.fit_minmax(ds)
        scaled = data.apply_minmax(ds, params)
        back = data.invert_minmax(scaled, params)
        assert np.abs(back.features - features).max() < 1e-12

    def test_out_of_range_values_clip(self):
        train = data.Dataset(
            np.tile(np.array([[0.0], [1.0]]), (1, 30)), np.array([0, 1]),
            data.default_feature_names(), list(data.CLASS_NAMES))
        params = data.fit_minmax(train)
        test = data.Dataset(
            np.full((1, 30), 2.0), np.array([0]),
            data.default_feature_names(), list(data.CLASS_NAMES))
        scaled = data.apply_minmax(test, params)
        assert np.all(scaled.features <= 1.0)
        assert np.all(scaled.features >= 0.0)

    def test_refit_on_scaled_data_is_identity(self, rng):
        features = rng.uniform(-3.0, 9.0, size=(50, 30))
        ds = data.Dataset(features, np.zeros(50, dtype=np.int64),
                          data.default_feature_names(), list(data.CLASS_NAMES))
        scaled = data.apply_minmax(ds, data.fit_minmax(ds))
        again = data.fit_minmax(scaled)
        assert np.allclose(again.mins, 0.0, atol=1e-15)
        assert np.allclose(again.maxs, 1.0, atol=1e-15)
        rescaled = data.apply_minmax(scaled, again)
        assert np.abs(rescaled.features - scaled.features).max() < 1e-12

    def test_scaled_output_is_a_fixed_point(self, rng):
        # scaling already-scaled data (params fit on it) changes nothing
        features = rng.uniform(-3.0, 9.0, size=(40, 30))
        features[:, 7] = 2.5      # constant column stays a fixed point too
        ds = data.Dataset(features, np.zeros(40, dtype=np.int64),
                          data.default_feature_names(), list(data.CLASS_NAMES))
        once = data.apply_minmax(ds, data.fit_minmax(ds))
        twice = data.apply_minmax(once, data.fit_minmax(once))
        assert np.array_equal(once.features, twice.features)

    def test_save_load_round_trip(self, tmp_path, rng):
        features = rng.uniform(size=(10, 30))
        ds = data.Dataset(features, np.zeros(10, dtype=np.int64),
                          data.default_feature_names(), list(data.CLASS_NAMES))
        params = data.fit_minmax(ds)
        path = tmp_path / "scaler.json"
        data.save_scaler(path, params)
        loaded = data.load_scaler(path)
        assert loaded.feature_names == params.feature_names
        assert np.array_equal(loaded.mins, params.mins)
        assert np.array_equal(loaded.maxs, params.maxs)


class TestSplit:
    def test_per_class_counts(self):
        spec = data.SyntheticSpec(samples_per_class=20, separation=0.3,
                                  std=0.05, seed=1)
        ds = data.synth_generate(spec)
        train, test = data.stratified_split(ds, 0.8, seed=2)
        for c in range(5):
            assert len(train.class_rows(c)) == 16
            assert len(test.class_rows(c)) == 4

    def test_same_seed_identical(self):
        ds = tiny_dataset(20)
        a_train, a_test = data.stratified_split(ds, 0.8, seed=9)
        b_train, b_test = data.stratified_split(ds, 0.8, seed=9)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_partition(self):
        ds = tiny_dataset(12)
        train, test = data.stratified_split(ds, 0.8, seed=3)
        assert train.n + test.n == ds.n
        combined = np.vstack([train.features, test.features])
        assert (np.sort(combined.reshape(-1))
                == np.sort(ds.features.reshape(-1))).all()

    def test_small_class_rejected(self):
        ds = tiny_dataset(4)
        with pytest.raises(ValueError):
            data.stratified_split(ds, 0.8, seed=0)

    @given(st.integers(6, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fraction_within_one_sample(self, n_per_class, seed):
        ds = tiny_dataset(n_per_class, seed=1)
        train, _ = data.stratified_split(ds, 0.8, seed=seed)
        for c in range(5):
            got = len(train.class_rows(c))
            assert abs(got - 0.8 * n_per_class) <= 1.0


class TestSynthetic:
    def test_seed_determinism(self):
        spec = data.SyntheticSpec(samples_per_class=50, separation=0.2,
                                  std=0.05, seed=77)
        a = data.synth_generate(spec)
        b = data.synth_generate(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_row_count(self):
        spec = data.SyntheticSpec(samples_per_class=100, separation=0.2,
                                  std=0.05, seed=0)
        assert data.synth_generate(spec).n == 500

    def test_values_in_unit_cube(self):
        spec = data.SyntheticSpec(samples_per_class=100, separation=0.6,
                                  std=0.3, seed=0)
        ds = data.synth_generate(spec)
        assert ds.features.min() >= 0.0
        assert ds.features.max() <= 1.0

    def test_wide_separation_linearly_separable(self):
        # one-layer softmax as the linear oracle, mean gap 8x the std
        spec = data.SyntheticSpec(samples_per_class=60, separation=0.4,
                                  std=0.05, seed=5)
        ds = data.synth_generate(spec)
        train, test = data.stratified_split(ds, 0.8, seed=6)
        net = nn.build_mlp([30, 5], ["softmax"], derive_rng(7, "oracle"))
        state = nn.adam_init(net.params(), 0.05)
        for _ in range(200):
            net.forward(train.features, keep_cache=True)
            _, d_logits = nn.softmax_cross_entropy(net.cached_logits(),
                                                   train.labels)
            grads, _ = net.backward(d_logits, from_logits=True)
            nn.adam_step(state, net.params(), grads)
        pred = np.argmax(net.forward(test.features), axis=1)
        assert (pred == test.labels).mean() == 1.0

    def test_per_class_covariance_nearly_diagonal(self):
        spec = data.SyntheticSpec(samples_per_class=100, separation=0.2,
                                  std=0.05, seed=13)
        ds = data.synth_generate(spec)
        for c in range(5):
            block = ds.features[ds.class_rows(c)]
            corr = np.corrcoef(block, rowvar=False)
            off = corr - np.diag(np.diag(corr))
            assert np.abs(off).max() < 0.5
            # typical off-diagonal correlation is sampling noise scale
            assert np.abs(off).mean() < 0.1

    def test_attack_classes_distinct_means(self):
        means = data.synthetic_class_means(0.1)
        for a in range(1, 5):
            for b in range(a + 1, 5):
                assert np.abs(means[a] - means[b]).max() > 0.05

    def test_one_hot(self):
        hot = data.one_hot(np.array([0, 2]), 5)
        assert hot.shape == (2, 5)
        assert hot[0, 0] == 1.0 and hot[0].sum() == 1.0
        assert hot[1, 2] == 1.0 and hot[1].sum() == 1.0


REAL_CSV = os.environ.get("STEALTHLAB_DATASET_CSV")


@pytest.mark.skipif(not REAL_CSV, reason="STEALTHLAB_DATASET_CSV not set")
def test_real_dataset_row_count():
    ds = data.load_csv(REAL_CSV)
    assert ds.n == 12514
