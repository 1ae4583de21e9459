import dataclasses
import os
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthlab import cli, data, nn
from stealthlab.attack import SweepConfig
from stealthlab.cgan import GanConfig
from stealthlab.cvae import CvaeTrainConfig
from stealthlab.data import DatasetConfig
from stealthlab.detect import DetectConfig, RegretConfig
from stealthlab.ids import IdsTrainConfig
from stealthlab.errors import ParseError
from stealthlab.rng import derive_rng


def tiny_dataset(n_per_class=6, seed=0):
    spec = data.DatasetConfig(samples_per_class=n_per_class, separation=0.3,
                              std=0.05)
    return data.synth_generate(spec, seed)


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
        with pytest.raises(ParseError, match="missing column 'label'"):
            data.load_csv(path)

    def test_wrong_feature_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        names = ",".join(f"f{i:02d}" for i in range(29)) + ",label"
        path.write_text(names + "\n" + ",".join(["0.5"] * 29) + ",benign\n")
        with pytest.raises(ParseError,
                           match="expected 30 feature columns, found 29"):
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

    def test_round_trip_is_bitwise(self, tmp_path):
        values = [5e-324, -0.0, 0.1, 1 / 3, 1e-05, 2.220446049250313e-16,
                  1.7976931348623157e308]
        # every value in every column, one row per shift
        features = np.resize(values, (len(values), data.N_FEATURES))
        ds = data.Dataset(features, np.arange(len(values)) % data.N_CLASSES,
                          data.default_feature_names())
        path = tmp_path / "data.csv"
        data.save_csv(path, ds)
        loaded = data.load_csv(path)
        assert np.array_equal(loaded.features.view(np.int64),
                              ds.features.view(np.int64))
        assert np.array_equal(loaded.labels, ds.labels)

    def test_cells_padded_with_spaces_load(self, tmp_path):
        path = tmp_path / "data.csv"
        names = data.default_feature_names() + ["label"]
        row = [" 0.5 "] * data.N_FEATURES + [" deauth "]
        path.write_text(",".join(names) + "\n" + ",".join(row) + "\n")
        ds = data.load_csv(path)
        assert np.all(ds.features == 0.5)
        assert ds.labels.tolist() == [data.CLASS_NAMES.index("deauth")]

    def test_read_csv_skips_and_counts_blank_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("a,b\r\n1,2\r\n\r\n3,4\r\n")
        rows = data.read_csv(path)
        assert next(rows) == ["a", "b"]
        assert list(rows) == [(2, ["1", "2"]), (4, ["3", "4"])]
        path.write_text("")
        assert list(data.read_csv(path)) == [None]

    def test_read_csv_row_of_another_width(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("a,b\n1,2\n\n3\n")
        with pytest.raises(ParseError, match="row 4 has 1 cells, expected 2"):
            list(data.read_csv(path))

    def test_unknown_label_rejected(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "data.csv"
        data.save_csv(path, ds)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = "martian"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match="row 2: unknown label 'martian'"):
            data.load_csv(path)

    @pytest.mark.parametrize("twice", ["f07", "label", "LABEL"])
    def test_header_naming_a_column_twice_rejected(self, tmp_path, twice):
        path = tmp_path / "data.csv"
        names = [f"f{i:02d}" for i in range(29)] + ["label", twice]
        row = ["0.25"] * 29 + ["benign", "0.25"]
        path.write_text(",".join(names) + "\n" + ",".join(row) + "\n")
        with pytest.raises(ParseError,
                           match=f"data.csv: repeated column '{twice}'"):
            data.load_csv(path)

    def test_label_column_any_position_case_insensitive(self, tmp_path):
        path = tmp_path / "data.csv"
        names = ["Label"] + [f"f{i:02d}" for i in range(30)]
        row = ["deauth"] + ["0.25"] * 30
        path.write_text(",".join(names) + "\n" + ",".join(row) + "\n")
        ds = data.load_csv(path)
        assert ds.n == 1
        assert ds.labels[0] == data.CLASS_NAMES.index("deauth")

    @pytest.mark.parametrize("label_first", [False, True],
                             ids=["feature-first", "label-first"])
    def test_byte_order_mark_is_dropped(self, tmp_path, label_first):
        # spreadsheet programs save "CSV UTF-8" with a leading BOM
        ds, names = tiny_dataset(), data.default_feature_names()
        lines = [names + ["label"]] + [
            [repr(float(v)) for v in row] + [data.CLASS_NAMES[label]]
            for row, label in zip(ds.features, ds.labels)]
        if label_first:
            lines = [line[-1:] + line[:-1] for line in lines]
        text = "".join(",".join(line) + "\r\n" for line in lines)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        want, got = data.load_csv(plain), data.load_csv(marked)
        assert got.feature_names == want.feature_names == names
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("lineterminator, expected", [
        ("\r\n", b'"sample_id, padded",x,y,z,flag,tag\r\n'
                 b'3,0.1,-0.0,inf,true,benign\r\n'
                 b'7,1e-05,2.5,-inf,false,adversarial\r\n'),
        ("\n", b'"sample_id, padded",x,y,z,flag,tag\n'
               b'3,0.1,-0.0,inf,true,benign\n'
               b'7,1e-05,2.5,-inf,false,adversarial\n'),
    ], ids=["crlf", "lf"])
    def test_write_csv_bytes(self, tmp_path, lineterminator, expected):
        path = tmp_path / "table.csv"
        data.write_csv(path, ["sample_id, padded", "x", "y", "z", "flag",
                              "tag"],
                       [[np.int64(3), np.float64(0.1), -0.0, float("inf"),
                         True, "benign"],
                        (7, 1e-05, np.float64(2.5), -np.inf, np.bool_(False),
                         "adversarial")], lineterminator)
        assert path.read_bytes() == expected


class TestScaler:
    def test_basic_mapping(self):
        ds = data.Dataset(
            np.tile(np.array([[2.0], [4.0], [6.0]]), (1, 30)),
            np.array([0, 1, 2]), data.default_feature_names())
        params = data.fit_minmax(ds)
        scaled = data.apply_minmax(ds, params)
        assert np.allclose(scaled.features[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = data.Dataset(
            np.full((4, 30), 7.0), np.array([0, 1, 2, 3]),
            data.default_feature_names())
        params = data.fit_minmax(ds)
        scaled = data.apply_minmax(ds, params)
        assert np.all(scaled.features == 0.0)

    def test_out_of_range_values_clip(self):
        train = data.Dataset(
            np.tile(np.array([[0.0], [1.0]]), (1, 30)), np.array([0, 1]),
            data.default_feature_names())
        params = data.fit_minmax(train)
        test = data.Dataset(
            np.full((1, 30), 2.0), np.array([0]),
            data.default_feature_names())
        scaled = data.apply_minmax(test, params)
        assert np.all(scaled.features <= 1.0)
        assert np.all(scaled.features >= 0.0)

    def test_refit_on_scaled_data_is_identity(self, rng):
        features = rng.uniform(-3.0, 9.0, size=(50, 30))
        ds = data.Dataset(features, np.zeros(50, dtype=np.int64),
                          data.default_feature_names())
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
                          data.default_feature_names())
        once = data.apply_minmax(ds, data.fit_minmax(ds))
        twice = data.apply_minmax(once, data.fit_minmax(once))
        assert np.array_equal(once.features, twice.features)


class TestSplit:
    def test_per_class_counts(self):
        spec = data.DatasetConfig(samples_per_class=20, separation=0.3,
                                  std=0.05)
        ds = data.synth_generate(spec, 1)
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
        spec = data.DatasetConfig(samples_per_class=50, separation=0.2,
                                  std=0.05)
        a = data.synth_generate(spec, 77)
        b = data.synth_generate(spec, 77)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_row_count(self):
        spec = data.DatasetConfig(samples_per_class=100, separation=0.2,
                                  std=0.05)
        assert data.synth_generate(spec, 0).n == 500

    def test_values_in_unit_cube(self):
        spec = data.DatasetConfig(samples_per_class=100, separation=0.6,
                                  std=0.3)
        ds = data.synth_generate(spec, 0)
        assert ds.features.min() >= 0.0
        assert ds.features.max() <= 1.0

    def test_wide_separation_linearly_separable(self):
        # one-layer softmax as the linear oracle, mean gap 8x the std
        spec = data.DatasetConfig(samples_per_class=60, separation=0.4,
                                  std=0.05)
        ds = data.synth_generate(spec, 5)
        train, test = data.stratified_split(ds, 0.8, seed=6)
        net = nn.build_mlp([30, 5], ["softmax"], derive_rng(7, "oracle"))
        state = nn.adam_init(net.params(), 0.05)
        for _ in range(200):
            tape = []
            net.forward(train.features, tape)
            _, d_logits = nn.softmax_cross_entropy(tape[-1][1], train.labels)
            grads, _ = net.backward(d_logits, tape, from_logits=True)
            nn.adam_step(state, net.params(), grads)
        pred = np.argmax(net.forward(test.features), axis=1)
        assert (pred == test.labels).mean() == 1.0

    def test_per_class_covariance_nearly_diagonal(self):
        spec = data.DatasetConfig(samples_per_class=100, separation=0.2,
                                  std=0.05)
        ds = data.synth_generate(spec, 13)
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
        hot = data.one_hot(np.array([0, 2]))
        assert hot.shape == (2, 5)
        assert hot[0, 0] == 1.0 and hot[0].sum() == 1.0
        assert hot[1, 2] == 1.0 and hot[1].sum() == 1.0


def below(x):
    return float(np.nextafter(x, -np.inf))


def above(x):
    return float(np.nextafter(x, np.inf))


def case(cls, name, value, *expected):
    return pytest.param(cls, name, value, *expected,
                        id=f"{cls.__name__}.{name}={value}")


SMOOTHING_FLOOR = data.N_CLASSES * np.finfo(float).tiny

# a value just past each limit, or on an exclusive one, and its message
OUT_OF_BOUNDS = [
    case(DatasetConfig, "source", "parquet",
         "source must be 'synthetic' or 'csv'"),
    case(DatasetConfig, "train_fraction", 0.0,
         "train_fraction must be in (0, 1)"),
    case(DatasetConfig, "train_fraction", 1.0,
         "train_fraction must be in (0, 1)"),
    case(DatasetConfig, "samples_per_class", 0,
         "samples_per_class must be >= 1"),
    case(DatasetConfig, "separation", 0.0, "separation must be > 0"),
    case(DatasetConfig, "std", 0.0, "std must be > 0"),
    case(IdsTrainConfig, "epochs", -1, "epochs must be >= 0"),
    case(IdsTrainConfig, "batch_size", 0, "batch_size must be >= 1"),
    case(IdsTrainConfig, "learning_rate", 0.0, "learning_rate must be > 0"),
    case(GanConfig, "lambda_cls", below(0.0), "lambda_cls must be >= 0"),
    case(GanConfig, "lambda_stealth", below(0.0),
         "lambda_stealth must be >= 0"),
    case(GanConfig, "lambda_gan", below(0.0), "lambda_gan must be >= 0"),
    case(GanConfig, "learning_rate", 0.0, "learning_rate must be > 0"),
    case(GanConfig, "epochs", -1, "epochs must be >= 0"),
    case(GanConfig, "batch_size", 0, "batch_size must be >= 1"),
    case(GanConfig, "noise_dim", 0, "noise_dim must be >= 1"),
    case(GanConfig, "out_scale", 0.0, "out_scale must be > 0"),
    case(GanConfig, "label_smoothing", below(SMOOTHING_FLOOR),
         "label_smoothing must be in [1.11e-307, 0.5)"),
    case(GanConfig, "label_smoothing", 0.5,
         "label_smoothing must be in [1.11e-307, 0.5)"),
    case(CvaeTrainConfig, "epochs", -1, "epochs must be >= 0"),
    case(CvaeTrainConfig, "batch_size", 0, "batch_size must be >= 1"),
    case(CvaeTrainConfig, "learning_rate", 0.0, "learning_rate must be > 0"),
    case(CvaeTrainConfig, "latent_dim", 0, "latent_dim must be >= 1"),
    case(CvaeTrainConfig, "kl_weight", below(0.0), "kl_weight must be >= 0"),
    case(SweepConfig, "epsilon_grid", [0.05, 0.0],
         "epsilon_grid values must be > 0"),
    case(SweepConfig, "rho_grid", [0.1, 0.0], "rho_grid values must be > 0"),
    case(SweepConfig, "n_ref_grid", [5, -1], "n_ref_grid values must be >= 0"),
    case(SweepConfig, "eta_max", below(0.0), "eta_max must be in [0, 1]"),
    case(SweepConfig, "eta_max", above(1.0), "eta_max must be in [0, 1]"),
    case(DetectConfig, "k", 0, "k must be >= 1"),
    case(DetectConfig, "label_mode", "argmax",
         "label_mode must be 'ids' or 'min'"),
    case(DetectConfig, "max_samples_per_tag", 1,
         "max_samples_per_tag must be >= 2"),
    case(DetectConfig, "benign_calibration", 1,
         "benign_calibration must be >= 2"),
    case(DetectConfig, "shrinkage", below(0.0), "shrinkage must be in [0, 1]"),
    case(DetectConfig, "shrinkage", above(1.0), "shrinkage must be in [0, 1]"),
    case(DetectConfig, "histogram_bins", 1, "histogram_bins must be >= 2"),
    case(RegretConfig, "steps", 0, "steps must be >= 1"),
    case(RegretConfig, "learning_rate", 0.0, "learning_rate must be > 0"),
]

# each inclusive limit, and label_mode's other choice
AT_THE_LIMIT = [
    case(DatasetConfig, "samples_per_class", 1),
    case(IdsTrainConfig, "epochs", 0),
    case(IdsTrainConfig, "batch_size", 1),
    case(GanConfig, "lambda_cls", 0.0),
    case(GanConfig, "lambda_stealth", 0.0),
    case(GanConfig, "lambda_gan", 0.0),
    case(GanConfig, "epochs", 0),
    case(GanConfig, "batch_size", 1),
    case(GanConfig, "noise_dim", 1),
    case(GanConfig, "label_smoothing", SMOOTHING_FLOOR),
    case(CvaeTrainConfig, "epochs", 0),
    case(CvaeTrainConfig, "batch_size", 1),
    case(CvaeTrainConfig, "latent_dim", 1),
    case(CvaeTrainConfig, "kl_weight", 0.0),
    case(SweepConfig, "n_ref_grid", [0]),
    case(SweepConfig, "eta_max", 0.0),
    case(SweepConfig, "eta_max", 1.0),
    case(DetectConfig, "k", 1),
    case(DetectConfig, "label_mode", "min"),
    case(DetectConfig, "max_samples_per_tag", 2),
    case(DetectConfig, "benign_calibration", 2),
    case(DetectConfig, "shrinkage", 0.0),
    case(DetectConfig, "shrinkage", 1.0),
    case(DetectConfig, "histogram_bins", 2),
    case(RegretConfig, "steps", 1),
]


def config_sections(cls=cli.RunConfig):
    """Every config section under `cls`, nested ones included."""
    for hint in typing.get_type_hints(cls).values():
        if dataclasses.is_dataclass(hint):
            yield hint
            yield from config_sections(hint)


NUMERIC_FIELDS = [
    (section, name) for section in config_sections()
    for name, hint in typing.get_type_hints(section).items()
    if hint in (int, float, list[int], list[float])]


class TestBounds:
    @pytest.mark.parametrize("cls, name, value, message", OUT_OF_BOUNDS)
    def test_value_past_a_limit_names_it(self, cls, name, value, message):
        with pytest.raises(ValueError) as info:
            cls(**{name: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("cls, name, value", AT_THE_LIMIT)
    def test_value_on_an_inclusive_limit_builds(self, cls, name, value):
        assert getattr(cls(**{name: value}), name) == value

    @pytest.mark.parametrize(
        "cls, name", [pytest.param(cls, name, id=f"{cls.__name__}.{name}")
                      for cls, name in NUMERIC_FIELDS])
    def test_nan_is_outside_every_bound(self, cls, name):
        # a field that declared no limit would take NaN, so this also holds
        # every number a config section adds to a bound; +-inf are outside
        # too, also past a limit with only one end
        hint = typing.get_type_hints(cls)[name]
        for bad in (np.nan, np.inf, -np.inf):
            value = [0.5, bad] if typing.get_origin(hint) is list else bad
            with pytest.raises(ValueError,
                               match=f"^{name}( values)? must be "):
                cls(**{name: value})

    def test_every_bounded_field_has_its_message_pinned(self):
        pinned = {(p.values[0], p.values[1]) for p in OUT_OF_BOUNDS}
        assert pinned == {*NUMERIC_FIELDS, (DatasetConfig, "source"),
                          (DetectConfig, "label_mode")}
        assert len(pinned) == 34


REAL_CSV = os.environ.get("STEALTHLAB_DATASET_CSV")


@pytest.mark.skipif(not REAL_CSV, reason="STEALTHLAB_DATASET_CSV not set")
def test_real_dataset_row_count():
    ds = data.load_csv(REAL_CSV)
    assert ds.n == 12514
