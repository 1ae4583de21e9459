import json

import numpy as np
import pytest

from stealthlab import data, ids, nn
from stealthlab.errors import ShapeError
from stealthlab.rng import derive_rng


def make_dataset(n_per_class=20, separation=0.4, std=0.05, seed=0):
    spec = data.DatasetConfig(samples_per_class=n_per_class,
                              separation=separation, std=std)
    return data.synth_generate(spec, seed)


def zero_weight_model():
    net = ids.build_ids_net(derive_rng(0, "zero"))
    for p in net.params():
        p[...] = 0.0
    return net


class TestPredict:
    def test_proba_rows_are_distributions(self):
        model = zero_weight_model()
        probs = model.forward(np.random.default_rng(0).uniform(size=(7, 30)))
        assert probs.shape == (7, 5)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_wrong_width_rejected(self):
        model = zero_weight_model()
        with pytest.raises(ShapeError):
            ids.predict_label(model, np.zeros((3, 29)))

    def test_tie_breaks_to_lowest_class_index(self):
        # all-zero weights give identical logits, argmax must pick class 0
        model = zero_weight_model()
        labels = ids.predict_label(model, np.full((6, 30), 0.3))
        assert np.all(labels == 0)


class TestTraining:
    def test_untrained_model_is_chance_level(self):
        ds = make_dataset(40, seed=3)
        model, curve = ids.train_ids(ds, ids.IdsTrainConfig(epochs=0), 4)
        assert curve == []
        assert abs(ids.accuracy(model, ds) - 0.2) < 0.1

    def test_separable_data_high_accuracy(self, separable_ids):
        assert ids.accuracy(separable_ids["model"],
                            separable_ids["test"]) >= 0.99

    def test_separable_training_under_a_minute(self, separable_ids):
        assert separable_ids["train_seconds"] < 60.0

    def test_early_stop_truncates_curve(self, separable_ids):
        curve = separable_ids["curve"]
        config = ids.IdsTrainConfig()
        assert len(curve) < config.epochs
        tail = curve[-ids.EARLY_STOP_PATIENCE:]
        assert all(row["train_accuracy"] == 1.0 for row in tail)

    def test_curve_rows_well_formed(self, separable_ids):
        for i, row in enumerate(separable_ids["curve"]):
            assert row["epoch"] == i
            assert np.isfinite(row["loss"])
            assert 0.0 <= row["train_accuracy"] <= 1.0

    def test_retrain_is_bitwise_deterministic(self):
        ds = make_dataset(10, seed=5)
        config = ids.IdsTrainConfig(epochs=3, batch_size=16)
        model_a, curve_a = ids.train_ids(ds, config, 6)
        model_b, curve_b = ids.train_ids(ds, config, 6)
        for pa, pb in zip(model_a.params(), model_b.params()):
            assert np.array_equal(pa, pb)
        assert curve_a == curve_b

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ids.IdsTrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            ids.IdsTrainConfig(learning_rate=0.0)


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, separable_ids):
        model = separable_ids["model"]
        assert ids.save_ids(model, tmp_path, extra_meta={
            "scaler_ref": "data/scaler.json"}) == [tmp_path / "ids.weights",
                                                   tmp_path / "ids.json"]
        loaded = ids.load_ids(tmp_path)
        for pa, pb in zip(model.params(), loaded.params()):
            assert np.array_equal(pa, pb)
        meta = json.loads((tmp_path / "ids.json").read_text(encoding="utf-8"))
        assert meta == {"class_names": data.CLASS_NAMES,
                        "scaler_ref": "data/scaler.json"}

    def test_loaded_model_predicts_identically(self, tmp_path, separable_ids):
        model = separable_ids["model"]
        ids.save_ids(model, tmp_path)
        loaded = ids.load_ids(tmp_path)
        x = separable_ids["test"].features
        assert np.array_equal(model.forward(x), loaded.forward(x))
