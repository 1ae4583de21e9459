import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthlab import cgan, data, ids, nn
from stealthlab.errors import NumericError, ShapeError
from stealthlab.rng import derive_rng


def finite_difference(loss_fn, params, h=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(a, b):
    num = max(float(np.abs(a - b).max()) for a, b in zip(a, b))
    den = max(1e-8, max(float(np.abs(x).max()) for x in a + b))
    return num / den


def contrast_dataset(n_per_class=60, seed=0, gap=0.2):
    """Benign and attacks agree on all but a few coordinates.

    Three shared contrast coordinates carry the benign/attack gap and one
    small per-class coordinate separates the attack families; the other 26
    features are pure noise. This isolates how the loss weights trade off
    real signal against spurious perturbation directions.
    """
    rng = derive_rng(seed, "contrast-data")
    labels = np.repeat(np.arange(5), n_per_class)
    feats = 0.4 + 0.03 * rng.standard_normal((labels.size, 30))
    attack = labels > 0
    feats[attack, :3] += gap
    for c in range(1, 5):
        feats[labels == c, 3 + c] += 0.15
    return data.Dataset(np.clip(feats, 0.0, 1.0), labels,
                        data.default_feature_names(), list(data.CLASS_NAMES))


@pytest.fixture(scope="module")
def toy_attack_lab():
    train = contrast_dataset(seed=11)
    holdout = contrast_dataset(n_per_class=40, seed=12)
    ids_model, _ = ids.train_ids(train, ids.IdsTrainConfig(
        epochs=40, batch_size=64, learning_rate=0.001, seed=13))
    base = dict(learning_rate=0.003, epochs=40, batch_size=64, seed=14)
    gen_mild, _, curve_mild = cgan.train_cgan(
        ids_model, train, cgan.GanConfig(lambda_stealth=10.0, **base))
    gen_heavy, _, _ = cgan.train_cgan(
        ids_model, train, cgan.GanConfig(lambda_stealth=1e4, **base))
    return {"train": train, "holdout": holdout, "ids": ids_model,
            "gen_mild": gen_mild, "gen_heavy": gen_heavy,
            "curve_mild": curve_mild}


def mean_delta_norm(gen, holdout, seed):
    rows = np.flatnonzero(holdout.labels > 0)
    rng = derive_rng(seed, "delta-probe")
    noise = rng.standard_normal((rows.size, gen.noise_dim))
    delta = cgan.generate_perturbation(gen, noise, holdout.labels[rows])
    return float(np.linalg.norm(delta, axis=1).mean())


class TestGenerator:
    def test_benign_label_rejected(self):
        gen = cgan.build_generator(derive_rng(0, "g"))
        with pytest.raises(ValueError):
            cgan.generate_perturbation(gen, np.zeros((2, 32)),
                                       np.array([0, 1]))

    def test_noise_width_checked(self):
        gen = cgan.build_generator(derive_rng(0, "g"), noise_dim=8)
        with pytest.raises(ShapeError):
            cgan.generate_perturbation(gen, np.zeros((2, 9)), np.array([1, 2]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_perturbation_bounded_by_out_scale(self, seed):
        gen = cgan.build_generator(derive_rng(3, "g"), out_scale=0.1)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((8, 32)) * 10.0
        labels = rng.integers(1, 5, size=8)
        delta = cgan.generate_perturbation(gen, noise, labels)
        assert np.abs(delta).max() <= 0.1

    def test_smoothed_benign_target(self):
        target = cgan.smoothed_benign_target(0.01)
        assert target.shape == (5,)
        assert target[0] == pytest.approx(0.99 + 0.002)
        assert np.all(target[1:] == 0.002)
        assert target.sum() == pytest.approx(1.0)


class TestGeneratorLoss:
    def toy_parts(self, seed=0):
        rng = derive_rng(seed, "toy-loss")
        ids_model = ids.IdsModel(
            nn.build_mlp([4, 6, 5], ["tanh", "softmax"], rng),
            list(data.CLASS_NAMES))
        disc = cgan.Discriminator(
            nn.build_mlp([4, 6, 1], ["tanh", "sigmoid"], rng))
        gen = cgan.Generator(
            nn.build_mlp([8, 8, 4], ["tanh", "tanh"], rng), 3, 0.05)
        x_att = rng.uniform(0.3, 0.6, size=(5, 4))
        x_ben = rng.uniform(0.3, 0.6, size=(5, 4))
        noise = rng.standard_normal((5, 3))
        labels = rng.integers(1, 5, size=5)
        return ids_model, disc, gen, x_att, x_ben, noise, labels

    def test_loss_decomposition(self):
        ids_model, disc, gen, x_att, x_ben, noise, labels = self.toy_parts()
        config = cgan.GanConfig(lambda_cls=1.3, lambda_stealth=7.0,
                                lambda_gan=0.4)
        delta = cgan.generate_perturbation(gen, noise, labels)
        res = cgan.generator_loss(ids_model, disc, x_att, delta, x_ben, config)
        recombined = (config.lambda_cls * res.cls
                      + config.lambda_stealth * res.stealth
                      + config.lambda_gan * res.gan)
        assert abs(res.total - recombined) <= 1e-12

    def test_single_term_configs(self):
        ids_model, disc, gen, x_att, x_ben, noise, labels = self.toy_parts(1)
        delta = cgan.generate_perturbation(gen, noise, labels)
        only_cls = cgan.generator_loss(
            ids_model, disc, x_att, delta, x_ben,
            cgan.GanConfig(lambda_stealth=0.0, lambda_gan=0.0))
        assert only_cls.total == pytest.approx(only_cls.cls, rel=1e-12)
        only_stealth = cgan.generator_loss(
            ids_model, disc, x_att, delta, x_ben,
            cgan.GanConfig(lambda_cls=0.0, lambda_stealth=2.0,
                           lambda_gan=0.0))
        assert only_stealth.total == pytest.approx(2.0 * only_stealth.stealth,
                                                   rel=1e-12)
        diff = np.clip(x_att + delta, 0, 1) - x_ben
        assert only_stealth.stealth == pytest.approx(
            float((diff * diff).sum() / 5), rel=1e-12)

    def test_input_only_backprop_is_bit_identical(self, monkeypatch):
        ids_model, disc, gen, x_att, x_ben, noise, labels = self.toy_parts(3)
        config = cgan.GanConfig(lambda_cls=1.1, lambda_stealth=4.0,
                                lambda_gan=0.3)
        delta = cgan.generate_perturbation(gen, noise, labels)
        fast = cgan.generator_loss(ids_model, disc, x_att, delta, x_ben,
                                   config)
        full_backward = nn.Mlp.backward

        def always_full(net, upstream, from_logits=False, param_grads=True):
            return full_backward(net, upstream, from_logits)

        monkeypatch.setattr(nn.Mlp, "backward", always_full)
        full = cgan.generator_loss(ids_model, disc, x_att, delta, x_ben,
                                   config)
        assert ((fast.total, fast.cls, fast.stealth, fast.gan)
                == (full.total, full.cls, full.stealth, full.gan))
        assert np.array_equal(fast.d_delta, full.d_delta)

    def test_gradcheck_through_generator_params(self):
        # smooth toy stack (tanh everywhere), inputs away from clip corners
        ids_model, disc, gen, x_att, x_ben, noise, labels = self.toy_parts(2)
        config = cgan.GanConfig(lambda_cls=1.0, lambda_stealth=10.0,
                                lambda_gan=0.1, out_scale=0.05, noise_dim=3)

        def run():
            delta = cgan.generate_perturbation(gen, noise, labels,
                                               keep_cache=True)
            return cgan.generator_loss(ids_model, disc, x_att, delta, x_ben,
                                       config)

        res = run()
        analytic = cgan.generator_param_grads(gen, res.d_delta)
        numeric = finite_difference(lambda: run().total, gen.net.params())
        assert relative_error(analytic, numeric) <= 1e-4


class TestDiscriminatorLoss:
    def test_uniform_discriminator_gives_log_two(self):
        disc = cgan.Discriminator(
            nn.build_mlp([4, 1], ["sigmoid"], derive_rng(0, "d")))
        for p in disc.net.params():
            p[...] = 0.0
        loss, _ = cgan.discriminator_loss(disc, np.full((3, 4), 0.2),
                                          np.full((5, 4), 0.8))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_hand_computed_value(self):
        # sigmoid(ln 9 * x): +1 -> 0.9, -1 -> 0.1
        disc = cgan.Discriminator(
            nn.build_mlp([1, 1], ["sigmoid"], derive_rng(0, "d")))
        w, b = disc.net.params()
        w[...] = np.log(9.0)
        b[...] = 0.0
        loss, _ = cgan.discriminator_loss(disc, np.array([[1.0]]),
                                          np.array([[-1.0]]))
        assert loss == pytest.approx(-np.log(0.9), abs=1e-9)

    def test_empty_batch_rejected(self):
        disc = cgan.Discriminator(
            nn.build_mlp([4, 1], ["sigmoid"], derive_rng(0, "d")))
        with pytest.raises(ValueError):
            cgan.discriminator_loss(disc, np.zeros((0, 4)), np.zeros((2, 4)))


class TestTraining:
    def test_frozen_ids_never_changes(self, toy_attack_lab):
        train = toy_attack_lab["train"]
        ids_model = toy_attack_lab["ids"]
        before = [p.copy() for p in ids_model.net.params()]
        cgan.train_cgan(ids_model, train,
                        cgan.GanConfig(epochs=2, batch_size=64, seed=21))
        for old, new in zip(before, ids_model.net.params()):
            assert np.array_equal(old, new)

    def test_training_deterministic(self, toy_attack_lab):
        train = toy_attack_lab["train"]
        config = cgan.GanConfig(epochs=2, batch_size=64, seed=22)
        gen_a, disc_a, curve_a = cgan.train_cgan(toy_attack_lab["ids"],
                                                 train, config)
        gen_b, disc_b, curve_b = cgan.train_cgan(toy_attack_lab["ids"],
                                                 train, config)
        assert curve_a == curve_b
        for pa, pb in zip(gen_a.net.params(), gen_b.net.params()):
            assert np.array_equal(pa, pb)
        for pa, pb in zip(disc_a.net.params(), disc_b.net.params()):
            assert np.array_equal(pa, pb)

    def test_curve_columns(self, toy_attack_lab):
        for row in toy_attack_lab["curve_mild"]:
            assert set(row) == {"epoch", "d_loss", "g_cls", "g_stealth",
                                "g_gan"}

    def test_divergence_aborts_with_epoch(self, toy_attack_lab):
        config = cgan.GanConfig(lambda_stealth=1e9, epochs=1, batch_size=64,
                                seed=23)
        with pytest.raises(NumericError, match="epoch"):
            cgan.train_cgan(toy_attack_lab["ids"], toy_attack_lab["train"],
                            config)

    def test_perturbation_raises_benign_probability(self, toy_attack_lab):
        holdout = toy_attack_lab["holdout"]
        ids_model = toy_attack_lab["ids"]
        gen = toy_attack_lab["gen_mild"]
        rows = np.flatnonzero(holdout.labels > 0)
        x_att = holdout.features[rows]
        labels = holdout.labels[rows]
        noise = derive_rng(24, "probe").standard_normal(
            (rows.size, gen.noise_dim))
        delta = cgan.generate_perturbation(gen, noise, labels)
        x_adv = np.clip(x_att + delta, 0.0, 1.0)
        before = ids.predict_proba(ids_model, x_att)[:, 0].mean()
        after = ids.predict_proba(ids_model, x_adv)[:, 0].mean()
        assert after > before

    def test_heavy_stealth_weight_shrinks_perturbations(self, toy_attack_lab):
        holdout = toy_attack_lab["holdout"]
        mild = mean_delta_norm(toy_attack_lab["gen_mild"], holdout, 25)
        heavy = mean_delta_norm(toy_attack_lab["gen_heavy"], holdout, 25)
        assert heavy < mild


class TestPersistence:
    def test_generator_round_trip(self, tmp_path, toy_attack_lab):
        gen = toy_attack_lab["gen_mild"]
        cgan.save_generator(gen, tmp_path)
        loaded = cgan.load_generator(tmp_path)
        assert loaded.noise_dim == gen.noise_dim
        assert loaded.out_scale == gen.out_scale
        for pa, pb in zip(gen.net.params(), loaded.net.params()):
            assert np.array_equal(pa, pb)

    def test_discriminator_round_trip(self, tmp_path):
        disc = cgan.build_discriminator(derive_rng(5, "d"))
        cgan.save_discriminator(disc, tmp_path)
        loaded = cgan.load_discriminator(tmp_path)
        for pa, pb in zip(disc.net.params(), loaded.net.params()):
            assert np.array_equal(pa, pb)
