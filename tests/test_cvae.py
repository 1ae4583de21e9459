import numpy as np
import pytest

from stealthlab import cvae, data, nn
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


def toy_model(seed=0, conditional=True, latent_dim=3, input_dim=4):
    """Small smooth (tanh-hidden) model for numeric checks."""
    rng = derive_rng(seed, "toy-cvae")
    extra = 5 if conditional else 0
    encoder = nn.build_mlp([input_dim + extra, 6, 2 * latent_dim],
                           ["tanh", "linear"], rng)
    decoder = nn.build_mlp([latent_dim + extra, 6, input_dim],
                           ["tanh", "sigmoid"], rng)
    return cvae.CvaeModel(encoder, decoder, latent_dim, conditional)


def flat_model(mu=0.0, logvar=0.0, probs=(0.5, 0.5), conditional=False):
    """Constant encoder/decoder: outputs do not depend on the input."""
    latent_dim = 1
    input_dim = len(probs)
    extra = 5 if conditional else 0
    encoder = nn.build_mlp([input_dim + extra, 2 * latent_dim], ["linear"],
                           derive_rng(0, "flat-enc"))
    w_enc, b_enc = encoder.params()
    w_enc[...] = 0.0
    b_enc[...] = [mu, logvar]
    decoder = nn.build_mlp([latent_dim + extra, input_dim], ["sigmoid"],
                           derive_rng(0, "flat-dec"))
    w_dec, b_dec = decoder.params()
    w_dec[...] = 0.0
    b_dec[...] = np.log(np.array(probs) / (1.0 - np.array(probs)))
    return cvae.CvaeModel(encoder, decoder, latent_dim, conditional)


@pytest.fixture(scope="module")
def trained_cvae():
    spec = data.SyntheticSpec(samples_per_class=100, separation=0.3,
                              std=0.05, seed=31)
    ds = data.synth_generate(spec)
    train, test = data.stratified_split(ds, 0.8, seed=32)
    config = cvae.CvaeTrainConfig(epochs=30, batch_size=64,
                                  learning_rate=0.001, kl_weight=0.02,
                                  conditional=True, latent_dim=16, seed=33)
    model, curve = cvae.train_cvae(train, config)
    return {"model": model, "curve": curve, "train": train, "test": test,
            "config": config}


class TestCodecs:
    def test_clamped_floor_gives_near_deterministic_z(self):
        model = flat_model(mu=5.0, logvar=-1000.0)
        mu, logvar = cvae.encode(model, np.array([[0.2, 0.8]]))
        assert np.all(logvar == cvae.LOGVAR_MIN)
        noise = derive_rng(1, "z").standard_normal(mu.shape)
        z = cvae.reparameterize(mu, logvar, noise)
        assert np.all(np.abs(z - mu) <= 1e-2 * np.abs(mu) + 1e-4)

    def test_fixed_noise_reproducible(self):
        model = toy_model(2)
        x = np.array([[0.1, 0.4, 0.6, 0.9]])
        mu, logvar = cvae.encode(model, x, np.array([1]))
        noise = derive_rng(3, "z").standard_normal(mu.shape)
        assert np.array_equal(cvae.reparameterize(mu, logvar, noise),
                              cvae.reparameterize(mu, logvar, noise))

    def test_decode_strictly_inside_unit_interval(self):
        model = toy_model(4)
        z = derive_rng(5, "z").standard_normal((20, 3)) * 50.0
        out = cvae.decode(model, z, np.full(20, 2))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_shape_errors(self):
        model = toy_model(6)
        with pytest.raises(ShapeError):
            cvae.decode(model, np.zeros((2, 7)), np.array([1, 1]))
        with pytest.raises(ShapeError):
            cvae.reparameterize(np.zeros((2, 3)), np.zeros((2, 3)),
                                np.zeros((2, 4)))
        with pytest.raises(ValueError):
            cvae.encode(model, np.zeros((1, 4)))    # conditional needs labels


class TestElbo:
    def test_kl_closed_form_values(self):
        assert cvae.gaussian_kl(np.zeros((1, 4)), np.zeros((1, 4)))[0] == 0.0
        mu = np.array([[1.0, 0.0, 0.0]])
        assert cvae.gaussian_kl(mu, np.zeros_like(mu))[0] == pytest.approx(
            0.5, abs=1e-15)

    def test_kl_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        mu = rng.normal(size=(1, 3))
        logvar = rng.uniform(-1.0, 1.0, size=(1, 3))
        closed = cvae.gaussian_kl(mu, logvar)[0]
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * rng.standard_normal((10000, 3))
        log_q = (-0.5 * ((z - mu) ** 2 / sigma**2 + cvae.LOG_2PI
                         + logvar)).sum(axis=1)
        log_p = (-0.5 * (z**2 + cvae.LOG_2PI)).sum(axis=1)
        diffs = log_q - log_p
        se = diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert abs(closed - diffs.mean()) <= 3.0 * se

    def test_standard_normal_posterior_has_zero_kl(self):
        model = flat_model(mu=0.0, logvar=0.0)
        res = cvae.elbo_loss(model, np.array([[0.3, 0.7]]),
                             rng=derive_rng(8, "z"))
        assert res.kl == 0.0

    def test_reconstruction_optimal_at_the_data(self):
        x = np.array([[0.2, 0.9, 0.5]])
        at_x = -cvae.bernoulli_log_likelihood(x, x)
        for p in (0.1, 0.45, 0.8):
            other = -cvae.bernoulli_log_likelihood(x, np.full_like(x, p))
            assert at_x[0] < other[0]

    def test_loss_combines_components(self):
        model = toy_model(9)
        x = derive_rng(10, "x").uniform(0.1, 0.9, size=(6, 4))
        labels = np.array([0, 1, 2, 3, 4, 1])
        noise = derive_rng(11, "z").standard_normal((6, 3))
        res = cvae.elbo_loss(model, x, labels, noise=noise, kl_weight=0.7)
        assert res.loss == pytest.approx(res.recon + 0.7 * res.kl, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_input_names_the_component(self):
        # constant nets stay finite, the x log p sum overflows to -inf
        model = flat_model(probs=(0.6, 0.3))
        x = np.full((1, 2), 1.7e308)
        with pytest.raises(NumericError, match="reconstruction"):
            cvae.elbo_loss(model, x, noise=np.zeros((1, 1)))

    def test_encoder_only_grads_are_the_encoder_prefix(self):
        model = toy_model(15)
        rng = derive_rng(16, "enc-only")
        x = rng.uniform(0.2, 0.8, size=(3, 4))
        labels = np.array([1, 0, 3])
        noise = rng.standard_normal((3, 3))
        full = cvae.elbo_loss(model, x, labels, noise=noise, kl_weight=0.4)
        enc = cvae.elbo_loss(model, x, labels, noise=noise, kl_weight=0.4,
                             encoder_only=True)
        n_enc = len(model.encoder.params())
        assert len(full.grads) == len(model.params())
        assert len(enc.grads) == n_enc
        assert all(np.array_equal(a, b)
                   for a, b in zip(enc.grads, full.grads[:n_enc]))
        assert (enc.loss, enc.recon, enc.kl) == (full.loss, full.recon,
                                                 full.kl)

    def test_gradcheck_with_frozen_noise(self):
        model = toy_model(13)
        rng = derive_rng(14, "gc")
        x = rng.uniform(0.2, 0.8, size=(3, 4))
        labels = np.array([0, 2, 4])
        noise = rng.standard_normal((3, 3))

        def loss():
            return cvae.elbo_loss(model, x, labels, noise=noise,
                                  kl_weight=0.9, with_grads=False).loss

        analytic = cvae.elbo_loss(model, x, labels, noise=noise,
                                  kl_weight=0.9).grads
        numeric = finite_difference(loss, model.params())
        num = max(float(np.abs(a - b).max())
                  for a, b in zip(analytic, numeric))
        den = max(float(np.abs(g).max()) for g in analytic + numeric)
        assert num / max(den, 1e-8) <= 1e-4


class TestTraining:
    def test_curve_non_increasing_over_ten_epoch_windows(self, trained_cvae):
        losses = [row["loss"] for row in trained_cvae["curve"]]
        windows = [np.mean(losses[i:i + 10])
                   for i in range(0, len(losses) - 9, 10)]
        for earlier, later in zip(windows, windows[1:]):
            assert later <= earlier + 1e-6

    def test_same_seed_bitwise_identical(self):
        ds = data.synth_generate(data.SyntheticSpec(20, 0.3, 0.05, seed=41))
        config = cvae.CvaeTrainConfig(epochs=2, batch_size=32,
                                      latent_dim=8, seed=42)
        model_a, curve_a = cvae.train_cvae(ds, config)
        model_b, curve_b = cvae.train_cvae(ds, config)
        assert curve_a == curve_b
        for pa, pb in zip(model_a.params(), model_b.params()):
            assert np.array_equal(pa, pb)

    def test_divergence_aborts_with_epoch(self):
        ds = data.synth_generate(data.SyntheticSpec(20, 0.3, 0.05, seed=43))
        config = cvae.CvaeTrainConfig(epochs=1, batch_size=32, latent_dim=8,
                                      kl_weight=1e12, seed=44)
        with pytest.raises(NumericError, match="epoch"):
            cvae.train_cvae(ds, config)

    def test_unconditional_variant_ignores_labels(self):
        ds = data.synth_generate(data.SyntheticSpec(10, 0.3, 0.05, seed=45))
        config = cvae.CvaeTrainConfig(epochs=1, batch_size=32, latent_dim=8,
                                      conditional=False, seed=46)
        model, _ = cvae.train_cvae(ds, config)
        assert not model.conditional
        assert model.encoder.in_dim == 30
        mu_a, _ = cvae.encode(model, ds.features[:3])
        mu_b, _ = cvae.encode(model, ds.features[:3], None)
        assert np.array_equal(mu_a, mu_b)


class TestImportanceWeights:
    def test_matched_proposal_reduces_to_likelihood(self):
        model = flat_model(mu=0.0, logvar=0.0, probs=(0.6, 0.3))
        x = np.array([1.0, 0.0])
        z = np.array([[0.4], [-1.2], [0.0]])
        w = cvae.importance_weights(model, x, None, z)
        probs = np.array([[0.6, 0.3]])
        expected = cvae.bernoulli_log_likelihood(
            np.broadcast_to(x, (3, 2)), np.broadcast_to(probs, (3, 2)))
        assert np.array_equal(w, expected)

    def test_hand_computed_two_feature_toy(self):
        model = flat_model(mu=0.3, logvar=0.4, probs=(0.6, 0.3))
        x = np.array([1.0, 0.0])
        z = np.array([[0.2]])
        w = cvae.importance_weights(model, x, None, z)[0]
        log_px = np.log(0.6) + np.log(0.7)
        log_prior = -0.5 * (0.2**2 + np.log(2 * np.pi))
        log_post = -0.5 * ((0.2 - 0.3) ** 2 / np.exp(0.4)
                           + np.log(2 * np.pi) + 0.4)
        assert w == pytest.approx(log_px + log_prior - log_post, abs=1e-10)

    def test_order_invariance(self):
        model = toy_model(15, conditional=True)
        x = np.array([0.2, 0.5, 0.7, 0.4])
        z = derive_rng(16, "z").standard_normal((6, 3))
        w = cvae.importance_weights(model, x, 2, z)
        perm = np.array([3, 1, 5, 0, 4, 2])
        assert np.array_equal(w[perm],
                              cvae.importance_weights(model, x, 2, z[perm]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_term_is_named(self):
        model = flat_model(probs=(0.6, 0.3))
        x = np.full(2, 1.7e308)
        z = np.zeros((2, 1))
        with pytest.raises(NumericError, match=r"log p\(x\|z"):
            cvae.importance_weights(model, x, None, z)


class TestLogMeanExp:
    def test_single_weight_identity(self):
        assert cvae.nll_from_log_weights(np.array([-3.0])) == 3.0

    def test_equal_weights(self):
        assert cvae.log_mean_exp(np.full(5, -2.5)) == -2.5
        assert cvae.nll_from_log_weights(np.array([0.0, 0.0])) == 0.0

    def test_matches_naive_for_moderate_weights(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            w = rng.uniform(-30.0, 30.0, size=rng.integers(1, 40))
            naive = np.log(np.exp(w).mean())
            assert abs(cvae.log_mean_exp(w) - naive) <= 1e-8

    def test_finite_for_huge_magnitudes(self):
        assert np.isfinite(cvae.log_mean_exp(np.array([1e4, 9.9e3])))
        assert np.isfinite(cvae.log_mean_exp(np.array([-1e4, -9.9e3])))
        assert np.isfinite(cvae.log_mean_exp(np.array([-1e4, 1e4])))
        assert cvae.log_mean_exp(np.array([1e4])) == 1e4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cvae.log_mean_exp(np.array([]))


class TestIwae:
    def test_k_one_equals_single_weight(self, trained_cvae):
        model = trained_cvae["model"]
        x = trained_cvae["test"].features[0]
        label = int(trained_cvae["test"].labels[0])
        seed_rng = np.random.default_rng(19)
        got = cvae.iwae_bound(model, x, label, 1, np.random.default_rng(19))
        mu, logvar = cvae.encode(model, x[None, :],
                                 np.array([label]))
        noise = seed_rng.standard_normal((1, model.latent_dim))
        z = cvae.reparameterize(mu, logvar, noise)
        want = cvae.importance_weights(model, x, label, z)[0]
        assert got == want

    def test_k_zero_rejected(self, trained_cvae):
        with pytest.raises(ValueError):
            cvae.iwae_bound(trained_cvae["model"],
                            trained_cvae["test"].features[0], 0, 0,
                            np.random.default_rng(0))

    def test_nll_is_negated_bound(self, trained_cvae):
        model = trained_cvae["model"]
        x = trained_cvae["test"].features[1]
        label = int(trained_cvae["test"].labels[1])
        bound = cvae.iwae_bound(model, x, label, 5, np.random.default_rng(20))
        score = cvae.nll(model, x, label, 5, np.random.default_rng(20))
        assert score == -bound

    def test_ordering_in_k_over_test_batch(self, trained_cvae):
        model = trained_cvae["model"]
        test = trained_cvae["test"]
        rows = test.features[:200]
        labels = test.labels[:200]
        means = {}
        for k in (1, 5, 50):
            est = cvae.iwae_batch(model, rows, labels, k, seed=21)
            means[k] = est.bounds.mean()
        assert means[1] <= means[5] + 1e-6
        assert means[5] <= means[50] + 1e-6

    def test_batch_scores_are_content_seeded(self, trained_cvae):
        model = trained_cvae["model"]
        rows = trained_cvae["test"].features[:6]
        labels = trained_cvae["test"].labels[:6]
        est = cvae.iwae_batch(model, rows, labels, 3, seed=22)
        perm = np.array([4, 2, 0, 5, 1, 3])
        est_perm = cvae.iwae_batch(model, rows[perm], labels[perm], 3,
                                   seed=22)
        assert np.array_equal(est.bounds[perm], est_perm.bounds)
        dup = cvae.iwae_batch(model, np.vstack([rows[:1], rows[:1]]),
                              np.array([labels[0], labels[0]]), 3, seed=22)
        assert dup.bounds[0] == dup.bounds[1]

    def test_conditional_sensitivity(self, trained_cvae):
        # the label input must matter: right label scores better than wrong
        model = trained_cvae["model"]
        test = trained_cvae["test"]
        benign = test.features[test.class_rows(0)]
        right = cvae.iwae_batch(model, benign, np.zeros(len(benign),
                                                        dtype=np.int64),
                                10, seed=23)
        wrong = cvae.iwae_batch(model, benign, np.full(len(benign), 2,
                                                       dtype=np.int64),
                                10, seed=23)
        assert right.nll.mean() < wrong.nll.mean()


class TestPersistence:
    def test_round_trip(self, tmp_path, trained_cvae):
        model = trained_cvae["model"]
        cvae.save_cvae(model, tmp_path)
        loaded = cvae.load_cvae(tmp_path)
        assert loaded.latent_dim == model.latent_dim
        assert loaded.conditional == model.conditional
        for pa, pb in zip(model.params(), loaded.params()):
            assert np.array_equal(pa, pb)
        x = trained_cvae["test"].features[:4]
        labels = trained_cvae["test"].labels[:4]
        a = cvae.iwae_batch(model, x, labels, 2, seed=24)
        b = cvae.iwae_batch(loaded, x, labels, 2, seed=24)
        assert np.array_equal(a.nll, b.nll)
