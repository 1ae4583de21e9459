import threading
import tracemalloc

import numpy as np
import pytest

from stealthlab import cvae, data, nn
from stealthlab.errors import NumericError, ParseError, ShapeError
from stealthlab.rng import derive_rng, stable_hash


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


def small_spec(samples_per_class):
    return data.DatasetConfig(samples_per_class=samples_per_class,
                              separation=0.3, std=0.05)


@pytest.fixture(scope="module")
def trained_cvae():
    spec = data.DatasetConfig(samples_per_class=100, separation=0.3, std=0.05)
    ds = data.synth_generate(spec, 31)
    train, test = data.stratified_split(ds, 0.8, seed=32)
    config = cvae.CvaeTrainConfig(epochs=30, batch_size=64,
                                  learning_rate=0.001, kl_weight=0.02,
                                  latent_dim=16)
    model, curve = cvae.train_cvae(train, config, 33, conditional=True)
    return {"model": model, "curve": curve, "train": train, "test": test,
            "config": config}


class TestCodecs:
    def test_clamped_floor_gives_near_deterministic_z(self):
        model = flat_model(mu=5.0, logvar=-1000.0)
        mu, logvar = cvae.encode(model, np.array([[0.2, 0.8]]), [0])
        assert np.all(logvar == cvae.LOGVAR_MIN)
        noise = derive_rng(1, "z").standard_normal(mu.shape)
        z = mu + np.exp(0.5 * logvar) * noise
        assert np.all(np.abs(z - mu) <= 1e-2 * np.abs(mu) + 1e-4)

    def test_decode_strictly_inside_unit_interval(self):
        # z scaled by 50 and a steep output layer saturate the decoder's
        # sigmoid to exactly 1.0; iwae_bound clamps it, so every log is finite
        model = toy_model(4)
        model.decoder.layers[-1].weights *= 100.0
        x = np.full(4, 0.5)
        draws = derive_rng(5, "z").standard_normal((20, 3)) * 50.0
        proposal = cvae.iwae_proposal(model, x, 2, 20, FixedDraws(draws))
        assert (model.decoder.forward(proposal[0]) == 1.0).any()
        assert np.isfinite(cvae.iwae_bound(model, x, proposal))

    def test_shape_errors(self):
        model = toy_model(6)
        # the decoder takes latent_dim + 5 = 8 columns
        with pytest.raises(ShapeError):
            cvae.iwae_bound(model, np.zeros(4),
                            (np.zeros((2, 7)), np.zeros(2), np.zeros(2)))
        with pytest.raises(TypeError):
            cvae.encode(model, np.zeros((1, 4)))    # labels are required

    @pytest.mark.parametrize("label", [7, -1])
    def test_bad_label_rejected_before_the_draws(self, label):
        # the encoder's one-hot rejects it before the proposal writes its
        # label column or draws a number
        with pytest.raises(ParseError, match="label out of range"):
            cvae.iwae_proposal(toy_model(6), np.full(4, 0.5), label, 3,
                               FixedDraws(np.empty((0, 3))))


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
        res = cvae.elbo_loss(model, np.array([[0.3, 0.7]]), [0],
                             noise=derive_rng(8, "z").standard_normal((1, 1)),
                             kl_weight=1.0)
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

    def test_kl_weight_has_no_default(self):
        # the trained objective's weight is cvae.kl_weight, not 1.0
        model = toy_model(9)
        x = derive_rng(10, "x").uniform(0.1, 0.9, size=(2, 4))
        with pytest.raises(TypeError, match="kl_weight"):
            cvae.elbo_loss(model, x, np.array([0, 1]),
                           noise=np.zeros((2, 3)))
        with pytest.raises(TypeError):
            cvae.elbo_loss(model, x, np.array([0, 1]), np.zeros((2, 3)),
                           1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_input_names_the_component(self):
        # constant nets stay finite, the x log p sum overflows to -inf
        model = flat_model(probs=(0.6, 0.3))
        x = np.full((1, 2), 1.7e308)
        with pytest.raises(NumericError, match="reconstruction"):
            cvae.elbo_loss(model, x, [0], noise=np.zeros((1, 1)),
                           kl_weight=1.0)

    def test_posterior_path_gives_the_encoder_upstream(self):
        model = toy_model(15)
        rng = derive_rng(16, "posterior")
        x = rng.uniform(0.2, 0.8, size=(3, 4))
        labels = np.array([1, 0, 3])
        noise = rng.standard_normal((3, 3))
        post = np.hstack(cvae.encode(model, x, labels))
        full = cvae.elbo_loss(model, x, labels, noise=noise, kl_weight=0.4)
        at_post = cvae.elbo_loss(model, x, labels, noise=noise,
                                 kl_weight=0.4, posterior=post)
        assert (at_post.loss, at_post.recon, at_post.kl) == (
            full.loss, full.recon, full.kl)
        assert len(at_post.grads) == 1 and at_post.grads[0].shape == (3, 6)
        # taped again, the encoder pass that `full` ran takes the upstream
        enc_tape = []
        model.encoder.forward(
            np.hstack([x, data.one_hot(labels)]), enc_tape)
        enc_grads, _ = model.encoder.backward(at_post.grads[0], enc_tape)
        n_enc = len(model.encoder.params())
        assert all(np.array_equal(a, b)
                   for a, b in zip(enc_grads, full.grads[:n_enc]))
        with pytest.raises(ShapeError):
            cvae.elbo_loss(model, x, labels, noise=noise, kl_weight=1.0,
                           posterior=post[:2])

    def test_gradcheck_with_frozen_noise(self):
        model = toy_model(13)
        rng = derive_rng(14, "gc")
        x = rng.uniform(0.2, 0.8, size=(3, 4))
        labels = np.array([0, 2, 4])
        noise = rng.standard_normal((3, 3))
        post = np.hstack(cvae.encode(model, x, labels))

        def loss(posterior=None):
            return cvae.elbo_loss(model, x, labels, noise=noise,
                                  kl_weight=0.9, with_grads=False,
                                  posterior=posterior).loss

        analytic = (cvae.elbo_loss(model, x, labels, noise=noise,
                                   kl_weight=0.9).grads
                    + cvae.elbo_loss(model, x, labels, noise=noise,
                                     kl_weight=0.9, posterior=post).grads)
        numeric = (finite_difference(loss, model.params())
                   + finite_difference(lambda: loss(post), [post]))
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
        ds = data.synth_generate(small_spec(20), 41)
        config = cvae.CvaeTrainConfig(epochs=2, batch_size=32,
                                      latent_dim=8, kl_weight=1.0)
        model_a, curve_a = cvae.train_cvae(ds, config, 42, conditional=True)
        model_b, curve_b = cvae.train_cvae(ds, config, 42, conditional=True)
        assert curve_a == curve_b
        for pa, pb in zip(model_a.params(), model_b.params()):
            assert np.array_equal(pa, pb)

    def test_divergence_aborts_with_epoch(self):
        ds = data.synth_generate(small_spec(20), 43)
        config = cvae.CvaeTrainConfig(epochs=1, batch_size=32, latent_dim=8,
                                      kl_weight=1e12)
        with pytest.raises(NumericError, match="epoch"):
            cvae.train_cvae(ds, config, 44, conditional=True)

    def test_unconditional_variant_ignores_labels(self):
        ds = data.synth_generate(small_spec(10), 45)
        config = cvae.CvaeTrainConfig(epochs=1, batch_size=32, latent_dim=8,
                                      kl_weight=1.0)
        model, _ = cvae.train_cvae(ds, config, 46, conditional=False)
        assert not model.conditional
        assert model.encoder.in_dim == 30
        mu_a, _ = cvae.encode(model, ds.features[:3], ds.labels[:3])
        mu_b, _ = cvae.encode(model, ds.features[:3], np.full(3, 4))
        assert np.array_equal(mu_a, mu_b)


def composed_bound(model, x, label, k, rng):
    """One row's bound: the q side, then the p side, as iwae_batch runs
    them."""
    return cvae.iwae_bound(model, x,
                           cvae.iwae_proposal(model, x, label, k, rng))


class FixedDraws:
    """Stands in for iwae_proposal's rng: its standard-normal draws are
    given."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def standard_normal(self, shape):
        assert shape == self.draws.shape
        return self.draws


class TestImportanceWeights:
    # the log weights w_i = log p(x|z_i) + log p(z_i) - log q(z_i|x) behind
    # iwae_bound, whose proposal draws its k noise rows from the rng it is
    # given
    def test_matched_proposal_reduces_to_likelihood(self):
        # q = p(z) = N(0, 1), so z = noise, and a decoder that ignores z:
        # every weight is log p(x), and so is their log-mean-exp for any k
        model = flat_model(mu=0.0, logvar=0.0, probs=(0.6, 0.3))
        x = np.array([1.0, 0.0])
        z = np.array([[0.4], [-1.2], [0.0]])
        probs = np.array([[0.6, 0.3]])
        expected = cvae.bernoulli_log_likelihood(x[None, :], probs)[0]
        for k in (1, 2, 3):
            assert composed_bound(model, x, 0, k,
                                  FixedDraws(z[:k])) == expected

    def test_hand_computed_two_feature_toy(self):
        model = flat_model(mu=0.3, logvar=0.4, probs=(0.6, 0.3))
        x = np.array([1.0, 0.0])
        w = composed_bound(model, x, 0, 1, np.random.default_rng(9))
        z = 0.3 + np.exp(0.2) * np.random.default_rng(9).standard_normal()
        log_px = np.log(0.6) + np.log(0.7)
        log_prior = -0.5 * (z**2 + np.log(2 * np.pi))
        log_post = -0.5 * ((z - 0.3) ** 2 / np.exp(0.4)
                           + np.log(2 * np.pi) + 0.4)
        assert w == pytest.approx(log_px + log_prior - log_post, abs=1e-10)

    def test_draws_are_never_written(self):
        model = flat_model(mu=0.3, logvar=0.4, probs=(0.6, 0.3))
        draws = np.array([[0.4], [-1.2], [0.0]])
        rng = FixedDraws(draws.copy())
        composed_bound(model, np.array([1.0, 0.0]), 0, 3, rng)
        assert np.array_equal(rng.draws, draws)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_term_is_named(self):
        model = flat_model(probs=(0.6, 0.3))
        x = np.full(2, 1.7e308)
        with pytest.raises(NumericError, match=r"log p\(x\|z"):
            composed_bound(model, x, 0, 2, np.random.default_rng(0))


class TestLogMeanExp:
    def test_single_weight_identity(self):
        assert -cvae.log_mean_exp(np.array([-3.0])) == 3.0

    def test_equal_weights(self):
        assert cvae.log_mean_exp(np.full(5, -2.5)) == -2.5
        assert -cvae.log_mean_exp(np.array([0.0, 0.0])) == 0.0

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


def written_out_bound(model, x, label, k, seed):
    """The log-weights behind iwae_bound, written as plain expressions."""
    mu, logvar = cvae.encode(model, x[None, :], np.array([label]))
    noise = np.random.default_rng(seed).standard_normal((k, model.latent_dim))
    z = mu + np.exp(0.5 * logvar) * noise
    dec_in = np.hstack([z, data.one_hot(np.full(k, label))]) \
        if model.conditional else z
    probs = np.clip(model.decoder.forward(dec_in), nn.PROB_CLAMP,
                    1.0 - nn.PROB_CLAMP)
    log_px = cvae.bernoulli_log_likelihood(x[None, :], probs)
    log_prior = -0.5 * (z * z + cvae.LOG_2PI).sum(axis=1)
    log_post = -0.5 * ((z - mu) ** 2 / np.exp(logvar) + cvae.LOG_2PI
                       + logvar).sum(axis=1)
    return log_px + log_prior - log_post


# the label cases of a plain VAE, which takes any label and ignores it
VAE_LABELS = (0, data.N_CLASSES - 1)


@pytest.fixture(scope="module")
def trained_vae(trained_cvae):
    model, _ = cvae.train_cvae(trained_cvae["train"], trained_cvae["config"],
                               34, conditional=False)
    return model


class TestIwae:
    def test_k_one_equals_single_weight(self, trained_cvae):
        model = trained_cvae["model"]
        x = trained_cvae["test"].features[0]
        label = int(trained_cvae["test"].labels[0])
        got = composed_bound(model, x, label, 1, np.random.default_rng(19))
        assert got == written_out_bound(model, x, label, 1, 19)[0]

    # None is the plain VAE, scored under each of VAE_LABELS
    @pytest.mark.parametrize("label", [*range(data.N_CLASSES), None])
    def test_k_500_weights_equal_the_written_out_ones(
            self, trained_cvae, trained_vae, label, monkeypatch):
        # the bound alone can round away a last-bit change in a weight
        model = trained_vae if label is None else trained_cvae["model"]
        x = trained_cvae["test"].features[2]
        seen = []
        log_mean_exp = cvae.log_mean_exp

        def recording_log_mean_exp(weights):
            seen.append(weights)
            return log_mean_exp(weights)

        monkeypatch.setattr(cvae, "log_mean_exp", recording_log_mean_exp)
        for given in VAE_LABELS if label is None else (label,):
            want = written_out_bound(model, x, given, 500, 20)
            got = composed_bound(model, x, given, 500,
                                 np.random.default_rng(20))
            assert np.array_equal(seen.pop(), want)
            assert got == log_mean_exp(want)

    def test_each_bound_encodes_its_row_once(self, trained_cvae,
                                             monkeypatch):
        model = trained_cvae["model"]
        x = trained_cvae["test"].features[1]
        label = int(trained_cvae["test"].labels[1])
        want = composed_bound(model, x, label, 7, np.random.default_rng(5))
        calls = []
        encode = cvae.encode

        def counting_encode(*args, **kwargs):
            calls.append(args)
            return encode(*args, **kwargs)

        monkeypatch.setattr(cvae, "encode", counting_encode)
        got = composed_bound(model, x, label, 7, np.random.default_rng(5))
        assert len(calls) == 1
        assert got == want

    def test_k_zero_rejected(self, trained_cvae):
        with pytest.raises(ValueError):
            composed_bound(trained_cvae["model"],
                           trained_cvae["test"].features[0], 0, 0,
                           np.random.default_rng(0))

    def test_ordering_in_k_over_test_batch(self, trained_cvae):
        model = trained_cvae["model"]
        test = trained_cvae["test"]
        rows = test.features[:200]
        labels = test.labels[:200]
        means = {}
        for k in (1, 5, 50):
            means[k] = cvae.iwae_batch(model, rows, labels, k,
                                       seed=21).mean()
        assert means[1] <= means[5] + 1e-6
        assert means[5] <= means[50] + 1e-6

    def test_batch_scores_are_content_seeded(self, trained_cvae):
        model = trained_cvae["model"]
        rows = trained_cvae["test"].features[:6]
        labels = trained_cvae["test"].labels[:6]
        bounds = cvae.iwae_batch(model, rows, labels, 3, seed=22)
        perm = np.array([4, 2, 0, 5, 1, 3])
        bounds_perm = cvae.iwae_batch(model, rows[perm], labels[perm], 3,
                                      seed=22)
        assert np.array_equal(bounds[perm], bounds_perm)
        dup = cvae.iwae_batch(model, np.vstack([rows[:1], rows[:1]]),
                              np.array([labels[0], labels[0]]), 3, seed=22)
        assert dup[0] == dup[1]

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
        assert right.mean() > wrong.mean()    # lower NLL under the right label


def rows_bounded_alone(model, rows, label, k, seed):
    """iwae_batch's bounds, one row at a time, each from its content seed,
    keyed by the label under a CVAE and by -1 under a plain VAE."""
    key = label if model.conditional else -1
    return np.array([
        composed_bound(model, row, label, k, np.random.default_rng(
            stable_hash(seed, "iwae", row.tobytes(), key)))
        for row in rows], dtype=np.float64)


class TestIwaePipeline:
    # iwae_batch bounds the even rows on the calling thread and the odd rows
    # on one worker thread, each row's proposal then its bound

    # None is the plain VAE: under each of VAE_LABELS its bounds are the
    # written-out ones keyed -1, so they are bitwise the same
    # 2 rows put one on each lane, 3 split them unevenly
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 37])
    @pytest.mark.parametrize("k", [1, 500])
    @pytest.mark.parametrize("label", [None, *range(data.N_CLASSES)])
    def test_batch_equals_rows_bounded_alone(self, trained_cvae, trained_vae,
                                             label, k, n_rows):
        model = trained_vae if label is None else trained_cvae["model"]
        rows = trained_cvae["test"].features[:n_rows]
        for given in VAE_LABELS if label is None else (label,):
            got = cvae.iwae_batch(model, rows, np.full(n_rows, given), k,
                                  seed=25)
            want = rows_bounded_alone(model, rows, given, k, 25)
            assert got.shape == (n_rows,)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_labels", [2, 4])
    def test_label_count_must_match_the_rows(self, n_labels):
        # a plain VAE ignores its labels, but not their count
        rows = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        with pytest.raises(ShapeError, match=f"{n_labels} labels for 3 rows"):
            cvae.iwae_batch(flat_model(), rows, np.zeros(n_labels, int), 2,
                            seed=0)

    @staticmethod
    def faulty_rows(q_fault_row):
        # row 1 overflows log p(x|z,c), a p-side fault; the NaN row makes
        # the encoder's output non-finite, a q-side fault
        rows = np.array([[0.2, 0.8], [1.7e308, 1.7e308], [0.5, 0.5],
                         [0.9, 0.1]])
        rows[q_fault_row, 0] = np.nan
        return rows

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("q_fault_row", [2, 3])
    def test_errors_surface_in_row_order(self, q_fault_row):
        model = flat_model(probs=(0.6, 0.3))
        rows = self.faulty_rows(q_fault_row)
        row_rng = [np.random.default_rng(stable_hash(27, "iwae", row.tobytes(),
                                                     -1))
                   for row in rows]
        proposal = cvae.iwae_proposal(model, rows[1], 0, 4, row_rng[1])
        with pytest.raises(NumericError) as alone:
            cvae.iwae_bound(model, rows[1], proposal)
        with pytest.raises(NumericError, match="forward pass"):
            cvae.iwae_proposal(model, rows[q_fault_row], 0, 4,
                               row_rng[q_fault_row])
        with pytest.raises(NumericError) as batched:
            cvae.iwae_batch(model, rows, np.zeros(4, int), 4, seed=27)
        assert "log p(x|z,c)" in str(alone.value)
        assert str(batched.value) == str(alone.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("first, later", [(0, 1), (0, 3), (2, 3)])
    def test_the_calling_lanes_earlier_error_wins(self, first, later):
        # a q-side fault in the calling lane's row `first`, and a p-side one
        # in the worker's later row `later`: the earlier row's error is raised
        model = flat_model(probs=(0.6, 0.3))
        rows = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1], [0.4, 0.6]])
        rows[first, 0] = np.nan
        rows[later] = 1.7e308
        with pytest.raises(NumericError) as alone:
            cvae.iwae_proposal(model, rows[first], 0, 4,
                               np.random.default_rng(0))
        with pytest.raises(NumericError) as batched:
            cvae.iwae_batch(model, rows, np.zeros(4, int), 4, seed=27)
        assert "forward pass" in str(alone.value)
        assert str(batched.value) == str(alone.value)

    def test_a_failing_row_stops_the_worker(self, trained_cvae, monkeypatch):
        # row 0 fails while the worker bounds row 1: the worker finishes
        # row 1 and starts no row above it
        rows = trained_cvae["test"].features[:8]
        keys = [row.tobytes() for row in rows]
        started = []
        row_1_started, row_0_failing = threading.Event(), threading.Event()
        iwae_bound = cvae.iwae_bound

        def failing_iwae_bound(model, x, proposal):
            i = keys.index(x.tobytes())
            started.append(i)
            if i == 0:
                assert row_1_started.wait(10)
                row_0_failing.set()
                raise NumericError("injected at row 0")
            if i == 1:
                row_1_started.set()
                assert row_0_failing.wait(10)
            return iwae_bound(model, x, proposal)

        monkeypatch.setattr(cvae, "iwae_bound", failing_iwae_bound)
        with pytest.raises(NumericError, match="injected at row 0"):
            cvae.iwae_batch(trained_cvae["model"], rows,
                            trained_cvae["test"].labels[:8], 3, seed=31)
        assert sorted(started) == [0, 1]

    @pytest.mark.parametrize("n_rows", [2, 5])
    def test_rows_are_bounded_on_two_threads(self, trained_cvae, n_rows,
                                             monkeypatch):
        threads = []
        iwae_bound = cvae.iwae_bound

        def recording_iwae_bound(*args):
            threads.append(threading.current_thread())
            return iwae_bound(*args)

        monkeypatch.setattr(cvae, "iwae_bound", recording_iwae_bound)
        cvae.iwae_batch(trained_cvae["model"],
                        trained_cvae["test"].features[:n_rows],
                        trained_cvae["test"].labels[:n_rows], 3, seed=29)
        here = threading.current_thread()
        assert len(threads) == n_rows and len(set(threads)) == 2
        assert threads.count(here) == (n_rows + 1) // 2

    def test_peak_memory_of_a_stock_width_batch(self):
        # two lanes, each holding one row's k x (latent + 5) decoder input,
        # its hidden activations and the proposal's scratch (5.56 MiB
        # measured at k 500; 7.09 MiB when the bound copied z into a fresh
        # decoder input)
        rng = derive_rng(30, "peak")
        model = cvae.build_cvae(rng, 30, 200, True)
        rows = rng.uniform(size=(6, 30))
        labels = np.arange(6) % data.N_CLASSES
        cvae.iwae_batch(model, rows, labels, 500, seed=30)
        tracemalloc.start()
        try:
            cvae.iwae_batch(model, rows, labels, 500, seed=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_thread_outlives_a_call(self, trained_cvae):
        before = threading.active_count()
        cvae.iwae_batch(trained_cvae["model"],
                        trained_cvae["test"].features[:5],
                        trained_cvae["test"].labels[:5], 3, seed=28)
        assert threading.active_count() == before
        with pytest.raises(NumericError):
            cvae.iwae_batch(flat_model(probs=(0.6, 0.3)),
                            self.faulty_rows(3), np.zeros(4, int), 4, seed=28)
        assert threading.active_count() == before


class TestPersistence:
    def test_round_trip(self, tmp_path, trained_cvae):
        model = trained_cvae["model"]
        assert cvae.save_cvae(model, tmp_path) == [
            tmp_path / "cvae_encoder.weights",
            tmp_path / "cvae_decoder.weights", tmp_path / "cvae.json"]
        loaded = cvae.load_cvae(tmp_path)
        assert loaded.latent_dim == model.latent_dim
        assert loaded.conditional == model.conditional
        for pa, pb in zip(model.params(), loaded.params()):
            assert np.array_equal(pa, pb)
        x = trained_cvae["test"].features[:4]
        labels = trained_cvae["test"].labels[:4]
        a = cvae.iwae_batch(model, x, labels, 2, seed=24)
        b = cvae.iwae_batch(loaded, x, labels, 2, seed=24)
        assert np.array_equal(a, b)
