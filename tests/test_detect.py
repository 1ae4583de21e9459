import csv

import numpy as np
import pytest

from stealthlab import cvae, data, detect, nn
from stealthlab.attack import gen_ood
from stealthlab.errors import NumericError, ShapeError
from stealthlab.ids import IdsTrainConfig, predict_label, train_ids
from stealthlab.rng import derive_rng, stable_hash


def make_scores(adv, ood):
    """(scores, tags): adversarial rows first, then OOD rows."""
    adv = np.asarray(adv, dtype=np.float64)
    ood = np.asarray(ood, dtype=np.float64)
    return (np.concatenate([adv, ood]),
            np.array([detect.TAG_ADVERSARIAL] * adv.size
                     + [detect.TAG_OOD] * ood.size, dtype=object))


def roc_of(adv, ood):
    scores, tags = make_scores(adv, ood)
    return detect.roc_auc(scores, tags == detect.TAG_ADVERSARIAL)


def auc_oracle(adv, ood):
    """Brute-force pair counting: P(adv > ood) + half the ties."""
    wins = ties = 0
    for a in adv:
        for o in ood:
            if a > o:
                wins += 1
            elif a == o:
                ties += 1
    return (2 * wins + ties) / (2 * len(adv) * len(ood))


def flat_cvae(mu, probs, logvar=0.0):
    """Zero-weight model: encoder mean and decoder probs ignore the input."""
    mu = np.asarray(mu, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    latent_dim = mu.size
    encoder = nn.build_mlp([probs.size, 2 * latent_dim], ["linear"],
                           derive_rng(0, "flat-enc"))
    w_enc, b_enc = encoder.params()
    w_enc[...] = 0.0
    b_enc[...] = np.concatenate([mu, np.full(latent_dim, logvar)])
    decoder = nn.build_mlp([latent_dim, probs.size], ["sigmoid"],
                           derive_rng(0, "flat-dec"))
    w_dec, b_dec = decoder.params()
    w_dec[...] = 0.0
    b_dec[...] = np.log(probs / (1.0 - probs))
    return cvae.CvaeModel(encoder, decoder, latent_dim, conditional=False)


def toy_cvae(seed=0, input_dim=2, latent_dim=1):
    rng = derive_rng(seed, "toy-detect")
    encoder = nn.build_mlp([input_dim, 6, 2 * latent_dim], ["tanh", "linear"],
                           rng)
    decoder = nn.build_mlp([latent_dim, 6, input_dim], ["tanh", "sigmoid"],
                           rng)
    return cvae.CvaeModel(encoder, decoder, latent_dim, conditional=False)


def dense_reference_regret(model, row, label, config, seed, kl_weight):
    """One row's regret from a dense encoder refit: full `elbo_loss`
    gradients and the whole-tensor Adam formula on every encoder parameter,
    the amortized counterpart of `score_regret`'s posterior refit."""
    work = cvae.CvaeModel(model.encoder.copy(), model.decoder,
                          model.latent_dim, model.conditional)
    params = work.encoder.params()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    labels = np.array([label])
    noise = np.random.default_rng(stable_hash(
        seed, "regret", row.tobytes(), label if model.conditional else -1)
    ).standard_normal((1, model.latent_dim))
    lr, beta1, beta2, eps = config.learning_rate, 0.9, 0.999, 1e-8
    result = cvae.elbo_loss(work, row[None, :], labels, noise=noise,
                            kl_weight=kl_weight)
    initial = best = -result.loss
    for t in range(1, config.steps + 1):
        for p, g, m_p, v_p in zip(params, result.grads[:len(params)], m, v):
            m_p *= beta1
            m_p += (1.0 - beta1) * g
            v_p *= beta2
            v_p += (1.0 - beta2) * g * g
            p -= lr * (m_p / (1.0 - beta1 ** t)) / (
                np.sqrt(v_p / (1.0 - beta2 ** t)) + eps)
        result = cvae.elbo_loss(work, row[None, :], labels, noise=noise,
                                kl_weight=kl_weight)
        best = max(best, -result.loss)
    return best - initial


def looped_reference_regret(model, row, label, config, seed, kl_weight):
    """One row's regret from its own posterior refit, batch 1: a fresh
    optimiser per row and the loss of the one-row batch at each step. The
    noise is keyed by the label under a CVAE and by -1 under a plain VAE."""
    labels = np.array([label])
    noise = np.random.default_rng(stable_hash(
        seed, "regret", row.tobytes(), label if model.conditional else -1)
    ).standard_normal((1, model.latent_dim))
    x = row[None, :]
    post = np.hstack(cvae.encode(model, x, labels))
    optimiser = nn.adam_init([post], config.learning_rate)
    result = cvae.elbo_loss(model, x, labels, noise=noise,
                            kl_weight=kl_weight, posterior=post)
    initial = best = -result.loss
    for step in range(1, config.steps + 1):
        nn.adam_step(optimiser, [post], result.grads)
        result = cvae.elbo_loss(model, x, labels, noise=noise,
                                kl_weight=kl_weight,
                                with_grads=step < config.steps,
                                posterior=post)
        best = max(best, -result.loss)
    return best - initial


def spearman(a, b):
    """Rank correlation of two tie-free score vectors."""
    ranks = [np.argsort(np.argsort(v)) for v in (a, b)]
    return float(np.corrcoef(*ranks)[0, 1])


def model_params(model):
    return [p.copy() for net in (model.encoder, model.decoder)
            for p in net.params()]


LAB_KL_WEIGHT = 0.02     # the lab CVAE's training objective


@pytest.fixture(scope="module")
def lab():
    """Small trained detector lab: intrusion classifier plus CVAE."""
    spec = data.DatasetConfig(samples_per_class=100, separation=0.3, std=0.05)
    ds = data.synth_generate(spec, 41)
    train, test = data.stratified_split(ds, 0.8, seed=42)
    ids_model, _ = train_ids(train, IdsTrainConfig(epochs=40), 44)
    config = cvae.CvaeTrainConfig(epochs=30, batch_size=64,
                                  learning_rate=0.001,
                                  kl_weight=LAB_KL_WEIGHT, latent_dim=16)
    model, _ = cvae.train_cvae(train, config, 43, conditional=True)
    return {"ids": ids_model, "cvae": model, "train": train, "test": test}


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_of([1.0, 2.0, 3.0], [-1.0, 0.0, 0.5])
        assert curve.auc == 1.0
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0

    def test_identical_distributions_score_half(self):
        curve = roc_of([0.3] * 5, [0.3] * 5)
        assert curve.auc == 0.5

    def test_matches_pair_count_oracle(self):
        # quantized scores so ties occur; exact equality expected
        rng = np.random.default_rng(99)
        for _ in range(60):
            n_adv = int(rng.integers(1, 101))
            n_ood = int(rng.integers(1, 101))
            adv = rng.integers(0, 12, size=n_adv) / 10.0
            ood = rng.integers(0, 12, size=n_ood) / 10.0
            curve = roc_of(adv, ood)
            assert curve.auc == auc_oracle(adv, ood)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(7)
        adv = rng.integers(0, 12, size=40) / 10.0
        ood = rng.integers(0, 12, size=30) / 10.0
        base = roc_of(adv, ood)
        for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s ** 3):
            curve = roc_of(transform(adv), transform(ood))
            assert curve.auc == base.auc
            assert np.array_equal(curve.fpr, base.fpr)
            assert np.array_equal(curve.tpr, base.tpr)

    @pytest.mark.parametrize("first_zero", [-0.0, 0.0])
    def test_curve_matches_written_out_reference(self, first_zero):
        # tie-prone scores; the zero group's threshold keeps the sign of the
        # group's first row, a +-0.0 tie included
        rng = np.random.default_rng(21)
        adv = np.r_[first_zero, rng.integers(-3, 6, 40) / 2.0, 0.0, -0.0]
        ood = np.r_[-first_zero, rng.integers(-4, 4, 50) / 2.0]
        curve = roc_of(adv, ood)
        distinct = sorted(set(np.r_[adv, ood].tolist()), reverse=True)
        assert curve.thresholds.tolist() == [np.inf] + distinct
        zero = curve.thresholds == 0.0
        assert zero.sum() == 1
        assert np.signbit(curve.thresholds[zero]) == np.signbit(first_zero)
        assert curve.fpr.tolist() == [(ood >= t).sum() / ood.size
                                      for t in curve.thresholds]
        assert curve.tpr.tolist() == [(adv >= t).sum() / adv.size
                                      for t in curve.thresholds]
        assert curve.auc == auc_oracle(adv, ood)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            detect.roc_auc(np.array([1.0, bad, 0.5]),
                           np.array([True, False, False]))

    def test_single_tag_rejected(self):
        with pytest.raises(ValueError):
            detect.roc_auc(np.arange(3.0), np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            detect.roc_auc(np.arange(3.0), np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("mask", [[True, False, False, True],
                                      [True, False]])
    def test_mask_of_another_length_rejected(self, mask):
        with pytest.raises(ValueError, match="positive mask"):
            detect.roc_auc(np.array([3.0, 2.0, 1.0]), np.array(mask))

    def test_curve_is_monotone(self):
        rng = np.random.default_rng(3)
        curve = roc_of(rng.integers(0, 8, 50) / 7.0,
                       rng.integers(0, 8, 60) / 7.0)
        assert np.all(np.diff(curve.fpr) >= 0.0)
        assert np.all(np.diff(curve.tpr) >= 0.0)
        assert curve.thresholds[0] == np.inf
        assert np.all(np.diff(curve.thresholds) < 0.0)
        assert 0.0 <= curve.auc <= 1.0

    def test_roc_csv_round_trip(self, tmp_path):
        curve = roc_of([1.0, 2.0], [0.5, 1.5])
        path = tmp_path / "roc.csv"
        data.write_csv(path, ["threshold", "fpr", "tpr"],
                       zip(curve.thresholds, curve.fpr, curve.tpr))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["threshold"]) for r in rows] \
            == curve.thresholds.tolist()
        assert [float(r["fpr"]) for r in rows] == curve.fpr.tolist()
        assert [float(r["tpr"]) for r in rows] == curve.tpr.tolist()


class TestHistograms:
    def test_counts_sum_per_tag(self):
        rng = np.random.default_rng(11)
        scores, tags = make_scores(rng.uniform(size=37), rng.uniform(size=23))
        hist = detect.export_histograms(scores, tags, bins=10)
        assert hist["edges"].shape == (11,)
        assert hist["counts"][detect.TAG_ADVERSARIAL].sum() == 37
        assert hist["counts"][detect.TAG_OOD].sum() == 23

    def test_all_equal_scores_fill_one_bin(self):
        hist = detect.export_histograms(*make_scores([2.0] * 6, [2.0] * 4),
                                        bins=5)
        for counts in hist["counts"].values():
            assert (counts > 0).sum() == 1

    def test_shift_moves_edges_not_counts(self):
        rng = np.random.default_rng(13)
        adv = rng.uniform(size=40)
        ood = rng.uniform(size=40) + 0.2
        base = detect.export_histograms(*make_scores(adv, ood), bins=8)
        moved = detect.export_histograms(*make_scores(adv + 5.0, ood + 5.0),
                                         bins=8)
        assert np.allclose(moved["edges"], base["edges"] + 5.0)
        for tag in base["counts"]:
            assert np.array_equal(moved["counts"][tag], base["counts"][tag])

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            detect.export_histograms(*make_scores([], []), bins=40)

    def test_histograms_csv_layout(self, tmp_path):
        hist = detect.export_histograms(*make_scores([1.0, 2.0], [3.0]),
                                        bins=4)
        path = tmp_path / "hist.csv"
        detect.histograms_to_csv(hist, path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["tag", "bin_lo", "bin_hi", "count"]
        assert len(rows) == 4 * 2
        total = {tag: 0 for tag in hist["counts"]}
        for tag, _, _, count in rows:
            total[tag] += int(count)
        assert total[detect.TAG_ADVERSARIAL] == 2
        assert total[detect.TAG_OOD] == 1


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        model = flat_cvae(mu=[3.0, 4.0, 0.0, 0.0], probs=[0.5, 0.5])
        gaussians = detect.GaussianClassModel(np.zeros((1, 4)),
                                              np.eye(4)[None, :, :])
        scores = detect.score_mahalanobis(gaussians, model,
                                          np.array([[0.1, 0.9]]))
        assert scores[0] == 5.0

    def test_class_mean_scores_zero(self):
        model = flat_cvae(mu=[3.0, 4.0, 0.0, 0.0], probs=[0.5, 0.5])
        gaussians = detect.GaussianClassModel(
            np.array([[3.0, 4.0, 0.0, 0.0]]), np.eye(4)[None, :, :])
        scores = detect.score_mahalanobis(gaussians, model,
                                          np.array([[0.1, 0.9]]))
        assert scores[0] == 0.0

    def test_minimum_over_classes(self):
        model = flat_cvae(mu=[3.0, 4.0, 0.0, 0.0], probs=[0.5, 0.5])
        means = np.stack([np.full(4, 100.0), np.array([3.0, 4.0, 0.0, 0.0])])
        gaussians = detect.GaussianClassModel(
            means, np.stack([np.eye(4), np.eye(4)]))
        scores = detect.score_mahalanobis(gaussians, model,
                                          np.array([[0.1, 0.9]]))
        assert scores[0] == 0.0

    def test_full_shrinkage_matches_diagonal_formula(self, lab):
        model, train = lab["cvae"], lab["train"]
        batch = lab["test"].features[:20]
        gaussians = detect.fit_gaussians(model, train, shrinkage=1.0)
        scores = detect.score_mahalanobis(gaussians, model, batch)
        per_class = np.empty((data.N_CLASSES, batch.shape[0]))
        for class_id in range(data.N_CLASSES):
            rows = train.class_rows(class_id)
            latents, _ = cvae.encode(model, train.features[rows],
                                     train.labels[rows])
            mean = latents.mean(axis=0)
            var = latents.var(axis=0, ddof=1)
            u, _ = cvae.encode(model, batch,
                               np.full(batch.shape[0], class_id,
                                       dtype=np.int64))
            per_class[class_id] = np.sqrt(((u - mean) ** 2 / var).sum(axis=1))
        assert np.allclose(scores, per_class.min(axis=0),
                           rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("shrinkage", [0.0, 0.1, 1.0])
    def test_fit_equals_the_written_out_steps(self, lab, shrinkage):
        model, train = lab["cvae"], lab["train"]
        gaussians = detect.fit_gaussians(model, train, shrinkage)
        for class_id in range(data.N_CLASSES):
            rows = train.class_rows(class_id)
            latents = cvae.encode(model, train.features[rows],
                                  train.labels[rows])[0]
            mean = latents.mean(axis=0)
            centered = latents - mean
            cov = centered.T @ centered / (rows.size - 1)
            cov = (1.0 - shrinkage) * cov + shrinkage * np.diag(np.diag(cov))
            assert gaussians.means[class_id].tobytes() == mean.tobytes()
            assert (gaussians.choleskys[class_id].tobytes()
                    == np.linalg.cholesky(cov).tobytes())

    def test_constant_latents_raise_without_shrinkage_cure(self):
        # zero-weight encoder collapses every row to the same latent mean
        model = flat_cvae(mu=[0.3], probs=[0.5, 0.5])
        ds = data.Dataset(np.random.default_rng(5).uniform(size=(6, 2)),
                          np.array([0, 0, 0, 1, 1, 1]), ["a", "b"])
        with pytest.raises(NumericError, match="not positive definite"):
            detect.fit_gaussians(model, ds, shrinkage=0.0)

    def test_bad_fit_inputs_rejected(self, lab):
        tiny = lab["train"].subset(np.arange(5))
        with pytest.raises(ValueError, match="at least 2"):
            detect.fit_gaussians(lab["cvae"], tiny, shrinkage=0.1)


class TestNll:
    def test_duplicate_rows_score_identically(self, lab):
        row = lab["test"].features[0]
        batch = np.stack([row, lab["test"].features[1], row])
        nll, labels = detect.score_nll(lab["cvae"], batch,
                                       predict_label(lab["ids"], batch), k=5,
                                       seed=3, label_mode="ids")
        assert nll[0] == nll[2]
        assert labels[0] == labels[2]

    def test_scores_finite_with_metadata(self, lab):
        batch = lab["test"].features[:8]
        nll, labels = detect.score_nll(lab["cvae"], batch,
                                       predict_label(lab["ids"], batch), k=5,
                                       seed=1, label_mode="ids")
        assert nll.shape == (8,)
        assert np.all(np.isfinite(nll))
        assert labels.shape == (8,)
        assert np.all((labels >= 0) & (labels < 5))

    def test_min_mode_never_above_ids_mode(self, lab):
        batch = lab["test"].features[:6]
        predicted = predict_label(lab["ids"], batch)
        by_ids, _ = detect.score_nll(lab["cvae"], batch, predicted, k=5,
                                     seed=2, label_mode="ids")
        by_min, _ = detect.score_nll(lab["cvae"], batch, predicted, k=5,
                                     seed=2, label_mode="min")
        assert np.all(by_min <= by_ids + 1e-12)

    def test_benign_rows_beat_far_ood_rows(self, lab):
        benign = lab["train"].features[lab["train"].class_rows(0)][:30]
        ood = gen_ood(benign, noise_scale=1.0, seed=7)
        low, _ = detect.score_nll(lab["cvae"], benign,
                                  predict_label(lab["ids"], benign), k=10,
                                  seed=5, label_mode="ids")
        high, _ = detect.score_nll(lab["cvae"], ood,
                                   predict_label(lab["ids"], ood), k=10,
                                   seed=5, label_mode="ids")
        assert low.mean() < high.mean()

    def test_label_count_must_match_rows(self, lab):
        batch = lab["test"].features[:4]
        with pytest.raises(ShapeError, match="3 labels for 4 rows"):
            detect.score_nll(lab["cvae"], batch, np.zeros(3, dtype=np.int64),
                             k=2, seed=0, label_mode="ids")


class TestRegret:
    def test_non_negative_and_deterministic(self, lab):
        batch = lab["test"].features[:6]
        labels = lab["test"].labels[:6]
        config = detect.RegretConfig(steps=5)
        scores = detect.score_regret(lab["cvae"], batch, labels, config, 11,
                                     kl_weight=LAB_KL_WEIGHT)
        again = detect.score_regret(lab["cvae"], batch, labels, config, 11,
                                    kl_weight=LAB_KL_WEIGHT)
        assert scores.scores.shape == (6,)
        assert scores.n_invalid == 0
        assert np.all(scores.scores >= -1e-6)
        assert np.all(scores.scores >= 0.0)
        assert np.array_equal(scores.scores, again.scores)

    def test_row_score_ignores_its_neighbours(self, lab):
        # each row keeps its own noise, optimiser moments and best: with the
        # batch size and its position fixed, replacing every other row
        # leaves its score bitwise unchanged
        features, labels = lab["test"].features, lab["test"].labels
        config = detect.RegretConfig(steps=4)
        first = detect.score_regret(lab["cvae"], features[:4], labels[:4],
                                    config, 3, kl_weight=LAB_KL_WEIGHT)
        for i in range(4):
            rows = np.arange(4, 8)
            rows[i] = i
            mixed = detect.score_regret(lab["cvae"], features[rows],
                                        labels[rows], config, 3,
                                        kl_weight=LAB_KL_WEIGHT)
            assert mixed.scores[i] == first.scores[i], i
            assert not np.array_equal(np.delete(mixed.scores, i),
                                      np.delete(first.scores, i))

    def test_one_row_batch_is_the_per_row_refit(self, lab):
        batch = lab["test"].features[:4]
        labels = lab["test"].labels[:4]
        config = detect.RegretConfig(steps=6)
        for row, label in zip(batch, labels):
            got = detect.score_regret(lab["cvae"], row[None, :],
                                      np.array([label]), config, 3,
                                      kl_weight=LAB_KL_WEIGHT)
            assert got.scores[0] == looped_reference_regret(
                lab["cvae"], row, int(label), config, 3, LAB_KL_WEIGHT)

    def test_batch_agrees_with_rows_scored_alone(self, lab):
        # the same refit per row; only the BLAS kernels, chosen by batch
        # size, differ
        batch = lab["test"].features[:8]
        labels = lab["test"].labels[:8]
        config = detect.RegretConfig(steps=20)
        together = detect.score_regret(lab["cvae"], batch, labels, config, 3,
                                       kl_weight=LAB_KL_WEIGHT)
        alone = np.array([
            detect.score_regret(lab["cvae"], batch[i:i + 1], labels[i:i + 1],
                                config, 3, kl_weight=LAB_KL_WEIGHT).scores[0]
            for i in range(8)])
        assert np.all(alone > 0.0)
        assert np.all(np.abs(together.scores - alone) / alone <= 1e-10)

    # Measured on this fixture (12 clean rows plus their gen_ood copies,
    # 100 steps, posterior step 0.05 against encoder step 0.001): at kl
    # weight 1, Spearman 1.0000, per-row relative difference median 3.0e-5,
    # max 8.3e-4; at the trained 0.02, Spearman 0.9957, median 2.8e-3, max
    # 7.6e-2. The bounds leave about 2-3x headroom.
    @pytest.mark.parametrize("kl_weight, min_rho, max_median, max_rel", [
        (1.0, 0.999, 1e-4, 2e-3),
        (0.02, 0.99, 1e-2, 0.15),
    ], ids=["kl-1", "kl-0.02"])
    def test_scores_agree_with_a_dense_encoder_refit(self, lab, kl_weight,
                                                     min_rho, max_median,
                                                     max_rel):
        clean = lab["test"].features[:12]
        batch = np.vstack([clean, gen_ood(clean, noise_scale=0.2, seed=7)])
        labels = np.concatenate([lab["test"].labels[:12]] * 2)
        scores = detect.score_regret(lab["cvae"], batch, labels,
                                     detect.RegretConfig(steps=100), 9,
                                     kl_weight=kl_weight)
        encoder_refit = detect.RegretConfig(steps=100, learning_rate=0.001)
        want = np.array([dense_reference_regret(lab["cvae"], row, int(label),
                                                encoder_refit, 9, kl_weight)
                         for row, label in zip(batch, labels)])
        assert scores.n_invalid == 0
        assert np.all(want > 0.0)
        rel = np.abs(scores.scores - want) / want
        assert spearman(scores.scores, want) >= min_rho
        assert np.median(rel) <= max_median
        assert rel.max() <= max_rel

    def test_already_optimal_sample_has_tiny_regret(self):
        model = flat_cvae(mu=[0.0], probs=[0.5, 0.5])
        scores = detect.score_regret(model, np.array([[0.5, 0.5]]), [0],
                                     detect.RegretConfig(steps=50), 0,
                                     kl_weight=1.0)
        assert 0.0 <= scores.scores[0] <= 0.1

    def test_model_untouched_after_scoring(self, lab):
        before = model_params(lab["cvae"])
        detect.score_regret(lab["cvae"], lab["test"].features[:4],
                            lab["test"].labels[:4],
                            detect.RegretConfig(steps=3), 1,
                            kl_weight=LAB_KL_WEIGHT)
        after = model_params(lab["cvae"])
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_rows_dropped_with_warning(self, caplog):
        # a diverged row scores NaN; the detect stage leaves it out of
        # scores.csv
        # a colossal learning rate overflows the posterior mean on step one
        model = toy_cvae(seed=8)
        batch = np.array([[0.2, 0.7], [0.4, 0.1], [0.9, 0.6]])
        config = detect.RegretConfig(steps=2, learning_rate=1e160)
        before = model_params(model)
        with caplog.at_level("WARNING", logger="stealthlab.detect"):
            scores = detect.score_regret(model, batch, np.zeros(3, int),
                                         config, 0, kl_weight=1.0)
        assert scores.scores.shape == (3,)
        assert np.all(np.isnan(scores.scores))
        assert scores.n_invalid == 3
        assert "dropped 3" in caplog.text
        after = model_params(model)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_one_diverging_row_of_three_is_dropped(self, caplog):
        # a feature of 1e308 overflows that row's reconstruction gradient
        # alone: the batch refit fails, and each row is refit on its own
        model = toy_cvae(seed=8)
        batch = np.array([[0.2, 0.7], [1e308, 0.1], [0.9, 0.6]])
        config = detect.RegretConfig(steps=3)
        with caplog.at_level("WARNING", logger="stealthlab.detect"):
            scores = detect.score_regret(model, batch, np.zeros(3, int),
                                         config, 0, kl_weight=1.0)
        assert scores.n_invalid == 1
        assert "dropped 1" in caplog.text
        assert np.isnan(scores.scores[1])
        for i in (0, 2):
            alone = detect.score_regret(model, batch[i:i + 1], [0], config,
                                        0, kl_weight=1.0)
            assert np.isfinite(scores.scores[i])
            assert scores.scores[i] == alone.scores[0]

    def test_kl_weight_has_no_default(self):
        # no caller falls back to an objective the model was not trained on
        with pytest.raises(TypeError, match="kl_weight"):
            detect.score_regret(toy_cvae(), np.array([[0.2, 0.7]]), [0],
                                detect.RegretConfig(steps=1), 0)

    def test_plain_vae_scores_ignore_the_label(self):
        # a plain VAE's noise is keyed -1 whatever label it is given
        model = toy_cvae(seed=5)
        batch = np.array([[0.2, 0.7], [0.4, 0.1], [0.9, 0.6]])
        config = detect.RegretConfig(steps=4)
        first, last = (detect.score_regret(model, batch, np.full(3, label),
                                           config, 2, kl_weight=1.0).scores
                       for label in (0, data.N_CLASSES - 1))
        assert first.tobytes() == last.tobytes()
        for row in batch:
            for label in (0, data.N_CLASSES - 1):
                got = detect.score_regret(model, row[None, :], [label],
                                          config, 2, kl_weight=1.0)
                assert got.scores[0] == looped_reference_regret(
                    model, row, label, config, 2, 1.0)

    @pytest.mark.parametrize("n_labels", [2, 4])
    def test_label_count_must_match_the_rows(self, n_labels):
        # zipped with too few labels, the rows left over would keep undrawn
        # noise
        batch = np.array([[0.2, 0.7], [0.4, 0.1], [0.9, 0.6]])
        with pytest.raises(ShapeError, match=f"{n_labels} labels for 3 rows"):
            detect.score_regret(toy_cvae(), batch, np.zeros(n_labels, int),
                                detect.RegretConfig(steps=1), 0,
                                kl_weight=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            detect.RegretConfig(steps=0)
        with pytest.raises(ValueError):
            detect.RegretConfig(learning_rate=0.0)


class TestScoreTable:
    def test_regret_is_conditioned_on_ids_labels_and_benign(
            self, lab, monkeypatch):
        # regret refits adversarial and ood rows under the IDS's prediction
        # and benign rows under benign, whatever the IDS says of them: here
        # the benign population is attack rows
        test, train = lab["test"], lab["train"]
        attack = test.features[test.labels > 0][:6]
        ood = np.clip(attack + 0.3 * derive_rng(3, "ood").standard_normal(
            attack.shape), 0.0, 1.0)
        seen, real = [], detect.score_regret

        def recording(model, batch, labels, *args, **kwargs):
            seen.append(labels)
            return real(model, batch, labels, *args, **kwargs)

        monkeypatch.setattr(detect, "score_regret", recording)
        detect.score_table(
            [(detect.TAG_ADVERSARIAL, attack, np.arange(6)),
             (detect.TAG_OOD, ood, np.arange(6)),
             (detect.TAG_BENIGN, attack, np.arange(6))],
            lab["cvae"], lab["ids"], train,
            detect.DetectConfig(k=2, regret=detect.RegretConfig(steps=1)),
            0, kl_weight=LAB_KL_WEIGHT)
        expected = [predict_label(lab["ids"], attack),
                    predict_label(lab["ids"], ood),
                    np.zeros(6, dtype=np.int64)]
        assert (expected[0] > 0).any()
        assert [labels.tolist() for labels in seen] == [
            labels.tolist() for labels in expected]

    def test_runs_the_ids_once_per_population(self, lab, monkeypatch):
        # nll and regret share one prediction per population
        test, train = lab["test"], lab["train"]
        rows = test.features[:4]
        calls, real = [], detect.predict_label

        def counting(net, batch):
            calls.append(len(batch))
            return real(net, batch)

        monkeypatch.setattr(detect, "predict_label", counting)
        detect.score_table(
            [(tag, rows, np.arange(4)) for tag in detect.TAGS],
            lab["cvae"], lab["ids"], train,
            detect.DetectConfig(k=2, regret=detect.RegretConfig(steps=1)),
            0, kl_weight=LAB_KL_WEIGHT)
        assert calls == [4, 4, 4]


class TestOrientation:
    def test_keeps_sign_when_already_above_benign(self):
        assert detect.choose_orientation(np.array([5.0, 6.0]),
                                         np.array([1.0, 2.0])) == 1

    def test_flips_sign_when_below_benign(self):
        assert detect.choose_orientation(np.array([-3.0, -2.0]),
                                         np.array([1.0, 2.0])) == -1

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            detect.choose_orientation(np.array([1.0]), np.array([]))


class TestScoresCsv:
    def test_round_trip_multiple_detectors(self, tmp_path):
        rng = np.random.default_rng(17)
        nll, tags = make_scores(rng.uniform(size=5), rng.uniform(size=4))
        regret = rng.uniform(size=9)
        regret[[2, 6]] = np.nan     # diverged refits are left out
        path = tmp_path / "scores.csv"
        detect.scores_to_csv(path, np.arange(9), tags,
                             {"nll": nll, "regret": regret})
        loaded = detect.scores_from_csv(path)
        assert list(loaded) == ["nll", "regret"]
        for original, (back_tags, back) in zip((nll, regret),
                                               loaded.values()):
            kept = np.isfinite(original)
            assert np.array_equal(back, original[kept])
            assert back_tags.tolist() == tags[kept].tolist()

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores, tags = make_scores([1.5], [0.25])
        detect.scores_to_csv(path, np.arange(2), tags, {"regret": scores})
        want = detect.scores_from_csv(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        got = detect.scores_from_csv(path)
        assert list(got) == list(want) == ["regret"]
        assert got["regret"][0].tolist() == want["regret"][0].tolist()
        assert np.array_equal(got["regret"][1], want["regret"][1])

    def test_header_matches_contract(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores, tags = make_scores([1.0], [2.0])
        detect.scores_to_csv(path, np.arange(2), tags, {"nll": scores})
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == detect.SCORES_CSV_COLUMNS
