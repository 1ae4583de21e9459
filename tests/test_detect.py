import csv

import numpy as np
import pytest

from stealthlab import cvae, data, detect, nn
from stealthlab.attack import OodConfig, gen_ood
from stealthlab.errors import NumericError, ShapeError
from stealthlab.ids import IdsTrainConfig, train_ids
from stealthlab.rng import derive_rng


def make_scores(adv, ood, detector="nll"):
    adv = np.asarray(adv, dtype=np.float64)
    ood = np.asarray(ood, dtype=np.float64)
    return detect.ScoreSet(
        detector,
        np.arange(adv.size + ood.size),
        np.array([detect.TAG_ADVERSARIAL] * adv.size
                 + [detect.TAG_OOD] * ood.size, dtype=object),
        np.concatenate([adv, ood]))


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


def model_params(model):
    return [p.copy() for net in (model.encoder, model.decoder)
            for p in net.params()]


@pytest.fixture(scope="module")
def lab():
    """Small trained detector lab: intrusion classifier plus CVAE."""
    spec = data.SyntheticSpec(samples_per_class=100, separation=0.3,
                              std=0.05, seed=41)
    ds = data.synth_generate(spec)
    train, test = data.stratified_split(ds, 0.8, seed=42)
    ids_model, _ = train_ids(train, IdsTrainConfig(epochs=40, seed=44))
    config = cvae.CvaeTrainConfig(epochs=30, batch_size=64,
                                  learning_rate=0.001, kl_weight=0.02,
                                  conditional=True, latent_dim=16, seed=43)
    model, _ = cvae.train_cvae(train, config)
    return {"ids": ids_model, "cvae": model, "train": train, "test": test}


class TestScoreSet:
    def test_misaligned_fields_rejected(self):
        with pytest.raises(ShapeError):
            detect.ScoreSet("nll", np.arange(3),
                            np.array(["ood"] * 2, dtype=object),
                            np.zeros(3))

    def test_for_tag_filters(self):
        scores = make_scores([1.0, 2.0], [3.0])
        assert np.array_equal(scores.for_tag(detect.TAG_ADVERSARIAL),
                              [1.0, 2.0])
        assert np.array_equal(scores.for_tag(detect.TAG_OOD), [3.0])
        assert scores.n == 3

    def test_concat_sums_invalid_and_merges(self):
        a = make_scores([1.0], [2.0])
        a.n_invalid = 2
        b = make_scores([3.0], [4.0])
        b.n_invalid = 1
        merged = detect.concat_scores([a, b])
        assert merged.n == 4
        assert merged.n_invalid == 3
        assert np.array_equal(merged.scores, [1.0, 2.0, 3.0, 4.0])

    def test_concat_rejects_mixed_detectors_and_empty(self):
        with pytest.raises(ValueError):
            detect.concat_scores([make_scores([1.0], [2.0], "nll"),
                                  make_scores([1.0], [2.0], "regret")])
        with pytest.raises(ValueError):
            detect.concat_scores([])

    def test_concat_drops_labels_unless_all_present(self):
        a = make_scores([1.0], [2.0])
        a.labels_used = np.array([0, 1], dtype=np.int64)
        b = make_scores([3.0], [4.0])
        assert detect.concat_scores([a, b]).labels_used is None
        b.labels_used = np.array([2, 3], dtype=np.int64)
        merged = detect.concat_scores([a, b])
        assert np.array_equal(merged.labels_used, [0, 1, 2, 3])


class TestRocAuc:
    def test_perfect_separation(self):
        curve = detect.roc_auc(make_scores([1.0, 2.0, 3.0], [-1.0, 0.0, 0.5]))
        assert curve.auc == 1.0
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0

    def test_identical_distributions_score_half(self):
        curve = detect.roc_auc(make_scores([0.3] * 5, [0.3] * 5))
        assert curve.auc == 0.5

    def test_matches_pair_count_oracle(self):
        # quantized scores so ties occur; exact equality expected
        rng = np.random.default_rng(99)
        for _ in range(60):
            n_adv = int(rng.integers(1, 101))
            n_ood = int(rng.integers(1, 101))
            adv = rng.integers(0, 12, size=n_adv) / 10.0
            ood = rng.integers(0, 12, size=n_ood) / 10.0
            curve = detect.roc_auc(make_scores(adv, ood))
            assert curve.auc == auc_oracle(adv, ood)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(7)
        adv = rng.integers(0, 12, size=40) / 10.0
        ood = rng.integers(0, 12, size=30) / 10.0
        base = detect.roc_auc(make_scores(adv, ood))
        for transform in (lambda s: 3.0 * s + 1.0, np.exp, lambda s: s ** 3):
            curve = detect.roc_auc(make_scores(transform(adv),
                                               transform(ood)))
            assert curve.auc == base.auc
            assert np.array_equal(curve.fpr, base.fpr)
            assert np.array_equal(curve.tpr, base.tpr)

    def test_single_tag_rejected(self):
        only_adv = detect.ScoreSet(
            "nll", np.arange(3),
            np.array([detect.TAG_ADVERSARIAL] * 3, dtype=object),
            np.arange(3.0))
        with pytest.raises(ValueError):
            detect.roc_auc(only_adv)
        with pytest.raises(ValueError):
            detect.roc_auc(make_scores([1.0], [2.0]), positive_tag="benign")

    def test_curve_is_monotone(self):
        rng = np.random.default_rng(3)
        scores = make_scores(rng.integers(0, 8, 50) / 7.0,
                             rng.integers(0, 8, 60) / 7.0)
        curve = detect.roc_auc(scores)
        assert np.all(np.diff(curve.fpr) >= 0.0)
        assert np.all(np.diff(curve.tpr) >= 0.0)
        assert curve.thresholds[0] == np.inf
        assert np.all(np.diff(curve.thresholds) < 0.0)
        assert 0.0 <= curve.auc <= 1.0

    def test_roc_csv_round_trip(self, tmp_path):
        curve = detect.roc_auc(make_scores([1.0, 2.0], [0.5, 1.5]))
        path = tmp_path / "roc.csv"
        detect.roc_to_csv(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["threshold"]) for r in rows] \
            == curve.thresholds.tolist()
        assert [float(r["fpr"]) for r in rows] == curve.fpr.tolist()
        assert [float(r["tpr"]) for r in rows] == curve.tpr.tolist()


class TestHistograms:
    def test_counts_sum_per_tag(self):
        rng = np.random.default_rng(11)
        scores = make_scores(rng.uniform(size=37), rng.uniform(size=23))
        hist = detect.export_histograms(scores, bins=10)
        assert hist["edges"].shape == (11,)
        assert hist["counts"][detect.TAG_ADVERSARIAL].sum() == 37
        assert hist["counts"][detect.TAG_OOD].sum() == 23

    def test_all_equal_scores_fill_one_bin(self):
        hist = detect.export_histograms(make_scores([2.0] * 6, [2.0] * 4),
                                        bins=5)
        for counts in hist["counts"].values():
            assert (counts > 0).sum() == 1

    def test_shift_moves_edges_not_counts(self):
        rng = np.random.default_rng(13)
        adv = rng.uniform(size=40)
        ood = rng.uniform(size=40) + 0.2
        base = detect.export_histograms(make_scores(adv, ood), bins=8)
        moved = detect.export_histograms(make_scores(adv + 5.0, ood + 5.0),
                                         bins=8)
        assert np.allclose(moved["edges"], base["edges"] + 5.0)
        for tag in base["counts"]:
            assert np.array_equal(moved["counts"][tag], base["counts"][tag])

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            detect.export_histograms(make_scores([1.0], [2.0]), bins=1)
        empty = detect.ScoreSet("nll", np.array([], dtype=np.int64),
                                np.array([], dtype=object), np.array([]))
        with pytest.raises(ValueError):
            detect.export_histograms(empty)

    def test_histograms_csv_layout(self, tmp_path):
        hist = detect.export_histograms(make_scores([1.0, 2.0], [3.0]),
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
        gaussians = detect.GaussianClassModel(
            np.zeros((1, 4)), np.eye(4)[None, :, :], 0.0)
        scores = detect.score_mahalanobis(gaussians, model,
                                          np.array([[0.1, 0.9]]))
        assert scores.scores[0] == 5.0

    def test_class_mean_scores_zero(self):
        model = flat_cvae(mu=[3.0, 4.0, 0.0, 0.0], probs=[0.5, 0.5])
        gaussians = detect.GaussianClassModel(
            np.array([[3.0, 4.0, 0.0, 0.0]]), np.eye(4)[None, :, :], 0.0)
        scores = detect.score_mahalanobis(gaussians, model,
                                          np.array([[0.1, 0.9]]))
        assert scores.scores[0] == 0.0

    def test_minimum_over_classes(self):
        model = flat_cvae(mu=[3.0, 4.0, 0.0, 0.0], probs=[0.5, 0.5])
        means = np.stack([np.full(4, 100.0), np.array([3.0, 4.0, 0.0, 0.0])])
        gaussians = detect.GaussianClassModel(
            means, np.stack([np.eye(4), np.eye(4)]), 0.0)
        scores = detect.score_mahalanobis(gaussians, model,
                                          np.array([[0.1, 0.9]]))
        assert scores.scores[0] == 0.0

    def test_full_shrinkage_matches_diagonal_formula(self, lab):
        model, train = lab["cvae"], lab["train"]
        batch = lab["test"].features[:20]
        gaussians = detect.fit_gaussians(model, train, shrinkage=1.0)
        scores = detect.score_mahalanobis(gaussians, model, batch)
        per_class = np.empty((len(train.class_names), batch.shape[0]))
        for class_id in range(len(train.class_names)):
            rows = train.class_rows(class_id)
            latents, _ = cvae.encode(model, train.features[rows],
                                     train.labels[rows])
            mean = latents.mean(axis=0)
            var = latents.var(axis=0, ddof=1)
            u, _ = cvae.encode(model, batch,
                               np.full(batch.shape[0], class_id,
                                       dtype=np.int64))
            per_class[class_id] = np.sqrt(((u - mean) ** 2 / var).sum(axis=1))
        assert np.allclose(scores.scores, per_class.min(axis=0),
                           rtol=1e-10, atol=1e-12)

    def test_constant_latents_raise_without_shrinkage_cure(self):
        # zero-weight encoder collapses every row to the same latent mean
        model = flat_cvae(mu=[0.3], probs=[0.5, 0.5])
        ds = data.Dataset(np.random.default_rng(5).uniform(size=(6, 2)),
                          np.array([0, 0, 0, 1, 1, 1]),
                          ["a", "b"], ["benign", "deauth"])
        with pytest.raises(NumericError, match="not positive definite"):
            detect.fit_gaussians(model, ds, shrinkage=0.0)

    def test_bad_fit_inputs_rejected(self, lab):
        with pytest.raises(ValueError):
            detect.fit_gaussians(lab["cvae"], lab["train"], shrinkage=1.1)
        tiny = lab["train"].subset(np.arange(5))
        with pytest.raises(ValueError, match="at least 2"):
            detect.fit_gaussians(lab["cvae"], tiny)


class TestNll:
    def test_duplicate_rows_score_identically(self, lab):
        row = lab["test"].features[0]
        batch = np.stack([row, lab["test"].features[1], row])
        scores = detect.score_nll(lab["cvae"], lab["ids"], batch, k=5, seed=3)
        assert scores.scores[0] == scores.scores[2]
        assert scores.labels_used[0] == scores.labels_used[2]

    def test_scores_finite_with_metadata(self, lab):
        batch = lab["test"].features[:8]
        scores = detect.score_nll(lab["cvae"], lab["ids"], batch, k=5,
                                  tag=detect.TAG_OOD, seed=1)
        assert scores.detector == "nll"
        assert np.all(np.isfinite(scores.scores))
        assert np.array_equal(scores.sample_ids, np.arange(8))
        assert set(scores.tags.tolist()) == {detect.TAG_OOD}
        assert scores.labels_used.shape == (8,)
        assert np.all((scores.labels_used >= 0) & (scores.labels_used < 5))

    def test_min_mode_never_above_ids_mode(self, lab):
        batch = lab["test"].features[:6]
        by_ids = detect.score_nll(lab["cvae"], lab["ids"], batch, k=5,
                                  seed=2, label_mode="ids")
        by_min = detect.score_nll(lab["cvae"], lab["ids"], batch, k=5,
                                  seed=2, label_mode="min")
        assert np.all(by_min.scores <= by_ids.scores + 1e-12)

    def test_unknown_label_mode_rejected(self, lab):
        with pytest.raises(ValueError):
            detect.score_nll(lab["cvae"], lab["ids"],
                             lab["test"].features[:1], label_mode="argmax")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_names_the_tag(self, lab):
        batch = np.full((1, 30), np.inf)
        with pytest.raises(NumericError, match="tag 'ood'"):
            detect.score_nll(lab["cvae"], lab["ids"], batch, k=2,
                             tag=detect.TAG_OOD)

    def test_benign_rows_beat_far_ood_rows(self, lab):
        benign = lab["train"].features[lab["train"].class_rows(0)][:30]
        ood = gen_ood(benign, OodConfig(noise_scale=1.0, seed=7))
        low = detect.score_nll(lab["cvae"], lab["ids"], benign, k=10,
                               tag=detect.TAG_BENIGN, seed=5)
        high = detect.score_nll(lab["cvae"], lab["ids"], ood, k=10,
                                tag=detect.TAG_OOD, seed=5)
        assert low.scores.mean() < high.scores.mean()


class TestRegret:
    def test_non_negative_and_deterministic(self, lab):
        batch = lab["test"].features[:6]
        labels = lab["test"].labels[:6]
        config = detect.RegretConfig(steps=5, seed=11)
        scores = detect.score_regret(lab["cvae"], batch, labels, config)
        again = detect.score_regret(lab["cvae"], batch, labels, config)
        assert scores.n == 6
        assert scores.n_invalid == 0
        assert np.all(scores.scores >= -1e-6)
        assert np.all(scores.scores >= 0.0)
        assert np.array_equal(scores.scores, again.scores)
        assert np.array_equal(scores.labels_used, labels)

    def test_batch_scores_equal_rows_scored_alone(self, lab):
        # the work encoder and optimiser carried across rows leak nothing
        batch = lab["test"].features[:4]
        labels = lab["test"].labels[:4]
        config = detect.RegretConfig(steps=4, seed=3)
        together = detect.score_regret(lab["cvae"], batch, labels, config)
        alone = [detect.score_regret(lab["cvae"], batch[i:i + 1],
                                     labels[i:i + 1], config).scores[0]
                 for i in range(4)]
        assert np.array_equal(together.scores, np.array(alone))

    def test_already_optimal_sample_has_tiny_regret(self):
        model = flat_cvae(mu=[0.0], probs=[0.5, 0.5])
        scores = detect.score_regret(model, np.array([[0.5, 0.5]]), None,
                                     detect.RegretConfig(steps=50))
        assert 0.0 <= scores.scores[0] <= 0.1

    def test_model_untouched_after_scoring(self, lab):
        before = model_params(lab["cvae"])
        detect.score_regret(lab["cvae"], lab["test"].features[:4],
                            lab["test"].labels[:4],
                            detect.RegretConfig(steps=3, seed=1))
        after = model_params(lab["cvae"])
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_rows_dropped_with_warning(self, caplog):
        # a colossal learning rate overflows the posterior mean on step one
        model = toy_cvae(seed=8)
        batch = np.array([[0.2, 0.7], [0.4, 0.1], [0.9, 0.6]])
        config = detect.RegretConfig(steps=2, learning_rate=1e160, seed=0)
        before = model_params(model)
        with caplog.at_level("WARNING", logger="stealthlab.detect"):
            scores = detect.score_regret(model, batch, None, config)
        assert scores.n == 0
        assert scores.n_invalid == 3
        assert "dropped 3" in caplog.text
        after = model_params(model)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            detect.RegretConfig(steps=0)
        with pytest.raises(ValueError):
            detect.RegretConfig(learning_rate=0.0)


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

    def test_orient_scores_negates(self):
        scores = make_scores([1.0, 2.0], [3.0])
        scores.n_invalid = 4
        flipped = detect.orient_scores(scores, -1)
        assert np.array_equal(flipped.scores, [-1.0, -2.0, -3.0])
        assert np.array_equal(flipped.sample_ids, scores.sample_ids)
        assert flipped.n_invalid == 4
        kept = detect.orient_scores(scores, 1)
        assert np.array_equal(kept.scores, scores.scores)
        with pytest.raises(ValueError):
            detect.orient_scores(scores, 0)


class TestScoresCsv:
    def test_round_trip_multiple_detectors(self, tmp_path):
        rng = np.random.default_rng(17)
        nll = make_scores(rng.uniform(size=5), rng.uniform(size=4), "nll")
        regret = make_scores(rng.uniform(size=3), rng.uniform(size=2),
                             "regret")
        path = tmp_path / "scores.csv"
        detect.scores_to_csv([nll, regret], path)
        loaded = detect.scores_from_csv(path)
        assert set(loaded) == {"nll", "regret"}
        for original in (nll, regret):
            back = loaded[original.detector]
            assert np.array_equal(back.scores, original.scores)
            assert np.array_equal(back.sample_ids, original.sample_ids)
            assert back.tags.tolist() == original.tags.tolist()

    def test_header_matches_contract(self, tmp_path):
        path = tmp_path / "scores.csv"
        detect.scores_to_csv([make_scores([1.0], [2.0])], path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == detect.SCORES_CSV_COLUMNS
