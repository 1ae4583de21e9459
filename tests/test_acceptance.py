"""Twelve-point acceptance gate.

Every check prints one PASS/FAIL line (run pytest with -s to see them) and
asserts the same condition. Checks 4, 5, 7, 10, 11 and 12 share the
session-scoped default synthetic pipeline run. Exporting
STEALTHLAB_DATASET_CSV=/path/to/telemetry.csv enables the real-dataset
variants, which run the pipeline once more on that file.
"""

import csv
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from stealthlab import attack, cgan, cli, cvae, data, detect, ids, nn
from stealthlab.rng import derive_rng

REAL_CSV = os.environ.get("STEALTHLAB_DATASET_CSV")
needs_real = pytest.mark.skipif(
    REAL_CSV is None,
    reason="set STEALTHLAB_DATASET_CSV to run the real-dataset checks")

PIPELINE_STAGES = ["data", "ids", "gan", "cvae", "sweep", "detect", "report"]


def check(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


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


def relative_error(got, want):
    num = max(float(np.abs(g - w).max()) for g, w in zip(got, want))
    den = max(float(np.abs(a).max()) for a in list(got) + list(want))
    return num / max(den, 1e-8)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def real_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("real_pipeline")
    config = cli.RunConfig(
        seed=0, out_dir=str(out_dir),
        dataset=data.DatasetConfig(source="csv", csv_path=REAL_CSV))
    started = time.perf_counter()
    for stage in PIPELINE_STAGES:
        cli.run_stage(stage, config)
    wall_clock = time.perf_counter() - started
    return {"out_dir": Path(out_dir), "wall_clock": wall_clock}


# --------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences on toy networks
# --------------------------------------------------------------------------

def test_c01_gradient_suite():
    started = time.perf_counter()
    worst = 0.0

    rng = derive_rng(1, "gate-grad")
    net = nn.build_mlp([4, 6, 3], ["tanh", "linear"], rng)
    x = rng.uniform(0.1, 0.9, size=(8, 4))
    labels = rng.integers(0, 3, size=8)

    def ce_loss():
        value, _ = nn.softmax_cross_entropy(net.forward(x), labels)
        return value

    tape = []
    net.forward(x, tape)
    _, d_logits = nn.softmax_cross_entropy(tape[-1][1], labels)
    grads, _ = net.backward(d_logits, tape, from_logits=True)
    worst = max(worst, relative_error(grads,
                                      finite_difference(ce_loss,
                                                        net.params())))

    encoder = nn.build_mlp([9, 6, 6], ["tanh", "linear"], rng)
    decoder = nn.build_mlp([8, 6, 4], ["tanh", "sigmoid"], rng)
    model = cvae.CvaeModel(encoder, decoder, 3, conditional=True)
    xe = rng.uniform(0.2, 0.8, size=(3, 4))
    ye = np.array([0, 2, 4])
    noise = rng.standard_normal((3, 3))

    def elbo():
        return cvae.elbo_loss(model, xe, ye, noise=noise, kl_weight=0.9,
                              with_grads=False).loss

    analytic = cvae.elbo_loss(model, xe, ye, noise=noise, kl_weight=0.9).grads
    worst = max(worst, relative_error(analytic,
                                      finite_difference(elbo,
                                                        model.params())))

    ids_model = nn.build_mlp([4, 6, 5], ["tanh", "softmax"], rng)
    disc = nn.build_mlp([4, 6, 1], ["tanh", "sigmoid"], rng)
    gen = cgan.Generator(nn.build_mlp([8, 8, 4], ["tanh", "tanh"], rng),
                         3, 0.05)
    x_att = rng.uniform(0.3, 0.6, size=(5, 4))
    x_ben = rng.uniform(0.3, 0.6, size=(5, 4))
    gnoise = rng.standard_normal((5, 3))
    glabels = rng.integers(1, 5, size=5)
    config = cgan.GanConfig(lambda_cls=1.0, lambda_stealth=10.0,
                            lambda_gan=0.1, noise_dim=3, out_scale=0.05)

    def gen_total(tape=None):
        delta = cgan.generate_perturbation(gen, gnoise, glabels, tape)
        return cgan.generator_loss(ids_model, disc, x_att, delta, x_ben,
                                   config)

    gen_tape = []
    res = gen_total(gen_tape)
    analytic = cgan.generator_param_grads(gen, res.d_delta, gen_tape)
    worst = max(worst, relative_error(
        analytic, finite_difference(lambda: gen_total().total,
                                    gen.net.params())))

    elapsed = time.perf_counter() - started
    check("01", worst <= 1e-4 and elapsed <= 1.0,
          f"gradients: worst rel err {worst:.2e}, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. classifier accuracy on well-separated synthetic data
# --------------------------------------------------------------------------

def test_c02_ids_accuracy(separable_ids):
    accuracy = ids.accuracy(separable_ids["model"], separable_ids["test"])
    seconds = separable_ids["train_seconds"]
    check("02", accuracy >= 0.99 and seconds < 60.0,
          f"ids test accuracy {accuracy:.4f} after {seconds:.1f}s")


@needs_real
def test_c02_real_dataset_ids_accuracy(real_run):
    manifest = load_json(real_run["out_dir"] / "manifest.json")
    accuracy = manifest["stages"]["ids"]["meta"]["test_accuracy"]
    check("02-real", 0.995 <= accuracy <= 1.0,
          f"real ids test accuracy {accuracy:.4f}")


# --------------------------------------------------------------------------
# 3. refinement never leaves the epsilon band or the unit cube
# --------------------------------------------------------------------------

def test_c03_clip_invariant():
    grids = attack.SweepConfig()
    rng = np.random.default_rng(20250815)
    violations = 0
    for run in range(1000):
        gen = cgan.build_generator(derive_rng(run, "gate-gen"), noise_dim=8,
                                   out_scale=0.1, hidden=(8,))
        for p in gen.net.params():
            p *= 5.0
        epsilon = float(rng.choice(grids.epsilon_grid))
        n_ref = int(rng.choice(grids.n_ref_grid))
        x_att = rng.uniform(0.0, 1.0, size=(3, data.N_FEATURES))
        labels = rng.integers(1, 5, size=3)
        snapshots = attack.refine_trajectory(gen, x_att, labels, epsilon,
                                             [n_ref], run)
        x_adv = snapshots[n_ref]
        if np.abs(x_adv - x_att).max() > epsilon + 1e-9:
            violations += 1
        if x_adv.min() < 0.0 or x_adv.max() > 1.0:
            violations += 1
    check("03", violations == 0,
          f"{violations} violations over 1000 randomized runs")


# --------------------------------------------------------------------------
# 4. stealth separation at the selected operating point
# --------------------------------------------------------------------------

def test_c04_stealth_separation(pipeline_run):
    selection = load_json(pipeline_run["out_dir"] / "sweep" / "selection.json")
    point = selection["selected"]
    ok = (selection["feasible"] and point["succ_adv"] >= 0.8
          and point["succ_adv"] >= 5.0 * point["succ_ood"])
    check("04", ok, f"succ_adv {point['succ_adv']:.3f} vs "
                    f"succ_ood {point['succ_ood']:.3f}")


@needs_real
def test_c04_real_dataset_success(real_run):
    selection = load_json(real_run["out_dir"] / "sweep" / "selection.json")
    n_ref = selection["selected"]["n_ref"]
    rows = load_rows(real_run["out_dir"] / "sweep" / "sweep.csv")
    at_band = [r for r in rows
               if int(r["n_ref"]) == n_ref
               and abs(float(r["epsilon"]) - 0.04) < 1e-9]
    succ = float(at_band[0]["succ_adv"]) if at_band else -1.0
    check("04-real", bool(at_band) and succ >= 0.9,
          f"succ_adv {succ:.3f} at epsilon 0.04, n_ref {n_ref}")


# --------------------------------------------------------------------------
# 5. the reported selection minimizes the objective over the feasible grid
# --------------------------------------------------------------------------

def test_c05_selection_is_the_feasible_minimum(pipeline_run):
    selection = load_json(pipeline_run["out_dir"] / "sweep" / "selection.json")
    point = selection["selected"]
    rows = load_rows(pipeline_run["out_dir"] / "sweep" / "sweep.csv")
    feasible = [r for r in rows
                if float(r["succ_adv"]) >= selection["eta_max"]]
    best = min(float(r["objective"]) for r in feasible)
    matches = [r for r in feasible
               if float(r["epsilon"]) == point["epsilon"]
               and float(r["rho"]) == point["rho"]
               and int(r["n_ref"]) == point["n_ref"]]
    ok = (bool(feasible) and len(matches) == 1
          and float(matches[0]["objective"]) == point["objective"]
          and point["objective"] == best)
    check("05", ok, f"selected objective {point['objective']:.6f} == grid "
                    f"minimum {best:.6f} over {len(feasible)} feasible rows")


@needs_real
def test_c05_real_dataset_refinement_band(real_run):
    selection = load_json(real_run["out_dir"] / "sweep" / "selection.json")
    n_ref = selection["selected"]["n_ref"]
    check("05-real", 25 <= n_ref <= 40, f"selected n_ref {n_ref}")


# --------------------------------------------------------------------------
# 6. one-dimensional Wasserstein distance vs a replication oracle
# --------------------------------------------------------------------------

def wasserstein_oracle(a, b):
    # duplicating every point keeps the distribution, so the equal-size
    # sorted-difference formula on lcm-sized copies is exact
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    size = math.lcm(a.size, b.size)
    return float(np.abs(np.repeat(a, size // a.size)
                        - np.repeat(b, size // b.size)).mean())


def test_c06_wasserstein_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(500):
        a = rng.uniform(size=rng.integers(1, 33))
        b = rng.uniform(size=rng.integers(1, 33))
        if rng.random() < 0.3:
            a = np.round(a * 4) / 4
            b = np.round(b * 4) / 4
        worst = max(worst, abs(attack.wasserstein_1d(a, b)
                               - wasserstein_oracle(a, b)))
    check("06", worst <= 1e-12, f"worst deviation {worst:.2e} on 500 pairs")


# --------------------------------------------------------------------------
# 7. importance-weighted bound tightens with more samples
# --------------------------------------------------------------------------

def test_c07_iwae_ordering(pipeline_run):
    model = cvae.load_cvae(pipeline_run["out_dir"] / "models")
    test = data.load_csv(pipeline_run["out_dir"] / "data" / "test.csv")
    x = test.features[:200]
    labels = test.labels[:200]
    means = {k: cvae.iwae_batch(model, x, labels, k, seed=77).mean()
             for k in (1, 5, 50)}
    ok = (means[1] <= means[5] + 1e-6 and means[5] <= means[50] + 1e-6)
    check("07", ok, f"L1 {means[1]:.4f} <= L5 {means[5]:.4f} "
                    f"<= L50 {means[50]:.4f}")


# --------------------------------------------------------------------------
# 8. stabilized log-mean-exp: naive agreement and extreme-weight safety
# --------------------------------------------------------------------------

def test_c08_nll_stability():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        w = rng.uniform(-30.0, 30.0, size=int(rng.integers(1, 64)))
        naive = float(np.log(np.mean(np.exp(w))))
        worst = max(worst, abs(cvae.log_mean_exp(w) - naive))
    extremes = [np.array([1e4, 9.9e3]), np.array([-1e4, -9.9e3]),
                np.array([-1e4, 1e4]), np.array([1e4])]
    finite = all(np.isfinite(cvae.log_mean_exp(w)) for w in extremes)
    check("08", worst <= 1e-8 and finite,
          f"worst naive gap {worst:.2e}, extremes finite {finite}")


# --------------------------------------------------------------------------
# 9. AUC equals the brute-force pair-count probability
# --------------------------------------------------------------------------

def pair_count_auc(adv, ood):
    wins = ties = 0
    for a in adv:
        for o in ood:
            if a > o:
                wins += 1
            elif a == o:
                ties += 1
    return (2 * wins + ties) / (2 * len(adv) * len(ood))


def test_c09_auc_pair_count_oracle():
    rng = np.random.default_rng(9)
    mismatches = 0
    for trial in range(100):
        n_adv = int(rng.integers(1, 101))
        n_ood = int(rng.integers(1, 101))
        if trial % 2:
            adv = rng.integers(0, 10, size=n_adv) / 9.0   # tie-prone
            ood = rng.integers(0, 10, size=n_ood) / 9.0
        else:
            adv = rng.standard_normal(n_adv)
            ood = rng.standard_normal(n_ood)
        scores = np.concatenate([adv, ood]).astype(np.float64)
        positive = np.arange(n_adv + n_ood) < n_adv
        if detect.roc_auc(scores, positive).auc != pair_count_auc(adv, ood):
            mismatches += 1
    check("09", mismatches == 0,
          f"{mismatches} mismatches over 100 random score sets")


# --------------------------------------------------------------------------
# 10. detector ranking at the selected operating point
# --------------------------------------------------------------------------

def test_c10_detector_ranking(pipeline_run):
    auc = load_json(pipeline_run["out_dir"] / "report" / "summary.json")["auc"]
    ok = (auc["nll"] >= auc["mahalanobis"] and auc["nll"] >= auc["regret"])
    check("10", ok, f"auc nll {auc['nll']:.4f}, mahalanobis "
                    f"{auc['mahalanobis']:.4f}, regret {auc['regret']:.4f}")


@needs_real
def test_c10_real_dataset_nll_auc(real_run):
    auc = load_json(real_run["out_dir"] / "report" / "summary.json")["auc"]
    ok = (auc["nll"] >= 0.95 and auc["nll"] >= auc["mahalanobis"]
          and auc["nll"] >= auc["regret"])
    check("10-real", ok, f"real auc nll {auc['nll']:.4f}")


# --------------------------------------------------------------------------
# 11. conditioning helps: CVAE reconstructs better than the plain VAE
# --------------------------------------------------------------------------

def test_c11_cvae_beats_vae(pipeline_run):
    manifest = load_json(pipeline_run["out_dir"] / "manifest.json")
    meta = manifest["stages"]["cvae"]["meta"]
    cvae_recon = meta["cvae"]["final_recon"]
    vae_recon = meta["vae"]["final_recon"]
    check("11", cvae_recon < vae_recon,
          f"final recon cvae {cvae_recon:.4f} < vae {vae_recon:.4f}")


# --------------------------------------------------------------------------
# 12. runtime budget for the end-to-end run
# --------------------------------------------------------------------------

def test_c12_runtime_budget(pipeline_run):
    wall = pipeline_run["wall_clock"]
    check("12", wall < 600.0, f"synthetic pipeline took {wall:.1f}s")


@needs_real
def test_c12_real_dataset_runtime(real_run):
    wall = real_run["wall_clock"]
    check("12-real", wall < 1800.0, f"real pipeline took {wall:.1f}s")
