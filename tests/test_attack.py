import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthlab import attack, cgan, data, nn
from stealthlab.errors import NumericError, ShapeError
from stealthlab.rng import derive_rng, derive_seed

N = data.N_FEATURES
DEFAULT_SWEEP = attack.SweepConfig()


def small_generator(seed, gain=1.0, hidden=(16, 16)):
    gen = cgan.build_generator(derive_rng(seed, "small-gen"), noise_dim=8,
                               out_scale=0.1, hidden=hidden)
    if gain != 1.0:
        for p in gen.net.params():
            p *= gain
    return gen


def constant_generator(value=40.0):
    """Weights zero, huge bias: tanh saturates to exactly +1 per feature."""
    gen = cgan.build_generator(derive_rng(0, "const-gen"), noise_dim=8,
                               out_scale=0.1, hidden=(4,))
    weights = gen.net.params()
    for p in weights:
        p[...] = 0.0
    weights[-1][...] = value     # output-layer bias
    return gen


def zero_generator():
    gen = cgan.build_generator(derive_rng(0, "zero-gen"), noise_dim=8,
                               out_scale=0.1, hidden=(4,))
    for p in gen.net.params():
        p[...] = 0.0
    return gen


def threshold_ids(feature=0, cut=0.5, sharpness=200.0):
    """Linear model: benign iff x[feature] < cut, else class 1."""
    net = nn.build_mlp([N, 5], ["softmax"], derive_rng(0, "lin-ids"))
    w, b = net.params()
    w[...] = 0.0
    b[...] = 0.0
    w[feature, 1] = sharpness
    b[1] = -sharpness * cut
    return net


class TestRefine:
    def test_thousand_randomized_runs_respect_the_clip_budget(self):
        # criterion: no infinity-norm violation across the default grids
        rng = np.random.default_rng(20250815)
        violations = 0
        for run in range(1000):
            gen = small_generator(run, gain=5.0, hidden=(8,))
            epsilon = float(rng.choice(DEFAULT_SWEEP.epsilon_grid))
            n_ref = int(rng.choice(DEFAULT_SWEEP.n_ref_grid))
            x_att = rng.uniform(0.0, 1.0, size=(3, N))
            labels = rng.integers(1, 5, size=3)
            # every step is snapshotted, so every step's deviation is checked
            snapshots = attack.refine_trajectory(
                gen, x_att, labels, epsilon, range(1, n_ref + 1), run)
            for x_adv in snapshots.values():
                if np.abs(x_adv - x_att).max() > epsilon + 1e-9:
                    violations += 1
                assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0
        assert violations == 0

    def test_prefix_snapshots_match_standalone_runs(self):
        gen = small_generator(1, gain=3.0)
        rng = np.random.default_rng(7)
        x_att = rng.uniform(0.2, 0.8, size=(5, N))
        labels = rng.integers(1, 5, size=5)
        snapshots = attack.refine_trajectory(gen, x_att, labels, 0.05,
                                             [5, 10, 20], seed=99)
        for n_ref in (5, 10, 20):
            solo = attack.refine_trajectory(gen, x_att, labels, 0.05,
                                            [n_ref], 99)
            assert np.array_equal(snapshots[n_ref], solo[n_ref])

    def test_zero_generator_leaves_input_unchanged(self):
        gen = zero_generator()
        x_att = np.random.default_rng(3).uniform(size=(4, N))
        labels = np.array([1, 2, 3, 4])
        for n_ref in (1, 7):
            snapshots = attack.refine_trajectory(gen, x_att, labels, 0.05,
                                                 [n_ref], 0)
            assert np.array_equal(snapshots[n_ref], x_att)

    def test_constant_generator_saturates_in_one_step(self):
        gen = constant_generator()
        x_att = np.random.default_rng(4).uniform(size=(6, N))
        labels = np.array([1, 2, 3, 4, 1, 2])
        expected = np.minimum(x_att + 0.05, 1.0)
        one = attack.refine_trajectory(gen, x_att, labels, 0.05, [1], 0)
        many = attack.refine_trajectory(gen, x_att, labels, 0.05, [9], 0)
        assert np.array_equal(one[1], expected)
        assert np.array_equal(many[9], expected)

    def test_zero_steps_is_identity_not_an_error(self):
        gen = small_generator(2)
        x_att = np.full((2, N), 0.4)
        snapshots = attack.refine_trajectory(
            gen, x_att, np.array([1, 2]), 0.05, [0], 0)
        assert list(snapshots) == [0]
        assert np.array_equal(snapshots[0], x_att)


def stock_generator():
    return cgan.build_generator(derive_rng(27, "stock-gen"), noise_dim=32,
                                out_scale=0.1)


def one_batch_trajectory(gen, x_att, labels, epsilon, steps, seed):
    """refine_trajectory as one generator pass over every row per step."""
    rng = derive_rng(seed, "refine-noise")
    lower = np.maximum(x_att - epsilon, 0.0)
    upper = np.minimum(x_att + epsilon, 1.0)
    current = x_att.copy()
    snapshots = {0: x_att.copy()} if 0 in steps else {}
    for step in range(1, max(steps) + 1):
        noise = rng.standard_normal((len(x_att), gen.noise_dim))
        delta = cgan.generate_perturbation(gen, noise, labels)
        current = np.clip(current + delta, lower, upper)
        if step in steps:
            snapshots[step] = current.copy()
    return snapshots


class TestRowBlocks:
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 255, 256, 257, 383, 480])
    def test_blocks_keep_the_one_batch_bits(self, n):
        # the stock 256-wide generator: 1 to 3 blocks of 128-255 rows
        rng = np.random.default_rng(n)
        x_att = rng.uniform(0.0, 1.0, size=(n, N))
        labels = rng.integers(1, 5, size=n)
        gen = stock_generator()
        epsilon, rho, n_ref, seed = point = (0.08, 0.2, 4, 9)
        steps = [0, 1, n_ref]
        snapshots = attack.refine_trajectory(gen, x_att, labels, epsilon,
                                             steps, seed)
        expected = one_batch_trajectory(gen, x_att, labels, epsilon, steps,
                                        seed)
        assert list(snapshots) == steps
        for step in steps:
            assert np.array_equal(snapshots[step], expected[step]), step
        # the pair the sweep scores at the point, and its row subsets
        full_adv = one_batch_trajectory(
            gen, x_att, labels, epsilon, [n_ref],
            derive_seed(seed, "sweep-refine", epsilon))[n_ref]
        full_ood = attack._ood(x_att, rho, seed)
        every = np.arange(n)
        subsets = [every] + [rows for rows in (
            every[::2], every[1:], every[n // 3:], every[::-3])
            if rows.size >= 2]
        for rows in subsets:
            x_adv, x_ood = attack.operating_point(gen, x_att, labels, *point,
                                                  rows)
            assert np.array_equal(x_adv, full_adv[rows]), rows.size
            assert np.array_equal(x_ood, full_ood[rows]), rows.size


class TestOod:
    def test_vanishing_noise_is_near_identity(self):
        x_att = np.random.default_rng(5).uniform(0.1, 0.9, size=(8, N))
        x_ood = attack.gen_ood(x_att, 1e-9, seed=1)
        assert np.abs(x_ood - x_att).max() < 1e-6

    def test_seed_reproducible(self):
        x_att = np.random.default_rng(6).uniform(size=(8, N))
        a = attack.gen_ood(x_att, 0.3, seed=2)
        b = attack.gen_ood(x_att, 0.3, seed=2)
        assert np.array_equal(a, b)

    def test_noise_scale_matches_sample_std(self):
        # interior base point, small scale: clipping never engages
        x_att = np.full((3000, N), 0.5)
        rho = 0.05
        x_ood = attack.gen_ood(x_att, rho, seed=3)
        sample_std = (x_ood - x_att).std()
        assert abs(sample_std - rho) / rho < 0.1

    def test_output_clipped_to_unit_cube(self):
        x_att = np.random.default_rng(8).uniform(size=(50, N))
        x_ood = attack.gen_ood(x_att, 1.5, seed=4)
        assert x_ood.min() >= 0.0 and x_ood.max() <= 1.0


class TestSuccessRate:
    def test_all_benign(self):
        model = threshold_ids()
        batch = np.full((10, N), 0.2)
        assert attack.success_rate(model, batch) == 1.0

    def test_none_benign(self):
        model = threshold_ids()
        batch = np.full((10, N), 0.9)
        assert attack.success_rate(model, batch) == 0.0

    def test_eight_of_ten(self):
        model = threshold_ids()
        batch = np.full((10, N), 0.2)
        batch[:2, 0] = 0.9
        assert attack.success_rate(model, batch) == 0.8


def wasserstein_oracle(a, b):
    """Replicate both samples to a common size, then sorted mean difference.

    Duplicating every point k times leaves an empirical distribution
    unchanged, so the equal-size formula on lcm-sized copies is exact.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    size = math.lcm(a.size, b.size)
    a_rep = np.repeat(a, size // a.size)
    b_rep = np.repeat(b, size // b.size)
    return float(np.abs(a_rep - b_rep).mean())


class TestWasserstein:
    def test_identical_samples(self):
        a = np.array([0.3, 0.9, 0.1])
        assert attack.wasserstein_1d(a, a.copy()) == 0.0

    def test_point_masses(self):
        assert attack.wasserstein_1d(np.array([0.0]), np.array([1.0])) == 1.0

    def test_shifted_triple(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([2.0, 3.0, 4.0])
        assert attack.wasserstein_1d(a, b) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            attack.wasserstein_1d(np.array([]), np.array([1.0]))

    def test_five_hundred_random_pairs_match_oracle(self):
        # criterion: quantile-integral route equals the replication oracle
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(500):
            na, nb = rng.integers(1, 33, size=2)
            if rng.uniform() < 0.3:     # exercise ties
                a = rng.integers(0, 4, size=na) / 4.0
                b = rng.integers(0, 4, size=nb) / 4.0
            else:
                a = rng.normal(0.0, rng.uniform(0.5, 2.0), size=na)
                b = rng.uniform(-2.0, 2.0, size=nb)
            got = attack.wasserstein_1d(a, b)
            want = wasserstein_oracle(a, b)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=rng.integers(1, 20))
        b = rng.normal(size=rng.integers(1, 20))
        c = rng.normal(size=rng.integers(1, 20))
        d_ab = attack.wasserstein_1d(a, b)
        d_ba = attack.wasserstein_1d(b, a)
        d_ac = attack.wasserstein_1d(a, c)
        d_cb = attack.wasserstein_1d(c, b)
        assert d_ab >= 0.0
        assert d_ab == d_ba
        assert d_ab <= d_ac + d_cb + 1e-12

    def test_uniform_shift_distance(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=17)
        assert attack.wasserstein_1d(a, a + 0.25) == pytest.approx(
            0.25, abs=1e-12)


class TestWassersteinFeatures:
    def test_identical_matrices(self):
        a = np.random.default_rng(12).uniform(size=(10, 3))
        assert attack.wasserstein_features(a, a.copy()) == 0.0

    def test_uniform_shift(self):
        a = np.random.default_rng(13).uniform(size=(10, 3))
        assert attack.wasserstein_features(a, a + 0.1) == pytest.approx(
            0.1, abs=1e-12)

    def test_matches_per_column_oracle(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(7, 3))
        want = np.mean([wasserstein_oracle(a[:, j], b[:, j])
                        for j in range(3)])
        assert attack.wasserstein_features(a, b) == pytest.approx(
            want, abs=1e-12)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attack.wasserstein_features(np.zeros((3, 4)), np.zeros((3, 5)))


class TestObjective:
    def test_values_and_symmetry(self):
        assert attack.stealth_objective(0.3, 0.1) == pytest.approx(0.2)
        assert attack.stealth_objective(0.1, 0.3) == pytest.approx(0.2)
        assert attack.stealth_objective(0.4, 0.4) == 0.0

    def test_monotone_in_epsilon_on_saturating_generator(self):
        gen = constant_generator()
        model = threshold_ids()
        x_att = np.random.default_rng(15).uniform(0.0, 0.9, size=(40, N))
        labels = np.random.default_rng(16).integers(1, 5, size=40)
        distances = []
        for epsilon in DEFAULT_SWEEP.epsilon_grid:
            snapshots = attack.refine_trajectory(gen, x_att, labels,
                                                 epsilon, [5], 0)
            distances.append(attack.wasserstein_features(snapshots[5],
                                                         x_att))
        assert all(b >= a for a, b in zip(distances, distances[1:]))


class TestSweep:
    def setup_inputs(self, n=30, seed=17):
        rng = np.random.default_rng(seed)
        x_att = rng.uniform(0.55, 0.95, size=(n, N))   # attack side of cut
        labels = rng.integers(1, 5, size=n)
        x_ben = rng.uniform(0.05, 0.45, size=(n, N))
        return x_att, labels, x_ben

    def test_single_point_grid(self):
        x_att, labels, x_ben = self.setup_inputs()
        config = attack.SweepConfig([0.05], [0.3], [5], 0.0)
        result = attack.sweep(constant_generator(), threshold_ids(), x_att,
                              labels, config, 1, x_ben)
        assert len(result.reports) == 1
        assert result.selection is not None
        assert result.selection is result.reports[0]

    def test_selection_is_feasible_argmin(self):
        x_att, labels, x_ben = self.setup_inputs()
        config = attack.SweepConfig([0.02, 0.08], [0.1, 0.5], [5, 15], 0.0)
        result = attack.sweep(small_generator(18, gain=4.0), threshold_ids(),
                              x_att, labels, config, 2, x_ben)
        assert len(result.reports) == 8
        best = min(result.reports, key=lambda r: r.objective)
        assert result.selection.objective == best.objective
        for report in result.reports:
            assert report.feasible        # eta_max 0 makes all feasible

    def test_selection_meets_success_floor(self):
        # constant generator pushes x below the cut when epsilon is large
        x_att, labels, x_ben = self.setup_inputs()
        gen = constant_generator(-40.0)    # constant -1 per feature
        config = attack.SweepConfig([0.01, 0.1], [0.2], [5], 0.8)
        result = attack.sweep(gen, threshold_ids(cut=0.93), x_att, labels,
                              config, 3, x_ben)
        assert result.selection is not None
        assert result.selection.succ_adv >= 0.8

    def test_infeasible_grid_flagged_not_raised(self):
        x_att, labels, x_ben = self.setup_inputs()
        config = attack.SweepConfig([0.05], [0.3], [5, 10], 0.8)
        result = attack.sweep(zero_generator(), threshold_ids(), x_att,
                              labels, config, 4, x_ben)
        assert result.selection is None
        assert all(not r.feasible for r in result.reports)

    def test_ties_resolve_to_first_grid_point(self):
        x_att, labels, x_ben = self.setup_inputs()
        config = attack.SweepConfig([0.03, 0.07], [0.2, 0.4], [5, 10], 0.0)
        result = attack.sweep(zero_generator(), threshold_ids(), x_att,
                              labels, config, 5, x_ben)
        # zero generator: objective depends only on rho, ties across the rest
        assert result.selection.epsilon == 0.03
        assert result.selection.n_ref == 5

    def test_factorization_matches_independent_evaluation(self):
        # downstream stages rebuild the selected batches through
        # operating_point, one grid point at a time
        x_att, labels, x_ben = self.setup_inputs(n=20, seed=19)
        gen = small_generator(20, gain=4.0)
        model = threshold_ids()
        seed = 6
        config = attack.SweepConfig([0.02, 0.06], [0.1, 0.3], [5, 10], 0.0)
        result = attack.sweep(gen, model, x_att, labels, config, seed, x_ben)
        for report in result.reports:
            solo_x_adv, x_ood = attack.operating_point(
                gen, x_att, labels, report.epsilon, report.rho, report.n_ref,
                seed, np.arange(len(x_att)))
            assert report.w_adv_att == attack.wasserstein_features(solo_x_adv,
                                                                   x_att)
            assert report.w_ood_att == attack.wasserstein_features(x_ood,
                                                                   x_att)
            assert report.succ_adv == attack.success_rate(model, solo_x_adv)
            assert report.succ_ood == attack.success_rate(model, x_ood)
            assert report.w_adv_ben == attack.wasserstein_features(solo_x_adv,
                                                                   x_ben)

    def test_both_lanes_match_independent_evaluation(self):
        # five epsilons: three on the calling thread, two on the worker;
        # 300 rows go through the generator in two blocks
        x_att, labels, x_ben = self.setup_inputs(n=300, seed=28)
        gen = small_generator(29, gain=4.0)
        model = threshold_ids()
        seed = 10
        config = attack.SweepConfig([0.01, 0.03, 0.05, 0.07, 0.09],
                                    [0.1, 0.3], [3, 6], 0.0)
        result = attack.sweep(gen, model, x_att, labels, config, seed, x_ben)
        assert len(result.reports) == 20
        for report in result.reports:
            # a one-point grid runs on the calling thread alone
            alone = attack.sweep(
                gen, model, x_att, labels,
                attack.SweepConfig([report.epsilon], [report.rho],
                                   [report.n_ref], 0.0), seed, x_ben)
            assert alone.reports == [report]

    def test_non_finite_generator_raises(self):
        x_att, labels, x_ben = self.setup_inputs(n=300, seed=30)
        gen = small_generator(31)
        gen.net.layers[0].bias[0] = np.nan
        config = attack.SweepConfig([0.01, 0.03, 0.05, 0.07, 0.09], [0.2],
                                    [3], 0.0)
        with pytest.raises(NumericError, match="non-finite"):
            attack.sweep(gen, threshold_ids(), x_att, labels, config, 11,
                         x_ben)

    @pytest.mark.parametrize("failing", [0, 3, 4], ids=["first-calling-lane",
                                                        "worker-lane",
                                                        "last-calling-lane"])
    def test_a_failing_point_on_either_lane_raises(self, monkeypatch,
                                                   failing):
        x_att, labels, x_ben = self.setup_inputs(n=20, seed=32)
        grid = [0.01, 0.03, 0.05, 0.07, 0.09]
        real = attack._trajectory

        def fail_at_one(gen, x_att, labels, epsilon, *args):
            if epsilon == grid[failing]:
                raise NumericError(f"injected at {epsilon}")
            return real(gen, x_att, labels, epsilon, *args)

        monkeypatch.setattr(attack, "_trajectory", fail_at_one)
        config = attack.SweepConfig(grid, [0.2], [3], 0.0)
        with pytest.raises(NumericError, match=f"injected at {grid[failing]}"):
            attack.sweep(small_generator(33), threshold_ids(), x_att, labels,
                         config, 12, x_ben)

    def test_csv_round_trip(self, tmp_path):
        x_att, labels, x_ben = self.setup_inputs(n=10, seed=21)
        config = attack.SweepConfig([0.05], [0.2], [5], 0.0)
        result = attack.sweep(small_generator(22), threshold_ids(), x_att,
                              labels, config, 7, x_ben)
        path = tmp_path / "sweep.csv"
        attack.sweep_to_csv(result, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [f.name for f in
                          dataclasses.fields(attack.StealthReport)]
        assert header[9:] == ["w_adv_ben", "w_ood_ben"]
        row = dict(zip(header, lines[1].split(",")))
        report = result.reports[0]
        assert float(row["w_adv_att"]) == report.w_adv_att
        assert float(row["objective"]) == report.objective
        assert row["feasible"] == "true"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            attack.SweepConfig([], [0.1], [5])

    def test_integer_grid_values_seed_the_selected_batches(self):
        # a config may give 1 for 1.0; the report, and selection.json after
        # it, names the point as a float, and operating_point rebuilds from
        # that the very batches the sweep scored
        x_att, labels, x_ben = self.setup_inputs(n=12, seed=24)
        gen = small_generator(25, gain=4.0)
        model = threshold_ids()
        result = attack.sweep(gen, model, x_att, labels,
                              attack.SweepConfig([1], [1], [5], 0.0), 8, x_ben)
        report = result.selection
        assert (report.epsilon, report.rho) == (1.0, 1.0)
        x_adv, x_ood = attack.operating_point(
            gen, x_att, labels, report.epsilon, report.rho, report.n_ref, 8,
            np.arange(len(x_att)))
        assert report.w_adv_att == attack.wasserstein_features(x_adv, x_att)
        assert report.w_ood_att == attack.wasserstein_features(x_ood, x_att)

    def test_operating_point_rows_are_the_full_pairs_rows(self):
        # the stock 256-wide generator: a subset of at least 2 rows goes
        # through the same matrix-matrix products as the full batch
        rng = np.random.default_rng(26)
        n = 40
        x_att = rng.uniform(0.0, 1.0, size=(n, N))
        labels = rng.integers(1, 5, size=n)
        gen = cgan.build_generator(derive_rng(27, "stock-gen"), noise_dim=32,
                                   out_scale=0.1)
        epsilon, rho, n_ref, seed = point = (0.08, 0.2, 12, 9)
        # the batches sweep(..., seed) scores at this point, every row
        full_adv = attack._trajectory(gen, x_att, labels, epsilon, [n_ref],
                                      seed, slice(None))[n_ref]
        full_ood = attack._ood(x_att, rho, seed)
        for rows in (np.array([3, 17]), np.array([0, 21, n - 1]),
                     np.delete(np.arange(n), 11), np.arange(n),
                     np.array([30, 2, 19, 7, 25])):
            x_adv, x_ood = attack.operating_point(gen, x_att, labels, *point,
                                                  rows)
            assert np.array_equal(x_adv, full_adv[rows])
            assert np.array_equal(x_ood, full_ood[rows])
