import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthlab import nn
from stealthlab.errors import NumericError, ParseError, ShapeError, StateError
from stealthlab.rng import derive_rng


def finite_difference(loss_fn, params, h=1e-5):
    """Central-difference gradient of loss_fn w.r.t. a list of arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def relative_error(a, b):
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / scale


def toy_net(dims, activations, seed=0):
    return nn.build_mlp(dims, activations, derive_rng(seed, "toy"))


class TestForward:
    def test_output_shape(self):
        net = toy_net([4, 8, 3], ["relu", "softmax"])
        out = net.forward(np.zeros((5, 4)))
        assert out.shape == (5, 3)

    def test_wrong_input_width_raises(self):
        net = toy_net([4, 8, 3], ["relu", "softmax"])
        with pytest.raises(ShapeError):
            net.forward(np.zeros((5, 3)))

    def test_cache_required_for_backward(self):
        net = toy_net([4, 8, 3], ["relu", "softmax"])
        net.forward(np.zeros((2, 4)))
        with pytest.raises(StateError):
            net.backward(np.zeros((2, 3)))

    def test_softmax_only_final(self):
        with pytest.raises(ValueError):
            toy_net([4, 8, 3], ["softmax", "relu"])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_softmax_rows_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=30.0, size=(4, 6))
        probs = nn.softmax(logits)
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(nn.softmax(logits), nn.softmax(logits + 500.0))


class TestBackward:
    @pytest.mark.parametrize("activations,final_dim", [
        (["relu", "sigmoid"], 1),
        (["relu", "tanh"], 4),
        (["tanh", "linear"], 3),
        (["relu", "softmax"], 3),
    ])
    def test_gradcheck_sum_loss(self, activations, final_dim, rng):
        net = toy_net([5, 7, final_dim], activations, seed=3)
        x = rng.uniform(0.1, 0.9, size=(6, 5))
        weights = rng.standard_normal((6, final_dim))

        def loss():
            return float((net.forward(x) * weights).sum())

        net.forward(x, keep_cache=True)
        grads, dx = net.backward(weights)
        fd = finite_difference(loss, net.params())
        for got, want in zip(grads, fd):
            assert relative_error(got, want) <= 1e-4

        def loss_x():
            return float((net.forward(x) * weights).sum())

        fd_x = finite_difference(loss_x, [x])[0]
        assert relative_error(dx, fd_x) <= 1e-4

    def test_gradcheck_fused_softmax_ce(self, rng):
        net = toy_net([4, 6, 3], ["relu", "linear"], seed=5)
        x = rng.uniform(size=(8, 4))
        labels = rng.integers(0, 3, size=8)

        def loss():
            logits = net.forward(x)
            value, _ = nn.softmax_cross_entropy(logits, labels)
            return value

        net.forward(x, keep_cache=True)
        _, d_logits = nn.softmax_cross_entropy(net.cached_logits(), labels)
        grads, _ = net.backward(d_logits, from_logits=True)
        fd = finite_difference(loss, net.params())
        for got, want in zip(grads, fd):
            assert relative_error(got, want) <= 1e-4

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("from_logits", [False, True])
    def test_input_only_backward_matches_full(self, rows, from_logits, rng):
        net = toy_net([5, 7, 6, 3], ["relu", "tanh", "softmax"], seed=4)
        upstream = rng.standard_normal((rows, 3))
        net.forward(rng.uniform(size=(rows, 5)), keep_cache=True)
        grads, dx_full = net.backward(upstream, from_logits=from_logits)
        none, dx = net.backward(upstream, from_logits=from_logits,
                                param_grads=False)
        assert len(grads) == 6
        assert none is None
        assert np.array_equal(dx, dx_full)

    def test_ce_gradient_rows_sum_to_zero(self, rng):
        logits = rng.standard_normal((10, 5))
        labels = rng.integers(0, 5, size=10)
        _, grad = nn.softmax_cross_entropy(logits, labels)
        assert np.abs(grad.sum(axis=1)).max() < 1e-12


class TestLosses:
    def test_ce_huge_margin_is_tiny(self):
        logits = np.array([[20.0, 0.0, 0.0]])
        loss, _ = nn.softmax_cross_entropy(logits, np.array([0]))
        assert 0.0 <= loss < 1e-8

    def test_ce_uniform_is_log_k(self):
        logits = np.zeros((4, 5))
        loss, _ = nn.softmax_cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert abs(loss - math.log(5)) < 1e-12

    def test_bce_known_value(self):
        probs = np.array([[0.9]])
        loss, _ = nn.binary_cross_entropy(probs, np.array([[1.0]]))
        assert abs(loss - (-math.log(0.9))) < 1e-12

    def test_bce_clamps_zero_prob(self):
        probs = np.array([[0.0]])
        loss, grad = nn.binary_cross_entropy(probs, np.array([[1.0]]))
        assert loss == pytest.approx(-math.log(nn.PROB_CLAMP))
        assert np.isfinite(grad).all()

    def test_kl_two_point_half(self):
        p = np.array([[0.5, 0.5]])
        q = np.array([[0.99, 0.01]])
        expected = 0.5 * math.log(0.5 / 0.99) + 0.5 * math.log(0.5 / 0.01)
        loss = nn.kl_categorical(p, q)
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 1.6144630803608508) < 1e-12

    def test_kl_identical_is_zero(self):
        p = np.array([[0.25, 0.75]])
        assert abs(nn.kl_categorical(p, p)) < 1e-12

    def test_kl_zero_mass_term_dropped(self):
        p = np.array([[0.0, 1.0]])
        q = np.array([[0.5, 0.5]])
        assert abs(nn.kl_categorical(p, q) - math.log(2.0)) < 1e-12

    def test_kl_nonnegative_random(self, rng):
        for _ in range(50):
            p = nn.softmax(rng.standard_normal((3, 5)))
            q = nn.softmax(rng.standard_normal((1, 5)))
            q = np.maximum(q, nn.PROB_CLAMP)
            q = q / q.sum(axis=1, keepdims=True)
            assert nn.kl_categorical(p, q) >= -1e-12


def reference_adam_step(state, params, grads):
    """The whole-tensor Kingma & Ba update, the formula adam_step must match
    bit for bit (same operations, same order, temporaries allowed)."""
    state.step_count += 1
    correction1 = 1.0 - state.beta1 ** state.step_count
    correction2 = 1.0 - state.beta2 ** state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.learning_rate * (m / correction1) / (
            np.sqrt(v / correction2) + state.epsilon)


class TestAdam:
    def test_first_step_magnitude(self):
        params = [np.array([1.0])]
        state = nn.adam_init(params, learning_rate=0.001)
        nn.adam_step(state, params, [np.array([1.0])])
        # bias correction makes the first step lr * g / (|g| + eps)
        expected = 1.0 - 0.001 * 1.0 / (1.0 + 1e-8)
        assert params[0][0] == pytest.approx(expected, abs=1e-15)

    def test_step_direction_opposes_gradient(self, rng):
        params = [rng.standard_normal((3, 3))]
        before = params[0].copy()
        grads = [np.ones((3, 3))]
        state = nn.adam_init(params, learning_rate=0.01)
        nn.adam_step(state, params, grads)
        assert np.all(params[0] < before)

    def test_non_finite_gradient_raises(self, rng):
        params = [np.array([1.0])]
        state = nn.adam_init(params, learning_rate=0.001)
        with pytest.raises(NumericError):
            nn.adam_step(state, params, [np.array([np.nan])])
        # a bad gradient late in the list stops the step before any tensor,
        # moment or the step count changes
        shapes = [(3, 4), (nn.ADAM_CHUNK + 5,), (2,)]
        params = [rng.standard_normal(s) for s in shapes]
        state = nn.adam_init(params, learning_rate=0.01)
        nn.adam_step(state, params, [rng.standard_normal(s) for s in shapes])
        before = [a.copy() for a in params + state.m + state.v]
        grads = [rng.standard_normal(s) for s in shapes]
        grads[2][1] = np.nan
        with pytest.raises(NumericError, match="parameter 2"):
            nn.adam_step(state, params, grads)
        assert state.step_count == 1
        after = params + state.m + state.v
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_matches_whole_tensor_formula_bitwise(self, rng):
        # one element, exactly one chunk, and two and a half chunks (2-d)
        shapes = [(1,), (nn.ADAM_CHUNK,), (5, nn.ADAM_CHUNK // 2)]
        params = [rng.standard_normal(s) for s in shapes]
        expected = [p.copy() for p in params]
        state = nn.adam_init(params, learning_rate=0.003)
        ref_state = nn.adam_init(expected, learning_rate=0.003)
        for step in range(4):
            grads = [rng.standard_normal(s) * 10.0 ** (step - 2)
                     for s in shapes]
            nn.adam_step(state, params, grads)
            reference_adam_step(ref_state, expected, grads)
        assert state.step_count == ref_state.step_count == 4
        for got, want in zip(params + state.m + state.v,
                             expected + ref_state.m + ref_state.v):
            assert np.array_equal(got, want)
        assert state.scratch.shape == (2, nn.ADAM_CHUNK)

    def test_reset_matches_a_fresh_state(self, rng):
        params = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        start = [p.copy() for p in params]
        grads = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        state = nn.adam_init(params, learning_rate=0.01)
        nn.adam_step(state, params, grads)
        nn.adam_step(state, params, grads)
        state.reset()
        for p, p0 in zip(params, start):
            np.copyto(p, p0)
        fresh_params = [p.copy() for p in start]
        fresh = nn.adam_init(fresh_params, learning_rate=0.01)
        nn.adam_step(state, params, grads)
        nn.adam_step(fresh, fresh_params, grads)
        for got, want in zip(params + state.m + state.v,
                             fresh_params + fresh.m + fresh.v):
            assert np.array_equal(got, want)

    def test_non_contiguous_parameter_rejected(self):
        params = [np.zeros((4, 4))[:, ::2]]
        state = nn.adam_init(params)
        with pytest.raises(ShapeError, match="C-contiguous"):
            nn.adam_step(state, params, [np.ones((4, 2))])

    def test_loss_decreases_on_separable_toy(self):
        rng = derive_rng(7, "sep-toy")
        n = 40
        x = np.vstack([rng.normal(-1.0, 0.3, size=(n, 2)),
                       rng.normal(1.0, 0.3, size=(n, 2))])
        labels = np.repeat([0, 1], n)
        net = toy_net([2, 8, 2], ["relu", "linear"], seed=11)
        state = nn.adam_init(net.params(), learning_rate=0.001)
        losses = []
        for _ in range(50):
            logits = net.forward(x, keep_cache=True)
            loss, d_logits = nn.softmax_cross_entropy(logits, labels)
            grads, _ = net.backward(d_logits, from_logits=True)
            nn.adam_step(state, net.params(), grads)
            losses.append(loss)
        # strictly decreasing across 5-epoch windows, numerical noise aside
        for i in range(0, 45, 5):
            assert losses[i + 5] < losses[i] + 1e-9


class TestInit:
    def test_glorot_bounds(self):
        net = toy_net([10, 20, 5], ["relu", "linear"], seed=1)
        for layer in net.layers:
            limit = math.sqrt(6.0 / (layer.weights.shape[0]
                                     + layer.weights.shape[1]))
            assert np.abs(layer.weights).max() <= limit
            assert np.all(layer.bias == 0.0)

    def test_same_seed_same_net(self):
        a = toy_net([4, 4, 2], ["relu", "linear"], seed=9)
        b = toy_net([4, 4, 2], ["relu", "linear"], seed=9)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, rng):
        net = toy_net([6, 5, 4], ["tanh", "softmax"], seed=13)
        path = tmp_path / "net.weights"
        nn.save_mlp(path, net)
        loaded = nn.load_mlp(path)
        assert loaded.dims() == net.dims()
        for pa, pb in zip(net.params(), loaded.params()):
            assert np.array_equal(pa, pb)
        x = rng.uniform(size=(3, 6))
        assert np.array_equal(net.forward(x), loaded.forward(x))

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "net.weights"
        path.write_bytes(b"NOTAMLP\x00" + b"\x00" * 64)
        with pytest.raises(ParseError):
            nn.load_mlp(path)

    def test_truncated_raises(self, tmp_path):
        net = toy_net([6, 5, 4], ["tanh", "softmax"], seed=13)
        path = tmp_path / "net.weights"
        nn.save_mlp(path, net)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ParseError):
            nn.load_mlp(path)

    def test_trailing_bytes_raise(self, tmp_path):
        net = toy_net([6, 5, 4], ["tanh", "softmax"], seed=13)
        path = tmp_path / "net.weights"
        nn.save_mlp(path, net)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError):
            nn.load_mlp(path)
