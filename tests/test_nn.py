import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stealthlab import nn
from stealthlab.errors import NumericError, ParseError, ShapeError
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

    def test_backward_needs_a_full_tape(self):
        net = toy_net([4, 8, 3], ["relu", "softmax"])
        net.forward(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            net.backward(np.zeros((2, 3)), [])

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_forward_without_a_tape_equals_the_taped_output(self,
                                                            activation):
        hidden = "tanh" if activation == "softmax" else activation
        net = toy_net([4, 8, 3], [hidden, activation])
        x = np.random.default_rng(7).normal(scale=3.0, size=(6, 4))
        x_before = x.copy()
        tape = []
        taped = net.forward(x, tape)
        out = net.forward(x)
        assert np.array_equal(out, taped)
        assert np.array_equal(x, x_before)
        assert not np.shares_memory(out, x)
        for _, z, act in tape:
            assert activation == "linear" or not np.shares_memory(z, act)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError, match="unknown activation 'swish'"):
            nn.DenseLayer(np.zeros((4, 3)), np.zeros(3), "swish")
        with pytest.raises(ValueError, match="unknown activation 'swish'"):
            toy_net([4, 8, 3], ["relu", "swish"])

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

        tape = []
        net.forward(x, tape)
        grads, dx = net.backward(weights, tape)
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

        tape = []
        net.forward(x, tape)
        _, d_logits = nn.softmax_cross_entropy(tape[-1][1], labels)
        grads, _ = net.backward(d_logits, tape, from_logits=True)
        fd = finite_difference(loss, net.params())
        for got, want in zip(grads, fd):
            assert relative_error(got, want) <= 1e-4

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("from_logits", [False, True])
    def test_input_only_backward_matches_full(self, rows, from_logits, rng):
        net = toy_net([5, 7, 6, 3], ["relu", "tanh", "softmax"], seed=4)
        upstream = rng.standard_normal((rows, 3))
        tape = []
        net.forward(rng.uniform(size=(rows, 5)), tape)
        grads, dx_full = net.backward(upstream, tape, from_logits=from_logits)
        none, dx = net.backward(upstream, tape, from_logits=from_logits,
                                param_grads=False)
        assert len(grads) == 6
        assert none is None
        assert np.array_equal(dx, dx_full)

    @pytest.mark.parametrize("param_grads", [True, False])
    def test_backward_reads_only_its_own_tape(self, param_grads, rng):
        # a second pass through the same net in between changes no bit
        net = toy_net([5, 7, 6, 3], ["relu", "tanh", "softmax"], seed=4)
        x1, x2 = rng.uniform(size=(4, 5)), rng.uniform(size=(3, 5))
        d1 = rng.standard_normal((4, 3))
        tape_alone = []
        net.forward(x1, tape_alone)
        alone = net.backward(d1, tape_alone, param_grads=param_grads)
        t1, t2 = [], []
        net.forward(x1, t1)
        net.forward(x2, t2)
        interleaved = net.backward(d1, t1, param_grads=param_grads)
        assert np.array_equal(interleaved[1], alone[1])
        if param_grads:
            assert len(interleaved[0]) == len(alone[0]) == 6
            for got, want in zip(interleaved[0], alone[0]):
                assert np.array_equal(got, want)
        else:
            assert interleaved[0] is None and alone[0] is None

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


def reference_adam_step(state, params, grads):
    """The whole-tensor Kingma & Ba update, the formula adam_step must match
    bit for bit (same operations, same order, temporaries allowed)."""
    state.step_count += 1
    correction1 = 1.0 - nn.ADAM_BETA1 ** state.step_count
    correction2 = 1.0 - nn.ADAM_BETA2 ** state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= nn.ADAM_BETA1
        m += (1.0 - nn.ADAM_BETA1) * g
        v *= nn.ADAM_BETA2
        v += (1.0 - nn.ADAM_BETA2) * g * g
        p -= state.learning_rate * (m / correction1) / (
            np.sqrt(v / correction2) + nn.ADAM_EPSILON)


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
        shapes = [(3, 4), (32773,), (2,)]
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
        # one element, a long 1-d tensor and a larger 2-d one
        shapes = [(1,), (32768,), (5, 16384)]
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

    def test_strided_parameter_view_is_updated_in_place(self, rng):
        base = rng.standard_normal((4, 6))
        untouched = base[:, 1::2].copy()
        params = [base[:, ::2]]
        expected = [params[0].copy()]
        state = nn.adam_init(params, learning_rate=0.01)
        ref_state = nn.adam_init(expected, learning_rate=0.01)
        for _ in range(3):
            grads = [rng.standard_normal((4, 3))]
            nn.adam_step(state, params, grads)
            reference_adam_step(ref_state, expected, grads)
        assert np.array_equal(base[:, ::2], expected[0])
        assert np.array_equal(base[:, 1::2], untouched)

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
            tape = []
            logits = net.forward(x, tape)
            loss, d_logits = nn.softmax_cross_entropy(logits, labels)
            grads, _ = net.backward(d_logits, tape, from_logits=True)
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
        layout = [[(layer.fan_in, layer.fan_out, layer.activation)
                   for layer in m.layers] for m in (net, loaded)]
        assert layout[0] == layout[1]
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

    @pytest.mark.parametrize("damage, message", [
        (lambda blob: blob[:12], "truncated header"),
        (lambda blob: blob[:24] + b"\xff" + blob[25:],
         "unknown activation tag"),
        (lambda blob: blob[:24] + b"swish\x00\x00\x00" + blob[32:],
         "unknown activation tag 'swish'"),
        (lambda blob: blob[:16] + b"\xff" * 8 + blob[24:],
         "weight blocks hold"),
    ], ids=["cut-in-header", "non-ascii-tag", "unknown-ascii-tag",
            "absurd-shape"])
    def test_damaged_header_raises(self, tmp_path, damage, message):
        net = toy_net([6, 5, 4], ["tanh", "softmax"], seed=13)
        path = tmp_path / "net.weights"
        nn.save_mlp(path, net)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ParseError) as excinfo:
            nn.load_mlp(path)
        assert f"{path}: {message}" in str(excinfo.value)

    def test_trailing_bytes_raise(self, tmp_path):
        net = toy_net([6, 5, 4], ["tanh", "softmax"], seed=13)
        path = tmp_path / "net.weights"
        nn.save_mlp(path, net)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError):
            nn.load_mlp(path)
