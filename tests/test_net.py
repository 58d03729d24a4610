"""MLP forward/backward cores, the flat layout, Adam, gradient checks."""

import re
import tracemalloc

import numpy as np
import pytest

from npcl import net
from npcl.data import synth_blobs
from npcl.losses import BaseLoss, _loss_pass
from npcl.net import (
    AdamState,
    MlpParams,
    Workspace,
    _adam_update,
    _backprop,
    _forward_cached,
    forward,
)
from npcl.training import TrainConfig, train
from npcl.verification import check_gradients, grad_check


def tiny_net(seed=0, sizes=(3, 8, 8, 4)):
    return MlpParams.init(list(sizes), seed=seed)


def masked_gradient(params, x, y, kind, mask):
    """The training step's flat gradient: cached forward, one loss pass, masked mean, backprop."""
    x = np.asarray(x, dtype=np.float64)
    ws = Workspace(params, x.shape[0])
    g = _loss_pass(_forward_cached(params, x, ws), y, kind, gradients=True)[2]
    grad = np.empty_like(params.flat)
    _backprop(params, ws, g * (mask[:, None] / mask.sum()), *params.views(grad))
    return grad


def plain_forward(params, x):
    """Loop-based recomputation, independent of the vectorized path."""
    out = []
    for row in np.atleast_2d(x):
        h = row.astype(np.float64)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = np.array([sum(h[j] * w[j, c] for j in range(w.shape[0])) + b[c] for c in range(w.shape[1])])
            if i < len(params.weights) - 1:
                z = np.array([v if v > 0 else net.LEAKY_SLOPE * v for v in z])
            h = z
        out.append(h)
    return np.array(out)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        params = MlpParams([np.zeros((2, 3))], [np.zeros(3)])
        assert np.array_equal(forward(params, np.array([[1.5, -2.0]])), np.zeros((1, 3)))

    def test_identity_single_layer(self):
        params = MlpParams([np.eye(2)], [np.zeros(2)])
        x = np.array([[0.3, -0.7]])
        assert np.array_equal(forward(params, x), x)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(1)
        params = tiny_net(seed=2)
        x = rng.normal(size=(6, 3))
        np.testing.assert_allclose(forward(params, x), plain_forward(params, x), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("features must be (n, 3), got shape (1, 5)")):
            forward(tiny_net(), np.zeros((1, 5)))

    def test_init_from_two_sizes_has_no_hidden_layer(self):
        params = MlpParams.init([3, 2], seed=0)
        x = np.array([[0.5, -1.0, 2.0]])
        assert [w.shape for w in params.weights] == [(3, 2)]
        assert np.array_equal(forward(params, x), x @ params.weights[0] + params.biases[0])

    def test_init_needs_input_and_output_sizes(self):
        with pytest.raises(ValueError, match="need at least input and output sizes"):
            MlpParams.init([3], seed=0)

    @pytest.mark.parametrize("weights, biases, message", [
        ([], [], "need matching weight and bias lists"),
        ([np.zeros((2, 3))], [np.zeros(3), np.zeros(3)], "need matching weight and bias lists"),
        ([np.zeros((2, 3))], [np.zeros(2)], "layer 0: weight (2, 3) and bias (2,) mismatch"),
        ([np.zeros(3)], [np.zeros(3)], "layer 0: weight (3,) and bias (3,) mismatch"),
        ([np.zeros((2, 3)), np.zeros((4, 2))], [np.zeros(3), np.zeros(2)], "layer 1: input dim breaks the chain"),
    ], ids=["empty", "count", "bias-shape", "1-d-weight", "chain"])
    def test_params_reject_bad_shapes(self, weights, biases, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MlpParams(weights, biases)


class TestBackward:
    def test_single_sample_matches_finite_differences(self):
        params = tiny_net(seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3))
        y = np.array([2])
        err = grad_check(params, x, y, BaseLoss.soft())
        assert err < 1e-5

    def test_duplicated_sample_mean_normalization(self):
        params = tiny_net(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=3)
        y = np.array([1])
        single = masked_gradient(params, x[None, :], y, BaseLoss.soft(), np.array([True]))
        doubled = masked_gradient(
            params,
            np.vstack([x, x]),
            np.array([1, 1]),
            BaseLoss.soft(),
            np.array([True, False]),
        )
        # matmul kernels may differ between the 1-row and 2-row paths, so
        # equality is asserted at ulp scale rather than bitwise
        np.testing.assert_allclose(single, doubled, rtol=1e-12, atol=1e-15)

    def test_unselected_samples_do_not_touch_gradients(self):
        params = tiny_net(seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 4, size=4)
        mask = np.array([True, False, True, False])
        base = masked_gradient(params, x, y, BaseLoss.hinge(), mask)
        x2 = x.copy()
        x2[1] += 100.0  # unselected row
        perturbed = masked_gradient(params, x2, y, BaseLoss.hinge(), mask)
        np.testing.assert_array_equal(base, perturbed)


class TestFlatLayout:
    def test_weights_and_biases_view_flat(self):
        weights = [np.arange(6.0).reshape(3, 2), np.ones((2, 2))]
        biases = [np.array([6.0, 7.0]), np.zeros(2)]
        params = MlpParams(weights, biases)
        np.testing.assert_array_equal(params.flat, [0, 1, 2, 3, 4, 5, 6, 7, 1, 1, 1, 1, 0, 0])
        for a in params.weights + params.biases:
            assert a.base is params.flat
        params.flat[:] = -1.0  # the views share the flat vector's memory
        assert all(np.all(a == -1.0) for a in params.weights + params.biases)
        assert weights[0][0, 0] == 0.0  # construction copied the inputs

    @pytest.mark.parametrize("sizes, message", [
        (5, "layer sizes must be a list or tuple of integers, got 5"),
        ("23", "layer sizes must be a list or tuple of integers, got '23'"),
        (None, "layer sizes must be a list or tuple of integers, got None"),
        ([3], "need at least input and output sizes"),
        ([2, 0, 3], "layer sizes must be >= 1, got [2, 0, 3]"),
        ([2, -1], "layer sizes must be >= 1, got [2, -1]"),
        ([2, 2.5], "layer size must be an integer, got 2.5"),
        ([2, True], "layer size must be an integer, got True"),
    ], ids=repr)
    def test_init_rejects_bad_layer_sizes(self, sizes, message):
        # [2, 0, 3] built a zero-width net
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MlpParams.init(sizes, seed=0)

    def test_init_takes_a_tuple_and_numpy_integers(self):
        a = MlpParams.init((2, np.int64(3), 1), seed=0)
        np.testing.assert_array_equal(a.flat, MlpParams.init([2, 3, 1], seed=0).flat)

    def test_train_step_matches_cores(self):
        # one full batch, no burn-in, no selection: train() takes exactly one step, in epoch 0's order
        data = synth_blobs(6, 2, separation=3.0, noise_std=1.0, seed=15)
        cfg = TrainConfig(epochs=1, batch_size=6, burn_in_epochs=0, base_loss=BaseLoss.soft(),
                          threshold=None, hidden=(4,), seed=14)
        _, trained = train(cfg, data, data)

        params = MlpParams.init([2, 4, 2], seed=[14, 0])
        order = np.random.default_rng([14, 1, 0]).permutation(6)
        grad = masked_gradient(params, data.features[order], data.labels[order], BaseLoss.soft(), np.ones(6, bool))
        _adam_update(params.flat, grad, AdamState(params), 1e-3)
        np.testing.assert_array_equal(trained.flat, params.flat)


def allocating_step(params, x, delta, m, v, step):
    """Forward, backprop and Adam as plain allocating expressions; returns logits and gradient.

    The workspace cores must reproduce it bit for bit.  Updates ``params.flat``, ``m`` and ``v``.
    Adam's settings are spelled out, independent of ``npcl.net``'s constants.
    """
    pre, acts = [], [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(z if i == last else np.where(z > 0, z, net.LEAKY_SLOPE * z))
    grads = []
    for i in range(last, -1, -1):
        grads[:0] = [acts[i].T @ delta, np.sum(delta, axis=0)]
        if i > 0:
            delta = (delta @ params.weights[i].T) * np.where(pre[i - 1] > 0, 1.0, net.LEAKY_SLOPE)
    grad = np.concatenate([g.ravel() for g in grads])
    m *= 0.9
    m += (1.0 - 0.9) * grad
    v *= 0.999
    v += (1.0 - 0.999) * (grad * grad)
    bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
    params.flat -= 1e-3 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
    return acts[-1], grad


class TestWorkspace:
    @pytest.mark.parametrize("slope", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("rows", [1, 7, 128])
    def test_cores_match_allocating_expressions_bitwise(self, monkeypatch, rows, slope):
        # the equalities the cores rely on hold for any slope in [0, 1], so test its ends too
        monkeypatch.setattr(net, "LEAKY_SLOPE", slope)
        rng = np.random.default_rng(rows)
        params = MlpParams.init([5, 6, 6, 3], seed=16)
        reference = MlpParams(params.weights, params.biases)
        m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
        ws, state = Workspace(params, rows), AdamState(params)
        grad = np.empty_like(params.flat)
        for step in range(1, 4):
            x = rng.normal(size=(rows, 5))
            x[0] = 0.0  # pre-activations equal to the biases, zeros among them
            delta = rng.normal(size=(rows, 3))
            logits, expected = allocating_step(reference, x, delta, m, v, step)
            np.testing.assert_array_equal(_forward_cached(params, x, ws), logits)
            _backprop(params, ws, delta, *params.views(grad))
            np.testing.assert_array_equal(grad, expected)
            _adam_update(params.flat, grad, state, 1e-3)
            np.testing.assert_array_equal(params.flat, reference.flat)

    def test_warm_step_allocates_under_16_kib(self):
        # a 128x64 batch: each batch-sized temporary would be 64 KiB
        params = MlpParams.init([64, 64, 64, 4], seed=17)
        rng = np.random.default_rng(18)
        x, delta = rng.normal(size=(128, 64)), rng.normal(size=(128, 4))
        ws, state = Workspace(params, 128), AdamState(params)
        grad = np.empty_like(params.flat)
        g_w, g_b = params.views(grad)

        def step():
            _forward_cached(params, x, ws)
            _backprop(params, ws, delta, g_w, g_b)
            _adam_update(params.flat, grad, state, 1e-3)

        step()  # warm-up: the first backprop allocates the workspace's backward buffers
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step()
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rise < 16 * 1024

    def test_forward_reuses_given_workspace(self):
        params = tiny_net(seed=19)
        x = np.random.default_rng(20).normal(size=(4, 3))
        ws = Workspace(params, 4)
        logits = forward(params, x, ws)
        assert logits is ws.acts[-1]
        np.testing.assert_array_equal(logits, forward(params, x))


class TestAdam:
    def test_state_is_derived_from_the_params(self):
        params = tiny_net(seed=8)
        state = AdamState(params)
        assert state.step == 0
        for moment in (state.m, state.v):
            assert moment.shape == params.flat.shape and moment.dtype == params.flat.dtype
            assert not np.shares_memory(moment, params.flat)
            np.testing.assert_array_equal(moment, 0.0)
        assert not np.shares_memory(state.m, state.v)

    @pytest.mark.parametrize("params", [None, "params", np.zeros(3)], ids=repr)
    def test_state_rejects_what_is_not_params(self, params):
        with pytest.raises(ValueError, match="^params must be a MlpParams, got "):
            AdamState(params)

    def test_state_takes_no_rate_or_buffers(self):
        # the learning rate is the run's (TrainConfig.lr), and the moments are derived, never given
        for options in (dict(lr=1e-3), dict(m=np.zeros(4)), dict(v=np.zeros(4)), dict(step=3)):
            with pytest.raises(TypeError):
                AdamState(tiny_net(), **options)
        assert not hasattr(AdamState, "init")

    def test_zero_gradient_is_noop(self):
        params = tiny_net(seed=9)
        before = params.flat.copy()
        state = AdamState(params)
        _adam_update(params.flat, np.zeros_like(params.flat), state, 1e-3)
        np.testing.assert_array_equal(params.flat, before)
        assert state.step == 1

    def test_scalar_first_step_magnitude(self):
        params = MlpParams([np.array([[0.0, 0.0]])], [np.zeros(2)])
        state = AdamState(params)
        _adam_update(params.flat, np.array([1.0, 0.0, 0.0, 0.0]), state, 1e-3)
        # bias-corrected first step moves by ~lr against the gradient
        assert params.weights[0][0, 0] == pytest.approx(-1e-3, rel=1e-6)
        assert params.weights[0][0, 1] == 0.0

    def test_independent_states_match(self):
        params = tiny_net(seed=10)
        grad = masked_gradient(
            params,
            np.ones((2, 3)),
            np.array([0, 1]),
            BaseLoss.soft(),
            np.ones(2, dtype=bool),
        )
        a, b = params.flat.copy(), params.flat.copy()
        _adam_update(a, grad, AdamState(params), 1e-3)
        _adam_update(b, grad, AdamState(params), 1e-3)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != params.flat)


class TestGradCheck:
    @pytest.mark.parametrize("kind", [BaseLoss.hinge(), BaseLoss.soft(), BaseLoss.weighted(0.5)])
    def test_random_configurations(self, kind):
        rng = np.random.default_rng(11)
        for trial in range(10):
            params = tiny_net(seed=100 + trial, sizes=(3, 6, 4))
            x = rng.normal(size=(3, 3)) * 2.0
            y = rng.integers(0, 4, size=3)
            assert grad_check(params, x, y, kind) < 1e-5

    def test_check_gradients_property_loop(self):
        # criterion 6's property loop (10 [3, 6, 4] nets x 3 losses) at this file's seed
        [result] = check_gradients(np.random.default_rng(11), 10)
        assert result.ok, result.detail

    def test_flat_region_exact(self):
        # all margins beyond the hinge: analytic and numeric are both zero
        params = MlpParams([np.zeros((2, 2))], [np.array([5.0, 0.0])])
        x = np.ones((2, 2))
        y = np.array([0, 0])
        assert grad_check(params, x, y, BaseLoss.hinge()) == 0.0

    def test_error_is_relative_to_large_gradients(self):
        # weights scaled by 40 give gradients far above 1, where the error is divided by
        # max(1, |analytic|, |numeric|); multiplying by it instead reads about 3e-6
        params = MlpParams.init([3, 6, 4], seed=1)
        params.flat *= 40.0
        rng = np.random.default_rng(3)
        x = rng.normal(0, 2, (3, 3))
        y = rng.integers(0, 4, 3)
        assert grad_check(params, x, y, BaseLoss.hinge()) < 1e-6

