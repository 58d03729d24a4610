"""MLP forward/backward, Adam, gradient checks, checkpoints."""

import numpy as np
import pytest

from npcl.losses import BaseLoss, _loss_pass
from npcl.net import (
    AdamConfig,
    AdamState,
    MlpParams,
    _adam_update,
    _backprop,
    _forward_cached,
    adam_step,
    backward,
    forward,
    grad_check,
    load_params,
    save_params,
)


def tiny_net(seed=0, sizes=(3, 8, 8, 4)):
    return MlpParams.init(list(sizes), seed=seed)


def plain_forward(params, x):
    """Loop-based recomputation, independent of the vectorized path."""
    out = []
    for row in np.atleast_2d(x):
        h = row.astype(np.float64)
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = np.array([sum(h[j] * w[j, c] for j in range(w.shape[0])) + b[c] for c in range(w.shape[1])])
            if i < len(params.weights) - 1:
                z = np.array([v if v > 0 else params.alpha * v for v in z])
            h = z
        out.append(h)
    return np.array(out)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        params = MlpParams([np.zeros((2, 3))], [np.zeros(3)])
        assert np.array_equal(forward(params, np.array([1.5, -2.0])), np.zeros(3))

    def test_identity_single_layer(self):
        params = MlpParams([np.eye(2)], [np.zeros(2)])
        x = np.array([0.3, -0.7])
        assert np.array_equal(forward(params, x), x)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(1)
        params = tiny_net(seed=2)
        x = rng.normal(size=(6, 3))
        np.testing.assert_allclose(forward(params, x), plain_forward(params, x), atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            forward(tiny_net(), np.zeros(5))


class TestBackward:
    def test_empty_mask_zero_gradients_with_warning(self):
        params = tiny_net()
        x = np.zeros((2, 3))
        y = np.array([0, 1])
        with pytest.warns(RuntimeWarning):
            g_w, g_b = backward(params, x, y, BaseLoss.hinge(), np.zeros(2, dtype=bool))
        assert all(np.all(g == 0) for g in g_w)
        assert all(np.all(g == 0) for g in g_b)

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
        single = backward(params, x[None, :], y, BaseLoss.soft(), np.array([True]))
        doubled = backward(
            params,
            np.vstack([x, x]),
            np.array([1, 1]),
            BaseLoss.soft(),
            np.array([True, False]),
        )
        # matmul kernels may differ between the 1-row and 2-row paths, so
        # equality is asserted at ulp scale rather than bitwise
        for a, b in zip(single[0] + single[1], doubled[0] + doubled[1]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_unselected_samples_do_not_touch_gradients(self):
        params = tiny_net(seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 4, size=4)
        mask = np.array([True, False, True, False])
        base = backward(params, x, y, BaseLoss.hinge(), mask)
        x2 = x.copy()
        x2[1] += 100.0  # unselected row
        perturbed = backward(params, x2, y, BaseLoss.hinge(), mask)
        for a, b in zip(base[0] + base[1], perturbed[0] + perturbed[1]):
            np.testing.assert_array_equal(a, b)

    def test_mask_length_check(self):
        params = tiny_net()
        with pytest.raises(ValueError):
            backward(params, np.zeros((2, 3)), np.array([0, 1]), BaseLoss.hinge(), np.ones(3, bool))


class TestFlatLayout:
    def test_views_follow_flatten_order(self):
        params = tiny_net(seed=13)
        flat, viewing = params.flat_copy()
        assert flat.size == params.size
        for a, b in zip(viewing.weights + viewing.biases, params.weights + params.biases):
            np.testing.assert_array_equal(a, b)
        flat[:] = 0.0  # views share the flat vector's memory
        assert all(np.all(w == 0) for w in viewing.weights)
        assert np.all(params.weights[0] != 0)

    def test_public_step_matches_fused_cores(self):
        # backward + adam_step and the training loop's cores give the same step
        params = tiny_net(seed=14)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 4, size=6)
        mask = np.array([True, False, True, True, False, True])
        public = adam_step(params, backward(params, x, y, BaseLoss.soft(), mask), AdamState.init(params))

        theta, fused = params.flat_copy()
        grad = np.empty_like(theta)
        pre, acts = _forward_cached(fused, x)
        g = _loss_pass(acts[-1], y, BaseLoss.soft(), gradients=True)[2]
        _backprop(fused, pre, acts, g * (mask[:, None] / 4), *fused.views(grad))
        _adam_update(theta, grad, AdamState.init(fused))
        np.testing.assert_array_equal(public.flatten(), theta)


class TestAdam:
    def test_leaves_input_params_unchanged(self):
        params = tiny_net(seed=16)
        before = params.flatten()
        grads = ([np.ones_like(w) for w in params.weights], [np.ones_like(b) for b in params.biases])
        new = adam_step(params, grads, AdamState.init(params))
        np.testing.assert_array_equal(params.flatten(), before)
        assert np.all(new.flatten() != before)

    def test_rejects_mismatched_gradients(self):
        params = tiny_net(seed=17)
        grads = ([np.zeros((2, 2))] * len(params.weights), [np.zeros_like(b) for b in params.biases])
        with pytest.raises(ValueError, match="shapes"):
            adam_step(params, grads, AdamState.init(params))

    def test_zero_gradient_is_noop(self):
        params = tiny_net(seed=9)
        state = AdamState.init(params)
        zeros = ([np.zeros_like(w) for w in params.weights], [np.zeros_like(b) for b in params.biases])
        new = adam_step(params, zeros, state)
        for a, b in zip(new.weights, params.weights):
            np.testing.assert_array_equal(a, b)
        assert state.step == 1

    def test_scalar_first_step_magnitude(self):
        params = MlpParams([np.array([[0.0, 0.0]])], [np.zeros(2)])
        state = AdamState.init(params, AdamConfig(lr=1e-3))
        grads = ([np.array([[1.0, 0.0]])], [np.zeros(2)])
        new = adam_step(params, grads, state)
        # bias-corrected first step moves by ~lr against the gradient
        assert new.weights[0][0, 0] == pytest.approx(-1e-3, rel=1e-6)
        assert new.weights[0][0, 1] == 0.0

    def test_independent_states_match(self):
        params = tiny_net(seed=10)
        grads = backward(
            params,
            np.ones((2, 3)),
            np.array([0, 1]),
            BaseLoss.soft(),
            np.ones(2, dtype=bool),
        )
        a = adam_step(params, grads, AdamState.init(params))
        b = adam_step(params, grads, AdamState.init(params))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestGradCheck:
    @pytest.mark.parametrize("kind", [BaseLoss.hinge(), BaseLoss.soft(), BaseLoss.weighted(0.5)])
    def test_random_configurations(self, kind):
        rng = np.random.default_rng(11)
        for trial in range(10):
            params = tiny_net(seed=100 + trial, sizes=(3, 6, 4))
            x = rng.normal(size=(3, 3)) * 2.0
            y = rng.integers(0, 4, size=3)
            assert grad_check(params, x, y, kind) < 1e-5

    def test_flat_region_exact(self):
        # all margins beyond the hinge: analytic and numeric are both zero
        params = MlpParams([np.zeros((2, 2))], [np.array([5.0, 0.0])])
        x = np.ones((2, 2))
        y = np.array([0, 0])
        assert grad_check(params, x, y, BaseLoss.hinge()) == 0.0


class TestCheckpoints:
    def test_round_trip_bit_identical(self, tmp_path):
        params = tiny_net(seed=12)
        path = tmp_path / "model.npw"
        save_params(path, params)
        back = load_params(path)
        assert back.alpha == params.alpha
        for a, b in zip(back.weights, params.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.biases, params.biases):
            np.testing.assert_array_equal(a, b)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.npw"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_params(path)
