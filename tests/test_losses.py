"""Margins, hinge losses, and their subgradients."""

import hashlib

import numpy as np
import pytest

from npcl.losses import (
    BaseLoss,
    _loss_pass,
    hard_hinge,
    hinge_from_margins,
    loss_gradient,
    margins_and_values,
    multiclass_margin,
    soft_hinge,
    weighted_loss,
    zero_one,
)

SOFT_HINGE_01 = 2.3132616875182228  # 1 + log(1 + e), t=[0,1], y=0


class TestMargin:
    @pytest.mark.parametrize(
        "t,y,expected",
        [
            ([0.5, 2.0, -1.0], 1, 1.5),
            ([0.5, 2.0, -1.0], 0, -1.5),
            ([3.0, 3.0], 0, 0.0),
            ([-7.0, -7.0], 0, 0.0),
        ],
    )
    def test_values(self, t, y, expected):
        assert multiclass_margin(t, y) == expected

    def test_shift_invariance(self):
        # dyadic logits and shifts keep the subtraction exact
        rng = np.random.default_rng(7)
        t = rng.integers(-4096, 4096, size=(500, 5)) / 1024.0
        y = rng.integers(0, 5, size=500)
        shifts = rng.integers(-2048, 2048, size=500) / 256.0
        u = multiclass_margin(t, y)
        u_shifted = multiclass_margin(t + shifts[:, None], y)
        assert np.array_equal(u, u_shifted)

    def test_batch_matches_scalar(self):
        t = np.array([[0.5, 2.0, -1.0], [1.0, 0.0, 0.0]])
        y = np.array([1, 0])
        batch = multiclass_margin(t, y)
        singles = [multiclass_margin(t[i], int(y[i])) for i in range(2)]
        assert np.array_equal(batch, singles)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            multiclass_margin([np.inf, 0.0], 0)
        with pytest.raises(ValueError):
            multiclass_margin([np.nan, 0.0, 1.0], 2)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            multiclass_margin([1.0], 0)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            multiclass_margin([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            multiclass_margin([1.0, 2.0], -1)


class TestZeroOne:
    def test_definition(self):
        assert zero_one(-0.1) == 1
        assert zero_one(0.0) == 0  # boundary counts as correct
        assert zero_one(3.0) == 0

    def test_vectorized(self):
        out = zero_one(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [1, 0, 0])


class TestHinges:
    def test_hard_hinge_examples(self):
        assert hard_hinge([3.0, 0.0], 0) == 0.0
        assert hard_hinge([0.0, 1.0], 0) == 2.0
        assert hard_hinge([1.0, 1.0], 0) == 1.0

    def test_soft_hinge_correct_branch_equals_hard(self):
        assert soft_hinge([3.0, 0.0], 0) == hard_hinge([3.0, 0.0], 0)

    def test_soft_hinge_misclassified_value(self):
        assert soft_hinge([0.0, 1.0], 0) == pytest.approx(SOFT_HINGE_01, abs=1e-12)

    def test_soft_hinge_zero_margin_takes_hard_branch(self):
        assert soft_hinge([0.0, 0.0, 0.0], 0) == 1.0

    def test_weighted_endpoints_and_midpoint(self):
        t, y = [0.0, 1.0], 0
        assert weighted_loss(t, y, 0.0) == hard_hinge(t, y)
        assert weighted_loss(t, y, 1.0) == soft_hinge(t, y)
        assert weighted_loss(t, y, 0.5) == pytest.approx(
            (2.0 + SOFT_HINGE_01) / 2.0, abs=1e-12
        )

    def test_weighted_rejects_bad_beta(self):
        for beta in (-0.1, 1.1):
            with pytest.raises(ValueError):
                weighted_loss([0.0, 1.0], 0, beta)

    def test_hinge_from_margins(self):
        u = np.array([3.0, -1.0, 0.0, 1.0])
        assert np.array_equal(hinge_from_margins(u), [0.0, 2.0, 1.0, 0.0])

    def test_ordering_chain(self):
        # soft >= hard >= 0-1 >= 0 and weighted >= 0-1, for any beta
        rng = np.random.default_rng(11)
        t = rng.normal(0.0, 3.0, size=(1000, 4))
        y = rng.integers(0, 4, size=1000)
        u = multiclass_margin(t, y)
        z = zero_one(u)
        h = hard_hinge(t, y)
        s = soft_hinge(t, y)
        assert np.all(s >= h)
        assert np.all(h >= z)
        assert np.all(z >= 0)
        for beta in (0.0, 0.3, 1.0):
            assert np.all(weighted_loss(t, y, beta) >= z)


class TestBaseLoss:
    def test_parse_round_trip(self):
        for text in ("hinge", "soft-hinge", "weighted:0.25"):
            assert str(BaseLoss.parse(text)) == text

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            BaseLoss.parse("logistic")

    def test_values_dispatch(self):
        t, y = np.array([[0.0, 1.0]]), np.array([0])
        assert BaseLoss.hinge().values(t, y)[0] == 2.0
        assert BaseLoss.soft().values(t, y)[0] == pytest.approx(SOFT_HINGE_01)
        assert BaseLoss.weighted(0.5).values(t, y)[0] == pytest.approx(
            (2.0 + SOFT_HINGE_01) / 2.0
        )


def numeric_gradient(fn, t, h=1e-5):
    g = np.zeros_like(t, dtype=np.float64)
    for j in range(t.size):
        tp, tm = t.copy(), t.copy()
        tp[j] += h
        tm[j] -= h
        g[j] = (fn(tp) - fn(tm)) / (2.0 * h)
    return g


def relative_error(a, b):
    scale = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / scale


class TestGradients:
    def test_flat_region_is_zero(self):
        assert np.array_equal(loss_gradient([5.0, 0.0], 0, BaseLoss.hinge()), [0.0, 0.0])

    def test_hard_hinge_misclassified_subgradient(self):
        g = loss_gradient([0.0, 2.0, 1.0], 0, BaseLoss.hinge())
        assert np.array_equal(g, [-1.0, 1.0, 0.0])

    def test_rival_tie_breaks_to_smallest_index(self):
        g = loss_gradient([0.0, 2.0, 2.0], 0, BaseLoss.hinge())
        assert np.array_equal(g, [-1.0, 1.0, 0.0])

    def test_kink_at_unit_margin_takes_flat_branch(self):
        g = loss_gradient([1.0, 0.0], 0, BaseLoss.hinge())
        assert np.array_equal(g, [0.0, 0.0])

    @pytest.mark.parametrize(
        "kind", [BaseLoss.hinge(), BaseLoss.soft(), BaseLoss.weighted(0.5)]
    )
    def test_matches_central_differences(self, kind):
        # 1000 random non-kink inputs: |u| and |u - 1| away from 0, no ties
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(2, 6))
            t = rng.normal(0.0, 2.0, size=k)
            y = int(rng.integers(0, k))
            u = multiclass_margin(t, y)
            rival = np.sort(np.delete(t, y))
            tie_gap = rival[-1] - rival[-2] if k > 2 else 1.0
            if abs(u) < 1e-3 or abs(u - 1.0) < 1e-3 or tie_gap < 1e-3:
                continue
            analytic = loss_gradient(t, y, kind)
            numeric = numeric_gradient(lambda x: kind.values(x, y), t)
            assert relative_error(analytic, numeric) < 1e-5
            checked += 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(8, 3))
        y = rng.integers(0, 3, size=8)
        g = loss_gradient(t, y, BaseLoss.soft())
        for i in range(8):
            assert np.array_equal(g[i], loss_gradient(t[i], int(y[i]), BaseLoss.soft()))


def tied_batch(seed, n=500, k=5):
    # half-integer logits in a narrow range: rival ties, zero margins and
    # unit margins (the hinge kink) all occur many times
    rng = np.random.default_rng(seed)
    t = rng.integers(-3, 4, size=(n, k)).astype(np.float64) * 0.5
    return t, rng.integers(0, k, size=n)


KINDS = [BaseLoss.hinge(), BaseLoss.soft(), BaseLoss.weighted(0.3)]


class TestFusedLossPass:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_matches_public_functions_bitwise(self, kind, seed):
        t, y = tied_batch(seed)
        u, values, grads = _loss_pass(t, y, kind, gradients=True)
        assert np.array_equal(u, multiclass_margin(t, y))
        assert np.array_equal(values, kind.values(t, y))
        assert np.array_equal(grads, loss_gradient(t, y, kind))
        u2, values2, none = _loss_pass(t, y, kind, gradients=False)
        assert none is None
        assert np.array_equal(u2, u) and np.array_equal(values2, values)
        u3, values3 = margins_and_values(t, y, kind)
        assert np.array_equal(u3, u) and np.array_equal(values3, values)

    def test_outputs_match_recorded_digest(self):
        # digest of the public outputs, recorded before the loss functions
        # were rebuilt over the shared single-pass core
        t, y = tied_batch(21)
        h = hashlib.sha256(np.asarray(multiclass_margin(t, y)).tobytes())
        for kind in KINDS:
            h.update(np.asarray(kind.values(t, y)).tobytes())
            h.update(np.asarray(loss_gradient(t, y, kind)).tobytes())
        assert h.hexdigest() == "8afce8801e7689c2d5b5a611670625eb7a321deb6ece7332ad82acbb9c0c8414"

    def test_rejects_non_finite_logits(self):
        t, y = tied_batch(21, n=4)
        t[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _loss_pass(t, y, BaseLoss.hinge(), gradients=False)
