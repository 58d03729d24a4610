"""Margins, hinge losses, and their subgradients."""

import hashlib

import numpy as np
import pytest

from npcl import losses
from npcl.losses import BaseLoss, _loss_pass, margins_and_values, multiclass_margin
from npcl.objectives import MarginBatch

SOFT_HINGE_01 = 2.3132616875182228  # 1 + log(1 + e), t=[0,1], y=0
HARD, SOFT = BaseLoss.hinge(), BaseLoss.soft()


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
    """The 0-1 objective J as ``MarginBatch`` counts it."""

    def test_definition(self):
        assert MarginBatch.from_margins(-0.1).zero_one_total == 1  # a scalar is one sample
        assert MarginBatch.from_margins(3.0).zero_one_total == 0
        # the boundary counts as correct, whatever the sign of the zero
        assert MarginBatch.from_margins([0.0, -0.0, -1.0]).zero_one_total == 1

    def test_vectorized(self):
        assert MarginBatch.from_margins(np.array([-1.0, 0.0, 2.0, -3.0])).zero_one_total == 2


class TestHinges:
    def test_hard_hinge_examples(self):
        assert HARD.values([3.0, 0.0], 0) == 0.0
        assert HARD.values([0.0, 1.0], 0) == 2.0
        assert HARD.values([1.0, 1.0], 0) == 1.0

    def test_soft_hinge_correct_branch_equals_hard(self):
        assert SOFT.values([3.0, 0.0], 0) == HARD.values([3.0, 0.0], 0)

    def test_soft_hinge_misclassified_value(self):
        assert SOFT.values([0.0, 1.0], 0) == pytest.approx(SOFT_HINGE_01, abs=1e-12)

    def test_soft_hinge_zero_margin_takes_hard_branch(self):
        assert SOFT.values([0.0, 0.0, 0.0], 0) == 1.0

    def test_weighted_endpoints_and_midpoint(self):
        t, y = [0.0, 1.0], 0
        assert BaseLoss.weighted(0.0).values(t, y) == HARD.values(t, y)
        assert BaseLoss.weighted(1.0).values(t, y) == SOFT.values(t, y)
        assert BaseLoss.weighted(0.5).values(t, y) == pytest.approx(
            (2.0 + SOFT_HINGE_01) / 2.0, abs=1e-12
        )

    def test_weighted_rejects_bad_beta(self):
        for beta in (-0.1, 1.1):
            with pytest.raises(ValueError):
                BaseLoss.weighted(beta)

    def test_hinge_from_margins(self):
        u = np.array([3.0, -1.0, 0.0, 1.0])
        assert np.array_equal(MarginBatch.from_margins(u).base_losses, [0.0, 2.0, 1.0, 0.0])

    def test_ordering_chain(self):
        # soft >= hard >= 0-1 >= 0 and weighted >= 0-1, for any beta
        rng = np.random.default_rng(11)
        t = rng.normal(0.0, 3.0, size=(1000, 4))
        y = rng.integers(0, 4, size=1000)
        z = multiclass_margin(t, y) < 0
        h = HARD.values(t, y)
        s = SOFT.values(t, y)
        assert np.all(s >= h)
        assert np.all(h >= z)
        assert np.all(z >= 0)
        for beta in (0.0, 0.3, 1.0):
            assert np.all(BaseLoss.weighted(beta).values(t, y) >= z)


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
        assert np.array_equal(HARD.gradients([5.0, 0.0], 0), [0.0, 0.0])

    def test_hard_hinge_misclassified_subgradient(self):
        g = HARD.gradients([0.0, 2.0, 1.0], 0)
        assert np.array_equal(g, [-1.0, 1.0, 0.0])

    def test_rival_tie_breaks_to_smallest_index(self):
        g = HARD.gradients([0.0, 2.0, 2.0], 0)
        assert np.array_equal(g, [-1.0, 1.0, 0.0])

    def test_kink_at_unit_margin_takes_flat_branch(self):
        g = HARD.gradients([1.0, 0.0], 0)
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
            analytic = kind.gradients(t, y)
            numeric = numeric_gradient(lambda x: kind.values(x, y), t)
            assert relative_error(analytic, numeric) < 1e-5
            checked += 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(8, 3))
        y = rng.integers(0, 3, size=8)
        g = SOFT.gradients(t, y)
        for i in range(8):
            assert np.array_equal(g[i], SOFT.gradients(t[i], int(y[i])))


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
        assert np.array_equal(grads, kind.gradients(t, y))
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
            h.update(np.asarray(kind.gradients(t, y)).tobytes())
        assert h.hexdigest() == "8afce8801e7689c2d5b5a611670625eb7a321deb6ece7332ad82acbb9c0c8414"

    @pytest.mark.parametrize("rows", [1, 7])
    def test_row_blocks_change_no_bit(self, monkeypatch, rows):
        # the rival pass takes its input RIVAL_ROWS rows at a time; the block
        # size moves no bit
        t, y = tied_batch(22)
        expected = [_loss_pass(t, y, kind, gradients=True) for kind in KINDS]
        monkeypatch.setattr(losses, "RIVAL_ROWS", rows)
        for kind, outputs in zip(KINDS, expected):
            for got, want in zip(_loss_pass(t, y, kind, gradients=True), outputs):
                assert np.array_equal(got, want)

    def test_rejects_non_finite_logits(self):
        t, y = tied_batch(21, n=4)
        t[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _loss_pass(t, y, BaseLoss.hinge(), gradients=False)
