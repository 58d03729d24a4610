"""Margins, hinge losses, and their subgradients."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from npcl import losses, verification
from npcl.losses import BaseLoss, _as_batch, _loss_pass, multiclass_margin
from npcl.net import MlpParams, forward
from npcl.objectives import MarginBatch
from npcl.verification import grad_check

SOFT_HINGE_01 = 2.3132616875182228  # 1 + log(1 + e), t=[0,1], y=0
HARD, SOFT = BaseLoss.hinge(), BaseLoss.soft()


def loss_values(kind, logits, labels):
    """Per-sample loss values, from ``MarginBatch.from_logits``'s loss pass."""
    return MarginBatch.from_logits(logits, labels, kind).base_losses


def loss_gradients(kind, logits, labels):
    """Logit subgradients, from the loss pass that training runs."""
    return _loss_pass(*_as_batch(logits, labels), kind, gradients=True)[2]


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
        assert multiclass_margin([t], [y]).tolist() == [expected]

    def test_shift_invariance(self):
        # dyadic logits and shifts keep the subtraction exact
        rng = np.random.default_rng(7)
        t = rng.integers(-4096, 4096, size=(500, 5)) / 1024.0
        y = rng.integers(0, 5, size=500)
        shifts = rng.integers(-2048, 2048, size=500) / 256.0
        u = multiclass_margin(t, y)
        u_shifted = multiclass_margin(t + shifts[:, None], y)
        assert np.array_equal(u, u_shifted)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            multiclass_margin([[np.inf, 0.0]], [0])
        with pytest.raises(ValueError, match="non-finite"):
            multiclass_margin([[np.nan, 0.0, 1.0]], [2])

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="K >= 2"):
            multiclass_margin([[1.0]], [0])

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="labels must be integers"):
            multiclass_margin([[1.0, 2.0]], [1.0])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="out of range"):
            multiclass_margin([[1.0, 2.0]], [2])
        with pytest.raises(ValueError, match="out of range"):
            multiclass_margin([[1.0, 2.0]], [-1])


class TestZeroOne:
    """The 0-1 objective J as ``MarginBatch`` counts it."""

    def test_definition(self):
        assert MarginBatch.from_margins([-0.1]).zero_one_total == 1
        assert MarginBatch.from_margins([3.0]).zero_one_total == 0
        # the boundary counts as correct, whatever the sign of the zero
        assert MarginBatch.from_margins([0.0, -0.0, -1.0]).zero_one_total == 1

    def test_vectorized(self):
        assert MarginBatch.from_margins(np.array([-1.0, 0.0, 2.0, -3.0])).zero_one_total == 2


class TestHinges:
    def test_hard_hinge_examples(self):
        assert loss_values(HARD, [[3.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0, 0, 0]).tolist() == [0.0, 2.0, 1.0]

    def test_soft_hinge_correct_branch_equals_hard(self):
        assert loss_values(SOFT, [[3.0, 0.0]], [0]) == loss_values(HARD, [[3.0, 0.0]], [0])

    def test_soft_hinge_misclassified_value(self):
        assert loss_values(SOFT, [[0.0, 1.0]], [0])[0] == pytest.approx(SOFT_HINGE_01, abs=1e-12)

    def test_soft_hinge_zero_margin_takes_hard_branch(self):
        assert loss_values(SOFT, [[0.0, 0.0, 0.0]], [0])[0] == 1.0

    def test_weighted_endpoints_and_midpoint(self):
        t, y = [[0.0, 1.0]], [0]
        assert loss_values(BaseLoss.weighted(0.0), t, y) == loss_values(HARD, t, y)
        assert loss_values(BaseLoss.weighted(1.0), t, y) == loss_values(SOFT, t, y)
        assert loss_values(BaseLoss.weighted(0.5), t, y)[0] == pytest.approx(
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
        h = loss_values(HARD, t, y)
        s = loss_values(SOFT, t, y)
        assert np.all(s >= h)
        assert np.all(h >= z)
        assert np.all(z >= 0)
        for beta in (0.0, 0.3, 1.0):
            assert np.all(loss_values(BaseLoss.weighted(beta), t, y) >= z)


class TestBaseLoss:
    def test_parse_round_trip(self):
        for text in ("hinge", "soft-hinge", "weighted:0.25"):
            assert str(BaseLoss.parse(text)) == text

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            BaseLoss.parse("logistic")

    @pytest.mark.parametrize("kind", ["hinge", "soft-hinge"])
    def test_unweighted_kinds_reject_a_beta(self, kind):
        with pytest.raises(ValueError, match=f"^beta must be 0 for {kind}, got 0.7; only the weighted loss mixes$"):
            BaseLoss(kind, 0.7)
        assert BaseLoss(kind, 0.0) == BaseLoss(kind)

    def test_values_dispatch(self):
        t, y = np.array([[0.0, 1.0]]), np.array([0])
        assert loss_values(BaseLoss.hinge(), t, y)[0] == 2.0
        assert loss_values(BaseLoss.soft(), t, y)[0] == pytest.approx(SOFT_HINGE_01)
        assert loss_values(BaseLoss.weighted(0.5), t, y)[0] == pytest.approx(
            (2.0 + SOFT_HINGE_01) / 2.0
        )


ROW = np.array([0.5, 2.0, -1.0])  # one sample's logits, or its 3 features
NET = MlpParams.init([3, 4, 3], seed=0)
LOGITS_SHAPE = "logits must be (n, K) with K >= 2, got shape (3,)"
FEATURES_SHAPE = "features must be (n, 3), got shape (3,)"


class TestBatchOnly:
    """Every entry takes a batch; a single sample's 1-D form is rejected, naming the expected shape."""

    @pytest.mark.parametrize("call, message", [
        (lambda: multiclass_margin(ROW, 1), LOGITS_SHAPE),
        (lambda: MarginBatch.from_logits(ROW, 1, HARD), LOGITS_SHAPE),
        (lambda: MarginBatch.from_margins(0.5), "margins must be a non-empty 1-D vector, got shape ()"),
        (lambda: forward(NET, ROW), FEATURES_SHAPE),
        (lambda: grad_check(NET, ROW, 1, HARD), FEATURES_SHAPE),
        (lambda: multiclass_margin(ROW[None], 1), "labels must be a 1-D vector, got shape ()"),
    ], ids=["multiclass_margin", "from_logits", "from_margins", "forward", "grad_check", "scalar-label"])
    def test_single_sample_form_is_rejected(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


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
        assert np.array_equal(loss_gradients(HARD, [[5.0, 0.0]], [0]), [[0.0, 0.0]])

    def test_hard_hinge_misclassified_subgradient(self):
        g = loss_gradients(HARD, [[0.0, 2.0, 1.0]], [0])
        assert np.array_equal(g, [[-1.0, 1.0, 0.0]])

    def test_rival_tie_breaks_to_smallest_index(self):
        g = loss_gradients(HARD, [[0.0, 2.0, 2.0]], [0])
        assert np.array_equal(g, [[-1.0, 1.0, 0.0]])

    def test_kink_at_unit_margin_takes_flat_branch(self):
        g = loss_gradients(HARD, [[1.0, 0.0]], [0])
        assert np.array_equal(g, [[0.0, 0.0]])

    @pytest.mark.parametrize(
        "kind", [BaseLoss.hinge(), BaseLoss.soft(), BaseLoss.weighted(0.5)]
    )
    def test_matches_central_differences(self, kind):
        # 1000 random inputs away from every kink
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(2, 6))
            t = rng.normal(0.0, 2.0, size=k)
            y = int(rng.integers(0, k))
            if verification._near_kink(t[None], np.array([y])):
                continue
            analytic = loss_gradients(kind, t[None], [y])[0]
            numeric = numeric_gradient(lambda x: loss_values(kind, x[None], [y])[0], t)
            assert relative_error(analytic, numeric) < 1e-5
            checked += 1


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
        u, values, _ = _loss_pass(t, y, kind, gradients=True)
        assert np.array_equal(u, multiclass_margin(t, y))
        u2, values2, none = _loss_pass(t, y, kind, gradients=False)
        assert none is None
        assert np.array_equal(u2, u) and np.array_equal(values2, values)
        batch = MarginBatch.from_logits(t, y, kind)
        assert np.array_equal(batch.margins, u) and np.array_equal(batch.base_losses, values)

    def test_outputs_match_recorded_digest(self):
        # digest of the margins, the values of the values-only pass and the
        # gradients, recorded before the loss functions were rebuilt over the
        # shared single-pass core
        t, y = tied_batch(21)
        h = hashlib.sha256(np.asarray(multiclass_margin(t, y)).tobytes())
        for kind in KINDS:
            h.update(_loss_pass(t, y, kind, gradients=False)[1].tobytes())
            h.update(_loss_pass(t, y, kind, gradients=True)[2].tobytes())
        assert h.hexdigest() == "8afce8801e7689c2d5b5a611670625eb7a321deb6ece7332ad82acbb9c0c8414"

    @pytest.mark.parametrize("rows", [1, 7])
    def test_row_blocks_change_no_bit(self, monkeypatch, rows):
        # the margin pass takes its input MARGIN_BLOCK elements at a time; the
        # block size moves no bit
        t, y = tied_batch(22)
        expected = [_loss_pass(t, y, kind, gradients=True) for kind in KINDS]
        monkeypatch.setattr(losses, "MARGIN_BLOCK", rows * t.shape[1])
        for kind, outputs in zip(KINDS, expected):
            for got, want in zip(_loss_pass(t, y, kind, gradients=True), outputs):
                assert np.array_equal(got, want)

    def test_rejects_non_finite_logits(self):
        t, y = tied_batch(21, n=4)
        t[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _loss_pass(t, y, BaseLoss.hinge(), gradients=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_the_last_block_only(self, bad):
        k = 10
        rng = np.random.default_rng(5)
        n = 3 * (losses.MARGIN_BLOCK // k) + 5  # three full blocks and a short one
        t = rng.integers(-8, 9, size=(n, k)) / 4.0
        y = rng.integers(0, k, size=n)
        t[-1, 3] = bad
        for gradients in (False, True):
            with pytest.raises(ValueError, match="non-finite"):
                _loss_pass(t, y, BaseLoss.hinge(), gradients=gradients)


def signed_zero_batch():
    # only +-0 and +-1: nearly every row has a rival tie, many between zeros
    # of either sign, so the sign of each zero margin pins the tie rule
    rng = np.random.default_rng(31)
    t = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0]), size=(20_000, 5))
    return t, rng.integers(0, 5, size=20_000)


def two_class_batch():
    rng = np.random.default_rng(32)
    t = rng.choice(np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]), size=(5_000, 2))
    return t, rng.integers(0, 2, size=5_000)


def dyadic_batch():
    # 300,000 x 10 spans many margin blocks
    rng = np.random.default_rng(33)
    t = rng.integers(-4096, 4097, size=(300_000, 10)) / 1024.0
    return t, rng.integers(0, 10, size=300_000)


class TestSignedZeroMargins:
    """The margin pass reads -0.0 as +0.0, so no margin is -0.0 and both rival
    reads (column maxima for values, the argmax index for gradients) agree."""

    @pytest.mark.parametrize(
        "batch",
        [signed_zero_batch, two_class_batch, lambda: tied_batch(21)],
        ids=["signed-zeros", "two-classes", "tied"],
    )
    def test_margins_hold_no_negative_zero(self, batch):
        t, y = batch()
        masked = t.copy()
        masked[np.arange(y.size), y] = -np.inf
        reference = t[np.arange(y.size), y] - masked.max(axis=1)
        margins = [multiclass_margin(t, y), MarginBatch.from_logits(t, y, HARD).margins]
        for kind in KINDS:
            margins += [_loss_pass(t, y, kind, gradients=gradients)[0] for gradients in (False, True)]
        for u in margins:
            assert not np.any(np.signbit(u) & (u == 0.0))
            assert np.array_equal(u, reference)
            assert u.tobytes() == margins[0].tobytes()


class TestMarginPassDigest:
    """sha256 of every ``_loss_pass`` output, recorded before the margins were
    taken by column maxima in cache-sized blocks.  The signed-zeros and
    two-classes digests were re-recorded when the pass began to read -0.0 as
    +0.0: their values and gradients kept every byte, and only the sign of
    zero margins moved (773 of 20,000 and 132 of 5,000 rows)."""

    @pytest.mark.parametrize("batch, digest", [
        (signed_zero_batch, "e6e696b62ad194765911476c3a78004f77e97ecaefe4e38b467d2aa42d1a6a95"),
        (two_class_batch, "1e2953bc8e93bf04b99d83ccf3a277928ed1fa272b8ce29c4bc136492d6c8bcd"),
        (dyadic_batch, "f5c7df535baa08e245063efde37a00582b2ae4682c6af66c42955bd84904a233"),
    ], ids=["signed-zeros", "two-classes", "dyadic-300k"])
    def test_outputs_match_recorded_digest(self, batch, digest):
        t, y = batch()
        h = hashlib.sha256()
        for kind in KINDS:
            for gradients in (False, True):
                for out in _loss_pass(t, y, kind, gradients=gradients):
                    if out is not None:
                        h.update(out.tobytes())
        assert h.hexdigest() == digest

    def test_values_path_memory(self):
        # four (n,) float64 vectors: the int64 labels, the true scores, the
        # margins and the hinge values; no (n,) index array and no copy of
        # the logits (the parent pass peaked at 38.2 MiB here)
        rng = np.random.default_rng(34)
        t = rng.integers(-4096, 4097, size=(1_000_000, 10)) / 1024.0
        y = rng.integers(0, 10, size=1_000_000)
        tracemalloc.start()
        try:
            MarginBatch.from_logits(t, y, HARD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
