"""Training loop: burn-in, selection behavior, metrics, determinism."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from npcl.corruption import CorruptionSpec, corrupt_dataset
from npcl.data import Dataset, synth_blobs
from npcl.losses import BaseLoss
from npcl.net import AdamConfig, MlpParams, forward
from npcl.selection import ThresholdMode
from npcl.training import (
    METRICS_HEADER,
    TrainConfig,
    evaluate,
    label_precision,
    train,
    write_metrics_csv,
)


def small_config(**overrides):
    base = dict(
        epochs=8,
        batch_size=16,
        burn_in_epochs=2,
        threshold=ThresholdMode.npcl_adaptive(0.0),
        base_loss=BaseLoss.hinge(),
        optimizer=AdamConfig(lr=1e-2),
        seed=3,
        hidden=(16,),
    )
    base.update(overrides)
    return TrainConfig(**base)


def separable_sets(n_train=64, n_test=32):
    train_set = synth_blobs(n_train, 2, separation=10.0, noise_std=0.3, seed=1)
    test_set = synth_blobs(n_test, 2, separation=10.0, noise_std=0.3, seed=2)
    return train_set, test_set


class TestConfig:
    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            small_config(epochs=0)
        with pytest.raises(ValueError):
            small_config(batch_size=0)
        with pytest.raises(ValueError):
            small_config(burn_in_epochs=8)  # must be < epochs

    @pytest.mark.parametrize("hidden", [(0,), (16, 0), (-1,)])
    def test_rejects_degenerate_hidden_sizes(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            small_config(hidden=hidden)


class TestLabelPrecision:
    def test_basic_values(self):
        mask = np.array([True] * 10 + [False] * 3)
        flags = np.zeros(13, dtype=bool)
        flags[:2] = True  # two flipped among the selected
        assert label_precision(mask, flags) == pytest.approx(0.8)

    def test_all_clean(self):
        mask = np.ones(5, dtype=bool)
        assert label_precision(mask, np.zeros(5, dtype=bool)) == 1.0

    def test_empty_selection_errors(self):
        with pytest.raises(ValueError):
            label_precision(np.zeros(4, dtype=bool), np.zeros(4, dtype=bool))


class TestEvaluate:
    def test_perfect_predictions(self):
        train_set, _ = separable_sets()
        cfg = small_config(epochs=12)
        _, params = train(cfg, train_set, train_set)
        assert evaluate(params, train_set) == 1.0

    def test_random_net_on_independent_labels(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(10000, 4))
        labels = rng.integers(0, 2, size=10000)  # independent of features
        ds = Dataset(features, labels, 2)
        params = MlpParams.init([4, 8, 2], seed=9)
        assert abs(evaluate(params, ds) - 0.5) < 0.015

    def test_all_tied_logits_predict_class_zero(self):
        features = np.ones((100, 3))
        labels = np.array([0, 1] * 50)
        ds = Dataset(features, labels, 2)
        params = MlpParams([np.zeros((3, 2))], [np.zeros(2)])
        assert np.array_equal(forward(params, features[0]), [0.0, 0.0])
        assert evaluate(params, ds) == 0.5  # ties resolve to class 0


class TestTrainLoop:
    def test_metrics_row_count_and_burn_in_fraction(self):
        train_set, test_set = separable_sets()
        cfg = small_config()
        metrics, _ = train(cfg, train_set, test_set)
        assert len(metrics) == cfg.epochs
        for m in metrics[: cfg.burn_in_epochs]:
            assert m.selected_frac == 1.0

    def test_separable_data_reaches_full_selection(self):
        # once every hinge loss hits zero the kernel admits everything
        train_set, test_set = separable_sets()
        cfg = small_config(epochs=12)
        metrics, params = train(cfg, train_set, test_set)
        assert metrics[-1].selected_frac == 1.0
        logits = forward(params, train_set.features)
        assert np.all(BaseLoss.hinge().values(logits, train_set.labels) == 0.0)

    def test_deterministic_metrics_stream(self):
        train_set, test_set = separable_sets()
        noisy = corrupt_dataset(train_set, CorruptionSpec("symmetric", 0.25, 5, 2))
        cfg = small_config(threshold=ThresholdMode.npcl_adaptive(0.25))
        a, _ = train(cfg, noisy, test_set)
        b, _ = train(cfg, noisy, test_set)
        assert a == b

    def test_csv_byte_identical(self, tmp_path):
        train_set, test_set = separable_sets()
        cfg = small_config()
        for name in ("a.csv", "b.csv"):
            metrics, _ = train(cfg, train_set, test_set)
            write_metrics_csv(tmp_path / name, metrics)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        first = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert first == METRICS_HEADER

    def test_no_shuffle_mode(self):
        train_set, test_set = separable_sets()
        cfg = small_config(shuffle=False)
        a, _ = train(cfg, train_set, test_set)
        b, _ = train(cfg, train_set, test_set)
        assert a == b

    def test_selection_cap_with_fixed_threshold(self):
        # the kernel can never admit more than m - ceil(eps*m) + 1 per batch
        train_set, test_set = separable_sets(128, 32)
        noisy = corrupt_dataset(train_set, CorruptionSpec("symmetric", 0.4, 8, 2))
        eps = 0.4
        cfg = small_config(
            epochs=6, threshold=ThresholdMode.npcl_fixed(eps), batch_size=16
        )
        counts = []
        train(cfg, noisy, test_set, on_batch=lambda e, b, v, s, k: counts.append((e, k)))
        cap = 16 - math.ceil(eps * 16) + 1
        for epoch, k in counts:
            if epoch >= cfg.burn_in_epochs:
                assert k <= cap

    def test_curriculum_value_never_exceeds_plain_sum(self):
        # noise-free data, zero prior: per-batch objective vs conventional sum
        train_set, test_set = separable_sets(96, 32)
        cfg = small_config(epochs=6)
        records = []
        train(cfg, train_set, test_set, on_batch=lambda e, b, v, s, k: records.append((v, s)))
        assert records
        for value, plain in records:
            # slack covers summation-order ulps only
            assert value <= plain * (1 + 1e-12) + 1e-12

    def test_pathological_empty_selection_is_counted(self):
        # constant features freeze the logits; labels forced to the losing
        # class make every loss exceed 1, and a near-one prior pushes the
        # threshold below 1, so no batch ever selects anything
        features = np.zeros((40, 3))
        probe = MlpParams.init([3, 8, 2], seed=[11, 0])
        losing = int(np.argmin(forward(probe, features[:1])[0]))
        ds = Dataset(features, np.full(40, losing), 2)
        cfg = TrainConfig(
            epochs=2,
            batch_size=10,
            burn_in_epochs=0,
            threshold=ThresholdMode.npcl_fixed(0.95),
            base_loss=BaseLoss.hinge(),
            seed=11,
            hidden=(8,),
        )
        with pytest.warns(RuntimeWarning, match="no batch selected any sample after burn-in"):
            metrics, _ = train(cfg, ds, ds)
        for m in metrics:
            assert m.empty_batches == 4
            assert m.selected_frac == 0.0
            assert math.isnan(m.train_loss)
            assert math.isnan(m.label_precision)

    def test_run_that_selects_does_not_warn(self):
        train_set, test_set = separable_sets()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics, _ = train(small_config(threshold=ThresholdMode.npcl_fixed(0.5)), train_set, test_set)
        assert all(m.selected_frac > 0 for m in metrics)

    def test_validation_errors(self):
        train_set, test_set = separable_sets()
        other = synth_blobs(10, 2, separation=4.0, noise_std=1.0, seed=3, dim=5)
        with pytest.raises(ValueError):
            train(small_config(), train_set, other)

    def test_rejects_class_count_mismatch(self):
        train_set, _ = separable_sets()
        three_class = synth_blobs(12, 3, separation=4.0, noise_std=1.0, seed=3)
        with pytest.raises(ValueError, match="class counts"):
            train(small_config(), train_set, three_class)

    def test_diverging_run_raises_on_non_finite_logits(self):
        train_set, test_set = separable_sets()
        cfg = small_config(optimizer=AdamConfig(lr=1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                train(cfg, train_set, test_set)


def desk_sets(n_train=1000):
    blob = dict(num_classes=4, separation=4.0, noise_std=1.0, dim=64)
    train_set = synth_blobs(n_train, seed=[5, 100], **blob)
    test_set = synth_blobs(200, seed=[5, 200], **blob)
    return corrupt_dataset(train_set, CorruptionSpec("symmetric", 0.4, 5, 4)), test_set


class TestBitIdentity:
    """sha256 of the metrics rows and the final parameter bytes of a small desk run.

    The digests were recorded before the training step was fused (one
    forward pass, one loss pass, cached backward, flat Adam); the fused step
    must reproduce them bit for bit.  The ``batch-1`` and ``batch-over-n``
    cases pin the single-row and the one-short-batch shapes; they were
    recorded before the step ran in preallocated workspaces.  All were
    recorded with numpy 2.4 and OpenBLAS 0.3 on x86-64; a BLAS that rounds
    matmuls differently changes them without any change to the code.
    """

    @pytest.mark.parametrize(
        "n_train,overrides,rows_sha,params_sha",
        [
            (
                1000, dict(base_loss=BaseLoss.hinge()),
                "bbc00dc4bdb6e8da1f2c6a3d7e71e64aba84e8d8c9805bae5b26239d329ed3f4",
                "c28bea52b331867370fcfbcde0ebb8eb0afd6b49660d452bfc096f02f24fdef6",
            ),
            (
                1000, dict(base_loss=BaseLoss.soft()),
                "5b836c7e76a68a7b7e76761c48deecabedcd4dc93cebb7c72d67ae17a9c7866f",
                "8ae68b7c708485c3a146a6e142624546c9065c2c65e85c239df83a596848c6c6",
            ),
            (
                1000, dict(base_loss=BaseLoss.weighted(0.5)),
                "e22191b6515a252b3f2827d8e201d7d6e483e924469f1a4014a7999842555fca",
                "6b2ad815851a126ce97af808caea174ebfadcd5027a79b1b3bd711bc8a2f750e",
            ),
            (
                1000, dict(base_loss=BaseLoss.hinge(), selection=False),
                "5ef3f6cd71f14292ce32abbaf5dff0b91b62ad10d6c51ad277c4cdd5aea3d5a4",
                "02d038edaa7f0d95aa09a9be30dcfaec51d0f0389b696129c6bd0eef4afc94b2",
            ),
            (
                200, dict(base_loss=BaseLoss.hinge(), epochs=3, burn_in_epochs=1, batch_size=1),
                "5d7f74d5780c3dc950059d91bfa0908f930a5bc67745c9811ecf6e42ec9b8322",
                "45819cff6c5267846f537d798e554e82959bc58b199d8d0acdaef1ac838ee798",
            ),
            (
                1000, dict(base_loss=BaseLoss.hinge(), batch_size=4096),
                "08f84d01b0640340efb6a9e6d9980b98f3a52d38ff4b6edf5069e5a9098f32c9",
                "1a7b5dede3e459242963b7903d8670c12e299ee4a2ef36f97392ec90214d82e1",
            ),
        ],
        ids=["hinge", "soft-hinge", "weighted:0.5", "no-selection", "batch-1", "batch-over-n"],
    )
    def test_desk_run_digests(self, n_train, overrides, rows_sha, params_sha):
        train_set, test_set = desk_sets(n_train)
        cfg = TrainConfig(**{
            **dict(epochs=8, batch_size=128, burn_in_epochs=2,
                   threshold=ThresholdMode.npcl_adaptive(0.4), seed=5),
            **overrides,
        })
        metrics, params = train(cfg, train_set, test_set)
        rows = "\n".join(m.as_row() for m in metrics).encode()
        assert hashlib.sha256(rows).hexdigest() == rows_sha
        flat = params.flat.astype("<f8").tobytes()
        assert hashlib.sha256(flat).hexdigest() == params_sha
