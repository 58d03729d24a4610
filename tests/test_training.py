"""Training loop: burn-in, selection behavior, metrics, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from npcl.corruption import CorruptionSpec, corrupt_dataset
from npcl.data import Dataset, synth_blobs
from npcl.losses import BaseLoss
from npcl.net import MlpParams, forward
from npcl.objectives import MarginBatch
from npcl.selection import ThresholdMode
from npcl.training import (
    METRICS_HEADER,
    TrainConfig,
    evaluate,
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
        lr=1e-2,
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

    @pytest.mark.parametrize("overrides, field", [
        (dict(epochs=3.0, burn_in_epochs=1), "epochs"),
        (dict(burn_in_epochs=1.0), "burn-in"),
        (dict(batch_size=16.0), "batch size"),
        (dict(hidden=(4.5,)), "hidden layer size"),
        (dict(hidden=("4",)), "hidden layer size"),
        (dict(seed=1.5), "seed"),
        (dict(seed="1"), "seed"),
        (dict(seed=True), "seed"),
    ], ids=str)
    def test_integer_settings_reject_other_types(self, overrides, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            small_config(**overrides)

    def test_integer_settings_take_numpy_integers(self):
        cfg = small_config(epochs=np.int64(3), burn_in_epochs=np.uint8(1), batch_size=np.int32(16),
                           hidden=(np.int64(4),), seed=np.int64(2))
        assert (cfg.epochs, cfg.burn_in_epochs, cfg.batch_size, cfg.hidden, cfg.seed) == (3, 1, 16, (4,), 2)

    @pytest.mark.parametrize("hidden", [[4], 4, "4", None])
    def test_hidden_sizes_must_be_a_tuple(self, hidden):
        # a list was accepted and left the frozen config unhashable; an int raised a bare TypeError
        message = f"hidden layer sizes must be a tuple of integers, got {hidden!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(hidden=hidden)

    def test_a_valid_config_hashes(self):
        assert hash(small_config(hidden=(4, 2))) == hash(small_config(hidden=(4, 2)))
        assert len({small_config(hidden=(4,)), small_config(hidden=(4,)), small_config(hidden=())}) == 2

    def test_accepts_a_hidden_layer_of_width_one(self):
        assert small_config(hidden=(1,)).hidden == (1,)

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_learning_rates(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            small_config(lr=lr)

    @pytest.mark.parametrize("overrides, message", [
        (dict(threshold="npcl-adaptive"), "threshold must be a ThresholdMode or None, got 'npcl-adaptive'"),
        (dict(threshold=0.4), "threshold must be a ThresholdMode or None, got 0.4"),
        (dict(base_loss="hinge"), "base loss must be a BaseLoss, got 'hinge'"),
        (dict(base_loss=None), "base loss must be a BaseLoss, got None"),
        (dict(lr=True), "learning rate must be finite and > 0, got True"),
        (dict(lr="0.1"), "learning rate must be finite and > 0, got '0.1'"),
        (dict(lr=None), "learning rate must be finite and > 0, got None"),
    ], ids=["threshold-str", "threshold-float", "loss-str", "loss-none", "lr-bool", "lr-str", "lr-none"])
    def test_rejects_settings_of_the_wrong_type(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**overrides)

    def test_takes_numpy_and_integer_learning_rates(self):
        assert small_config(lr=np.float32(0.5)).lr == 0.5
        assert small_config(lr=1).lr == 1

    @pytest.mark.parametrize("side", ["train", "test"])
    def test_rejects_an_empty_dataset(self, side):
        sets = dict(zip(["train", "test"], separable_sets()))
        sets[side] = Dataset(np.zeros((0, sets[side].dim)), np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ValueError, match="^datasets must be non-empty$"):
            train(small_config(), sets["train"], sets["test"])


class TestLabelPrecision:
    """``train``'s per-epoch clean fraction of the trained samples."""

    def test_basic_values(self):
        # burn-in trains every sample, so its rows hold the clean fraction of the whole set
        train_set, test_set = separable_sets()
        noisy = corrupt_dataset(train_set, CorruptionSpec("pair", 0.3, 4, 2))
        clean = int(np.count_nonzero(~noisy.flip_flags))
        assert 0 < clean < len(noisy)
        metrics, _ = train(small_config(), noisy, test_set)
        for m in metrics[:2]:
            assert m.label_precision == clean / len(noisy)

    def test_all_clean(self):
        train_set, test_set = separable_sets()
        metrics, _ = train(small_config(threshold=ThresholdMode.npcl_fixed(0.5)), train_set, test_set)
        assert all(m.selected_frac > 0 and m.label_precision == 1.0 for m in metrics)


class TestEvaluate:
    def test_perfect_predictions(self):
        train_set, _ = separable_sets()
        cfg = small_config(epochs=12)
        _, params = train(cfg, train_set, train_set)
        assert evaluate(forward(params, train_set.features), train_set) == 1.0

    def test_random_net_on_independent_labels(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(10000, 4))
        labels = rng.integers(0, 2, size=10000)  # independent of features
        ds = Dataset(features, labels, 2)
        params = MlpParams.init([4, 8, 2], seed=9)
        assert abs(evaluate(forward(params, features), ds) - 0.5) < 0.015

    def test_all_tied_logits_predict_class_zero(self):
        features = np.ones((100, 3))
        labels = np.array([0, 1] * 50)
        ds = Dataset(features, labels, 2)
        params = MlpParams([np.zeros((3, 2))], [np.zeros(2)])
        assert np.array_equal(forward(params, features[:1]), [[0.0, 0.0]])
        assert evaluate(forward(params, features), ds) == 0.5  # ties resolve to class 0

    def test_train_scores_the_params_it_returns(self):
        # the last epoch's test_acc, from train's own test buffers, is the library call on the final params
        train_set = synth_blobs(96, 3, separation=1.0, noise_std=1.0, seed=1)
        test_set = synth_blobs(60, 3, separation=1.0, noise_std=1.0, seed=2)
        metrics, params = train(small_config(epochs=4), train_set, test_set)
        acc = evaluate(forward(params, test_set.features), test_set)
        assert 0.0 < acc < 1.0 and metrics[-1].test_acc == acc

    @pytest.mark.parametrize("shape", [(7, 2), (8, 3), (8,)])
    def test_logits_must_have_a_row_per_sample_and_a_column_per_class(self, shape):
        ds = synth_blobs(8, 2, separation=3.0, noise_std=1.0, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"logits must be (8, 2) for the dataset's rows and "
                                                       f"classes, got shape {shape}")):
            evaluate(np.zeros(shape), ds)


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
        assert np.all(MarginBatch.from_logits(logits, train_set.labels, BaseLoss.hinge()).base_losses == 0.0)

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

    def test_metrics_header_literal(self):
        assert METRICS_HEADER == "epoch,train_loss,test_acc,label_precision,selected_frac,empty_batches"

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
        cfg = small_config(lr=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                train(cfg, train_set, test_set)


def desk_sets(n_train=1000):
    blob = dict(num_classes=4, separation=4.0, noise_std=1.0, dim=64)
    train_set = synth_blobs(n_train, seed=[5, 100], **blob)
    test_set = synth_blobs(200, seed=[5, 200], **blob)
    return corrupt_dataset(train_set, CorruptionSpec("symmetric", 0.4, 5, 4)), test_set


# name: (training rows, TrainConfig overrides, metrics-rows sha256, parameter sha256)
DESK_RUNS = {
    "hinge": (
        1000, dict(base_loss=BaseLoss.hinge()),
        "bbc00dc4bdb6e8da1f2c6a3d7e71e64aba84e8d8c9805bae5b26239d329ed3f4",
        "c28bea52b331867370fcfbcde0ebb8eb0afd6b49660d452bfc096f02f24fdef6",
    ),
    "soft-hinge": (
        1000, dict(base_loss=BaseLoss.soft()),
        "5b836c7e76a68a7b7e76761c48deecabedcd4dc93cebb7c72d67ae17a9c7866f",
        "8ae68b7c708485c3a146a6e142624546c9065c2c65e85c239df83a596848c6c6",
    ),
    "weighted:0.5": (
        1000, dict(base_loss=BaseLoss.weighted(0.5)),
        "e22191b6515a252b3f2827d8e201d7d6e483e924469f1a4014a7999842555fca",
        "6b2ad815851a126ce97af808caea174ebfadcd5027a79b1b3bd711bc8a2f750e",
    ),
    "no-selection": (
        1000, dict(base_loss=BaseLoss.hinge(), threshold=None),
        "5ef3f6cd71f14292ce32abbaf5dff0b91b62ad10d6c51ad277c4cdd5aea3d5a4",
        "02d038edaa7f0d95aa09a9be30dcfaec51d0f0389b696129c6bd0eef4afc94b2",
    ),
    "batch-1": (
        200, dict(base_loss=BaseLoss.hinge(), epochs=3, burn_in_epochs=1, batch_size=1),
        "5d7f74d5780c3dc950059d91bfa0908f930a5bc67745c9811ecf6e42ec9b8322",
        "45819cff6c5267846f537d798e554e82959bc58b199d8d0acdaef1ac838ee798",
    ),
    "batch-over-n": (
        1000, dict(base_loss=BaseLoss.hinge(), batch_size=4096),
        "08f84d01b0640340efb6a9e6d9980b98f3a52d38ff4b6edf5069e5a9098f32c9",
        "84ce72c039c72e902a19924a4454f8af0c5423bb2fc98f89e811b8dabf6977d9",
    ),
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def desk_run_digests(name):
    """sha256 of the metrics rows and of the final parameter bytes of one desk run."""
    n_train, overrides = DESK_RUNS[name][:2]
    train_set, test_set = desk_sets(n_train)
    cfg = TrainConfig(**{
        **dict(epochs=8, batch_size=128, burn_in_epochs=2,
               threshold=ThresholdMode.npcl_adaptive(0.4), seed=5),
        **overrides,
    })
    metrics, params = train(cfg, train_set, test_set)
    rows = "\n".join(m.as_row() for m in metrics).encode()
    flat = params.flat.astype("<f8").tobytes()
    return [hashlib.sha256(rows).hexdigest(), hashlib.sha256(flat).hexdigest()]


class TestBitIdentity:
    """sha256 of the metrics rows and the final parameter bytes of a small desk run.

    The digests were recorded before the training step was fused (one
    forward pass, one loss pass, cached backward, flat Adam); the fused step
    must reproduce them bit for bit.  The ``batch-1`` and ``batch-over-n``
    cases pin the single-row and the one-short-batch shapes; they were
    recorded before the step ran in preallocated workspaces.  All were
    recorded with numpy 2.4 and OpenBLAS 0.3 on x86-64; a BLAS that rounds
    matmuls differently changes them without any change to the code.

    A multi-threaded BLAS may split a matmul differently, and the
    ``batch-over-n`` parameters differ between one and two threads, so the
    runs take place in one child process with one BLAS thread (the setting
    of every benchmark run), whatever the host or the parent's environment.
    The ``batch-over-n`` parameter digest was re-recorded that way on the
    tree before the blocked margin pass; the other eleven digests read the
    same at one and two threads.
    """

    @pytest.fixture(scope="class")
    def one_thread_digests(self):
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, **{var: "1" for var in BLAS_THREAD_VARS}}
        code = ("import json, test_training as t; "
                "print(json.dumps({name: t.desk_run_digests(name) for name in t.DESK_RUNS}))")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    @pytest.mark.parametrize("name", list(DESK_RUNS))
    def test_desk_run_digests(self, one_thread_digests, name):
        assert one_thread_digests[name] == list(DESK_RUNS[name][2:])
