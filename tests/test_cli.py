"""Command-line surface: flags, exit codes, artifacts, reproducibility."""

import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import npcl.cli
from npcl.adversarial import empirical_adversarial_risk
from npcl.cli import run
from npcl.corruption import CorruptionSpec, corrupt_labels, read_sidecar
from npcl.data import load_dataset, synth_blobs
from npcl.net import _backprop
from npcl.selection import partial_optimize
from npcl.training import METRICS_HEADER
from npcl.verification import SUITES, optimum_identities_hold, run_suites


def smoke_args(out, epochs=3, extra=()):
    return [
        "train",
        "--synthetic", "blobs",
        "--train-size", "200",
        "--test-size", "80",
        "--noise", "symmetric",
        "--noise-rate", "0.4",
        "--threshold", "npcl-adaptive",
        "--epsilon-prior", "0.4",
        "--epochs", str(epochs),
        "--batch-size", "32",
        "--burn-in", "1",
        "--seed", "1",
        "--out", str(out),
        *extra,
    ]


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["train", "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_bad_noise_rate_is_validation_error(self, tmp_path, capsys):
        code = run(smoke_args(tmp_path)[:-2] + ["--noise-rate", "1.5"])
        assert code == 1
        assert "1.5" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        assert run(["train", "--bogus"]) == 1
        assert capsys.readouterr().err

    def test_missing_subcommand(self):
        assert run([]) == 1

    @pytest.mark.parametrize("hidden", ["0", "16,0"])
    def test_zero_width_layer_is_validation_error(self, tmp_path, capsys, hidden):
        code = run(smoke_args(tmp_path / "run", extra=["--hidden", hidden]))
        assert code == 1
        assert "--hidden" in capsys.readouterr().err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    def test_missing_idx_file_is_io_error(self, tmp_path, capsys):
        code = run(["train", "--dataset", "nope.idx", "also-nope.idx", "--out", str(tmp_path)])
        assert code == 2
        assert "i/o" in capsys.readouterr().err

    def test_corrupt_idx_row_count_is_io_error(self, tmp_path, capsys):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        header = bytearray(struct.pack(">IIII", 2051, 5, 2, 2))
        header[8] ^= 0x80  # the row count becomes 2**31 + 2
        images.write_bytes(bytes(header) + bytes(range(20)))
        labels.write_bytes(struct.pack(">II", 2049, 5) + bytes([0, 1, 0, 1, 0]))
        code = run(["train", "--dataset", str(images), str(labels), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {images}: truncated while reading pixels: ")
        assert "Traceback" not in err


class TestTrain:
    def test_smoke_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(smoke_args(out, epochs=5)) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0] == METRICS_HEADER
        assert len(rows) == 6  # header + 5 epochs
        echo = (out / "config.txt").read_text()
        assert "epsilon-prior = 0.4" in echo
        assert "seed = 1" in echo

    def test_criterion_10_golden_digest(self, tmp_path):
        # digest of the acceptance suite's criterion-10 metrics.csv
        out = tmp_path / "run"
        assert run([
            "train", "--synthetic", "blobs", "--train-size", "400", "--test-size", "100",
            "--noise", "symmetric", "--noise-rate", "0.4", "--epsilon-prior", "0.4",
            "--epochs", "6", "--batch-size", "64", "--burn-in", "2", "--seed", "11",
            "--out", str(out),
        ]) == 0
        digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
        assert digest == "3033a9c36d9bed98ebe1dfa6d936823ddba65877c9c235b0f799147c403150da"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(smoke_args(a)) == 0
        assert run(smoke_args(b)) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_checkpoint_written(self, tmp_path):
        out = tmp_path / "run"
        ckpt = tmp_path / "final.npw"
        assert run(smoke_args(out, extra=["--checkpoint", str(ckpt)])) == 0
        from npcl.net import load_params

        params = load_params(ckpt)
        assert params.num_classes == 4

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "synthetic = blobs\n"
            "train-size = 150\n"
            "test-size = 60\n"
            "epochs = 4\n"
            "batch-size = 32\n"
            "burn-in = 1\n"
            "seed = 7\n"
            "# comment line\n"
        )
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfg), "--epochs", "2", "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 3  # flag overrode the file's epochs = 4
        assert "seed = 7" in (out / "config.txt").read_text()

    def test_config_echo_round_trips(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(smoke_args(first, extra=["--hidden", "16,8"])) == 0
        assert "hidden = 16,8" in (first / "config.txt").read_text()
        assert run(["train", "--config", str(first / "config.txt"), "--out", str(second)]) == 0
        assert (second / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()
        assert (second / "config.txt").read_text() == (
            (first / "config.txt").read_text().replace(f"out = {first}", f"out = {second}"))

    def test_config_echo_keeps_path_pairs(self, tmp_path):
        rng = np.random.default_rng(4)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 2051, 60, 2, 2)
                           + rng.integers(0, 256, 240, dtype=np.uint8).tobytes())
        labels.write_bytes(struct.pack(">II", 2049, 60) + (np.arange(60, dtype=np.uint8) % 3).tobytes())
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["train", "--dataset", str(images), str(labels), "--epochs", "2",
                    "--batch-size", "16", "--burn-in", "1", "--out", str(first)]) == 0
        assert f"dataset = {images} {labels}" in (first / "config.txt").read_text()
        assert run(["train", "--config", str(first / "config.txt"), "--out", str(second)]) == 0
        assert (second / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-option = 1\n")
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "no-such-option" in capsys.readouterr().err

    def test_config_file_bad_choice(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synthetic = gaussian\n")
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "--synthetic" in err and "gaussian" in err
        assert not (tmp_path / "o").exists()


def write_idx(tmp_path, name, labels):
    """An IDX image/label pair of 2x2 images with the given labels."""
    labels = np.asarray(labels, dtype=np.uint8)
    images, label_file = tmp_path / f"{name}-images.idx", tmp_path / f"{name}-labels.idx"
    pixels = np.random.default_rng(labels.size).integers(0, 256, size=(labels.size, 4), dtype=np.uint8)
    images.write_bytes(struct.pack(">IIII", 2051, labels.size, 2, 2) + pixels.tobytes())
    label_file.write_bytes(struct.pack(">II", 2049, labels.size) + labels.tobytes())
    return [str(images), str(label_file)]


class TestTestDataset:
    def test_test_set_without_top_label_takes_train_class_count(self, tmp_path):
        train_files = write_idx(tmp_path, "train", [0, 1, 2] * 10)
        test_files = write_idx(tmp_path, "test", [0, 1] * 5)
        code = run(["train", "--dataset", *train_files, "--test-dataset", *test_files, "--epochs", "2",
                    "--burn-in", "1", "--hidden", "4", "--out", str(tmp_path / "run")])
        assert code == 0
        assert (tmp_path / "run" / "metrics.csv").is_file()

    def test_real_mismatch_names_both_files(self, tmp_path, capsys):
        train_files = write_idx(tmp_path, "train", [0, 1] * 10)
        test_files = write_idx(tmp_path, "test", [0, 1, 2] * 5)
        code = run(["train", "--dataset", *train_files, "--test-dataset", *test_files, "--epochs", "2",
                    "--burn-in", "1", "--hidden", "4", "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert all(path in err for path in train_files + test_files)
        assert not (tmp_path / "run" / "metrics.csv").exists()


class TestEmptyRunWarning:
    def test_all_empty_run_warns_on_stderr_and_exits_zero(self, tmp_path):
        # near-constant features keep every logit near 0, so every hinge loss is
        # near 1, above the threshold C = 0.05 * 10; nothing trains after burn-in
        argv = ["train", "--synthetic", "blobs", "--train-size", "40", "--test-size", "10",
                "--separation", "1e-6", "--noise-std", "1e-6", "--epochs", "2", "--burn-in", "0",
                "--batch-size", "10", "--threshold", "npcl-fixed", "--epsilon-prior", "0.95",
                "--hidden", "8", "--out", str(tmp_path / "run")]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "npcl", *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning: no batch selected any sample after burn-in" in done.stderr
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["0.0", "0.0"]

    def test_selecting_run_does_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(smoke_args(tmp_path / "run")) == 0


class TestCorrupt:
    def test_writes_dataset_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "c"
        code = run([
            "corrupt",
            "--synthetic", "blobs",
            "--train-size", "300",
            "--noise", "pair",
            "--noise-rate", "0.35",
            "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        ds = load_dataset(out / "corrupted.npds")
        spec, flags = read_sidecar(out / "corrupted.json")
        assert spec.kind == "pair" and spec.rate == 0.35 and spec.seed == 5
        assert np.array_equal(ds.flip_flags, flags)
        assert len(ds) == 300

    @pytest.mark.parametrize("kind", ["symmetric", "pair"])
    def test_outputs_match_corrupt_labels(self, tmp_path, kind):
        out = tmp_path / "c"
        assert run([
            "corrupt", "--synthetic", "blobs", "--train-size", "300", "--classes", "3",
            "--noise", kind, "--noise-rate", "0.35", "--seed", "5", "--out", str(out),
        ]) == 0
        clean = synth_blobs(300, 3, 4.0, 1.0, seed=[5, 100], dim=2)
        spec = CorruptionSpec(kind, 0.35, 5, 3)
        labels, flags = corrupt_labels(clean.labels, spec)
        ds = load_dataset(out / "corrupted.npds")
        assert np.array_equal(ds.features, clean.features)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.clean_labels, clean.labels)
        sidecar = json.loads((out / "corrupted.json").read_text())
        assert sidecar["flipped_indices"] == np.flatnonzero(flags).tolist()
        assert sidecar["num_samples"] == 300
        assert read_sidecar(out / "corrupted.json")[0] == spec

    def test_needs_noise_flag(self, tmp_path):
        assert run(["corrupt", "--synthetic", "blobs", "--out", str(tmp_path)]) == 1

    def test_dataset_and_synthetic_conflict(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run(["corrupt", "--synthetic", "blobs", "--dataset", "A", "B",
                    "--noise", "symmetric", "--noise-rate", "0.2", "--out", str(out)]) == 1
        assert "choose either --dataset or --synthetic, not both" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    @pytest.mark.parametrize("suite", ["all", *SUITES])
    def test_suite_passes(self, capsys, suite):
        assert run(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert out.endswith("all checks passed\n")

    @pytest.mark.parametrize("suite, modules, name, sabotage", [
        ("selector", ["npcl.verification"], "partial_optimize",
         lambda losses, c: partial_optimize(losses, max(c - 1.0, 0.0))),
        ("adversarial", ["npcl.verification", "npcl.adversarial"], "empirical_adversarial_risk",
         lambda losses, spec: 1.0 - empirical_adversarial_risk(losses, spec)),
        ("gradients", ["npcl.net"], "_backprop",
         lambda params, ws, delta, g_w, g_b: _backprop(params, ws, 2.0 * delta, g_w, g_b)),
    ], ids=["selector", "adversarial", "gradients"])
    def test_sabotaged_kernel_fails_its_suite(self, capsys, monkeypatch, suite, modules, name, sabotage):
        for module in modules:
            monkeypatch.setattr(f"{module}.{name}", sabotage)
        assert all(not r.ok for r in run_suites([suite]))
        assert run(["verify", suite]) == 3
        out = capsys.readouterr().out
        assert "PASS" not in out and out.endswith("SOME CHECKS FAILED\n")

    def test_zero_next_loss_is_optimal(self):
        # L_{T+1} = L_T = 0 here, yet T = 3 is the kernel's cut and optimal
        result = partial_optimize(np.zeros(5), 2.5)
        assert result.selected_count == 3 and result.objective == 0.0
        assert optimum_identities_hold(result, 2.5)

    @pytest.mark.parametrize("shift", [-1, 1], ids=["one_fewer", "one_more"])
    def test_selector_off_by_one_fails_identities(self, capsys, monkeypatch, shift):
        def off_by_one(losses, c):
            result = partial_optimize(losses, c)
            t = min(max(result.selected_count + shift, 0), result.prefix_sums.size)
            l_t = float(result.prefix_sums[t - 1]) if t > 0 else 0.0
            return dataclasses.replace(result, selected_count=t, objective=max(l_t, c - t),
                                       selected_loss_sum=l_t)

        monkeypatch.setattr("npcl.verification.partial_optimize", off_by_one)
        [_, identities] = run_suites(["selector"])
        assert not identities.ok
        assert run(["verify", "selector"]) == 3
        assert capsys.readouterr().out.endswith("SOME CHECKS FAILED\n")

    def test_suites_seed_independently(self):
        assert run_suites(seed=5)[:2] == run_suites(["selector"], seed=5)


class TestSweep:
    def test_grid_of_priors(self, tmp_path):
        out = tmp_path / "sweep"
        code = run([
            "sweep",
            "--synthetic", "blobs",
            "--train-size", "160",
            "--test-size", "64",
            "--noise", "symmetric",
            "--noise-rate", "0.4",
            "--epochs", "2",
            "--batch-size", "32",
            "--burn-in", "1",
            "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        cells = sorted(p.name for p in out.iterdir())
        assert cells == ["prior_0.2", "prior_0.3", "prior_0.4", "prior_0.5", "prior_0.6"]
        for cell in cells:
            assert (out / cell / "metrics.csv").exists()
            assert (out / cell / "config.txt").exists()

    def test_builds_datasets_once(self, tmp_path, monkeypatch):
        calls = {"synth": 0, "corrupt": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(npcl.cli, "synth_blobs", counting("synth", npcl.cli.synth_blobs))
        monkeypatch.setattr(npcl.cli, "corrupt_dataset", counting("corrupt", npcl.cli.corrupt_dataset))
        code = run([
            "sweep", "--synthetic", "blobs", "--train-size", "64", "--test-size", "32",
            "--noise", "symmetric", "--noise-rate", "0.4", "--epochs", "2",
            "--batch-size", "32", "--burn-in", "1", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        assert calls == {"synth": 2, "corrupt": 1}
        assert len(list(tmp_path.glob("*/metrics.csv"))) == 5

    def test_requires_noise_rate(self, tmp_path):
        assert run(["sweep", "--synthetic", "blobs", "--out", str(tmp_path)]) == 1
