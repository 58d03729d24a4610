"""Command-line surface: flags, exit codes, artifacts, reproducibility."""

import hashlib
import json

import numpy as np
import pytest

import npcl.cli
from npcl.cli import run
from npcl.corruption import CorruptionSpec, corrupt_labels, read_sidecar
from npcl.data import load_dataset, synth_blobs
from npcl.training import METRICS_HEADER


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

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-option = 1\n")
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "no-such-option" in capsys.readouterr().err


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


class TestVerify:
    def test_selector_suite_passes(self, capsys):
        assert run(["verify", "selector"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_bounds_suite_passes(self, capsys):
        assert run(["verify", "bounds"]) == 0


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
