"""Command-line surface: flags, exit codes, artifacts, reproducibility."""

import dataclasses
import gc
import hashlib
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import npcl.cli
from npcl.adversarial import _worst_case
from npcl.cli import _out_dir, _sweep_cells, _train_config, build_parser, run
from npcl.corruption import CorruptionSpec, corrupt_dataset
from npcl.data import MAX_CLASSES, load_dataset, save_dataset, split, synth_blobs
from npcl.net import _backprop, forward
from npcl.objectives import curriculum_objective
from npcl.selection import ThresholdMode, partial_optimize
from npcl.training import METRICS_HEADER, TrainConfig, train
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


def select_one_more(batch, mode):
    """``curriculum_objective`` with one more sample counted as selected, at the same value."""
    value, result = curriculum_objective(batch, mode)
    return value, dataclasses.replace(result, selected_count=result.selected_count + 1)


def sweep_args(out, epochs=3, extra=()):
    """``smoke_args`` as a sweep, which sets each cell's prior itself."""
    argv = smoke_args(out, epochs, extra)
    prior = argv.index("--epsilon-prior")
    return ["sweep", *argv[1:prior], *argv[prior + 2:]]


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

    def test_zero_count_idx_is_io_error_naming_the_file(self, tmp_path, capsys):
        images, labels = write_idx(tmp_path, "empty", [])
        code = run(["train", "--dataset", images, labels, "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"i/o error: {images}: image count is 0")

    @pytest.mark.parametrize("fault", [
        lambda data: b"XXXX" + data[4:],
        lambda data: data[:4] + struct.pack("<I", 2) + data[8:],
        lambda data: data[:8] + struct.pack("<Q", 0) + data[16:],
        lambda data: data[:16] + struct.pack("<I", 0) + data[20:],
        lambda data: data[:20] + struct.pack("<I", MAX_CLASSES + 1) + data[24:],
        lambda data: data[:20] + struct.pack("<I", 2) + data[24:],  # labels 0..2 under K = 2
        # clean labels flagged and appended, the last one 3 under K = 3
        lambda data: data[:24] + struct.pack("<I", 1) + data[28:] + struct.pack("<6q", 0, 1, 2, 0, 1, 3),
        lambda data: data[:28] + struct.pack("<d", float("nan")) + data[36:],  # the first feature
        lambda data: data[:-1],
        lambda data: data + b"x",
    ], ids=["magic", "version", "sample-count", "feature-count", "class-count", "labels", "clean-labels",
            "nan-feature", "truncated", "trailing"])
    def test_malformed_npds_is_io_error_naming_the_file(self, tmp_path, capsys, fault):
        path = tmp_path / "bad.npds"
        save_dataset(path, synth_blobs(6, 3, 3.0, 0.5, seed=1))
        path.write_bytes(fault(path.read_bytes()))
        out = tmp_path / "run"
        assert run(["train", "--dataset", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"i/o error: {path}: ")
        assert not out.exists()


class TestRejectedFlags:
    """Each bad or ignored setting exits 1 with a message naming its flags, before any output."""

    @pytest.mark.parametrize("argv, flags", [
        (["--lr", "0"], ["--lr"]),
        (["--lr", "-1"], ["--lr"]),
        (["--lr", "nan"], ["--lr"]),
        (["--separation", "nan"], ["--separation"]),
        (["--noise-std", "-1"], ["--noise-std"]),
        (["--threshold", "full-q"], ["--threshold", "--epsilon-prior"]),
        (["--threshold", "full-e", "--epsilon-prior", "0.9"], ["--threshold", "--epsilon-prior"]),
        (["--noise-rate", "1.5"], ["--noise-rate"]),
        (["--epsilon-prior", "1"], ["--epsilon-prior"]),
        (["--test-fraction", "0"], ["--test-fraction"]),
        (["--test-fraction", "1"], ["--test-fraction"]),
        (["--classes", "1"], ["--classes"]),
        (["--train-size", "2"], ["--train-size", "--classes"]),
        (["--test-size", "3"], ["--test-size", "--classes"]),
        (["--blob-dim", "1"], ["--blob-dim"]),
        (["--epochs", "0"], ["--epochs"]),
        (["--batch-size", "0"], ["--batch-size"]),
        (["--burn-in", "3"], ["--burn-in", "--epochs"]),  # smoke_args runs 3 epochs
        (["--burn-in", "-1"], ["--burn-in", "--epochs"]),
        (["--test-dataset", "/nonexistent/file.npds"], ["--synthetic", "--test-dataset"]),
        (["--seed", "-1"], ["--seed"]),
        (["--loss", "weighted:2"], ["--loss"]),
        (["--loss", "weighted:nan"], ["--loss"]),
        (["--loss", "weighted:x"], ["--loss"]),
        (["--loss", "bogus"], ["--loss"]),
        (["--threshold", "none"], ["--threshold none", "--epsilon-prior"]),
        (["--no-selection"], ["unrecognized arguments", "--no-selection"]),
        (["--checkpoint", "ck.bin"], ["unrecognized arguments", "--checkpoint"]),
        (["--hidden", "4,x"], ["argument --hidden: bad hidden sizes '4,x'"]),
        (["--hidden", "4,,8"], ["argument --hidden: bad hidden sizes '4,,8'"]),
        (["--hidden", "4,"], ["argument --hidden: bad hidden sizes '4,'"]),
        (["--hidden", ",4"], ["argument --hidden: bad hidden sizes ',4'"]),
        (["--no-shuffle"], ["unrecognized arguments", "--no-shuffle"]),
    ], ids=lambda v: " ".join(v))
    def test_train(self, tmp_path, capsys, monkeypatch, argv, flags):
        monkeypatch.chdir(tmp_path)
        assert run(smoke_args(tmp_path / "run", extra=argv)) == 1  # smoke_args sets --epsilon-prior 0.4
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not (tmp_path / "run").exists() and not (tmp_path / "ck.bin").exists()

    @pytest.mark.parametrize("argv, flags", [
        (["--test-fraction", "0.01"], ["--test-fraction", "test side"]),
        (["--test-fraction", "0.99"], ["--test-fraction", "train side"]),
    ], ids=lambda v: " ".join(v))
    def test_train_on_idx_pair(self, tmp_path, capsys, argv, flags):
        files = write_idx(tmp_path, "data", [0, 1] * 25)
        assert run(["train", "--dataset", *files, *argv, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not (tmp_path / "run").exists()

    def test_train_without_data(self, tmp_path, capsys):
        assert run(["train", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: need --dataset or --synthetic\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "corrupt"])
    @pytest.mark.parametrize("argv", [["--train-size", "2"], ["--blob-dim", "1"]], ids=" ".join)
    def test_failed_data_build_leaves_no_output(self, tmp_path, command, argv):
        out = tmp_path / "run"
        assert run([command, "--synthetic", "blobs", "--noise", "pair", *argv, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--synthetic", "blobs", "--noise", "symmetric", "--noise-rate", "0.4", "--seed", "-3"],
        ["corrupt", "--synthetic", "blobs", "--noise", "pair", "--seed", "-2"],
        ["verify", "selector", "--seed", "-1"],
        ["train", "--dataset", "data.npds", "--seed", "-1"],  # --seed also seeds the held-out split
        ["train", "--dataset", "data.npds", "--test-dataset", "data.npds", "--seed", "-1"],
    ], ids=" ".join)
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        save_dataset(tmp_path / "data.npds", synth_blobs(40, 2, 3.0, 1.0, seed=0))
        assert run([*argv, *([] if argv[0] == "verify" else ["--out", "run"])]) == 1
        assert capsys.readouterr().err.startswith("error: argument --seed: seed must be >= 0, got -")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, flags", [
        (["--epsilon-prior", "0.3"], ["--epsilon-prior"]),
        (["--checkpoint", "ck.bin"], ["--checkpoint"]),
        (["--threshold", "none"], ["which --threshold none ignores"]),
    ], ids=lambda v: " ".join(v))
    def test_sweep(self, tmp_path, capsys, monkeypatch, argv, flags):
        monkeypatch.chdir(tmp_path)
        assert run(sweep_args(tmp_path / "run", extra=argv)) == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not (tmp_path / "run").exists() and not (tmp_path / "ck.bin").exists()

    @pytest.mark.parametrize("argv", [
        ["--test-dataset", "data.npds"],
        ["--test-size", "5"],
        ["--test-fraction", "0.3"],
    ], ids=" ".join)
    def test_corrupt_takes_no_test_set_flag(self, tmp_path, capsys, monkeypatch, argv):
        # a corrupt run builds no test set
        monkeypatch.chdir(tmp_path)
        assert run([*CORRUPT_ARGS, *argv, "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unrecognized arguments: {' '.join(argv)}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("source", ["blobs", "idx"])
    def test_noise_rate_without_noise(self, tmp_path, capsys, command, source):
        data = (["--synthetic", "blobs", "--train-size", "60"] if source == "blobs"
                else ["--dataset", *write_idx(tmp_path, "data", [0, 1] * 25)])
        assert run([command, *data, "--noise-rate", "0.3", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("error: --noise-rate 0.3 needs --noise ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("threshold", ["full-q", "full-e"])
    def test_sweep_with_a_full_mode(self, tmp_path, capsys, threshold):
        assert run(sweep_args(tmp_path / "run", extra=["--threshold", threshold])) == 1
        assert "--threshold" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_sweep_with_a_burn_in_as_long_as_the_run(self, tmp_path, capsys):
        assert run(sweep_args(tmp_path / "run", extra=["--burn-in", "3"])) == 1
        err = capsys.readouterr().err
        assert "--burn-in" in err and "--epochs" in err
        assert not (tmp_path / "run").exists()

    def test_sweep_with_synthetic_data_and_a_test_dataset(self, tmp_path, capsys):
        assert run(sweep_args(tmp_path / "run", extra=["--test-dataset", "/nonexistent/file.npds"])) == 1
        err = capsys.readouterr().err
        assert "--synthetic" in err and "--test-dataset" in err
        assert not (tmp_path / "run").exists()

    def test_full_mode_with_zero_prior_runs(self, tmp_path):
        assert run(smoke_args(tmp_path / "run", epochs=2, extra=["--threshold", "full-q", "--epsilon-prior", "0"])) == 0


class TestDefaults:
    def default_train_args(self):
        parser, _ = build_parser()
        return parser.parse_args(["train", "--synthetic", "blobs"])

    def test_default_config_echo_digest(self, tmp_path, monkeypatch):
        # recorded before the flag defaults were read from TrainConfig; re-recorded each time the echo
        # lost one line, "no-shuffle = False" and then "no-selection = False"
        monkeypatch.chdir(tmp_path)  # the echo holds the default --out, "out"
        digest = hashlib.sha256((_out_dir(self.default_train_args()) / "config.txt").read_bytes()).hexdigest()
        assert digest == "09497a26440debbaf78c791127a4801413896ce028ff579280971f933fea96fd"

    def test_default_flags_give_default_train_config(self):
        assert _train_config(self.default_train_args()) == TrainConfig()


class TestTrain:
    def test_noise_without_a_clean_plurality_warns(self, tmp_path):
        # four classes: symmetric noise at 0.75 leaves the true label no plurality
        with pytest.warns(RuntimeWarning, match="symmetric noise at rate 0.75 on K = 4"):
            assert run(smoke_args(tmp_path / "run", epochs=2, extra=["--noise-rate", "0.75"])) == 0

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

    def test_config_echo_round_trips_a_net_without_hidden_layers(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(smoke_args(first, epochs=2, extra=["--hidden", ""])) == 0
        assert "hidden = ''" in (first / "config.txt").read_text().splitlines()
        assert run(["train", "--config", str(first / "config.txt"), "--out", str(second)]) == 0
        assert (second / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()

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

    @pytest.mark.parametrize("name", ["sp ace", "h#x"], ids=["space", "hash"])
    def test_config_rerun_keeps_quoted_paths(self, tmp_path, name):
        # the data and the run live under a directory whose name the echo must quote
        data, out = tmp_path / name / "data", tmp_path / name / "run"
        assert run(["corrupt", "--synthetic", "blobs", "--train-size", "120", "--classes", "3", "--noise",
                    "symmetric", "--noise-rate", "0.2", "--out", str(data)]) == 0
        assert run(["train", "--dataset", str(data / "corrupted.npds"), "--epochs", "2", "--burn-in", "1",
                    "--batch-size", "32", "--hidden", "4", "--out", str(out)]) == 0
        metrics = (out / "metrics.csv").read_bytes()
        (out / "metrics.csv").unlink()
        assert run(["train", "--config", str(out / "config.txt")]) == 0  # writes to the echoed --out
        assert (out / "metrics.csv").read_bytes() == metrics

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no-such-option = 1\n")
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "no-such-option" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("train", "no-shuffle = true"),
        ("sweep", "no-shuffle = false"),
        ("train", "no-selection = false"),
        ("sweep", "no-selection = true"),
        ("corrupt", "test-size = 1000"),
        ("corrupt", "test-fraction = 0.2"),
        ("corrupt", "test-dataset = data.npds"),
    ], ids=lambda v: v)
    def test_config_file_key_the_command_does_not_take(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"seed = 1\n{key}\n")
        assert run([command, "--config", str(cfg), "--synthetic", "blobs", "--noise", "pair",
                    "--noise-rate", "0.2", "--out", str(tmp_path / "o")]) == 1
        name = key.partition(" =")[0]
        assert capsys.readouterr().err == f"error: {cfg}:2: unknown config key {name!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\nepochs 3\n", "2: expected 'key = value'"),
        ("out = 'run\n", "1: No closing quotation"),
    ], ids=["no-equals", "unclosed-quote"])
    def test_config_file_malformed_line(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert not (tmp_path / "o").exists()

    def test_config_hash_inside_a_word_is_kept(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'cfgx#y'}  # only a '#' that starts a word starts a comment\n")
        flags = smoke_args(tmp_path / "unused", epochs=2)[1:-2]  # without its --out
        assert run(["train", "--config", str(cfg), *flags]) == 0
        assert (tmp_path / "cfgx#y" / "metrics.csv").exists()
        assert not (tmp_path / "cfgx").exists()

    @pytest.mark.parametrize("command", ["train", "corrupt", "sweep"])
    def test_every_option_takes_a_value(self, command):
        # the config reader reads no switch words: a switch would echo "flag = False", which no rerun reads
        options = build_parser()[1][command].options
        assert [a.option_strings[-1] for key, a in options.items() if key != "help" and a.nargs == 0] == []

    def test_config_echo_round_trips_threshold_none(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(smoke_args(first, extra=["--threshold", "none", "--epsilon-prior", "0"])) == 0
        assert "threshold = none" in (first / "config.txt").read_text().splitlines()
        assert run(["train", "--config", str(first / "config.txt"), "--out", str(second)]) == 0
        metrics = (first / "metrics.csv").read_text().splitlines()
        assert [row.split(",")[4] for row in metrics[1:]] == ["1.0"] * 3  # every sample trains every epoch
        assert (second / "metrics.csv").read_text().splitlines() == metrics
        assert (second / "config.txt").read_text() == (
            (first / "config.txt").read_text().replace(f"out = {first}", f"out = {second}"))

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

    def test_label_mismatch_message(self, tmp_path, capsys):
        # the test set's top label is 3; the train set has 2 classes
        train_files = write_idx(tmp_path, "train", [0, 1] * 10)
        test_files = write_idx(tmp_path, "test", [0, 1, 2, 3] * 5)
        assert run(["train", "--dataset", *train_files, "--test-dataset", *test_files,
                    "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (f"error: test set {' '.join(test_files)} has labels up to 3, "
                                           f"but train set {' '.join(train_files)} has 2 classes\n")
        assert not (tmp_path / "run").exists()


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


CORRUPT_ARGS = ["corrupt", "--synthetic", "blobs", "--train-size", "300", "--noise", "pair",
                "--noise-rate", "0.35", "--seed", "5"]


class TestCorrupt:
    def test_writes_dataset_and_config(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run([*CORRUPT_ARGS, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "corrupted.npds"]
        echo = (out / "config.txt").read_text().splitlines()
        assert {"noise = pair", "noise-rate = 0.35", "seed = 5"} <= set(echo)
        ds = load_dataset(out / "corrupted.npds")
        assert len(ds) == 300
        flipped = int(ds.flip_flags.sum())
        assert 0 < flipped < 300
        assert f"({flipped} of 300 labels flipped)" in capsys.readouterr().out

    def test_config_rerun_reproduces_dataset(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run([*CORRUPT_ARGS, "--out", str(first)]) == 0
        assert run(["corrupt", "--config", str(first / "config.txt"), "--out", str(second)]) == 0
        assert (second / "corrupted.npds").read_bytes() == (first / "corrupted.npds").read_bytes()

    @pytest.mark.parametrize("kind", ["symmetric", "pair"])
    def test_outputs_match_corrupt_labels(self, tmp_path, kind):
        out = tmp_path / "c"
        assert run([
            "corrupt", "--synthetic", "blobs", "--train-size", "300", "--classes", "3",
            "--noise", kind, "--noise-rate", "0.35", "--seed", "5", "--out", str(out),
        ]) == 0
        clean = synth_blobs(300, 3, 4.0, 1.0, seed=[5, 100], dim=2)
        spec = CorruptionSpec(kind, 0.35, 5, 3)
        noisy = corrupt_dataset(clean, spec)
        ds = load_dataset(out / "corrupted.npds")
        assert np.array_equal(ds.features, clean.features)
        assert np.array_equal(ds.labels, noisy.labels)
        assert np.array_equal(ds.clean_labels, clean.labels)
        assert np.array_equal(np.flatnonzero(ds.flip_flags), np.flatnonzero(noisy.flip_flags))
        assert len(ds) == 300
        echo = (out / "config.txt").read_text().splitlines()
        assert {f"noise = {kind}", "noise-rate = 0.35", "seed = 5", "classes = 3"} <= set(echo)

    def test_needs_noise_flag(self, tmp_path):
        assert run(["corrupt", "--synthetic", "blobs", "--out", str(tmp_path)]) == 1

    def test_dataset_and_synthetic_conflict(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run(["corrupt", "--synthetic", "blobs", "--dataset", "A", "B",
                    "--noise", "symmetric", "--noise-rate", "0.2", "--out", str(out)]) == 1
        assert "choose either --dataset or --synthetic, not both" in capsys.readouterr().err
        assert not out.exists()


class TestNpdsInput:
    """``npcl corrupt``'s ``corrupted.npds`` read back by ``--dataset`` and ``--test-dataset``."""

    def corrupted(self, tmp_path, seed=5, dim=2):
        out = tmp_path / f"corrupt-{seed}-{dim}"
        assert run(["corrupt", "--synthetic", "blobs", "--train-size", "300", "--classes", "3", "--blob-dim", str(dim),
                    "--noise", "symmetric", "--noise-rate", "0.4", "--seed", str(seed), "--out", str(out)]) == 0
        return str(out / "corrupted.npds")

    def test_train_on_corrupted_dataset(self, tmp_path):
        path = self.corrupted(tmp_path)
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["train", "--dataset", path, "--epochs", "3", "--burn-in", "2", "--batch-size", "32",
                    "--hidden", "8", "--seed", "7", "--out", str(first)]) == 0
        rows = (first / "metrics.csv").read_text().splitlines()[1:]
        train_side, test_side = split(load_dataset(path), 0.2, seed=[7, 300])
        # burn-in trains every sample, so its label precision is the train side's clean fraction
        clean = np.count_nonzero(~train_side.flip_flags) / len(train_side)
        assert 0.5 < clean < 0.7
        for row in rows[:2]:
            assert float(row.split(",")[3]) == clean
        metrics, _ = train(TrainConfig(epochs=3, burn_in_epochs=2, batch_size=32, hidden=(8,), seed=7),
                           train_side, test_side)
        assert rows == [m.as_row() for m in metrics]
        assert f"dataset = {path}\n" in (first / "config.txt").read_text()
        assert run(["train", "--config", str(first / "config.txt"), "--out", str(second)]) == 0
        assert (second / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()

    def test_held_out_side_scored_on_clean_labels(self, tmp_path):
        path = self.corrupted(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--dataset", path, "--epochs", "4", "--burn-in", "1", "--batch-size", "32",
                    "--hidden", "8", "--seed", "7", "--out", str(out)]) == 0
        train_side, test_side = split(load_dataset(path), 0.2, seed=[7, 300])
        _, params = train(TrainConfig(epochs=4, burn_in_epochs=1, batch_size=32, hidden=(8,), seed=7),
                          train_side, test_side)
        predictions = np.argmax(forward(params, test_side.features), axis=1)
        clean_acc = float(np.mean(predictions == test_side.clean_labels))
        assert np.count_nonzero(test_side.flip_flags) > 10
        assert clean_acc != float(np.mean(predictions == test_side.labels))
        last = (out / "metrics.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[2]) == clean_acc

    @pytest.mark.parametrize("kind", ["npds", "idx"])
    def test_feature_count_mismatch_named_before_output(self, tmp_path, capsys, kind):
        # the train set has 2 features; the test set 3 (blobs) or 4 (2x2 IDX images)
        test_files = [self.corrupted(tmp_path, 6, dim=3)] if kind == "npds" else write_idx(tmp_path, "t", [0, 1, 2])
        train_file, out = self.corrupted(tmp_path), tmp_path / "run"
        assert run(["train", "--dataset", train_file, "--test-dataset", *test_files, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        dims = {"npds": 3, "idx": 4}[kind]
        assert f"test set {' '.join(test_files)} has {dims} features" in err
        assert f"train set {train_file} has 2" in err
        assert not out.exists()

    def test_test_dataset_file(self, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--dataset", self.corrupted(tmp_path, 5), "--test-dataset", self.corrupted(tmp_path, 6),
                    "--epochs", "2", "--burn-in", "1", "--hidden", "4", "--out", str(out)]) == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("command", ["train", "corrupt"])
    def test_noise_on_stored_clean_labels_is_rejected(self, tmp_path, capsys, command):
        path = self.corrupted(tmp_path)
        out = tmp_path / "run"
        assert run([command, "--dataset", path, "--noise", "pair", "--noise-rate", "0.2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--noise" in err and path in err
        advice = {"train": "drop --noise to train on its labels",
                  "corrupt": "it is already corrupted and can be trained on as it is"}[command]
        assert advice in err
        assert not out.exists()

    def test_noise_rate_on_stored_noise_is_rejected(self, tmp_path, capsys):
        path, out = self.corrupted(tmp_path), tmp_path / "run"
        assert run(["train", "--dataset", path, "--noise-rate", "0.9", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --noise-rate 0.9 corrupts nothing: ")
        assert f"{path} already holds its noise" in err
        assert not out.exists()

    def test_sweep_scales_priors_from_the_stored_noise_rate(self, tmp_path):
        # the file already holds the noise, so --noise-rate without --noise only scales the priors
        out = tmp_path / "sweep"
        assert run(["sweep", "--dataset", self.corrupted(tmp_path), "--noise-rate", "0.4", "--epochs", "2",
                    "--burn-in", "1", "--batch-size", "32", "--hidden", "8", "--seed", "7", "--out", str(out)]) == 0
        cells = sorted(out.iterdir())
        assert [cell.name for cell in cells] == ["prior_0.2", "prior_0.3", "prior_0.4", "prior_0.5", "prior_0.6"]
        for cell in cells:
            metrics = (cell / "metrics.csv").read_bytes()
            assert "noise-rate = 0.0\n" in (cell / "config.txt").read_text()
            assert run(["train", "--config", str(cell / "config.txt"), "--out", str(tmp_path / "rerun")]) == 0
            assert (tmp_path / "rerun" / "metrics.csv").read_bytes() == metrics

    def test_three_paths_rejected(self, tmp_path, capsys):
        assert run(["train", "--dataset", "a", "b", "c", "--out", str(tmp_path / "run")]) == 1
        assert "--dataset takes an IDX image/label pair or one .npds file, got 3 paths" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestVerify:
    @pytest.mark.parametrize("suite", ["all", *SUITES])
    def test_suite_passes(self, capsys, suite):
        assert run(["verify", suite]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert out.endswith("all checks passed\n")

    @pytest.mark.parametrize("suite, modules, name, sabotage, spared", [
        ("selector", ["npcl.verification"], "partial_optimize",
         lambda losses, c: partial_optimize(losses, max(c - 1.0, 0.0)), 0),
        # the closed form that empirical_adversarial_risk and check_monotonicity share
        ("adversarial", ["npcl.adversarial"], "_worst_case", lambda p, delta: 1.0 - _worst_case(p, delta), 0),
        ("gradients", ["npcl.verification"], "_backprop",
         lambda params, ws, delta, g_w, g_b: _backprop(params, ws, 2.0 * delta, g_w, g_b), 0),
        # the chains and reductions read only values, so only the pruning count sees it
        ("bounds", ["npcl.verification"], "curriculum_objective", select_one_more, 2),
    ], ids=["selector", "adversarial", "gradients", "bounds"])
    def test_sabotaged_kernel_fails_its_suite(self, capsys, monkeypatch, suite, modules, name, sabotage, spared):
        """Every check of ``suite`` fails but its first ``spared``, which the sabotage does not reach."""
        for module in modules:
            monkeypatch.setattr(f"{module}.{name}", sabotage)
        results = run_suites([suite])
        assert [r.ok for r in results] == [True] * spared + [False] * (len(results) - spared)
        assert run(["verify", suite]) == 3
        out = capsys.readouterr().out
        assert out.count("PASS") == spared and out.endswith("SOME CHECKS FAILED\n")

    def test_zero_next_loss_is_optimal(self):
        # L_{T+1} = L_T = 0 here, yet T = 3 is the kernel's cut and optimal
        result = partial_optimize(np.zeros(5), 2.5)
        assert result.selected_count == 3 and result.objective == 0.0
        assert optimum_identities_hold(result, 2.5)

    @pytest.mark.parametrize("shift, bump", [(-1, 0.0), (1, 0.0), (0, 1.0)],
                             ids=["one_fewer", "one_more", "objective_one_more"])
    def test_selector_off_by_one_fails_identities(self, capsys, monkeypatch, shift, bump):
        def off_by_one(losses, c):
            result = partial_optimize(losses, c)
            t = min(max(result.selected_count + shift, 0), result.prefix_sums.size)
            l_t = float(result.prefix_sums[t - 1]) if t > 0 else 0.0
            return dataclasses.replace(result, selected_count=t, objective=max(l_t, c - t) + bump,
                                       selected_loss_sum=l_t)

        monkeypatch.setattr("npcl.verification.partial_optimize", off_by_one)
        [_, identities] = run_suites(["selector"])
        assert not identities.ok
        assert run(["verify", "selector"]) == 3
        assert capsys.readouterr().out.endswith("SOME CHECKS FAILED\n")

    def test_suites_seed_independently(self):
        assert run_suites(seed=5)[:2] == run_suites(["selector"], seed=5)

    def test_every_check_runs_in_a_suite(self):
        in_suites = {check.__name__ for checks in SUITES.values() for check, _ in checks}
        assert {name for name in npcl.verification.__all__ if name.startswith("check_")} == in_suites


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
        built = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                dataset = fn(*args, **kwargs)
                built.append(weakref.ref(dataset))
                return dataset
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
        gc.collect()
        assert [ref() for ref in built] == [None, None, None]

    def test_requires_noise_rate(self, tmp_path):
        assert run(["sweep", "--synthetic", "blobs", "--out", str(tmp_path)]) == 1

    def test_skipped_factor_exits_one_after_the_other_cells(self, tmp_path, capsys):
        # factor 1.5 scales a noise rate of 0.7 to a prior of 1.05, outside [0, 1)
        code = run([
            "sweep", "--synthetic", "blobs", "--train-size", "64", "--test-size", "32",
            "--noise", "symmetric", "--noise-rate", "0.7", "--epochs", "2",
            "--batch-size", "32", "--burn-in", "1", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "skipping factor 1.5: prior 1.050 outside [0, 1)\n" in capsys.readouterr().err
        cells = sorted(p.parent.name for p in tmp_path.glob("*/metrics.csv"))
        assert cells == ["prior_0.35", "prior_0.525", "prior_0.7", "prior_0.875"]

    def test_prior_of_exactly_one_is_skipped(self, tmp_path, capsys):
        # factor 1.25 scales a noise rate of 0.8 to a prior of exactly 1.0, the open end of [0, 1)
        assert 1.25 * 0.8 == 1.0
        code = run([
            "sweep", "--synthetic", "blobs", "--classes", "10", "--train-size", "100", "--test-size", "50",
            "--noise", "symmetric", "--noise-rate", "0.8", "--epochs", "2",
            "--batch-size", "50", "--burn-in", "1", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "skipping factor 1.25: prior 1.000 outside [0, 1)\n" in capsys.readouterr().err
        cells = sorted(p.parent.name for p in tmp_path.glob("*/metrics.csv"))
        assert cells == ["prior_0.4", "prior_0.6", "prior_0.8"]

    def test_prior_that_underflows_to_zero_is_kept(self, tmp_path):
        # factor 0.5 scales the least subnormal noise rate to a prior of exactly 0.0, the closed end of [0, 1)
        assert 0.5 * 5e-324 == 0.0
        args = build_parser()[0].parse_args(["sweep", "--synthetic", "blobs", "--noise", "symmetric",
                                             "--noise-rate", "5e-324", "--out", str(tmp_path)])
        cells, skipped = _sweep_cells(args)
        assert skipped == 2 and len(cells) == 3  # factors 1.0 and 1.25 repeat factor 0.75's prior
        assert cells[0].epsilon_prior == 0.0
        assert _train_config(cells[0]).threshold == ThresholdMode.npcl_adaptive(0.0)

    def test_equal_priors_train_one_cell(self, tmp_path, capsys):
        # at the least subnormal noise rate, factors 0.75, 1.0 and 1.25 all give the prior 5e-324
        assert 0.75 * 5e-324 == 1.0 * 5e-324 == 1.25 * 5e-324 == 5e-324
        code = run([
            "sweep", "--synthetic", "blobs", "--train-size", "64", "--test-size", "32",
            "--noise", "symmetric", "--noise-rate", "5e-324", "--epochs", "2",
            "--batch-size", "32", "--burn-in", "1", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 1
        skips = [line for line in capsys.readouterr().err.splitlines() if line.startswith("skipping")]
        assert skips == ["skipping factor 1.0: prior 4.941e-324 equals factor 0.75's",
                         "skipping factor 1.25: prior 4.941e-324 equals factor 0.75's"]
        cells = sorted(p.parent.name for p in tmp_path.glob("*/metrics.csv"))
        assert cells == ["prior_0", "prior_4.941e-324", "prior_9.881e-324"]
        assert sorted(p.name for p in tmp_path.iterdir()) == cells


class TestParallelSweep:
    """The cells train in forked pool workers; files, stdout, warnings and exit codes are the serial loop's."""

    ARGV = ["sweep", "--synthetic", "blobs", "--train-size", "160", "--test-size", "64",
            "--noise", "symmetric", "--noise-rate", "0.4", "--epochs", "3", "--batch-size", "32",
            "--burn-in", "1", "--seed", "5"]
    PRIORS = ["0.2", "0.3", "0.4", "0.5", "0.6"]
    # sha256 of each cell's metrics.csv, recorded with the serial cell loop before the pool
    DIGESTS = {
        "0.2": "9a91a89a200305894d8e0c976ac7481600dd4e0c75385fca769e5c581bec32ae",
        "0.3": "4815c0ba1a89c88621cd159f00a8c901b61308b8a8c0aa9926b2124df5105f01",
        "0.4": "54c6b7a0f504f5a68fe53c0bcbce8d088858f538094f7e974140720b5ba1ea32",
        "0.5": "31ee9998c5847481da7cc886436f002a422bb3d6f13bba8130cbb37eab6c2827",
        "0.6": "6021cba2e2dd1d76ab58f5bf652bd95e4d876ddeb6d5155949f8e8d02371569f",
    }

    @staticmethod
    def train_calling(act, prior):
        """``train`` that first calls ``act`` in the cell of ``prior``; forked workers inherit the patch."""
        def patched(config, *datasets):
            if f"{config.threshold.epsilon:.4g}" == prior:
                act()
            return train(config, *datasets)
        return patched

    @pytest.mark.parametrize("cpus", [None, 1], ids=["all-cpus", "one-cpu"])
    def test_cell_digests(self, tmp_path, monkeypatch, cpus):
        if cpus:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert run([*self.ARGV, "--out", str(tmp_path)]) == 0
        digests = {cell.parent.name.removeprefix("prior_"): hashlib.sha256(cell.read_bytes()).hexdigest()
                   for cell in tmp_path.glob("*/metrics.csv")}
        assert digests == self.DIGESTS

    def assert_cells_rerun(self, out, priors):
        """Each cell of ``priors`` under ``out`` holds its digest, and its ``config.txt`` reruns it byte for byte."""
        for prior in priors:
            cell = out / f"prior_{prior}"
            config, metrics = (cell / "config.txt").read_text(), (cell / "metrics.csv").read_bytes()
            assert hashlib.sha256(metrics).hexdigest() == self.DIGESTS[prior]
            echo = dict(line.split(" = ", 1) for line in config.splitlines())
            assert echo["out"] == str(cell) and f"{float(echo['epsilon-prior']):.4g}" == prior
            (cell / "metrics.csv").unlink()
            assert run(["train", "--config", str(cell / "config.txt")]) == 0
            assert (cell / "metrics.csv").read_bytes() == metrics
            assert (cell / "config.txt").read_text() == config

    def test_cell_config_reruns_the_cell(self, tmp_path):
        assert run([*self.ARGV, "--out", str(tmp_path)]) == 0
        self.assert_cells_rerun(tmp_path, self.PRIORS)

    def test_failing_cell_exits_with_its_message(self, tmp_path, capsys, monkeypatch):
        def fail():
            raise ValueError("cell 0.4 diverged")
        monkeypatch.setattr(npcl.cli, "train", self.train_calling(fail, "0.4"))
        assert run([*self.ARGV, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: cell 0.4 diverged\n"
        assert [(tmp_path / f"prior_{p}" / "metrics.csv").is_file() for p in self.PRIORS[:3]] == [True, True, False]
        assert multiprocessing.active_children() == []
        finished = [p for p in self.PRIORS if (tmp_path / f"prior_{p}" / "metrics.csv").is_file()]
        self.assert_cells_rerun(tmp_path, finished)  # cells after 0.4 already running finish too

    def test_dead_worker_names_every_unfinished_cell(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def die():
            assert os.getpid() != parent, "the cell trained in the test process"
            os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(npcl.cli, "train", self.train_calling(die, "0.4"))
        assert run([*self.ARGV, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker died; cells left unfinished: prior ") and err.count("\n") == 1
        lost = err.rstrip("\n").rpartition(" prior ")[2].split(", ")
        assert "0.4" in lost and set(lost) <= set(self.PRIORS)
        assert not (tmp_path / "prior_0.4" / "metrics.csv").exists()
        assert multiprocessing.active_children() == []
        self.assert_cells_rerun(tmp_path, [p for p in self.PRIORS if p not in lost])

    def test_cell_warning_reaches_the_parent(self, tmp_path, monkeypatch):
        def warn():
            warnings.warn("cell 0.3 looks odd", RuntimeWarning)
        monkeypatch.setattr(npcl.cli, "train", self.train_calling(warn, "0.3"))
        with pytest.warns(RuntimeWarning, match="cell 0.3 looks odd"):
            assert run([*self.ARGV, "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("*/metrics.csv"))) == 5
        assert multiprocessing.active_children() == []

    def test_each_line_once_on_a_pipe(self, tmp_path):
        # the line printed before the sweep sits in the block-buffered pipe when the workers fork
        code = "import sys; from npcl.cli import main; print('sweep'); main()"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        done = subprocess.run([sys.executable, "-c", code, *self.ARGV, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "sweep"
        assert [line.split(":")[0] for line in lines[1:]] == [f"prior {p}" for p in self.PRIORS]
