"""IDX parsing, synthetic blobs, stratified splits, binary round-trips."""

import contextlib
import os
import re
import struct
import threading

import numpy as np
import pytest

from npcl.cli import run
from npcl.corruption import CorruptionSpec, corrupt_dataset
from npcl.data import (
    MAX_CLASSES,
    Dataset,
    IdxFormatError,
    load_dataset,
    load_idx,
    save_dataset,
    split,
    synth_blobs,
)


def write_idx_pair(tmp_path, pixels, labels, image_magic=2051, label_magic=2049, label_count=None):
    """Hand-built big-endian IDX fixture; pixels is (n, rows, cols) uint8."""
    n, rows, cols = pixels.shape
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, rows, cols))
        fh.write(pixels.astype(">u1").tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, label_count if label_count is not None else n))
        fh.write(labels.astype(">u1").tobytes())
    return images_path, labels_path


class TestIdx:
    def test_two_image_fixture(self, tmp_path):
        pixels = np.array(
            [[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8
        )
        labels = np.array([1, 0], dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, pixels, labels))
        assert len(ds) == 2
        assert ds.dim == 4
        assert np.array_equal(ds.labels, [1, 0])
        np.testing.assert_allclose(ds.features[0], [0.0, 1.0, 128 / 255, 64 / 255])

    def test_bad_image_magic_names_offset(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        labels = np.zeros(1, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, labels, image_magic=1234)
        with pytest.raises(IdxFormatError, match="offset 0"):
            load_idx(*paths)

    def test_bad_label_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        labels = np.zeros(1, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, labels, label_magic=9999)
        with pytest.raises(IdxFormatError):
            load_idx(*paths)

    def test_truncated_pixels(self, tmp_path):
        images_path = tmp_path / "short.idx"
        with open(images_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 2051, 2, 2, 2))
            fh.write(b"\x00" * 5)  # needs 8
        labels_path = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8))[1]
        with pytest.raises(IdxFormatError):
            load_idx(images_path, labels_path)

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        labels = np.zeros(3, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels, labels, label_count=3)
        with pytest.raises(IdxFormatError):
            load_idx(*paths)

    @pytest.mark.parametrize("shape, field", [((3, 0, 2), "row count"), ((3, 2, 0), "column count"),
                                              ((0, 2, 2), "image count")])
    def test_zero_image_dimension_names_file_and_field(self, tmp_path, shape, field):
        paths = write_idx_pair(tmp_path, np.zeros(shape, np.uint8), np.array([0, 1, 0], np.uint8))
        with pytest.raises(IdxFormatError, match=re.escape(f"{paths[0]}: {field} is 0")):
            load_idx(*paths)

    def test_zero_label_count_names_file_and_field(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), np.array([], np.uint8), label_count=0)
        with pytest.raises(IdxFormatError, match=re.escape(f"{paths[1]}: label count is 0")):
            load_idx(*paths)

    @pytest.mark.parametrize("target", ["images", "labels"])
    def test_trailing_bytes_name_file_and_count(self, tmp_path, target):
        paths = dict(zip(["images", "labels"],
                         write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), np.array([0, 1, 0]))))
        paths[target].write_bytes(paths[target].read_bytes() + b"\x00" * 5)
        with pytest.raises(IdxFormatError, match=re.escape(f"{paths[target]}: 5 bytes left after the last field")):
            load_idx(paths["images"], paths["labels"])


@contextlib.contextmanager
def piped(path, data):
    """``path`` made a FIFO that a writer thread fills with ``data`` once it is opened for reading."""
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    yield path
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
class TestIdxPipes:
    """The readers' non-regular-file branches, as for ``--dataset <(zcat images.gz) ...``."""

    def fixture(self, tmp_path):
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 2, 2)
        return write_idx_pair(tmp_path, pixels, np.array([0, 1, 2], np.uint8))

    def test_piped_pair_loads_like_files(self, tmp_path):
        images, labels = self.fixture(tmp_path)
        expected = load_idx(images, labels)
        with piped(tmp_path / "images.pipe", images.read_bytes()) as images_pipe, \
                piped(tmp_path / "labels.pipe", labels.read_bytes()) as labels_pipe:
            loaded = load_idx(images_pipe, labels_pipe)
        assert np.array_equal(loaded.features, expected.features)
        assert np.array_equal(loaded.labels, expected.labels)
        assert loaded.num_classes == expected.num_classes

    def test_short_pipe_names_file_and_field(self, tmp_path):
        images, labels = self.fixture(tmp_path)
        with piped(tmp_path / "images.pipe", images.read_bytes()[:-7]) as pipe:
            with pytest.raises(IdxFormatError, match=re.escape(f"{pipe}: truncated while reading pixels")):
                load_idx(pipe, labels)

    def test_extra_piped_bytes_are_trailing(self, tmp_path):
        images, labels = self.fixture(tmp_path)
        with piped(tmp_path / "labels.pipe", labels.read_bytes() + b"\x00" * 5) as pipe:
            with pytest.raises(IdxFormatError, match=re.escape(f"{pipe}: 5 bytes left after the last field")):
                load_idx(images, pipe)


class TestBlobs:
    def test_one_point_per_class(self):
        ds = synth_blobs(4, 4, separation=3.0, noise_std=0.1, seed=0)
        assert np.array_equal(np.sort(ds.labels), np.arange(4))

    def test_balanced_and_deterministic(self):
        a = synth_blobs(1002, 4, separation=4.0, noise_std=1.0, seed=5)
        b = synth_blobs(1002, 4, separation=4.0, noise_std=1.0, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        counts = np.bincount(a.labels)
        assert counts.max() - counts.min() <= 1

    def test_linear_classifier_separates_well(self):
        # least-squares one-hot regression is an independent check that the
        # default geometry is easily separable
        train = synth_blobs(2000, 4, separation=4.0, noise_std=1.0, seed=1)
        test = synth_blobs(1000, 4, separation=4.0, noise_std=1.0, seed=2)
        x = np.hstack([train.features, np.ones((len(train), 1))])
        onehot = np.eye(4)[train.labels]
        coef, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        xt = np.hstack([test.features, np.ones((len(test), 1))])
        acc = np.mean(np.argmax(xt @ coef, axis=1) == test.labels)
        assert acc > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(3, 4, 1.0, 0.1, 0)
        with pytest.raises(ValueError):
            synth_blobs(10, 4, 0.0, 0.1, 0)
        for separation, noise_std in ((np.nan, 0.1), (np.inf, 0.1), (1.0, -0.1), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(ValueError, match="separation|noise std"):
                synth_blobs(10, 4, separation, noise_std, 0)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(n=10.0), "sample count"),
        (dict(n="10"), "sample count"),
        (dict(n=True), "sample count"),
        (dict(dim=3.0), "feature dimension"),
        (dict(dim="3"), "feature dimension"),
    ], ids=["n-float", "n-str", "n-bool", "dim-float", "dim-str"])
    def test_sizes_must_be_integers(self, kwargs, field):
        args = {**dict(n=10, num_classes=2, separation=3.0, noise_std=1.0, seed=0), **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            synth_blobs(**args)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(separation="3.0"), "separation must be a real number, got '3.0'"),
        (dict(separation=True), "separation must be a real number, got True"),
        (dict(noise_std="1.0"), "noise std must be a real number, got '1.0'"),
        (dict(noise_std=True), "noise std must be a real number, got True"),
    ], ids=["separation-str", "separation-bool", "noise-str", "noise-bool"])
    def test_spread_must_be_real_numbers(self, kwargs, message):
        args = {**dict(n=10, num_classes=2, separation=3.0, noise_std=1.0, seed=0), **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synth_blobs(**args)

    def test_sizes_take_numpy_integers(self):
        ds = synth_blobs(np.int64(10), 2, 3.0, 1.0, seed=0, dim=np.int32(3))
        assert (len(ds), ds.dim) == (10, 3)


class TestSplit:
    def test_sizes(self):
        ds = synth_blobs(1000, 4, separation=4.0, noise_std=1.0, seed=3)
        train, test = split(ds, 0.2, seed=0)
        assert len(train) == 800
        assert len(test) == 200

    def test_stratified_within_one(self):
        ds = synth_blobs(997, 3, separation=4.0, noise_std=1.0, seed=3)
        train, test = split(ds, 0.25, seed=1)
        for k in range(3):
            total = int((ds.labels == k).sum())
            got = int((test.labels == k).sum())
            assert abs(got - 0.25 * total) <= 1

    def test_disjoint_and_complete(self):
        ds = synth_blobs(500, 4, separation=4.0, noise_std=1.0, seed=4)
        train, test = split(ds, 0.3, seed=2)
        assert len(train) + len(test) == len(ds)
        combined = np.vstack([train.features, test.features])
        assert np.array_equal(
            np.sort(combined, axis=0), np.sort(ds.features, axis=0)
        )

    def test_deterministic(self):
        ds = synth_blobs(500, 4, separation=4.0, noise_std=1.0, seed=4)
        a = split(ds, 0.3, seed=9)
        b = split(ds, 0.3, seed=9)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].labels, b[1].labels)

    def test_fraction_validation(self):
        ds = synth_blobs(100, 2, separation=4.0, noise_std=1.0, seed=0)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                split(ds, bad, seed=0)

    @pytest.mark.parametrize("bad", ["0.2", True, None])
    def test_fraction_must_be_a_real_number(self, bad):
        ds = synth_blobs(100, 2, separation=4.0, noise_std=1.0, seed=0)
        with pytest.raises(ValueError, match=f"^test fraction must be a real number, got {re.escape(repr(bad))}$"):
            split(ds, bad, seed=0)


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = synth_blobs(321, 5, separation=3.0, noise_std=0.7, seed=8)
        path = tmp_path / "blobs.npds"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes
        assert back.clean_labels is None

    def test_round_trip_with_clean_labels(self, tmp_path):
        ds = synth_blobs(100, 4, separation=3.0, noise_std=0.7, seed=8)
        noisy = corrupt_dataset(ds, CorruptionSpec("symmetric", 0.5, 1, 4))
        path = tmp_path / "noisy.npds"
        save_dataset(path, noisy)
        back = load_dataset(path)
        assert np.array_equal(back.clean_labels, noisy.clean_labels)
        assert np.array_equal(back.flip_flags, noisy.flip_flags)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_labels_out_of_range_names_file(self, tmp_path):
        path = tmp_path / "blobs.npds"
        save_dataset(path, synth_blobs(30, 3, separation=3.0, noise_std=0.7, seed=8))
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack("<I", 2)  # class count 3 -> 2 under labels 0..2
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(f"{path}: labels out of range")):
            load_dataset(path)

    def test_class_count_above_cap_names_file_and_field(self, tmp_path):
        path = tmp_path / "blobs.npds"
        save_dataset(path, synth_blobs(30, 3, separation=3.0, noise_std=0.7, seed=8))
        data = bytearray(path.read_bytes())
        data[20:24] = struct.pack("<I", MAX_CLASSES + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(f"{path}: class count {MAX_CLASSES + 1} exceeds")):
            load_dataset(path)
        data[20:24] = struct.pack("<I", MAX_CLASSES)  # the cap itself loads
        path.write_bytes(bytes(data))
        assert load_dataset(path).num_classes == MAX_CLASSES

    @pytest.mark.parametrize("flags", [2, 6])
    def test_unknown_flag_bits_name_file_and_field(self, tmp_path, flags):
        path = tmp_path / "blobs.npds"
        save_dataset(path, synth_blobs(30, 3, separation=3.0, noise_std=0.7, seed=8))
        data = bytearray(path.read_bytes())
        data[24:28] = struct.pack("<I", flags)  # no clean labels: bit 0 stays clear
        path.write_bytes(bytes(data))
        with pytest.raises(IdxFormatError, match=re.escape(f"{path}: flags {flags:#x} set unknown bits")):
            load_dataset(path)


class TestNpdsHeader:
    def test_zero_sample_count_names_file_and_field(self, tmp_path):
        path = tmp_path / "empty.npds"
        path.write_bytes(b"NPDS" + struct.pack("<IQIII", 1, 0, 2, 2, 0))
        with pytest.raises(ValueError, match=re.escape(f"{path}: sample count is 0")):
            load_dataset(path)

    def test_zero_feature_count_names_file_and_field(self, tmp_path):
        path = tmp_path / "flat.npds"
        path.write_bytes(b"NPDS" + struct.pack("<IQIII", 1, 3, 0, 2, 0) + struct.pack("<3q", 0, 1, 0))
        with pytest.raises(ValueError, match=re.escape(f"{path}: feature count is 0")):
            load_dataset(path)

    @pytest.mark.parametrize("save, load, value", [
        (save_dataset, load_dataset, synth_blobs(6, 2, 3.0, 0.5, seed=1)),
    ], ids=["npds"])
    def test_trailing_bytes_name_file_and_count(self, tmp_path, save, load, value):
        path = tmp_path / "padded.bin"
        save(path, value)
        path.write_bytes(path.read_bytes() + b"junkjunk")
        with pytest.raises(IdxFormatError, match=re.escape(f"{path}: 8 bytes left after the last field")):
            load(path)


def noisy_blobs(n):
    """A two-class dataset that stores clean labels, for the serialization checks.

    Symmetric noise at rate 0.5 leaves two classes no clean plurality, which
    ``corrupt_dataset`` warns about; the bytes here only need both label sets.
    """
    with pytest.warns(RuntimeWarning, match="plurality"):
        return corrupt_dataset(synth_blobs(n, 2, 3.0, 0.5, seed=1), CorruptionSpec("symmetric", 0.5, 1, 2))


@pytest.mark.parametrize("save, load, value, fields", [
    (save_dataset, load_dataset,
     noisy_blobs(10),
     ["magic", "version", "sample count", "feature count", "class count", "flags",
      "features", "labels", "clean labels"]),
], ids=["npds"])
def test_every_truncation_names_file_and_field(tmp_path, save, load, value, fields):
    path = tmp_path / "cut.bin"
    save(path, value)
    data = path.read_bytes()
    named = []
    for size in range(len(data)):
        path.write_bytes(data[:size])
        with pytest.raises(IdxFormatError, match=re.escape(f"{path}: truncated while reading ")) as info:
            load(path)
        named.append(str(info.value).split("reading ")[1].split(":")[0])
    assert list(dict.fromkeys(named)) == fields  # every field, in file order


FLIPS = 200


def bit_flips(data, seed):
    """``FLIPS`` copies of ``data``, each with one seeded random bit flipped."""
    rng = np.random.default_rng(seed)
    for bit in rng.integers(0, 8 * len(data), size=FLIPS):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)


def expect_value_error_naming(load, path, *args):
    """``load(path, *args)``, or None if it raised a ValueError that names a file."""
    try:
        return load(path, *args)
    except ValueError as exc:  # IdxFormatError included
        assert str(path.parent) in str(exc)
        return None


@pytest.mark.parametrize("save, load, value, plausible", [
    (save_dataset, load_dataset,
     noisy_blobs(4),
     lambda dataset: dataset.num_classes <= MAX_CLASSES and dataset.dim > 0 and len(dataset) > 0),
], ids=["npds"])
def test_bit_flips_raise_only_value_errors(tmp_path, save, load, value, plausible):
    path = tmp_path / "flipped.bin"
    save(path, value)
    for data in bit_flips(path.read_bytes(), seed=7):
        path.write_bytes(data)
        loaded = expect_value_error_naming(load, path)
        assert loaded is None or plausible(loaded)


@pytest.mark.parametrize("target", ["images", "labels"])
def test_idx_bit_flips_fail_cleanly(tmp_path, target):
    pixels = np.arange(20, dtype=np.uint8).reshape(5, 2, 2)
    paths = dict(zip(["images", "labels"], write_idx_pair(tmp_path, pixels, np.array([0, 1, 0, 1, 0]))))
    path = paths[target]
    argv = ["train", "--dataset", str(paths["images"]), str(paths["labels"]), "--epochs", "1",
            "--burn-in", "0", "--hidden", "4", "--out", str(tmp_path / "run")]
    for data in bit_flips(path.read_bytes(), seed=11):
        path.write_bytes(data)
        loaded = expect_value_error_naming(load_idx, paths["images"], paths["labels"])
        assert loaded is None or (loaded.dim > 0 and len(loaded) > 0)
        assert run(argv) in (0, 1, 2)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(ValueError, match="clean labels must match label shape"):
        Dataset(np.zeros((2, 2)), np.array([0, 1]), 2, clean_labels=np.array([0, 1, 1]))


@pytest.mark.parametrize("labels, clean, field, dtype", [
    ([0.9, 1.7, 0.2], None, "labels", "float64"),  # would truncate to [0, 1, 0]
    ([True, False, True], None, "labels", "bool"),  # would read as classes [1, 0, 1]
    ([0, 1, 0], [0.0, 1.0, 1.0], "clean labels", "float64"),
    ([0, 1, 0], [False, True, True], "clean labels", "bool"),
], ids=["float", "bool", "float-clean", "bool-clean"])
def test_dataset_takes_integer_labels_only(labels, clean, field, dtype):
    with pytest.raises(ValueError, match=f"^{field} must be integers, got dtype {dtype}$"):
        Dataset(np.zeros((3, 2)), labels, 2, clean)


@pytest.mark.parametrize("make", [
    lambda k: Dataset(np.zeros((4, 2)), [0, 1, 0, 1], k),
    lambda k: CorruptionSpec("pair", 0.1, 0, k),
    lambda k: synth_blobs(10, k, 3.0, 1.0, seed=0),
], ids=["Dataset", "CorruptionSpec", "synth_blobs"])
@pytest.mark.parametrize("k", [2.0, 2.5, "2", True], ids=repr)
def test_class_count_must_be_an_integer(make, k):
    with pytest.raises(ValueError, match=f"^class count must be an integer, got {re.escape(repr(k))}$"):
        make(k)


def test_class_count_takes_a_numpy_integer():
    assert Dataset(np.zeros((4, 2)), [0, 1, 0, 1], np.int64(2)).num_classes == 2


def test_dataset_takes_any_integer_label_dtype():
    ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 0], dtype=np.uint8), 2, [1, 1, 0])
    assert ds.labels.dtype == ds.clean_labels.dtype == np.int64
    assert ds.flip_flags.tolist() == [True, False, False]
    assert len(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)) == 0
