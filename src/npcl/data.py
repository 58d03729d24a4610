"""Dataset ingestion, synthesis, splitting, and serialization.

IDX ingestion follows the classic big-endian layout:

    images: u32 magic=2051, u32 count, u32 rows, u32 cols, then u8 pixels
    labels: u32 magic=2049, u32 count, then u8 labels

Pixels are scaled by 1/255 into [0, 1] and flattened to (n, rows*cols).

The internal dataset format is little-endian binary:

    magic  b"NPDS"
    u32    version (1)
    u64    n samples
    u32    d features
    u32    K classes, at most ``MAX_CLASSES``
    u32    flags (bit 0: clean labels present; every other bit must be 0)
    f64[n*d]  features, row-major
    i64[n]    labels
    i64[n]    clean labels, only when flagged

Round-tripping through this format is bit-exact.  Readers reject an IDX
file with no images or no labels, an IDX image with no rows or no columns,
a dataset file with no samples, no features, a class count above
``MAX_CLASSES``, any flag bit but bit 0 set, a label or clean label outside
the class range or a non-finite feature, and any file with bytes left after
its last field, naming the file and the field or the leftover byte count.
Every rejection, whatever its fault, is one type, ``IdxFormatError``, which
the command line reports with exit code 2.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from ._checks import (check_finite, check_instance, check_int, check_int_vector, check_path, check_real,
                      check_real_array, check_seed)

__all__ = [
    "Dataset",
    "IdxFormatError",
    "load_idx",
    "synth_blobs",
    "split",
    "save_dataset",
    "load_dataset",
]

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
DATASET_MAGIC = b"NPDS"
# Highest class count a dataset file may declare.  A model's output layer and
# every batch's logits scale with it, so a corrupt count must not size them.
MAX_CLASSES = 65536


class IdxFormatError(ValueError):
    """An IDX or NPDS file that does not parse; the message names the file and the fault."""


@dataclass(eq=False)
class Dataset:
    """Finite feature matrix with integer labels in ``[0, num_classes)``, optionally carrying clean
    labels in the same range."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    clean_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(check_real_array(self.features, "features"))
        self.labels = check_int_vector(self.labels, "labels")
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.size:
            raise ValueError("features must be (n, d) with one label per row")
        if self.features.size:  # min and max take no empty array
            check_finite(self.features, "features")
        _check_classes(self.num_classes)
        if self.clean_labels is not None:
            self.clean_labels = check_int_vector(self.clean_labels, "clean labels")
            if self.clean_labels.shape != self.labels.shape:
                raise ValueError("clean labels must match label shape")
        for name, y in (("labels", self.labels), ("clean labels", self.clean_labels)):
            if y is not None and (np.any(y < 0) or np.any(y >= self.num_classes)):
                raise ValueError(f"{name} out of range")

    def __len__(self):
        return self.labels.size

    @property
    def dim(self):
        return self.features.shape[1]

    @property
    def flip_flags(self):
        """True where the given label differs from the clean one."""
        if self.clean_labels is None:
            return np.zeros(len(self), dtype=bool)
        return self.labels != self.clean_labels


def _check_classes(num_classes):
    """The class count a ``Dataset`` accepts."""
    if check_int(num_classes, "class count") < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")


def _read_exact(fh, size, path, what):
    """The next ``size`` bytes of ``fh``; a short read names the file and the field."""
    # capped at a regular file's bytes left: a corrupt size field must not make read() allocate it
    st = os.fstat(fh.fileno())
    left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else size
    raw = fh.read(min(size, left))
    if len(raw) != size:
        raise IdxFormatError(f"{path}: truncated while reading {what}: expected {size} bytes, got {len(raw)}")
    return raw


def _expect_end(fh, path):
    """Raise ``IdxFormatError`` if ``fh`` holds bytes after the last field read."""
    st = os.fstat(fh.fileno())
    left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else len(fh.read())
    if left:
        raise IdxFormatError(f"{path}: {left} bytes left after the last field")


def _read_scalar(fh, fmt, path, what):
    """One ``struct`` value of format ``fmt`` read with ``_read_exact``."""
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), path, what))[0]


def _read_array(fh, count, dtype, path, what):
    """``count`` values of ``dtype`` read with ``_read_exact``, as a writable array."""
    dtype = np.dtype(dtype)
    return np.frombuffer(_read_exact(fh, count * dtype.itemsize, path, what), dtype=dtype).copy()


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair into a Dataset."""
    with open(check_path(images_path, "images path"), "rb") as fh:
        magic = _read_scalar(fh, ">I", images_path, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(f"{images_path}: bad image magic {magic} at offset 0, expected {IDX_IMAGE_MAGIC}")
        n = _read_scalar(fh, ">I", images_path, "image count")
        rows = _read_scalar(fh, ">I", images_path, "row count")
        cols = _read_scalar(fh, ">I", images_path, "column count")
        for what, size in (("image count", n), ("row count", rows), ("column count", cols)):
            if size == 0:
                raise IdxFormatError(f"{images_path}: {what} is 0; need at least one image of one pixel")
        pixels = _read_array(fh, n * rows * cols, np.uint8, images_path, "pixels").reshape(n, rows * cols)
        _expect_end(fh, images_path)

    with open(check_path(labels_path, "labels path"), "rb") as fh:
        magic = _read_scalar(fh, ">I", labels_path, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(f"{labels_path}: bad label magic {magic} at offset 0, expected {IDX_LABEL_MAGIC}")
        n_labels = _read_scalar(fh, ">I", labels_path, "label count")
        if n_labels == 0:
            raise IdxFormatError(f"{labels_path}: label count is 0; need at least one label")
        labels = _read_array(fh, n_labels, np.uint8, labels_path, "labels")
        _expect_end(fh, labels_path)

    if n != n_labels:
        raise IdxFormatError(f"{images_path}: {n} images but {labels_path}: {n_labels} labels")
    num_classes = max(int(labels.max()) + 1, 2)
    return Dataset(pixels.astype(np.float64) / 255.0, labels.astype(np.int64), num_classes)


def _check_spread(separation, noise_std):
    """The cluster radius and noise scale ``synth_blobs`` accepts."""
    if not (np.isfinite(check_real(separation, "separation")) and separation > 0):
        raise ValueError(f"separation must be finite and > 0, got {separation}")
    if not (np.isfinite(check_real(noise_std, "noise std")) and noise_std >= 0):
        raise ValueError(f"noise std must be finite and >= 0, got {noise_std}")


def _check_blob_size(n, num_classes):
    """The sample count ``synth_blobs`` accepts for ``num_classes`` classes."""
    if check_int(n, "sample count") < num_classes:
        raise ValueError(f"need at least one sample per class, got {n} samples for {num_classes} classes")


def _check_dim(dim):
    """The feature count ``synth_blobs`` accepts."""
    if check_int(dim, "feature dimension") < 2:
        raise ValueError(f"need at least 2 feature dimensions, got {dim}")


def synth_blobs(n, num_classes, separation, noise_std, seed, dim=2):
    """Balanced isotropic Gaussian clusters on a circle of given radius.

    Class k sits at angle 2*pi*k/K; classes are as balanced as n allows,
    and the layout is deterministic in the seed.  With ``dim > 2`` the
    clusters stay isotropic in dim dimensions with their centers on the
    canonical 2-plane, so the extra coordinates carry no class signal but
    give every sample an individual signature a large model can latch on
    to, which is what makes label noise memorizable at desk scale.
    """
    _check_classes(num_classes)
    _check_blob_size(n, num_classes)
    _check_spread(separation, noise_std)
    _check_dim(dim)
    rng = np.random.default_rng(check_seed(seed, streams=True))
    counts = np.full(num_classes, n // num_classes)
    counts[: n % num_classes] += 1
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers = np.zeros((num_classes, dim))
    centers[:, 0] = separation * np.cos(angles)
    centers[:, 1] = separation * np.sin(angles)
    labels = np.repeat(np.arange(num_classes), counts)
    features = centers[labels] + rng.normal(0.0, noise_std, size=(n, dim))
    return Dataset(features, labels, num_classes)


def _check_fraction(test_fraction):
    """The held-out fraction ``split`` accepts."""
    if not 0.0 < check_real(test_fraction, "test fraction") < 1.0:
        raise ValueError(f"test fraction must lie in (0, 1), got {test_fraction}")


def split(dataset: Dataset, test_fraction, seed):
    """Seeded stratified split; per-class counts stay within 1 of exact.

    A fraction that rounds every class's share to none of it, or to all of
    it, would leave a side empty and is rejected, naming the side.
    """
    check_instance(dataset, Dataset, "dataset")
    _check_fraction(test_fraction)
    rng = np.random.default_rng(check_seed(seed, streams=True))
    test_idx = []
    for k in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == k)
        members = members[rng.permutation(members.size)]
        take = int(np.floor(test_fraction * members.size + 0.5))
        test_idx.append(members[:take])
    test_idx = np.sort(np.concatenate(test_idx))
    for side, size in (("test", test_idx.size), ("train", len(dataset) - test_idx.size)):
        if size == 0:
            raise ValueError(f"a test fraction of {test_fraction} leaves the {side} side of "
                             f"{len(dataset)} samples empty")
    is_test = np.zeros(len(dataset), dtype=bool)
    is_test[test_idx] = True

    def subset(mask):
        return Dataset(
            dataset.features[mask],
            dataset.labels[mask],
            dataset.num_classes,
            None if dataset.clean_labels is None else dataset.clean_labels[mask],
        )

    return subset(~is_test), subset(is_test)


def save_dataset(path, dataset: Dataset):
    check_instance(dataset, Dataset, "dataset")
    with open(check_path(path, "dataset path"), "wb") as fh:
        flags = 1 if dataset.clean_labels is not None else 0
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IQIII", 1, len(dataset), dataset.dim, dataset.num_classes, flags))
        fh.write(dataset.features.astype("<f8").tobytes())
        fh.write(dataset.labels.astype("<i8").tobytes())
        if flags:
            fh.write(dataset.clean_labels.astype("<i8").tobytes())


def load_dataset(path):
    with open(check_path(path, "dataset path"), "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != DATASET_MAGIC:
            raise IdxFormatError(f"{path}: not a dataset file (magic {magic!r})")
        version = _read_scalar(fh, "<I", path, "version")
        if version != 1:
            raise IdxFormatError(f"{path}: unsupported dataset version {version}")
        n = _read_scalar(fh, "<Q", path, "sample count")
        if n == 0:
            raise IdxFormatError(f"{path}: sample count is 0; a dataset needs at least one sample")
        d = _read_scalar(fh, "<I", path, "feature count")
        if d == 0:
            raise IdxFormatError(f"{path}: feature count is 0; a sample needs at least one feature")
        k = _read_scalar(fh, "<I", path, "class count")
        if k > MAX_CLASSES:
            raise IdxFormatError(f"{path}: class count {k} exceeds MAX_CLASSES = {MAX_CLASSES}")
        flags = _read_scalar(fh, "<I", path, "flags")
        if flags & ~1:
            raise IdxFormatError(f"{path}: flags {flags:#x} set unknown bits; only bit 0 (clean labels) is defined")
        features = _read_array(fh, n * d, "<f8", path, "features").reshape(n, d)
        labels = _read_array(fh, n, "<i8", path, "labels")
        clean = _read_array(fh, n, "<i8", path, "clean labels") if flags & 1 else None
        _expect_end(fh, path)
    try:
        return Dataset(features, labels, k, clean)
    except ValueError as exc:
        raise IdxFormatError(f"{path}: {exc}") from exc
