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
    u32    flags (bit 0: clean labels present)
    f64[n*d]  features, row-major
    i64[n]    labels
    i64[n]    clean labels, only when flagged

Round-tripping through this format is bit-exact.  Readers reject an IDX
image with no rows or no columns, a dataset file with no features or whose
class count exceeds ``MAX_CLASSES``, and any file with bytes left after its
last field, naming the file and the field or the leftover byte count.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "IdxFormatError",
    "BadMagicError",
    "TruncatedFileError",
    "CountMismatchError",
    "TrailingBytesError",
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
    """Base for IDX parse failures."""


class BadMagicError(IdxFormatError):
    pass


class TruncatedFileError(IdxFormatError):
    pass


class CountMismatchError(IdxFormatError):
    pass


class TrailingBytesError(IdxFormatError):
    pass


@dataclass
class Dataset:
    """Feature matrix with integer labels, optionally carrying clean labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    clean_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.size:
            raise ValueError("features must be (n, d) with one label per row")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if np.any(self.labels < 0) or np.any(self.labels >= self.num_classes):
            raise ValueError("labels out of range")
        if self.clean_labels is not None:
            self.clean_labels = np.asarray(self.clean_labels, dtype=np.int64)
            if self.clean_labels.shape != self.labels.shape:
                raise ValueError("clean labels must match label shape")

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


def _read_exact(fh, size, path, what):
    """The next ``size`` bytes of ``fh``; a short read names the file and the field."""
    # capped at a regular file's bytes left: a corrupt size field must not make read() allocate it
    st = os.fstat(fh.fileno())
    left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else size
    raw = fh.read(min(size, left))
    if len(raw) != size:
        raise TruncatedFileError(
            f"{path}: truncated while reading {what}: expected {size} bytes, got {len(raw)}"
        )
    return raw


def _expect_end(fh, path):
    """Raise ``TrailingBytesError`` if ``fh`` holds bytes after the last field read."""
    st = os.fstat(fh.fileno())
    left = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else len(fh.read())
    if left:
        raise TrailingBytesError(f"{path}: {left} bytes left after the last field")


def _read_scalar(fh, fmt, path, what):
    """One ``struct`` value of format ``fmt`` read with ``_read_exact``."""
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), path, what))[0]


def _read_array(fh, count, dtype, path, what):
    """``count`` values of ``dtype`` read with ``_read_exact``, as a writable array."""
    dtype = np.dtype(dtype)
    return np.frombuffer(_read_exact(fh, count * dtype.itemsize, path, what), dtype=dtype).copy()


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair into a Dataset."""
    with open(images_path, "rb") as fh:
        magic = _read_scalar(fh, ">I", images_path, "image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise BadMagicError(
                f"{images_path}: bad image magic {magic} at offset 0, expected {IDX_IMAGE_MAGIC}"
            )
        n = _read_scalar(fh, ">I", images_path, "image count")
        rows = _read_scalar(fh, ">I", images_path, "row count")
        cols = _read_scalar(fh, ">I", images_path, "column count")
        for what, size in (("row count", rows), ("column count", cols)):
            if size == 0:
                raise IdxFormatError(f"{images_path}: {what} is 0; an image needs at least one pixel")
        pixels = _read_array(fh, n * rows * cols, np.uint8, images_path, "pixels").reshape(n, rows * cols)
        _expect_end(fh, images_path)

    with open(labels_path, "rb") as fh:
        magic = _read_scalar(fh, ">I", labels_path, "label magic")
        if magic != IDX_LABEL_MAGIC:
            raise BadMagicError(
                f"{labels_path}: bad label magic {magic} at offset 0, expected {IDX_LABEL_MAGIC}"
            )
        n_labels = _read_scalar(fh, ">I", labels_path, "label count")
        labels = _read_array(fh, n_labels, np.uint8, labels_path, "labels")
        _expect_end(fh, labels_path)

    if n != n_labels:
        raise CountMismatchError(f"{images_path}: {n} images but {labels_path}: {n_labels} labels")
    num_classes = max(int(labels.max()) + 1, 2) if labels.size else 2
    return Dataset(pixels.astype(np.float64) / 255.0, labels.astype(np.int64), num_classes)


def synth_blobs(n, num_classes, separation, noise_std, seed, dim=2):
    """Balanced isotropic Gaussian clusters on a circle of given radius.

    Class k sits at angle 2*pi*k/K; classes are as balanced as n allows,
    and the layout is deterministic in the seed.  With ``dim > 2`` the
    clusters stay isotropic in dim dimensions with their centers on the
    canonical 2-plane, so the extra coordinates carry no class signal but
    give every sample an individual signature a large model can latch on
    to, which is what makes label noise memorizable at desk scale.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if n < num_classes:
        raise ValueError("need at least one sample per class")
    if separation <= 0:
        raise ValueError("separation must be positive")
    if dim < 2:
        raise ValueError("need at least 2 feature dimensions")
    rng = np.random.default_rng(seed)
    counts = np.full(num_classes, n // num_classes)
    counts[: n % num_classes] += 1
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centers = np.zeros((num_classes, dim))
    centers[:, 0] = separation * np.cos(angles)
    centers[:, 1] = separation * np.sin(angles)
    labels = np.repeat(np.arange(num_classes), counts)
    features = centers[labels] + rng.normal(0.0, noise_std, size=(n, dim))
    return Dataset(features, labels, num_classes)


def split(dataset: Dataset, test_fraction, seed):
    """Seeded stratified split; per-class counts stay within 1 of exact."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    test_idx = []
    for k in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == k)
        members = members[rng.permutation(members.size)]
        take = int(np.floor(test_fraction * members.size + 0.5))
        test_idx.append(members[:take])
    test_idx = np.sort(np.concatenate(test_idx))
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
    with open(path, "wb") as fh:
        flags = 1 if dataset.clean_labels is not None else 0
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IQIII", 1, len(dataset), dataset.dim, dataset.num_classes, flags))
        fh.write(dataset.features.astype("<f8").tobytes())
        fh.write(dataset.labels.astype("<i8").tobytes())
        if flags:
            fh.write(dataset.clean_labels.astype("<i8").tobytes())


def load_dataset(path):
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != DATASET_MAGIC:
            raise ValueError(f"{path}: not a dataset file (magic {magic!r})")
        version = _read_scalar(fh, "<I", path, "version")
        if version != 1:
            raise ValueError(f"{path}: unsupported dataset version {version}")
        n = _read_scalar(fh, "<Q", path, "sample count")
        d = _read_scalar(fh, "<I", path, "feature count")
        if d == 0:
            raise ValueError(f"{path}: feature count is 0; a sample needs at least one feature")
        k = _read_scalar(fh, "<I", path, "class count")
        if k > MAX_CLASSES:
            raise ValueError(f"{path}: class count {k} exceeds MAX_CLASSES = {MAX_CLASSES}")
        flags = _read_scalar(fh, "<I", path, "flags")
        features = _read_array(fh, n * d, "<f8", path, "features").reshape(n, d)
        labels = _read_array(fh, n, "<i8", path, "labels")
        clean = _read_array(fh, n, "<i8", path, "clean labels") if flags & 1 else None
        _expect_end(fh, path)
    try:
        return Dataset(features, labels, k, clean)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
