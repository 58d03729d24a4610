"""Seeded label corruption of a dataset.

``corrupt_dataset`` applies one of two flip models, each an independent
per-sample coin with probability ``rate``:

* symmetric: the label is replaced by a uniform draw over the K-1 other
  classes
* pair: the label is replaced by its cyclic successor ``(y + 1) % K``

Randomness comes from ``numpy.random.default_rng(seed)`` (PCG64), with the
coin vector drawn before the replacement draws, so a (kind, rate, seed, K)
tuple pins down the corrupted labels bit for bit on any platform.  The
corrupted dataset keeps the originals as its clean labels; its
``flip_flags`` are the coins that came up, since every flip changes the
label.  ``write_sidecar`` records the spec and those flags next to a saved
copy.

At symmetric rates ``>= (K-1)/K`` and pair rates ``>= 0.5`` the true label
is no longer more frequent within its class than every wrong label, the
limit up to which symmetric losses stay noise-tolerant (Ghosh, Kumar &
Sastry, AAAI 2017); ``corrupt_dataset`` still corrupts at such rates but
warns.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, _check_classes

__all__ = [
    "CorruptionSpec",
    "corrupt_dataset",
    "write_sidecar",
    "read_sidecar",
]


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str  # "symmetric" | "pair"
    rate: float
    seed: int
    num_classes: int

    def __post_init__(self):
        if self.kind not in ("symmetric", "pair"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        _check_classes(self.num_classes)


def corrupt_dataset(dataset, spec: CorruptionSpec):
    """Corrupted copy of a dataset; originals kept as ``clean_labels``.

    The labels are a ``Dataset``'s, so already integers in ``[0, K)``.
    """
    if spec.num_classes != dataset.num_classes:
        raise ValueError("corruption spec and dataset disagree on class count")
    y, k = dataset.labels, dataset.num_classes
    plurality_bound = (k - 1) / k if spec.kind == "symmetric" else 0.5
    if spec.rate >= plurality_bound:
        warnings.warn(f"{spec.kind} noise at rate {spec.rate} on K = {k} classes leaves no clean "
                      f"plurality label (needs a rate below {plurality_bound:.4g})",
                      RuntimeWarning, stacklevel=2)
    rng = np.random.default_rng(spec.seed)
    flips = rng.random(y.size) < spec.rate
    # symmetric: an offset in 1..K-1 lands uniformly on the classes other than y
    offsets = rng.integers(1, k, size=y.size) if spec.kind == "symmetric" else 1
    return Dataset(
        features=dataset.features,
        labels=np.where(flips, (y + offsets) % k, y),
        num_classes=k,
        clean_labels=y.copy(),
    )


def write_sidecar(path, spec: CorruptionSpec, flags):
    """Record the corruption next to a serialized dataset.

    The sidecar stores the spec, the sample count, and the indices of the
    flipped entries, which together reproduce the flag vector exactly.
    """
    flags = np.asarray(flags, dtype=bool)
    payload = {
        "spec": asdict(spec),
        "num_samples": int(flags.size),
        "flipped_indices": np.flatnonzero(flags).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_sidecar(path):
    """The spec and flag vector recorded by ``write_sidecar``.

    Malformed content raises ValueError naming the file and the key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # UTF-8 and JSON decode errors
        raise ValueError(f"{path}: not a sidecar JSON file: {exc}") from exc
    entries = payload if isinstance(payload, dict) else {}
    for key, kind in (("spec", dict), ("num_samples", int), ("flipped_indices", list)):
        if type(entries.get(key)) is not kind:
            raise ValueError(f"{path}: key {key!r} missing or not a JSON {kind.__name__}")
    try:
        spec = CorruptionSpec(**entries["spec"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: key 'spec': {exc}") from exc
    n, indices = entries["num_samples"], entries["flipped_indices"]
    if n < 0 or not all(type(i) is int and 0 <= i < n for i in indices):
        raise ValueError(f"{path}: key 'flipped_indices' needs integers in [0, num_samples = {n})")
    flags = np.zeros(n, dtype=bool)
    flags[indices] = True
    return spec, flags
