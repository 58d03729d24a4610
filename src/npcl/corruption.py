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
label.

At symmetric rates ``>= (K-1)/K`` and pair rates ``>= 0.5`` the true label
is no longer more frequent within its class than every wrong label, the
limit up to which symmetric losses stay noise-tolerant (Ghosh, Kumar &
Sastry, AAAI 2017); ``corrupt_dataset`` still corrupts at such rates but
warns.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import check_instance, check_real, check_seed
from .data import Dataset, _check_classes

__all__ = ["CorruptionSpec", "corrupt_dataset"]


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str  # "symmetric" | "pair"
    rate: float
    seed: int
    num_classes: int

    def __post_init__(self):
        if self.kind not in ("symmetric", "pair"):
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        if not 0.0 <= check_real(self.rate, "rate") <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")
        check_seed(self.seed)
        _check_classes(self.num_classes)


def corrupt_dataset(dataset, spec: CorruptionSpec):
    """Corrupted copy of a dataset; originals kept as ``clean_labels``.

    The labels are a ``Dataset``'s, so already integers in ``[0, K)``.
    """
    check_instance(dataset, Dataset, "dataset")
    check_instance(spec, CorruptionSpec, "spec")
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

