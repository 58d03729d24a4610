"""Curriculum objectives: selection-based upper bounds of the 0-1 loss.

For margins ``u`` with base losses ``l(u_i) >= 1(u_i < 0)`` and total
misclassification count ``J = sum_i 1(u_i < 0)``, each objective is the
selection kernel's optimum ``min_v max(sum v*l, C - sum v)`` for a choice
of threshold:

* ``full-q``        C = n + J      sits between J and the plain sum of
                                   losses (the conventional surrogate)
* ``full-e``        C = n          half of it still upper-bounds J, and it
                                   never exceeds the full-q value
* ``npcl-*``        C shrunk by a noise prior, pruning the largest losses

``batched_objective`` applies the same construction per group of a
partition with group-local thresholds and sums the values; the result
upper-bounds the whole-set objective.  It solves all groups of one size in
one call of the row-wise selection kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import BaseLoss, hinge_from_margins, margins_and_values
from .selection import ThresholdMode, _select_rows, _thresholds, compute_threshold

__all__ = [
    "MarginBatch",
    "BatchPartition",
    "curriculum_objective",
    "batched_objective",
]


@dataclass
class MarginBatch:
    """Per-sample margins with their base-loss values.

    ``base_losses[i]`` must upper-bound the indicator ``1(margins[i] < 0)``;
    this is what makes the curriculum values bound the 0-1 objective.
    """

    margins: np.ndarray
    base_losses: np.ndarray
    misclassified_count: int = field(init=False)

    def __post_init__(self):
        u = np.asarray(self.margins, dtype=np.float64)
        l = np.asarray(self.base_losses, dtype=np.float64)
        if u.ndim != 1 or u.shape != l.shape or u.size == 0:
            raise ValueError("margins and base_losses must be equal-length 1-D vectors")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(l))):
            raise ValueError("non-finite margins or losses")
        indicators = (u < 0).astype(np.float64)
        if np.any(l < indicators):
            raise ValueError("base losses must upper-bound the 0-1 indicators")
        self.margins = u
        self.base_losses = l
        self.misclassified_count = int(np.count_nonzero(u < 0))

    @classmethod
    def from_margins(cls, margins):
        """Hinge base losses computed straight from margins."""
        return cls(margins, hinge_from_margins(margins))

    @classmethod
    def from_logits(cls, logits, labels, base_loss: BaseLoss):
        """Margins and base losses of raw logits, from one loss pass."""
        u, values = margins_and_values(logits, labels, base_loss)
        return cls(np.atleast_1d(u), np.atleast_1d(values))

    def __len__(self):
        return self.margins.size

    @property
    def zero_one_total(self):
        """The 0-1 objective J."""
        return self.misclassified_count

    @property
    def loss_total(self):
        """The conventional surrogate: plain sum of base losses."""
        return float(self.base_losses.sum())


@dataclass
class BatchPartition:
    """Disjoint index groups covering 0..n-1; the last group may be short.

    ``index`` holds the groups concatenated in order, ``sizes`` their lengths.
    """

    groups: list

    def __post_init__(self):
        if not self.groups:
            raise ValueError("partition needs at least one group")
        self.groups = [np.asarray(g, dtype=np.int64) for g in self.groups]
        self.sizes = np.array([g.size for g in self.groups])
        if np.any(self.sizes == 0):
            raise ValueError("partition contains an empty group")
        self.index = np.concatenate(self.groups)
        n = self.index.size
        if not np.array_equal(np.sort(self.index), np.arange(n)):
            raise ValueError("groups must be disjoint and cover all indices exactly once")
        self.size = n

    @classmethod
    def contiguous(cls, n, group_size):
        if group_size < 1:
            raise ValueError("group size must be >= 1")
        return cls([np.arange(i, min(i + group_size, n)) for i in range(0, n, group_size)])


def curriculum_objective(batch: MarginBatch, mode: ThresholdMode):
    """Objective value and selection for the whole batch under one threshold."""
    c = compute_threshold(mode, len(batch), batch.misclassified_count)
    result = _select_rows(batch.base_losses[None], np.array([c]))[0]
    return result.objective, result


def batched_objective(batch: MarginBatch, partition: BatchPartition, mode: ThresholdMode):
    """Sum of per-group objectives with group-local thresholds.

    Each group's threshold uses the group's own size and misclassification
    count, so the value depends on the partition; any partition still yields
    an upper bound of the unpartitioned objective.  Results come back in
    partition order, and the total sums their objectives left to right.
    """
    if partition.size != len(batch):
        raise ValueError(f"partition covers {partition.size} samples, batch has {len(batch)}")
    sizes = partition.sizes
    starts = np.cumsum(sizes) - sizes
    results = [None] * sizes.size
    for m in np.unique(sizes).tolist():
        groups = np.flatnonzero(sizes == m)
        rows = partition.index[starts[groups, None] + np.arange(m)]
        wrong = np.count_nonzero(batch.margins[rows] < 0, axis=1)
        c = _thresholds(mode, np.full(groups.size, m), wrong)
        for g, result in zip(groups.tolist(), _select_rows(batch.base_losses[rows], c)):
            results[g] = result
    total = 0.0
    for result in results:
        total += result.objective
    return total, results
