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

Sorting the losses and summing them is the kernel's costly half, and no
threshold enters it, so a ``MarginBatch`` sorts its losses once, on first
use, and ``curriculum_objective`` cuts that one sorted row for each mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._checks import check_finite, check_float_vector, check_instance, check_int, check_int_vector
from .losses import BaseLoss, _as_batch, _hinge_from_margins, _loss_pass
from .selection import ThresholdMode, _cut_rows, _select_rows, _sort_rows, _thresholds, compute_threshold

__all__ = [
    "MarginBatch",
    "BatchPartition",
    "curriculum_objective",
    "batched_objective",
]


def _read_only(a):
    """A view of ``a`` that cannot be written; ``a`` itself keeps its flags."""
    view = a.view()
    view.flags.writeable = False
    return view


def _misclassified(margins):
    """The 0-1 indicator ``1(margins < 0)`` as a boolean array; a zero margin counts as correct."""
    return margins < 0


@dataclass(eq=False)
class MarginBatch:
    """Per-sample margins with their base-loss values.

    ``base_losses[i]`` must upper-bound the indicator ``1(margins[i] < 0)``;
    this is what makes the curriculum values bound the 0-1 objective.
    ``zero_one_total`` is that objective ``J``, the number of negative
    margins; a zero margin counts as correct.

    A batch is a snapshot of the arrays given, taken without a copy:
    ``margins`` and ``base_losses`` are read-only views of them (of float64
    copies, where they are not float64).  A write through the batch raises,
    while the caller's own arrays stay writeable; the caller must not change
    them while the batch is in use.  The sorted losses and their prefix sums
    are derived once, on first use, and are read-only too: every
    ``curriculum_objective`` result of one batch shares that row of prefix
    sums.
    """

    margins: np.ndarray
    base_losses: np.ndarray
    zero_one_total: int = field(init=False)

    def __post_init__(self):
        u = check_float_vector(self.margins, "margins")
        l = check_float_vector(self.base_losses, "base_losses")
        if u.size != l.size:
            raise ValueError(f"margins and base_losses must have equal length, got {u.size} and {l.size}")
        check_finite(u, "margins")
        check_finite(l, "base_losses")
        wrong = _misclassified(u)
        if np.any(l < wrong):
            raise ValueError("base losses must upper-bound the 0-1 indicators")
        self.margins = _read_only(u)
        self.base_losses = _read_only(l)
        self.zero_one_total = int(np.count_nonzero(wrong))

    @cached_property
    def _sorted_rows(self):
        """``_sort_rows`` of the losses as one row: ``(ordered, prefix)``, each ``(1, n)`` and read-only."""
        return tuple(_read_only(a) for a in _sort_rows(self.base_losses[None]))

    @classmethod
    def from_margins(cls, margins):
        """Hinge base losses computed straight from ``(n,)`` margins."""
        u = check_float_vector(margins, "margins")
        return cls(u, _hinge_from_margins(u))

    @classmethod
    def from_logits(cls, logits, labels, base_loss: BaseLoss):
        """Margins and base losses of raw logits, from one loss pass."""
        check_instance(base_loss, BaseLoss, "base_loss")
        return cls(*_loss_pass(*_as_batch(logits, labels), base_loss, gradients=False)[:2])

    def __len__(self):
        return self.margins.size

    @property
    def loss_total(self):
        """The conventional surrogate: plain sum of base losses."""
        return float(self.base_losses.sum())


@dataclass(eq=False)
class BatchPartition:
    """Disjoint index groups covering 0..n-1; the last group may be short.

    ``index`` holds the groups concatenated in order, ``sizes`` their lengths.
    """

    groups: list

    def __post_init__(self):
        if not self.groups:
            raise ValueError("partition needs at least one group")
        groups = [np.asarray(g) for g in self.groups]
        self.sizes = np.array([g.size for g in groups])
        if np.any(self.sizes == 0):  # checked before the dtypes: an empty list reads as float64
            raise ValueError("partition contains an empty group")
        self.groups = [check_int_vector(g, f"partition group {i}") for i, g in enumerate(groups)]
        self.index = np.concatenate(self.groups)
        self.size = self.index.size
        if not np.array_equal(np.sort(self.index), np.arange(self.size)):
            raise ValueError("groups must be disjoint and cover all indices exactly once")

    @classmethod
    def contiguous(cls, n, group_size):
        if check_int(group_size, "group size") < 1:
            raise ValueError("group size must be >= 1")
        if check_int(n, "n") < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return cls([np.arange(i, min(i + group_size, n)) for i in range(0, n, group_size)])


def curriculum_objective(batch: MarginBatch, mode: ThresholdMode):
    """Objective value and selection for the whole batch under one threshold."""
    check_instance(batch, MarginBatch, "batch")
    c = compute_threshold(mode, len(batch), batch.zero_one_total)
    result = _cut_rows(batch.base_losses[None], *batch._sorted_rows, np.array([c]))[0]
    return result.objective, result


def batched_objective(batch: MarginBatch, partition: BatchPartition, mode: ThresholdMode):
    """Sum of per-group objectives with group-local thresholds.

    Each group's threshold uses the group's own size and misclassification
    count, so the value depends on the partition; any partition still yields
    an upper bound of the unpartitioned objective.  Results come back in
    partition order, and the total sums their objectives left to right.
    """
    check_instance(batch, MarginBatch, "batch")
    check_instance(partition, BatchPartition, "partition")
    check_instance(mode, ThresholdMode, "mode")
    if partition.size != len(batch):
        raise ValueError(f"partition covers {partition.size} samples, batch has {len(batch)}")
    sizes = partition.sizes
    starts = np.cumsum(sizes) - sizes
    results = [None] * sizes.size
    for m in np.unique(sizes).tolist():
        groups = np.flatnonzero(sizes == m)
        rows = partition.index[starts[groups, None] + np.arange(m)]
        wrong = np.count_nonzero(_misclassified(batch.margins[rows]), axis=1)
        c = _thresholds(mode, np.full(groups.size, m), wrong)
        for g, result in zip(groups.tolist(), _select_rows(batch.base_losses[rows], c)):
            results[g] = result
    total = 0.0
    for result in results:
        total += result.objective
    return total, results
