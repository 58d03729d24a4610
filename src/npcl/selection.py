"""Sample-selection kernel behind every curriculum objective.

Given per-sample losses ``l_1..l_n >= 0`` and a threshold ``C`` in
``[0, 2n]``, the kernel solves

    min over v in {0,1}^n of  max( sum_i v_i * l_i,  C - sum_i v_i )

exactly in O(n log n): sort the losses non-decreasingly, accumulate prefix
sums ``L_i``, and select the i-th sorted sample iff ``L_i <= C + 1 - i``.
Because ``L_i`` is non-decreasing while ``C + 1 - i`` strictly decreases,
the selected set is a prefix of the sorted order.  The optimum value is
``max(L_T, C - T)`` with ``T`` the number selected.

The rule lives only in ``_select_rows``, which solves G equal-size problems
at once and checks nothing; inputs are validated at the public entries
(``partial_optimize``, ``MarginBatch``, ``train``).

``brute_force_optimize`` enumerates all ``2^n`` masks and is the
independent optimality oracle for small ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SelectionResult",
    "ThresholdMode",
    "partial_optimize",
    "compute_threshold",
    "brute_force_optimize",
]


@dataclass
class SelectionResult:
    """Outcome of one selection problem.

    ``mask`` is over the samples in their original order.  ``prefix_sums``
    holds ``L_1..L_n`` over the sorted order.  ``selected_loss_sum`` is
    ``L_T`` for the ``T = selected_count`` chosen samples.
    """

    mask: np.ndarray
    selected_count: int
    objective: float
    threshold: float
    prefix_sums: np.ndarray = field(repr=False)
    selected_loss_sum: float = 0.0


def _check_losses(losses):
    l = np.asarray(losses, dtype=np.float64)
    if l.ndim != 1 or l.size == 0:
        raise ValueError("losses must be a non-empty 1-D vector")
    # NaN propagates through min and max, so it is reported as non-finite, as is -inf
    low, high = l.min(), l.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("losses contain non-finite values")
    if low < 0:
        raise ValueError("losses must be nonnegative")
    return l


def _check_c(c, n):
    c = float(c)
    if not np.isfinite(c) or not 0.0 <= c <= 2.0 * n:
        raise ValueError(f"threshold C={c} outside [0, {2 * n}]")
    return c


def _select_rows(losses, c):
    """The selection rule on each row of ``losses``; one ``SelectionResult`` per row.

    ``losses`` is a ``(G, m)`` float64 matrix of finite, nonnegative losses
    and ``c`` a ``(G,)`` float64 vector of thresholds in ``[0, 2m]``; neither
    is checked.  Each row is sorted stably, and ``order + row * m`` indexes
    the flattened matrix, so one gather, one row-wise ``cumsum`` and one
    comparison serve every row.  The results' masks and prefix sums are
    row views of two ``(G, m)`` arrays.
    """
    g, m = losses.shape
    starts = np.arange(0, g * m, m)
    flat = losses.argsort(axis=1, kind="stable")
    flat += starts[:, None]
    prefix = losses.take(flat).cumsum(axis=1)
    keep = prefix <= (c + 1.0)[:, None] - np.arange(1.0, m + 1.0)
    counts = keep.sum(axis=1)
    mask = np.zeros((g, m), dtype=bool)
    mask.ravel()[flat[keep]] = True
    # L_T per row; a row with T = 0 reads another row's entry, which goes unused
    ends = prefix.take(starts + counts - 1).tolist()
    results = []
    for ci, t, end, row_mask, row_prefix in zip(c.tolist(), counts.tolist(), ends, mask, prefix):
        s = end if t else 0.0
        results.append(SelectionResult(mask=row_mask, selected_count=t, objective=max(s, ci - t), threshold=ci,
                                       prefix_sums=row_prefix, selected_loss_sum=s))
    return results


def partial_optimize(losses, C):
    """Exact minimizer of ``max(sum v*l, C - sum v)`` over binary masks.

    Losses must be nonnegative and finite, ``0 <= C <= 2n``; both are checked
    here, and the problem is then ``_select_rows``'s one-row case.  The sort
    is stable, so ties are broken by original index and identical inputs
    yield identical masks.
    """
    l = _check_losses(losses)
    c = _check_c(C, l.size)
    return _select_rows(l[None], np.array([c]))[0]


@dataclass(frozen=True)
class ThresholdMode:
    """How the selection threshold ``C`` is derived from a batch.

    ``full-q``        C = n + (# misclassified)   (adaptive full bound)
    ``full-e``        C = n                        (scaled full bound)
    ``npcl-fixed``    C = (1 - eps) * n            (prunes ~eps*n samples)
    ``npcl-adaptive`` C = (1-eps)^2 n + (1-eps) * (# misclassified)

    ``eps`` is the prior rate of corrupted labels; the noise-pruned modes
    with ``eps = 0`` coincide with the corresponding full modes.
    """

    kind: str
    epsilon: float = 0.0

    KINDS = ("full-q", "full-e", "npcl-fixed", "npcl-adaptive")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown threshold mode {self.kind!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    @classmethod
    def full_q(cls):
        return cls("full-q")

    @classmethod
    def full_e(cls):
        return cls("full-e")

    @classmethod
    def npcl_fixed(cls, epsilon):
        return cls("npcl-fixed", float(epsilon))

    @classmethod
    def npcl_adaptive(cls, epsilon):
        return cls("npcl-adaptive", float(epsilon))

    def __str__(self):
        if self.kind.startswith("npcl"):
            return f"{self.kind}:{self.epsilon}"
        return self.kind


def compute_threshold(mode: ThresholdMode, n, misclassified_count):
    """Threshold ``C`` for a group of ``n`` samples; always in ``[0, 2n]``."""
    n = int(n)
    k = int(misclassified_count)
    if n < 1:
        raise ValueError("group size must be >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"misclassified count {k} outside [0, {n}]")
    return _thresholds(mode, n, k)


def _thresholds(mode: ThresholdMode, n, k):
    """``compute_threshold`` unchecked; on equal-shape integer arrays ``n`` and ``k``
    it gives the scalar results elementwise, bit for bit.
    """
    if mode.kind == "full-q":
        return 1.0 * (n + k)
    if mode.kind == "full-e":
        return 1.0 * n
    if mode.kind == "npcl-fixed":
        return (1.0 - mode.epsilon) * n
    one = 1.0 - mode.epsilon
    return one * one * n + one * k


def brute_force_optimize(losses, C):
    """Exhaustive minimizer over all 2^n masks; oracle for small n.

    Among equally optimal masks the one with the smallest integer encoding
    (bit i = sample i) is returned, so the output is deterministic.
    Enumeration runs in chunks to keep memory bounded at n = 20.
    """
    l = _check_losses(losses)
    n = l.size
    c = _check_c(C, n)
    if n > 20:
        raise ValueError(f"brute force limited to n <= 20, got n={n}")

    cols = np.arange(n, dtype=np.uint32)
    best_obj = np.inf
    best_code = 0
    chunk = 1 << min(n, 16)
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, start + chunk, dtype=np.uint32)
        bits = ((codes[:, None] >> cols) & 1).astype(np.float64)
        objectives = np.maximum(bits @ l, c - bits.sum(axis=1))
        i = int(np.argmin(objectives))
        if objectives[i] < best_obj:  # strict: keeps the smallest code on ties
            best_obj = float(objectives[i])
            best_code = start + i

    mask = ((best_code >> cols) & 1).astype(bool)
    t = int(mask.sum())
    return SelectionResult(
        mask=mask,
        selected_count=t,
        objective=best_obj,
        threshold=c,
        prefix_sums=np.cumsum(np.sort(l, kind="stable")),
        selected_loss_sum=float(l[mask].sum()),
    )
