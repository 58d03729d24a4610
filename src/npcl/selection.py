"""Sample-selection kernel behind every curriculum objective.

Given per-sample losses ``l_1..l_n >= 0`` and a threshold ``C`` in
``[0, 2n]``, the kernel solves

    min over v in {0,1}^n of  max( sum_i v_i * l_i,  C - sum_i v_i )

exactly in O(n log n): sort the losses non-decreasingly, accumulate prefix
sums ``L_i``, and select the i-th sorted sample iff ``L_i <= C + 1 - i``.
Because ``L_i`` is non-decreasing while ``C + 1 - i`` strictly decreases,
the selected set is a prefix of the sorted order.  The optimum value is
``max(L_T, C - T)`` with ``T`` the number selected.

Only the loss values are sorted, never their indices.  The selected
samples are then the ones below the cut value ``v``, the T-th smallest
loss, plus, among the samples equal to ``v``, the lowest-indexed ones
until ``T`` are taken: exactly the mask a stable sort of the indices would
give.  Where more samples equal ``v`` than the row selects, the surplus is
dropped by position: each tie with no more than that many ties at or after
it in its row.  Signed zeros are canonicalised to ``+0.0`` before the
prefix sums, so no result depends on where the sort puts ``-0.0`` among the
zeros.

The rule lives only in ``_select_rows``, which solves G equal-size problems
at once and checks nothing; inputs are validated at the public entries
(``partial_optimize``, ``MarginBatch``, ``train``).  The sort and the prefix
sums do not depend on ``C``: for every threshold the selected set is a
prefix of the same sorted order, and only ``T`` moves.  ``_select_rows`` is
therefore the composition of ``_sort_rows``, which sorts and sums, and
``_cut_rows``, which cuts those rows at each row's threshold; a batch that
is cut at several thresholds (``objectives.MarginBatch``) is sorted once.

Since the selected set is a prefix, ``T`` is a boundary, found by search
rather than by a full scan (``_count_selected``): a row longer than
``_WINDOW`` entries is bisected on the rule's own comparison until at most
``_WINDOW`` entries are undecided, and only that window is compared in
full, so a cut of an n = 1e6 row makes no n-length temporary.  A row of a
training batch (m <= 128) is its own window.  ``_cut_rows`` returns its
fields as arrays; ``_results`` turns them into one ``SelectionResult`` per
row, for every caller.

``brute_force_optimize`` enumerates all ``2^n`` masks and is the
independent optimality oracle for small ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import check_finite, check_float_vector, check_instance, check_int, check_real

__all__ = [
    "SelectionResult",
    "ThresholdMode",
    "partial_optimize",
    "compute_threshold",
    "brute_force_optimize",
]


@dataclass(eq=False)
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
    l = check_float_vector(losses, "losses")
    if check_finite(l, "losses")[0] < 0:
        raise ValueError("losses must be nonnegative")
    return l


def _check_c(c, n):
    c = check_real(c, "threshold C")
    if not np.isfinite(c) or not 0.0 <= c <= 2.0 * n:
        raise ValueError(f"threshold C={c} outside [0, {2 * n}]")
    return c


def _sort_rows(losses):
    """The half of the rule that no threshold enters: each row of ``losses`` sorted, and its running sums.

    Returns two ``(G, m)`` arrays, ``(ordered, prefix)``.  ``-0.0`` becomes ``+0.0``
    before the sums, wherever the sort placed it, so neither array holds ``-0.0``.
    """
    # np.sort without its wrapper, which costs about 0.35 us at m = 128
    ordered = losses.copy()
    ordered.sort(axis=1)
    ordered += 0.0
    # np.add.accumulate is cumsum without the method's dispatch, which costs about 0.5 us at m = 128
    prefix = np.add.accumulate(ordered, axis=1)
    return ordered, prefix


# a row up to this long (a training batch of 128) is compared whole; a longer one is bisected down to it
_WINDOW = 128
# the ranks i = 1.._WINDOW of a window's entries, sliced rather than built on each call
_RANKS = np.arange(1.0, _WINDOW + 1.0)


def _count_selected(prefix, c1):
    """Each row's count ``T`` of prefix sums that pass ``L_i <= c1 - i``, with ``c1 = c + 1``.

    ``L_i`` never decreases and the rounded bound never increases, so the passing
    entries are a prefix of the row.  A row longer than ``_WINDOW`` is bisected on that
    comparison, all rows at once, until at most ``_WINDOW`` entries are undecided, and
    the window holding them is compared in full.  Each entry is compared as in a full
    comparison of the row, so ``T`` is that comparison's count, bit for bit.
    """
    g, m = prefix.shape
    window, ranks = prefix, _RANKS[:m]
    if m > _WINDOW:
        rows = np.arange(0, g * m, m)
        # entries before lo pass, entries from hi on fail; at most `span` lie between
        lo, hi, span = np.zeros(g, dtype=np.int64), np.full(g, m), m
        while span > _WINDOW:
            mid = (lo + hi) >> 1
            passed = prefix.take(rows + mid) <= c1 - (mid + 1.0)
            lo = np.where(passed, mid + 1, lo)
            hi = np.where(passed, hi, mid)
            span >>= 1
        # the window [start, start + _WINDOW) holds every undecided entry and stays inside the row
        start = np.minimum(lo, m - _WINDOW)[:, None]
        window = prefix.take(rows[:, None] + start + np.arange(_WINDOW))
        ranks = _RANKS + start
    counts = (window <= c1[:, None] - ranks).sum(axis=1)
    return counts if m <= _WINDOW else counts + start[:, 0]


def _cut_rows(losses, ordered, prefix, c):
    """The half of the rule that takes the thresholds: ``_sort_rows(losses)``'s rows cut at ``c``.

    Returns three arrays: the ``(G, m)`` boolean masks, the ``(G,)`` counts
    ``T`` (``_count_selected``) and the ``(G,)`` prefix sums at each row's
    end, ``L_T``, which a row with ``T = 0`` reads from another row.  The
    masks are rebuilt from each row's cut value ``v``, the T-th smallest
    loss: every loss below ``v`` and the lowest-indexed losses equal to ``v``
    until ``T`` are taken.
    """
    g, m = losses.shape
    c1 = c + 1.0
    counts = _count_selected(prefix, c1)
    # flat index of each row's T-th sorted entry; a row with T = 0 reads another row's
    ends = np.arange(-1, g * m - 1, m) + counts
    # (c + 1) - 1 is each row's first bound, bit for bit.  The T-th smallest loss is at most
    # L_T <= bound_T <= bound_1, so the clamp changes no cut with T > 0, and it puts the cut
    # of a row with T = 0 below that row's smallest loss L_1 > bound_1
    cut = np.minimum(ordered.take(ends), c1 - 1.0)[:, None]
    # allocated before the comparison writes it: letting `losses <= cut` allocate its own output left
    # freed heap resident on objective_scan under some module and path layouts (+60-80 MB peak RSS)
    mask = np.empty((g, m), dtype=bool)
    np.less_equal(losses, cut, out=mask)
    # mask holds each row's T selected samples plus any others equal to its cut value;
    # where it holds more, the highest-indexed of those ties are dropped, as a stable sort would leave them
    if np.count_nonzero(mask) != counts.sum():
        # flat positions of the ties, row by row in index order (np.flatnonzero without its wrapper)
        pos = (losses == cut).ravel().nonzero()[0]
        row = pos // m
        # ties from each one to the end of its row, itself included
        after = row.searchsorted(row, side="right") - np.arange(pos.size)
        surplus = mask.sum(axis=1) - counts
        mask.put(pos[after <= surplus[row]], False)
    return mask, counts, prefix.take(ends)


def _results(c, prefix, mask, counts, end_sums):
    """One ``SelectionResult`` per row from ``_cut_rows``' arrays, at thresholds ``c``.

    A row's selected sum is its end sum ``L_T``, or 0.0 where ``T = 0``.  Each
    result's mask is a row view of ``mask``, and its prefix sums a row view of ``prefix``.
    """
    results = []
    for ci, t, end, row_mask, row_prefix in zip(c.tolist(), counts.tolist(), end_sums.tolist(), mask, prefix):
        s = end if t else 0.0
        # positional: keywords cost about 0.3 us more per result, a third of its build
        results.append(SelectionResult(row_mask, t, max(s, ci - t), ci, row_prefix, s))
    return results


def _select_rows(losses, c):
    """The selection rule on each row of ``losses``; one ``SelectionResult`` per row.

    ``losses`` is a ``(G, m)`` float64 matrix of finite, nonnegative losses
    and ``c`` a ``(G,)`` float64 vector of thresholds in ``[0, 2m]``; neither
    is checked.  The rule is ``_sort_rows`` then ``_cut_rows``: one row-wise
    value sort and running sum, then one cut per threshold.
    """
    ordered, prefix = _sort_rows(losses)
    return _results(c, prefix, *_cut_rows(losses, ordered, prefix, c))


def partial_optimize(losses, C):
    """Exact minimizer of ``max(sum v*l, C - sum v)`` over binary masks.

    Losses must be nonnegative and finite, ``0 <= C <= 2n``; both are checked
    here, and the problem is then ``_select_rows``'s one-row case.  Ties at
    the cut value go to the lowest indices, as under a stable sort, so
    identical inputs yield identical masks; ``-0.0`` counts as ``+0.0``, and
    the prefix sums hold no ``-0.0``.
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

    ``eps`` is the prior rate of corrupted labels, which only the npcl modes
    take; with ``eps = 0`` they coincide with the corresponding full modes.
    """

    kind: str
    epsilon: float = 0.0

    KINDS = ("full-q", "full-e", "npcl-fixed", "npcl-adaptive")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown threshold mode {self.kind!r}")
        object.__setattr__(self, "epsilon", check_real(self.epsilon, "epsilon"))
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.epsilon and not self.kind.startswith("npcl"):
            raise ValueError(f"epsilon must be 0 for {self.kind}, got {self.epsilon}; only npcl modes take a prior")

    @classmethod
    def full_q(cls):
        return cls("full-q")

    @classmethod
    def full_e(cls):
        return cls("full-e")

    @classmethod
    def npcl_fixed(cls, epsilon):
        return cls("npcl-fixed", epsilon)

    @classmethod
    def npcl_adaptive(cls, epsilon):
        return cls("npcl-adaptive", epsilon)

    def __str__(self):
        if self.kind.startswith("npcl"):
            return f"{self.kind}:{self.epsilon}"
        return self.kind


def compute_threshold(mode: ThresholdMode, n, misclassified_count):
    """Threshold ``C`` for a group of ``n`` samples; always in ``[0, 2n]``."""
    check_instance(mode, ThresholdMode, "mode")
    n = check_int(n, "n")
    k = check_int(misclassified_count, "misclassified_count")
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
