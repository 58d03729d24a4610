"""Classification margins and hinge-style upper bounds of the 0-1 loss.

The multi-class margin of a score vector ``t`` with true class ``y`` is
``u = t[y] - max_{i != y} t[i]``; a sample is correctly classified exactly
when ``u >= 0``, so a zero margin counts as correct.  The 0-1 indicator
``1(u < 0)`` itself is counted where it is used (``MarginBatch.zero_one_total``
and the training loop's threshold); every loss here is a per-sample upper
bound of it:

* hard hinge      ``max(1 - u, 0)``
* soft hinge      hard hinge when ``u >= 0``, else
                  ``max(1 - t[y] + logsumexp(t), 0)``
* weighted        ``beta * soft + (1 - beta) * hard``

A ``BaseLoss`` names one of them.  Every loss computation is one pass
(``_loss_pass``) over shared rival scores, giving margins, loss values and,
for training, logit subgradients; ``MarginBatch.from_logits`` is its public
entry for values.  The hard hinge on given margins (``_hinge_from_margins``)
is shared by that pass and ``MarginBatch.from_margins``.

The margins come from one blocked pass over the rows (``_margins``).  A
block holds ``MARGIN_BLOCK`` elements, so it stays in cache at any class
count, and a training batch is one block.  Per block: a finiteness check by
its min and max, a copy that reads ``-0.0`` as ``+0.0`` (as the selection
kernel does), the true scores by one flat gather, and the true class masked
to ``-inf``.  Equal scores then have equal bits, no margin is ``-0.0``, and
the rival score is read once: as a running ``np.maximum`` over the columns
for values alone, or at the ``np.argmax`` index when gradients are taken.
Rival ties resolve to the lowest class index (``np.argmax``'s rule), which
fixes the subgradient.

Binary classification is the K=2 special case; there is no separate code
path.  The public functions take a batch, ``(n, K)`` logits and ``(n,)``
integer labels; one sample is a batch of one row, and 1-D logits raise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_finite, check_int_vector, check_real

__all__ = [
    "BaseLoss",
    "multiclass_margin",
]

# elements per block of the margin pass: a cache-sized masked copy at any
# class count, and a million-row input never needs a copy of all its rows
MARGIN_BLOCK = 1 << 15


def _as_batch(logits, labels):
    """Checked ``(n, K)`` float64 logits and ``(n,)`` int64 labels; ``_margins`` checks finiteness."""
    t = np.asarray(logits, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] < 2:
        raise ValueError(f"logits must be (n, K) with K >= 2, got shape {t.shape}")
    y = check_int_vector(labels, "labels")
    if y.size != t.shape[0]:
        raise ValueError(f"labels must be ({t.shape[0]},), one per logit row, got shape {y.shape}")
    if np.any(y < 0) or np.any(y >= t.shape[1]):
        raise ValueError("labels out of range for the given number of classes")
    return t, y


def _margins(t, y, rival_index=False):
    """Margins of validated ``(n, K)`` logits: ``(u, true_scores, rival_idx)``.

    One pass over blocks of ``MARGIN_BLOCK`` elements (at least one row).
    Each block is checked for non-finite values (NaN propagates through
    ``min``) and copied by adding ``0.0``, which turns ``-0.0`` into
    ``+0.0`` so that equal scores have equal bits.  Its true scores are
    gathered and then masked to ``-inf`` by flat row-major positions.  The
    rival score, the highest non-true score, is read once per row, straight
    into the margin buffer: without ``rival_index`` as a running
    ``np.maximum`` over the K columns, with it by ``np.argmax`` over the
    masked block (ties go to the smallest class index) and one gather at
    that index.  Both reads give the same bits.  The margins
    ``true - rival`` then overwrite the rival scores in place, so no margin
    is ``-0.0``; no ``(n,)`` index array is made for values alone.
    """
    n, k = t.shape
    rows = max(1, MARGIN_BLOCK // k)
    u, true = np.empty(n), np.empty(n)
    rival_idx = np.empty(n, dtype=np.intp) if rival_index else None
    masked = np.empty((min(rows, n), k))
    row_starts = np.arange(0, masked.size, k)
    for s in range(0, n, rows):
        block = t[s : s + rows]
        m = block.shape[0]
        check_finite(block, "logits")
        work = masked[:m]
        np.add(block, 0.0, out=work)
        flat = work.reshape(-1)
        pos = row_starts[:m] + y[s : s + m]
        true[s : s + m] = flat[pos]
        flat[pos] = -np.inf
        rival = u[s : s + m]
        if rival_index:
            np.argmax(work, axis=1, out=rival_idx[s : s + m])
            np.take(flat, row_starts[:m] + rival_idx[s : s + m], out=rival)
        else:
            np.maximum(work[:, 0], work[:, 1], out=rival)
            for j in range(2, k):
                np.maximum(rival, work[:, j], out=rival)
        np.subtract(true[s : s + m], rival, out=rival)
    return u, true, rival_idx


def _hinge_from_margins(u):
    """Hard hinge ``max(1 - u, 0)`` of float64 margins, in one new array."""
    hard = 1.0 - u
    np.maximum(hard, 0.0, out=hard)
    return hard


def _loss_pass(t, y, kind, gradients):
    """Margins, loss values and, if ``gradients``, logit subgradients in one pass.

    ``t`` is ``(n, K)`` float64 and ``y`` ``(n,)`` int64 labels in range;
    only finiteness is checked here, so a loop whose data was validated once
    can call this on every batch.  The rival scores are computed once and
    shared by all three results, the rival indices only for ``gradients``.
    Returns ``(margins, values, grads)`` with ``grads`` None when not asked
    for.

    The soft hinge equals the hard hinge for ``u >= 0``; for ``u < 0`` the
    rival max is replaced by ``logsumexp(t)``, which upper-bounds it, so the
    soft hinge dominates the hard hinge.  ``grads`` has the shape of ``t``
    and is the exact gradient away from three non-differentiable points,
    where it takes one fixed subgradient: the hinge kink ``u == 1`` takes
    the flat (zero) branch, the soft hinge's ``u == 0`` takes the hard
    branch, and rival-score ties go to the smallest class index.
    """
    u, true, rival_idx = _margins(t, y, rival_index=gradients)
    hard = _hinge_from_margins(u)
    if kind.kind == "hinge":
        values = hard
    else:
        # one exp pass serves logsumexp(t) here and the softmax gradient below;
        # max-subtraction keeps exp() in range for large logits
        top = np.max(t, axis=1, keepdims=True)
        e = np.exp(t - top)
        total = np.sum(e, axis=1)
        soft = np.where(u >= 0, hard, np.maximum(1.0 - true + (top[:, 0] + np.log(total)), 0.0))
        values = soft if kind.kind == "soft-hinge" else kind.beta * soft + (1.0 - kind.beta) * hard
    if not gradients:
        return u, values, None

    rows = np.arange(t.shape[0])
    hard_g = np.zeros_like(t)
    active = u < 1.0  # flat for u >= 1, including the kink at u == 1
    hard_g[rows[active], y[active]] = -1.0
    hard_g[rows[active], rival_idx[active]] += 1.0
    if kind.kind == "hinge":
        return u, values, hard_g
    soft_g = hard_g.copy() if kind.kind == "weighted" else hard_g
    mis = u < 0.0
    if np.any(mis):
        # misclassified branch: 1 - t[y] + logsumexp(t) > 1, so the clip at 0
        # is never active and the gradient is softmax(t) - e_y
        sm = e[mis] / total[mis, None]
        sm[np.arange(sm.shape[0]), y[mis]] -= 1.0
        soft_g[mis] = sm
    if kind.kind == "soft-hinge":
        return u, values, soft_g
    return u, values, kind.beta * soft_g + (1.0 - kind.beta) * hard_g


def multiclass_margin(logits, labels):
    """Margin ``u = t[y] - max_{i != y} t[i]``; ``1(u < 0)`` is the 0-1 loss."""
    return _margins(*_as_batch(logits, labels))[0]


@dataclass(frozen=True)
class BaseLoss:
    """Named per-sample upper bound of the 0-1 loss.

    ``kind`` is one of ``"hinge"``, ``"soft-hinge"``, ``"weighted"``; the
    weighted variant mixes soft into hard with weight ``beta in [0, 1]``, and
    only it takes a nonzero ``beta``.
    """

    kind: str
    beta: float = 0.0

    KINDS = ("hinge", "soft-hinge", "weighted")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown base loss kind {self.kind!r}")
        object.__setattr__(self, "beta", check_real(self.beta, "beta"))
        if self.kind == "weighted" and not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.kind != "weighted" and self.beta != 0.0:
            raise ValueError(f"beta must be 0 for {self.kind}, got {self.beta}; only the weighted loss mixes")

    @classmethod
    def hinge(cls):
        return cls("hinge")

    @classmethod
    def soft(cls):
        return cls("soft-hinge")

    @classmethod
    def weighted(cls, beta):
        return cls("weighted", beta)

    @classmethod
    def parse(cls, text):
        """Parse ``"hinge"``, ``"soft-hinge"`` or ``"weighted:<beta>"``."""
        if isinstance(text, str) and text.startswith("weighted:"):
            return cls.weighted(float(text.split(":", 1)[1]))
        return cls(text)

    def __str__(self):
        if self.kind == "weighted":
            return f"weighted:{self.beta}"
        return self.kind
