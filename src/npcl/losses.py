"""Classification margins, the 0-1 loss, and hinge-style upper bounds.

The multi-class margin of a score vector ``t`` with true class ``y`` is
``u = t[y] - max_{i != y} t[i]``; a sample is correctly classified exactly
when ``u >= 0``.  Every loss here is a per-sample upper bound of the 0-1
indicator ``1(u < 0)``:

* hard hinge      ``max(1 - u, 0)``
* soft hinge      hard hinge when ``u >= 0``, else
                  ``max(1 - t[y] + logsumexp(t), 0)``
* weighted        ``beta * soft + (1 - beta) * hard``

Binary classification is the K=2 special case; there is no separate code
path.  All functions accept a single sample (``logits`` of shape ``(K,)``,
integer label) or a batch (``(n, K)`` logits, ``(n,)`` labels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BaseLoss",
    "multiclass_margin",
    "zero_one",
    "hard_hinge",
    "soft_hinge",
    "weighted_loss",
    "loss_gradient",
    "hinge_from_margins",
    "margins_and_values",
]


def _as_batch(logits, labels):
    """Normalize inputs to ``(n, K)`` logits and ``(n,)`` labels.

    Returns the arrays plus a flag telling whether the caller passed a
    single sample (so results can be unwrapped back to scalars).  The
    finiteness of the logits is checked by ``_margins``, which every loss
    computation goes through.
    """
    t = np.asarray(logits, dtype=np.float64)
    single = t.ndim == 1
    t = np.atleast_2d(t)
    if t.ndim != 2 or t.shape[1] < 2:
        raise ValueError(f"logits must have at least 2 classes, got shape {t.shape}")
    y = np.atleast_1d(np.asarray(labels))
    if y.shape != (t.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {t.shape[0]} samples")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    if np.any(y < 0) or np.any(y >= t.shape[1]):
        raise ValueError("labels out of range for the given number of classes")
    return t, y.astype(np.int64), single


def _unwrap(values, single):
    return float(values[0]) if single else values


def _rival_scores(t, y):
    """Highest score among the non-true classes, with its index.

    Ties are broken toward the smallest index (np.argmax convention), which
    pins down the subgradient of the hinge losses.
    """
    masked = t.copy()
    masked[np.arange(t.shape[0]), y] = -np.inf
    rival_idx = np.argmax(masked, axis=1)
    rival = masked[np.arange(t.shape[0]), rival_idx]
    return rival, rival_idx


def _margins(t, y):
    """Margins of validated ``(n, K)`` logits: ``(u, true_scores, rival_idx)``."""
    if not np.all(np.isfinite(t)):
        raise ValueError("logits contain non-finite values")
    rival, rival_idx = _rival_scores(t, y)
    true = t[np.arange(t.shape[0]), y]
    # margins overwrite the rival buffer: on million-row batches every
    # avoided (n,) temporary lowers peak memory
    return np.subtract(true, rival, out=rival), true, rival_idx


def _logsumexp(t):
    # max-subtraction keeps exp() in range for large logits
    m = np.max(t, axis=1, keepdims=True)
    return m[:, 0] + np.log(np.sum(np.exp(t - m), axis=1))


def _loss_pass(t, y, kind, gradients):
    """Margins, loss values and, if ``gradients``, logit subgradients in one pass.

    ``t`` is ``(n, K)`` float64 and ``y`` ``(n,)`` int64 labels in range;
    only finiteness is checked here, so a loop whose data was validated once
    can call this on every batch.  The rival scores are computed once and
    shared by all three results.  Returns ``(margins, values, grads)`` with
    ``grads`` None when not asked for.
    """
    u, true, rival_idx = _margins(t, y)
    hard = 1.0 - u
    np.maximum(hard, 0.0, out=hard)
    if kind.kind == "hinge":
        values = hard
    else:
        soft = np.where(u >= 0, hard, np.maximum(1.0 - true + _logsumexp(t), 0.0))
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
        tm = t[mis]
        sm = np.exp(tm - np.max(tm, axis=1, keepdims=True))
        sm /= np.sum(sm, axis=1, keepdims=True)
        sm[np.arange(tm.shape[0]), y[mis]] -= 1.0
        soft_g[mis] = sm
    if kind.kind == "soft-hinge":
        return u, values, soft_g
    return u, values, kind.beta * soft_g + (1.0 - kind.beta) * hard_g


def multiclass_margin(logits, labels):
    """Margin ``u = t[y] - max_{i != y} t[i]``; ``1(u < 0)`` is the 0-1 loss."""
    t, y, single = _as_batch(logits, labels)
    return _unwrap(_margins(t, y)[0], single)


def margins_and_values(logits, labels, kind):
    """Margins and per-sample values of the ``BaseLoss`` ``kind`` from one pass."""
    t, y, single = _as_batch(logits, labels)
    u, values, _ = _loss_pass(t, y, kind, gradients=False)
    return _unwrap(u, single), _unwrap(values, single)


def zero_one(margins):
    """0-1 loss ``1(u < 0)``. Zero margin counts as correct."""
    u = np.asarray(margins, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("margins contain non-finite values")
    out = (u < 0).astype(np.int64)
    return int(out) if np.isscalar(margins) or out.ndim == 0 else out


def hinge_from_margins(margins):
    """Hard hinge ``max(1 - u, 0)`` evaluated directly on margins."""
    u = np.asarray(margins, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("margins contain non-finite values")
    return np.maximum(1.0 - u, 0.0)


def hard_hinge(logits, labels):
    """Multi-class hard hinge ``max(1 - t[y] + max_{i != y} t[i], 0)``."""
    return BaseLoss.hinge().values(logits, labels)


def soft_hinge(logits, labels):
    """Hinge with the rival max smoothed by logsumexp on misclassified samples.

    For ``u >= 0`` this equals the hard hinge.  For ``u < 0`` the rival max
    is replaced by ``logsumexp(t)`` over all classes, which upper-bounds the
    max, so the soft hinge always dominates the hard hinge.
    """
    return BaseLoss.soft().values(logits, labels)


def weighted_loss(logits, labels, beta):
    """Convex combination ``beta * soft_hinge + (1 - beta) * hard_hinge``."""
    return BaseLoss.weighted(beta).values(logits, labels)


@dataclass(frozen=True)
class BaseLoss:
    """Named per-sample upper bound of the 0-1 loss.

    ``kind`` is one of ``"hinge"``, ``"soft-hinge"``, ``"weighted"``; the
    weighted variant mixes soft into hard with weight ``beta in [0, 1]``.
    """

    kind: str
    beta: float = 0.0

    KINDS = ("hinge", "soft-hinge", "weighted")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown base loss kind {self.kind!r}")
        if self.kind == "weighted" and not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")

    @classmethod
    def hinge(cls):
        return cls("hinge")

    @classmethod
    def soft(cls):
        return cls("soft-hinge")

    @classmethod
    def weighted(cls, beta):
        return cls("weighted", float(beta))

    @classmethod
    def parse(cls, text):
        """Parse ``"hinge"``, ``"soft-hinge"`` or ``"weighted:<beta>"``."""
        if text.startswith("weighted:"):
            return cls.weighted(float(text.split(":", 1)[1]))
        return cls(text)

    def __str__(self):
        if self.kind == "weighted":
            return f"weighted:{self.beta}"
        return self.kind

    def values(self, logits, labels):
        return margins_and_values(logits, labels, self)[1]

    def gradients(self, logits, labels):
        return loss_gradient(logits, labels, self)


def loss_gradient(logits, labels, kind):
    """Subgradient of the chosen loss with respect to the logits.

    Shape matches ``logits``.  Conventions at the non-differentiable points:
    the hinge kink ``u == 1`` takes the flat (zero) branch, the boundary
    ``u == 0`` of the soft hinge takes the hard branch, and rival-score ties
    resolve to the smallest index.  Away from those points the result is the
    exact gradient.
    """
    if isinstance(kind, str):
        kind = BaseLoss.parse(kind)
    t, y, single = _as_batch(logits, labels)
    g = _loss_pass(t, y, kind, gradients=True)[2]
    return g[0] if single else g
