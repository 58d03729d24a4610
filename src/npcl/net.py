"""Small MLP with an explicit cached forward pass, backprop and Adam.

The model is a stack of affine layers with leaky-ReLU between them and raw
logits at the output.  ``MlpParams`` keeps every weight and bias in one
flat vector, ``params.flat``, and its ``weights`` and ``biases`` are views
into it, so the parameters, the gradients and both Adam moments each live
in one contiguous vector laid out alike (``MlpParams.views``).

A training step runs these cores in order; ``grad_check`` runs the first
three as the training loop does:

1. ``_forward_cached`` runs the forward pass once into a ``Workspace``,
   which keeps every layer's pre-activation and activation;
2. the caller turns the logits into per-sample loss gradients in one loss
   pass (``losses._loss_pass``) and scales them by the selection mask
   over the selected count;
3. ``_backprop`` backpropagates from the workspace's cache, writing each
   layer's gradients into its views of one flat gradient vector;
4. ``_adam_update`` updates ``params.flat`` in place.

A ``Workspace`` holds preallocated buffers for one row count, and every op
of the forward pass and of backprop writes into them with ``out=`` or in
place; Adam does the same with two scratch vectors of ``AdamState``.  Once
its buffers exist, a step allocates no array that scales with the batch or
the model.  Each op keeps the order and rounding of the plain expression
it stands for, so results are bit-equal to it:

* ``z += b`` would broadcast ``b`` through a buffered iterator that
  allocates; ``b`` is copied into a batch-shaped buffer and added from there;
* the leaky-ReLU ``where(z > 0, z, alpha * z)`` is ``maximum(z, alpha * z)``,
  equal for finite ``z`` and a slope in [0, 1], signed zeros included
  (``MlpParams`` rejects any other slope);
* its derivative ``where(pre > 0, 1.0, alpha)`` is ``maximum(pre > 0, alpha)``
  with ``pre > 0`` written as 0.0 or 1.0 into a float buffer, equal for a
  slope in [0, 1].

Checkpoint format (little-endian):

    magic  b"NPW1"
    f64    leaky-ReLU slope, in [0, 1]
    u32    layer count
    per layer: u32 d_in, u32 d_out, f64[d_in*d_out] weights row-major,
               f64[d_out] biases

Bytes after the last layer's biases are rejected.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import _expect_end, _read_array, _read_exact, _read_scalar
from .losses import BaseLoss, _as_batch, _loss_pass

__all__ = [
    "MlpParams",
    "Workspace",
    "AdamConfig",
    "AdamState",
    "forward",
    "grad_check",
    "save_params",
    "load_params",
]

CHECKPOINT_MAGIC = b"NPW1"


@dataclass
class MlpParams:
    """Layer weights and biases, copied on construction into one flat vector they view."""

    weights: list
    biases: list
    alpha: float = 0.01  # leaky-ReLU slope
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # max(z, alpha * z) is the leaky-ReLU only for a slope in [0, 1]; NaN fails the test too
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"leaky-ReLU slope must be finite and in [0, 1], got {self.alpha}")
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need matching weight and bias lists")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input dim breaks the chain")
        self.flat = np.concatenate([a.ravel() for pair in zip(self.weights, self.biases) for a in pair],
                                   dtype=np.float64)
        self.weights, self.biases = self.views(self.flat)

    @classmethod
    def init(cls, layer_sizes, seed, alpha=0.01):
        """Seeded uniform init in +-sqrt(6 / (d_in + d_out)); zero biases."""
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / (d_in + d_out))
            weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
            biases.append(np.zeros(d_out))
        return cls(weights, biases, alpha)

    @property
    def num_classes(self):
        return self.weights[-1].shape[1]

    @property
    def input_dim(self):
        return self.weights[0].shape[0]

    def views(self, flat):
        """Per-layer weight and bias views into ``flat``, laid out as ``self.flat``."""
        weights, biases, at = [], [], 0
        for w, b in zip(self.weights, self.biases):
            weights.append(flat[at : at + w.size].reshape(w.shape))
            at += w.size
            biases.append(flat[at : at + b.size])
            at += b.size
        return weights, biases


def _check_features(params: MlpParams, features):
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != params.input_dim:
        raise ValueError(f"features have dim {x.shape[1]}, model expects {params.input_dim}")
    return x, single


class Workspace:
    """Preallocated buffers for forward and backward passes over ``rows`` rows.

    After ``_forward_cached``, ``acts[0]`` is the pass's input, ``pre[i]``
    layer ``i``'s pre-activation and ``acts[i + 1]`` its activation; the
    logits ``acts[-1]`` are ``pre[-1]`` itself.  ``bias[i]`` receives layer
    ``i``'s bias broadcast to the batch: the activation buffer, which the
    leaky-ReLU then overwrites, or for the logits a buffer of its own.
    ``deltas[i]`` receives the gradient with respect to ``pre[i]`` and
    ``slope[i]`` the leaky-ReLU derivative at ``pre[i]``.  The backward buffers
    are allocated by the first ``_backprop``, so a workspace that only runs
    forward passes never holds them.  Every buffer is overwritten by the
    next pass.
    """

    def __init__(self, params: MlpParams, rows):
        self.pre = [np.empty((rows, w.shape[1])) for w in params.weights]
        self.acts = [None, *(np.empty_like(z) for z in self.pre[:-1]), self.pre[-1]]
        self.bias = [*self.acts[1:-1], np.empty_like(self.pre[-1])]
        self.deltas = self.slope = None


def _forward_cached(params: MlpParams, x, ws: Workspace):
    """Forward pass of float64 ``x`` into ``ws``, built for its row count; returns the logits buffer."""
    ws.acts[0] = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = ws.pre[i]
        np.matmul(ws.acts[i], w, out=z)
        np.copyto(ws.bias[i], b)  # z += b itself would allocate a broadcast buffer
        z += ws.bias[i]
        if i < last:
            a = ws.acts[i + 1]
            np.multiply(z, params.alpha, out=a)
            np.maximum(z, a, out=a)
    return ws.acts[-1]


def _backprop(params: MlpParams, ws: Workspace, delta, g_w, g_b):
    """Backpropagate logit gradients ``delta`` through the forward pass cached in ``ws``.

    Overwrites every array in ``g_w`` and ``g_b``.
    """
    if ws.deltas is None:
        ws.deltas = [np.empty_like(z) for z in ws.pre[:-1]]
        ws.slope = [np.empty_like(z) for z in ws.pre[:-1]]
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(ws.acts[i].T, delta, out=g_w[i])
        np.sum(delta, axis=0, out=g_b[i])
        if i > 0:
            slope = ws.slope[i - 1]
            np.greater(ws.pre[i - 1], 0.0, out=slope)
            np.maximum(slope, params.alpha, out=slope)
            delta = np.matmul(delta, params.weights[i].T, out=ws.deltas[i - 1])
            delta *= slope


def forward(params: MlpParams, features, workspace: Workspace | None = None):
    """Logits for one sample ``(d,)`` or a batch ``(n, d)``.

    Without ``workspace`` the pass builds one for its input.  With one (for
    the input's row count) it reuses its buffers, and the returned logits
    are a buffer of the workspace that its next pass overwrites.
    """
    x, single = _check_features(params, features)
    if workspace is None:
        workspace = Workspace(params, x.shape[0])
    logits = _forward_cached(params, x, workspace)
    return logits[0] if single else logits


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    """First/second moments, laid out like ``MlpParams.flat``, and the step counter."""

    config: AdamConfig
    m: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    step: int = 0
    scratch: tuple = field(init=False, repr=False, compare=False)  # two work vectors for the update

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def init(cls, params: MlpParams, config: AdamConfig = AdamConfig()):
        return cls(config=config, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _adam_update(theta, grad, state: AdamState):
    """One bias-corrected Adam update of the flat parameters ``theta``, in place.

    Runs, op for op, ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + (1 - beta2) g g``
    and ``theta -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` through the state's
    scratch vectors.
    """
    cfg = state.config
    state.step += 1
    bc1 = 1.0 - cfg.beta1**state.step
    bc2 = 1.0 - cfg.beta2**state.step
    m, v = state.m, state.v
    s, t = state.scratch
    m *= cfg.beta1
    np.multiply(grad, 1.0 - cfg.beta1, out=s)
    m += s
    v *= cfg.beta2
    np.multiply(grad, grad, out=s)
    s *= 1.0 - cfg.beta2
    v += s
    np.divide(m, bc1, out=s)
    s *= cfg.lr
    np.divide(v, bc2, out=t)
    np.sqrt(t, out=t)
    t += cfg.eps
    s /= t
    theta -= s


def grad_check(params: MlpParams, features, labels, kind: BaseLoss, step=1e-5):
    """Worst relative error of the training step's gradient vs central differences.

    The analytic gradient of the mean loss comes from the cores the training
    loop runs, with every sample selected.  Meaningful away from the hinge
    kinks and rival-score ties; the error is normalized by
    max(1, |analytic|, |numeric|).
    """
    x, _ = _check_features(params, features)
    probe = MlpParams(params.weights, params.biases, params.alpha)
    theta = probe.flat
    ws = Workspace(probe, x.shape[0])
    t, y, _ = _as_batch(_forward_cached(probe, x, ws), labels)
    analytic = np.empty_like(theta)
    delta = _loss_pass(t, y, kind, gradients=True)[2] * (1.0 / x.shape[0])
    _backprop(probe, ws, delta, *probe.views(analytic))

    def loss_at():
        return float(np.mean(kind.values(_forward_cached(probe, x, ws), y)))

    worst = 0.0
    for i, original in enumerate(theta.copy()):
        theta[i] += step
        up = loss_at()
        theta[i] -= 2 * step
        down = loss_at()
        theta[i] = original
        numeric = (up - down) / (2 * step)
        scale = max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / scale)
    return worst


def save_params(path, params: MlpParams):
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<dI", params.alpha, len(params.weights)))
        for w, b in zip(params.weights, params.biases):
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
            fh.write(w.astype("<f8").tobytes())
            fh.write(b.astype("<f8").tobytes())


def load_params(path):
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (magic {magic!r})")
        alpha = _read_scalar(fh, "<d", path, "slope")
        count = _read_scalar(fh, "<I", path, "layer count")
        weights, biases = [], []
        for i in range(count):
            d_in = _read_scalar(fh, "<I", path, f"layer {i} input size")
            d_out = _read_scalar(fh, "<I", path, f"layer {i} output size")
            weights.append(_read_array(fh, d_in * d_out, "<f8", path, f"layer {i} weights").reshape(d_in, d_out))
            biases.append(_read_array(fh, d_out, "<f8", path, f"layer {i} biases"))
        _expect_end(fh, path)
    try:
        return MlpParams(weights, biases, alpha)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
