"""Small MLP with an explicit cached forward pass, backprop and Adam.

The model is a stack of affine layers with leaky-ReLU between them and raw
logits at the output.  ``MlpParams`` keeps every weight and bias in one
flat vector, ``params.flat``, and its ``weights`` and ``biases`` are views
into it, so the parameters, the gradients and both Adam moments each live
in one contiguous vector laid out alike (``MlpParams.views``).

A training step runs these cores in order; ``grad_check`` runs the first
three as the training loop does:

1. ``_forward_cached`` runs the forward pass once and keeps every layer's
   pre-activation and activation;
2. the caller turns the logits into per-sample loss gradients in one loss
   pass (``losses._loss_pass``) and scales them by the selection mask
   over the selected count;
3. ``_backprop`` backpropagates from the cached activations, writing each
   layer's gradients into its views of one flat gradient vector;
4. ``_adam_update`` updates ``params.flat`` in place.

Checkpoint format (little-endian):

    magic  b"NPW1"
    f64    leaky-ReLU slope
    u32    layer count
    per layer: u32 d_in, u32 d_out, f64[d_in*d_out] weights row-major,
               f64[d_out] biases
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import _read_array, _read_exact, _read_scalar
from .losses import BaseLoss, _as_batch, _loss_pass

__all__ = [
    "MlpParams",
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


def _forward_cached(params: MlpParams, x):
    """Pre-activations and activations of every layer for ``(n, d)`` float64 ``x``.

    ``acts[0]`` is ``x``, ``acts[-1]`` the logits, and ``pre[i]`` the
    pre-activation behind ``acts[i + 1]``.
    """
    pre, acts = [], [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(z if i == last else np.where(z > 0, z, params.alpha * z))
    return pre, acts


def _backprop(params: MlpParams, pre, acts, delta, g_w, g_b):
    """Backpropagate logit gradients ``delta`` through a cached forward pass.

    Overwrites every array in ``g_w`` and ``g_b``.
    """
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=g_w[i])
        np.sum(delta, axis=0, out=g_b[i])
        if i > 0:
            delta = delta @ params.weights[i].T
            delta *= np.where(pre[i - 1] > 0, 1.0, params.alpha)


def forward(params: MlpParams, features):
    """Logits for one sample ``(d,)`` or a batch ``(n, d)``."""
    x, single = _check_features(params, features)
    logits = _forward_cached(params, x)[1][-1]
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
    m: np.ndarray = field(repr=False, default=None)
    v: np.ndarray = field(repr=False, default=None)
    step: int = 0

    @classmethod
    def init(cls, params: MlpParams, config: AdamConfig = AdamConfig()):
        return cls(config=config, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def _adam_update(theta, grad, state: AdamState):
    """One bias-corrected Adam update of the flat parameters ``theta``, in place."""
    cfg = state.config
    state.step += 1
    bc1 = 1.0 - cfg.beta1**state.step
    bc2 = 1.0 - cfg.beta2**state.step
    m, v = state.m, state.v
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * (grad * grad)
    theta -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


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
    pre, acts = _forward_cached(probe, x)
    t, y, _ = _as_batch(acts[-1], labels)
    analytic = np.empty_like(theta)
    delta = _loss_pass(t, y, kind, gradients=True)[2] * (1.0 / x.shape[0])
    _backprop(probe, pre, acts, delta, *probe.views(analytic))

    def loss_at():
        return float(np.mean(kind.values(_forward_cached(probe, x)[1][-1], y)))

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
    try:
        return MlpParams(weights, biases, alpha)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
