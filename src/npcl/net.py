"""Small MLP with explicit forward/backward passes and an Adam optimizer.

The model is a stack of affine layers with leaky-ReLU between them and raw
logits at the output.  Backpropagation averages the per-sample loss
gradients over an explicit selection mask, so unselected samples contribute
exactly zero to the update.

A training step is built from three private cores; ``forward``,
``backward`` and ``adam_step`` are validating wrappers over the same cores:

1. ``_forward_cached`` runs the forward pass once and keeps every layer's
   pre-activation and activation;
2. the caller turns the logits into per-sample loss gradients in one loss
   pass and scales them by the selection mask;
3. ``_backprop`` backpropagates from the cached activations, writing each
   layer's gradients into its views of one flat gradient vector;
4. ``_adam_update`` updates the flat parameter vector in place.

``MlpParams.views`` lays a flat vector out as per-layer weight and bias
views in ``flatten()`` order, so the parameters, the gradients and both
Adam moments each live in one contiguous vector.

Checkpoint format (little-endian):

    magic  b"NPW1"
    f64    leaky-ReLU slope
    u32    layer count
    per layer: u32 d_in, u32 d_out, f64[d_in*d_out] weights row-major,
               f64[d_out] biases
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .losses import BaseLoss

__all__ = [
    "MlpParams",
    "AdamConfig",
    "AdamState",
    "forward",
    "backward",
    "adam_step",
    "grad_check",
    "save_params",
    "load_params",
]

CHECKPOINT_MAGIC = b"NPW1"


@dataclass
class MlpParams:
    weights: list
    biases: list
    alpha: float = 0.01  # leaky-ReLU slope

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need matching weight and bias lists")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input dim breaks the chain")

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

    def copy(self):
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases], self.alpha)

    @property
    def size(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def flatten(self):
        return np.concatenate([a.ravel() for pair in zip(self.weights, self.biases) for a in pair])

    def views(self, flat):
        """Per-layer weight and bias views into ``flat``, laid out as ``flatten()``."""
        weights, biases, at = [], [], 0
        for w, b in zip(self.weights, self.biases):
            weights.append(flat[at : at + w.size].reshape(w.shape))
            at += w.size
            biases.append(flat[at : at + b.size])
            at += b.size
        return weights, biases

    def flat_copy(self):
        """A flat copy of the parameters and an ``MlpParams`` viewing it."""
        flat = self.flatten()
        return flat, MlpParams(*self.views(flat), self.alpha)


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


def backward(params: MlpParams, features, labels, kind: BaseLoss, mask):
    """Gradients of the mean base loss over the selected samples.

    ``mask`` is boolean over the batch.  An empty selection produces zero
    gradients and a RuntimeWarning rather than an error, so a training loop
    can treat it as a no-op step and count it.
    Returns ``(weight_grads, bias_grads)`` shaped like the parameters.
    """
    x, _ = _check_features(params, features)
    pre, acts = _forward_cached(params, x)
    y = np.atleast_1d(np.asarray(labels))
    mask = np.atleast_1d(np.asarray(mask, dtype=bool))
    if mask.shape != (x.shape[0],):
        raise ValueError("mask length must equal the batch size")

    selected = int(mask.sum())
    g_w, g_b = params.views(np.zeros(params.size))
    if selected == 0:
        warnings.warn("empty selection: returning zero gradients", RuntimeWarning, stacklevel=2)
        return g_w, g_b

    delta = kind.gradients(acts[-1], y) * (mask[:, None] / selected)
    _backprop(params, pre, acts, delta, g_w, g_b)
    return g_w, g_b


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    """First/second moments, flat in ``MlpParams.flatten()`` order, and the step counter."""

    config: AdamConfig
    m: np.ndarray = field(repr=False, default=None)
    v: np.ndarray = field(repr=False, default=None)
    step: int = 0

    @classmethod
    def init(cls, params: MlpParams, config: AdamConfig = AdamConfig()):
        return cls(config=config, m=np.zeros(params.size), v=np.zeros(params.size))


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


def adam_step(params: MlpParams, grads, state: AdamState):
    """One bias-corrected Adam update; returns new params, advances state."""
    g_w, g_b = grads
    if [g.shape for g in (*g_w, *g_b)] != [a.shape for a in (*params.weights, *params.biases)]:
        raise ValueError("gradients must match the parameter shapes")
    theta, new = params.flat_copy()
    _adam_update(theta, MlpParams(g_w, g_b, params.alpha).flatten(), state)
    return new


def grad_check(params: MlpParams, features, labels, kind: BaseLoss, step=1e-5):
    """Worst relative error of the analytic gradient vs central differences.

    Meaningful away from the hinge kinks and rival-score ties; the error is
    normalized by max(1, |analytic|, |numeric|).
    """
    mask = np.ones(np.atleast_2d(features).shape[0], dtype=bool)
    g_w, g_b = backward(params, features, labels, kind, mask)

    def loss_at(p):
        logits = forward(p, features)
        return float(np.mean(np.atleast_1d(kind.values(logits, np.atleast_1d(labels)))))

    worst = 0.0
    for which, grads in (("w", g_w), ("b", g_b)):
        arrays = params.weights if which == "w" else params.biases
        for idx, arr in enumerate(arrays):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                probe = params.copy()
                target = probe.weights[idx] if which == "w" else probe.biases[idx]
                target[it.multi_index] += step
                up = loss_at(probe)
                target[it.multi_index] -= 2 * step
                down = loss_at(probe)
                numeric = (up - down) / (2 * step)
                analytic = grads[idx][it.multi_index]
                scale = max(1.0, abs(analytic), abs(numeric))
                worst = max(worst, abs(analytic - numeric) / scale)
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
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (magic {magic!r})")
        alpha, count = struct.unpack("<dI", fh.read(12))
        weights, biases = [], []
        for _ in range(count):
            d_in, d_out = struct.unpack("<II", fh.read(8))
            weights.append(np.frombuffer(fh.read(d_in * d_out * 8), dtype="<f8").reshape(d_in, d_out).copy())
            biases.append(np.frombuffer(fh.read(d_out * 8), dtype="<f8").copy())
    return MlpParams(weights, biases, alpha)
