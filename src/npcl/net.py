"""Small MLP with an explicit cached forward pass, backprop and Adam.

The model is a stack of affine layers with leaky-ReLU of slope
``LEAKY_SLOPE`` between them and raw logits at the output.  ``MlpParams``
keeps every weight and bias in one flat vector, ``params.flat``, and its
``weights`` and ``biases`` are views into it, so the parameters, the
gradients and both Adam moments each live in one contiguous vector laid
out alike (``MlpParams.views``).  Only ``MlpParams`` and ``forward`` are
public: ``forward`` builds a workspace per call and returns new logits, and
``training.train`` keeps the workspaces and the ``AdamState`` of its run.

A training step runs these cores in order:

1. ``_forward_cached`` runs the forward pass once into a ``Workspace``,
   which keeps every layer's pre-activation and activation;
2. the caller turns the logits into per-sample loss gradients in one loss
   pass (``losses._loss_pass``) and scales them by the selection mask
   over the selected count;
3. ``_backprop`` backpropagates from the workspace's cache, writing each
   layer's gradients into its views of one flat gradient vector;
4. ``_adam_update`` updates ``params.flat`` in place at the run's learning
   rate, from an ``AdamState(params)`` whose moments are laid out alike.

A ``Workspace`` holds preallocated buffers for one row count, and every op
of the forward pass and of backprop writes into them with ``out=`` or in
place; Adam does the same with two scratch vectors of ``AdamState``.  Once
its buffers exist, a step allocates no array that scales with the batch or
the model.  Each op keeps the order and rounding of the plain expression
it stands for, so results are bit-equal to it:

* ``z += b`` would broadcast ``b`` through a buffered iterator that
  allocates; ``b`` is copied into a batch-shaped buffer and added from there;
* the leaky-ReLU ``where(z > 0, z, LEAKY_SLOPE * z)`` is
  ``maximum(z, LEAKY_SLOPE * z)``, equal for finite ``z`` and a slope in
  [0, 1], signed zeros included;
* its derivative ``where(pre > 0, 1.0, LEAKY_SLOPE)`` is
  ``maximum(pre > 0, LEAKY_SLOPE)`` with ``pre > 0`` written as 0.0 or 1.0
  into a float buffer, equal for a slope in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import check_finite, check_instance, check_int, check_real_array, check_seed

__all__ = [
    "MlpParams",
    "forward",
]

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEAKY_SLOPE = 0.01  # in [0, 1], where max(z, LEAKY_SLOPE * z) is the leaky-ReLU


@dataclass(eq=False)
class MlpParams:
    """Layer weights and biases, copied on construction into one flat vector they view.

    ``weights`` and ``biases`` are lists or tuples with one array per layer,
    each of finite reals.
    """

    weights: list
    biases: list
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, layers in (("weights", self.weights), ("biases", self.biases)):
            if not isinstance(layers, (list, tuple)):
                raise ValueError(f"{name} must be a list or tuple of per-layer arrays, got {type(layers).__name__}")
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need matching weight and bias lists")
        self.weights = [check_real_array(w, f"layer {i} weight") for i, w in enumerate(self.weights)]
        self.biases = [check_real_array(b, f"layer {i} bias") for i, b in enumerate(self.biases)]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} mismatch")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: input dim breaks the chain")
        self.flat = np.concatenate([a.ravel() for pair in zip(self.weights, self.biases) for a in pair])
        # one test of every value (grad_check builds a copy per call); only a failure looks for its layer
        if not np.isfinite(self.flat).all():
            for i, (w, b) in enumerate(zip(self.weights, self.biases)):
                for values, name in ((w, "weights"), (b, "biases")):
                    if values.size:  # min cannot reduce a zero-width layer, which holds no value anyway
                        check_finite(values, f"layer {i} {name}")
        self.weights, self.biases = self.views(self.flat)

    @classmethod
    def init(cls, layer_sizes, seed):
        """Seeded uniform init in +-sqrt(6 / (d_in + d_out)); zero biases."""
        _check_layer_sizes(layer_sizes, "layer sizes")
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = np.random.default_rng(check_seed(seed, streams=True))
        weights, biases = [], []
        for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = np.sqrt(6.0 / (d_in + d_out))
            weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
            biases.append(np.zeros(d_out))
        return cls(weights, biases)

    def views(self, flat):
        """Per-layer weight and bias views into ``flat``, laid out as ``self.flat``."""
        weights, biases, at = [], [], 0
        for w, b in zip(self.weights, self.biases):
            weights.append(flat[at : at + w.size].reshape(w.shape))
            at += w.size
            biases.append(flat[at : at + b.size])
            at += b.size
        return weights, biases


def _check_layer_sizes(sizes, name):
    """The one layer-size rule: a list or tuple of integers, each >= 1.  ``name`` is plural."""
    if not isinstance(sizes, (list, tuple)):
        raise ValueError(f"{name} must be a list or tuple of integers, got {sizes!r}")
    if any(check_int(size, name.removesuffix("s")) < 1 for size in sizes):
        raise ValueError(f"{name} must be >= 1, got {sizes}")


def _check_features(params: MlpParams, features):
    """Features as a float64 ``(n, d)`` batch for the model's input dim ``d``."""
    check_instance(params, MlpParams, "params")
    x = check_real_array(features, "features")
    d = params.weights[0].shape[0]
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"features must be (n, {d}), got shape {x.shape}")
    return x


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
            np.multiply(z, LEAKY_SLOPE, out=a)
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
            np.maximum(slope, LEAKY_SLOPE, out=slope)
            delta = np.matmul(delta, params.weights[i].T, out=ws.deltas[i - 1])
            delta *= slope


def forward(params: MlpParams, features):
    """Logits ``(n, K)`` of a batch ``(n, d)``, a new array on every call."""
    x = _check_features(params, features)
    return _forward_cached(params, x, Workspace(params, x.shape[0]))


class AdamState:
    """Adam's state for ``params``: zero first and second moments laid out like ``params.flat``,
    the step counter at 0, and two work vectors for the update."""

    def __init__(self, params: MlpParams):
        flat = check_instance(params, MlpParams, "params").flat
        self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self.step = 0
        self.scratch = (np.empty_like(flat), np.empty_like(flat))


def _adam_update(theta, grad, state: AdamState, lr):
    """One bias-corrected Adam update of the flat parameters ``theta`` at learning rate ``lr``, in place.

    Runs, op for op, ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + (1 - beta2) g g``
    and ``theta -= lr (m / bc1) / (sqrt(v / bc2) + eps)`` through the state's
    scratch vectors, with ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.  ``lr`` is
    not checked here; ``TrainConfig`` checks it.
    """
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    m, v = state.m, state.v
    s, t = state.scratch
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=s)
    m += s
    v *= ADAM_BETA2
    np.multiply(grad, grad, out=s)
    s *= 1.0 - ADAM_BETA2
    v += s
    np.divide(m, bc1, out=s)
    s *= lr
    np.divide(v, bc2, out=t)
    np.sqrt(t, out=t)
    t += ADAM_EPS
    s /= t
    theta -= s
