"""End-to-end training with per-batch sample selection.

Each epoch shuffles the training set (seeded), walks it in mini-batches,
and updates the model on the subset the selection kernel admits.  The
first ``burn_in_epochs`` epochs train on every sample with the soft hinge
loss; afterwards the configured base loss and threshold mode take over.
Every epoch appends one metrics row:

    epoch, train_loss, test_acc, label_precision, selected_frac, empty_batches

``train_loss`` is the mean base loss over the samples actually trained on,
``label_precision`` the clean fraction among them (absent, reported as NaN,
if nothing was selected all epoch).  A run in which no batch after burn-in
selected anything trained only during burn-in; ``train`` then emits a
``RuntimeWarning`` and still returns its metrics.

Inputs are validated once, on entry to ``train``.  Each step is then one
fused pass over the batch:

1. gather the batch rows into an input buffer and forward once, caching
   every layer's pre-activations and activations;
2. one loss pass gives the margins, the loss values and the logit
   gradients (it still rejects non-finite logits, so a diverging run stops
   with an error);
3. select: the threshold from the misclassified count, then one call of
   the row-wise selection kernel on the batch's losses as a single row
   (the loss pass already guarantees them finite and nonnegative, so
   nothing is validated again);
4. scale the logit gradients by the mask over the selected count, in
   place, and backpropagate them into a flat gradient vector;
5. one in-place Adam update of the flat parameter vector, which the
   model's weights and biases view.

``train`` builds its ``net.Workspace`` buffers once per run: one for the
full batch, one for the shorter last batch when the batch size does not
divide the training set, and one for the test set, which ``evaluate``
reuses every epoch.  Steps 1 and 4 and the Adam update then allocate no
array the size of a layer's activations or of the parameters; the loss
pass and the selection kernel still allocate their per-batch results.

Randomness is split into independent PCG64 streams derived from the run
seed: ``[seed, 0]`` initializes the weights and ``[seed, 1, k]`` shuffles
epoch ``k``, so a config and seed pin down the whole trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import BaseLoss, _loss_pass
from .net import (
    AdamConfig,
    AdamState,
    MlpParams,
    Workspace,
    _adam_update,
    _backprop,
    _forward_cached,
    forward,
)
from .selection import ThresholdMode, _select_rows, compute_threshold

__all__ = [
    "TrainConfig",
    "EpochMetrics",
    "train",
    "label_precision",
    "evaluate",
    "write_metrics_csv",
    "METRICS_HEADER",
]

METRICS_HEADER = "epoch,train_loss,test_acc,label_precision,selected_frac,empty_batches"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    burn_in_epochs: int = 5
    threshold: ThresholdMode = ThresholdMode.npcl_adaptive(0.0)
    base_loss: BaseLoss = BaseLoss.hinge()
    optimizer: AdamConfig = AdamConfig()
    seed: int = 0
    shuffle: bool = True
    hidden: tuple = (64, 64)
    selection: bool = True  # False trains on every sample (baseline path)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0 <= self.burn_in_epochs < self.epochs:
            raise ValueError("burn-in must be shorter than the run")
        if any(size < 1 for size in self.hidden):
            raise ValueError(f"hidden layer sizes must be >= 1, got {tuple(self.hidden)}")


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    test_acc: float
    label_precision: float  # NaN when nothing was selected
    selected_frac: float
    empty_batches: int

    def as_row(self):
        return (
            f"{self.epoch},{self.train_loss!r},{self.test_acc!r},"
            f"{self.label_precision!r},{self.selected_frac!r},{self.empty_batches}"
        )


def label_precision(mask, flip_flags):
    """Clean fraction of the selected samples; errors on empty selection."""
    mask = np.asarray(mask, dtype=bool)
    flags = np.asarray(flip_flags, dtype=bool)
    if mask.shape != flags.shape:
        raise ValueError("mask and flags must have equal length")
    selected = int(mask.sum())
    if selected == 0:
        raise ValueError("label precision undefined for an empty selection")
    return float((mask & ~flags).sum() / selected)


def evaluate(params: MlpParams, dataset: Dataset, workspace: Workspace | None = None):
    """Fraction of samples whose argmax logit hits the label (ties: smallest index).

    ``workspace``, built for ``len(dataset)`` rows, lets repeated calls reuse
    one set of forward buffers.
    """
    logits = forward(params, dataset.features, workspace)
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == dataset.labels))


def train(config: TrainConfig, train_set: Dataset, test_set: Dataset, on_batch=None):
    """Run the full loop; returns (per-epoch metrics, final params).

    ``on_batch(epoch, batch_index, curriculum_value, plain_loss_sum,
    selected_count)`` is called after each selection with the batch's
    objective value and the conventional sum of base losses, which is how
    the tightness of the surrogate can be watched during a live run.
    """
    if len(train_set) == 0 or len(test_set) == 0:
        raise ValueError("datasets must be non-empty")
    if train_set.dim != test_set.dim:
        raise ValueError("train and test feature dims differ")
    if train_set.num_classes != test_set.num_classes:
        raise ValueError(
            f"train and test class counts differ ({train_set.num_classes} vs {test_set.num_classes})"
        )

    n = len(train_set)
    flags = train_set.flip_flags
    layer_sizes = [train_set.dim, *config.hidden, train_set.num_classes]
    params = MlpParams.init(layer_sizes, seed=[config.seed, 0])
    theta = params.flat
    grad = np.empty_like(theta)
    g_w, g_b = params.views(grad)
    state = AdamState.init(params, config.optimizer)
    batch = config.batch_size
    # an input buffer and a workspace per batch row count: full batches and the last one
    steps = {
        m: (np.empty((m, train_set.dim)), Workspace(params, m))
        for m in {min(batch, n), n - (n - 1) // batch * batch}
    }
    test_ws = Workspace(params, len(test_set))

    metrics: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        burn_in = epoch < config.burn_in_epochs
        loss_kind = BaseLoss.soft() if burn_in else config.base_loss
        if config.shuffle:
            order = np.random.default_rng([config.seed, 1, epoch]).permutation(n)
        else:
            order = np.arange(n)

        loss_sum = 0.0
        selected_total = 0
        clean_selected = 0
        empty_batches = 0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            m = idx.size
            x, ws = steps[m]
            # "clip" gathers straight into x, "raise" through a buffer; idx is always in range
            np.take(train_set.features, idx, axis=0, out=x, mode="clip")
            margins, losses, loss_grads = _loss_pass(
                _forward_cached(params, x, ws), train_set.labels[idx], loss_kind, gradients=True
            )
            if burn_in or not config.selection:
                mask = np.ones(m, dtype=bool)
                value = float(losses.sum())
            else:
                misclassified = int(np.count_nonzero(margins < 0))
                c = compute_threshold(config.threshold, m, misclassified)
                result = _select_rows(losses[None], np.array([c]))[0]
                mask = result.mask
                value = result.objective
            selected = int(mask.sum())
            if on_batch is not None:
                on_batch(epoch, start // batch, value, float(losses.sum()), selected)

            if selected == 0:
                empty_batches += 1
                continue  # no-op step, counted
            selected_total += selected
            clean_selected += int((mask & ~flags[idx]).sum())
            loss_sum += float(losses[mask].sum())
            loss_grads *= mask[:, None] / selected
            _backprop(params, ws, loss_grads, g_w, g_b)
            _adam_update(theta, grad, state)

        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=loss_sum / selected_total if selected_total else float("nan"),
                test_acc=evaluate(params, test_set, test_ws),
                label_precision=(
                    clean_selected / selected_total if selected_total else float("nan")
                ),
                selected_frac=selected_total / n,
                empty_batches=empty_batches,
            )
        )
    if all(row.selected_frac == 0.0 for row in metrics[config.burn_in_epochs :]):
        warnings.warn(
            f"no batch selected any sample after burn-in ({config.epochs - config.burn_in_epochs} "
            f"epochs, threshold {config.threshold}); the model trained only during burn-in",
            RuntimeWarning,
            stacklevel=2,
        )
    return metrics, params


def write_metrics_csv(path, metrics):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in metrics:
            fh.write(row.as_row() + "\n")
