"""End-to-end training with per-batch sample selection.

Each epoch shuffles the training set (seeded), walks it in mini-batches,
and updates the model on the subset the selection kernel admits.  The
first ``burn_in_epochs`` epochs train on every sample with the soft hinge
loss; afterwards the configured base loss and threshold mode take over.
Every epoch appends one metrics row:

    epoch, train_loss, test_acc, label_precision, selected_frac, empty_batches

``train_loss`` is the mean base loss over the samples actually trained on,
``label_precision`` the clean fraction among them (absent, reported as NaN,
if nothing was selected all epoch).

Inputs are validated once, on entry to ``train``.  Each step is then one
fused pass over the batch:

1. forward once, caching every layer's pre-activations and activations;
2. one loss pass gives the margins, the loss values and the logit
   gradients (it still rejects non-finite logits, so a diverging run stops
   with an error);
3. select: the threshold from the misclassified count, then the kernel;
4. backward from the cached activations into a flat gradient vector;
5. one in-place Adam update of the flat parameter vector, which the
   model's weights and biases view.

Randomness is split into independent PCG64 streams derived from the run
seed: ``[seed, 0]`` initializes the weights and ``[seed, 1, k]`` shuffles
epoch ``k``, so a config and seed pin down the whole trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .losses import BaseLoss, _loss_pass
from .net import AdamConfig, AdamState, MlpParams, _adam_update, _backprop, _forward_cached, forward
from .selection import ThresholdMode, compute_threshold, partial_optimize

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


def evaluate(params: MlpParams, dataset: Dataset):
    """Fraction of samples whose argmax logit hits the label (ties: smallest index)."""
    logits = forward(params, dataset.features)
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
    theta, params = MlpParams.init(layer_sizes, seed=[config.seed, 0]).flat_copy()
    grad = np.empty_like(theta)
    g_w, g_b = params.views(grad)
    state = AdamState.init(params, config.optimizer)

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
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            m = idx.size
            pre, acts = _forward_cached(params, train_set.features[idx])
            margins, losses, loss_grads = _loss_pass(
                acts[-1], train_set.labels[idx], loss_kind, gradients=True
            )
            if burn_in or not config.selection:
                mask = np.ones(m, dtype=bool)
                value = float(losses.sum())
            else:
                misclassified = int(np.count_nonzero(margins < 0))
                c = compute_threshold(config.threshold, m, misclassified)
                result = partial_optimize(losses, c)
                mask = result.mask
                value = result.objective
            selected = int(mask.sum())
            if on_batch is not None:
                on_batch(epoch, start // config.batch_size, value, float(losses.sum()), selected)

            if selected == 0:
                empty_batches += 1
                continue  # no-op step, counted
            selected_total += selected
            clean_selected += int((mask & ~flags[idx]).sum())
            loss_sum += float(losses[mask].sum())
            _backprop(params, pre, acts, loss_grads * (mask[:, None] / selected), g_w, g_b)
            _adam_update(theta, grad, state)

        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=loss_sum / selected_total if selected_total else float("nan"),
                test_acc=evaluate(params, test_set),
                label_precision=(
                    clean_selected / selected_total if selected_total else float("nan")
                ),
                selected_frac=selected_total / n,
                empty_batches=empty_batches,
            )
        )
    return metrics, params


def write_metrics_csv(path, metrics):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in metrics:
            fh.write(row.as_row() + "\n")
