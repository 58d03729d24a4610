"""End-to-end training with per-batch sample selection.

Each epoch shuffles the training set (seeded), walks it in mini-batches,
and updates the model on the subset the selection kernel admits.  The
first ``burn_in_epochs`` epochs train on every sample with the soft hinge
loss; afterwards the configured base loss and threshold mode take over.  A
``None`` threshold trains on every sample, the summation baseline.
Every epoch appends one metrics row, an ``EpochMetrics`` whose fields, in
order, are the ``metrics.csv`` columns:

    epoch, train_loss, test_acc, label_precision, selected_frac, empty_batches

``train_loss`` is the mean base loss over the samples actually trained on,
``label_precision`` the clean fraction among them (absent, reported as NaN,
if nothing was selected all epoch), counted over the epoch in integers.  A
sample is clean when its label equals the training set's stored clean label
(``Dataset.flip_flags``); a set without clean labels counts as all clean.
``test_acc`` likewise scores the test set against its clean labels when it
carries them.  A run in which no batch after burn-in selected anything
trained only during burn-in; ``train`` then emits a ``RuntimeWarning`` and
still returns its metrics.

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
5. one in-place Adam update at ``TrainConfig.lr`` of the flat parameter
   vector, which the model's weights and biases view.

``train`` keeps the model's buffers and Adam's state to itself and builds
them once per run: a ``net.Workspace`` for the full batch, one for the
shorter last batch when the batch size does not divide the training set,
one for the test set, whose forward pass each epoch gives the test logits
that ``evaluate`` scores, and one ``net.AdamState``.  Steps 1 and 4, the
Adam update and the test pass then allocate no array the size of a layer's
activations or of the parameters; the loss pass and the selection kernel
still allocate their per-batch results.

Randomness is split into independent PCG64 streams derived from the run
seed: ``[seed, 0]`` initializes the weights and ``[seed, 1, k]`` shuffles
epoch ``k``, so a config and seed pin down the whole trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from ._checks import check_instance, check_int, check_lr, check_real_array, check_seed
from .data import Dataset
from .losses import BaseLoss, _loss_pass
from .net import (
    AdamState,
    MlpParams,
    Workspace,
    _adam_update,
    _backprop,
    _check_layer_sizes,
    _forward_cached,
)
from .objectives import _misclassified
from .selection import ThresholdMode, _select_rows, compute_threshold

__all__ = [
    "TrainConfig",
    "EpochMetrics",
    "train",
    "evaluate",
    "write_metrics_csv",
    "METRICS_HEADER",
]


def _check_epochs(epochs, burn_in_epochs=0):
    """The run length and burn-in ``TrainConfig`` accepts."""
    if check_int(epochs, "epochs") < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not 0 <= check_int(burn_in_epochs, "burn-in") < epochs:
        raise ValueError(f"burn-in must lie in [0, epochs), got {burn_in_epochs} of {epochs} epochs")


def _check_batch_size(batch_size):
    """The batch size ``TrainConfig`` accepts."""
    if check_int(batch_size, "batch size") < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 128
    burn_in_epochs: int = 5
    threshold: ThresholdMode | None = ThresholdMode.npcl_adaptive(0.0)  # None trains on every sample
    base_loss: BaseLoss = BaseLoss.hinge()
    lr: float = 1e-3  # Adam learning rate
    seed: int = 0
    hidden: tuple = (64, 64)

    def __post_init__(self):
        _check_epochs(self.epochs, self.burn_in_epochs)
        _check_batch_size(self.batch_size)
        check_seed(self.seed)
        if not isinstance(self.hidden, tuple):  # a list would leave the frozen config unhashable
            raise ValueError(f"hidden layer sizes must be a tuple of integers, got {self.hidden!r}")
        _check_layer_sizes(self.hidden, "hidden layer sizes")
        if not (self.threshold is None or isinstance(self.threshold, ThresholdMode)):
            raise ValueError(f"threshold must be a ThresholdMode or None, got {self.threshold!r}")
        check_instance(self.base_loss, BaseLoss, "base loss")
        check_lr(self.lr)


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    test_acc: float
    label_precision: float  # NaN when nothing was selected
    selected_frac: float
    empty_batches: int

    def as_row(self):
        return ",".join(str(getattr(self, f.name)) for f in fields(self))


METRICS_HEADER = ",".join(f.name for f in fields(EpochMetrics))


def evaluate(logits, dataset: Dataset):
    """Fraction of the set's rows whose argmax logit hits the label (ties: smallest index).

    ``logits`` are ``(len(dataset), K)`` scores for the set's ``K`` classes,
    such as ``forward(params, dataset.features)``.  The label is the clean
    one where the set carries clean labels, so a held-out side of a
    corrupted set measures accuracy, not agreement with the injected noise.
    """
    check_instance(dataset, Dataset, "dataset")
    t = check_real_array(logits, "logits")
    if t.shape != (len(dataset), dataset.num_classes):
        raise ValueError(f"logits must be ({len(dataset)}, {dataset.num_classes}) for the dataset's rows "
                         f"and classes, got shape {t.shape}")
    predictions = np.argmax(t, axis=1)
    truth = dataset.labels if dataset.clean_labels is None else dataset.clean_labels
    return float(np.mean(predictions == truth))


def train(config: TrainConfig, train_set: Dataset, test_set: Dataset, on_batch=None):
    """Run the full loop; returns (per-epoch metrics, final params).

    ``on_batch(epoch, batch_index, curriculum_value, plain_loss_sum,
    selected_count)`` is called after each selection with the batch's
    objective value and the conventional sum of base losses, which is how
    the tightness of the surrogate can be watched during a live run.
    """
    check_instance(config, TrainConfig, "config")
    check_instance(train_set, Dataset, "train_set")
    check_instance(test_set, Dataset, "test_set")
    if not (on_batch is None or callable(on_batch)):
        raise ValueError(f"on_batch must be callable or None, got {on_batch!r}")
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
    state = AdamState(params)
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
        order = np.random.default_rng([config.seed, 1, epoch]).permutation(n)

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
            if burn_in or config.threshold is None:
                mask = np.ones(m, dtype=bool)
                value = float(losses.sum())
            else:
                misclassified = int(np.count_nonzero(_misclassified(margins)))
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
            _adam_update(theta, grad, state, config.lr)

        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=loss_sum / selected_total if selected_total else float("nan"),
                test_acc=evaluate(_forward_cached(params, test_set.features, test_ws), test_set),
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
