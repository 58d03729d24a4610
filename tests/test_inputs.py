"""Bad scalars fed to every public entry, one parameter and one value at a time, and the
records holding arrays, which compare by identity."""

import inspect
import math
import re

import numpy as np
import pytest

import npcl
from npcl import (
    AdamState,
    AdvRiskSpec,
    BaseLoss,
    BatchPartition,
    CorruptionSpec,
    Dataset,
    EpochMetrics,
    MarginBatch,
    MlpParams,
    SelectionResult,
    ThresholdMode,
    TrainConfig,
    brute_force_optimize,
    compute_threshold,
    partial_optimize,
    split,
    synth_blobs,
)

BAD = [True, "1", [1], None, math.nan, math.inf, -math.inf, -1]

# entry -> (the call, arguments it accepts); each scalar parameter is probed from these
ENTRIES = {
    "AdamState": (AdamState, dict(lr=1e-3, m=np.zeros(2), v=np.zeros(2), step=0)),
    "AdamState.init": (AdamState.init, dict(params=MlpParams.init([2, 3], seed=0), lr=1e-3)),
    "AdvRiskSpec": (AdvRiskSpec, dict(delta=0.1)),
    "BaseLoss": (BaseLoss, dict(kind="weighted", beta=0.5)),
    "BaseLoss.weighted": (BaseLoss.weighted, dict(beta=0.5)),
    "BaseLoss.parse": (BaseLoss.parse, dict(text="hinge")),
    "BatchPartition.contiguous": (BatchPartition.contiguous, dict(n=6, group_size=2)),
    "CorruptionSpec": (CorruptionSpec, dict(kind="pair", rate=0.1, seed=0, num_classes=3)),
    "Dataset": (Dataset, dict(features=np.zeros((2, 2)), labels=[0, 1], num_classes=2)),
    "EpochMetrics": (EpochMetrics, dict(epoch=0, train_loss=0.5, test_acc=0.5, label_precision=1.0,
                                        selected_frac=1.0, empty_batches=0)),
    "MlpParams.init": (MlpParams.init, dict(layer_sizes=[2, 3], seed=0)),
    "SelectionResult": (SelectionResult, dict(mask=np.ones(1, bool), selected_count=1, objective=1.0, threshold=1.0,
                                              prefix_sums=np.zeros(1), selected_loss_sum=0.0)),
    "ThresholdMode": (ThresholdMode, dict(kind="npcl-fixed", epsilon=0.1)),
    "ThresholdMode.npcl_fixed": (ThresholdMode.npcl_fixed, dict(epsilon=0.1)),
    "ThresholdMode.npcl_adaptive": (ThresholdMode.npcl_adaptive, dict(epsilon=0.1)),
    "TrainConfig": (TrainConfig, dict(epochs=3, batch_size=16, burn_in_epochs=1, lr=1e-3, seed=0)),
    "brute_force_optimize": (brute_force_optimize, dict(losses=[0.1, 0.2], C=1.0)),
    "compute_threshold": (compute_threshold, dict(mode=ThresholdMode.full_q(), n=5, misclassified_count=2)),
    "partial_optimize": (partial_optimize, dict(losses=[0.1, 0.2], C=1.0)),
    "split": (split, dict(dataset=synth_blobs(8, 2, 3.0, 1.0, seed=0), test_fraction=0.25, seed=0)),
    "synth_blobs": (synth_blobs, dict(n=8, num_classes=2, separation=3.0, noise_std=1.0, seed=0, dim=2)),
}

# entry.parameter -> the words (a regex) the ValueError for each bad value names it by
NAMED = {
    "AdamState.lr": "learning rate",
    "AdamState.init.lr": "learning rate",
    "AdvRiskSpec.delta": "divergence budget",
    "BaseLoss.kind": "base loss kind",
    "BaseLoss.beta": "beta",
    "BaseLoss.weighted.beta": "beta",
    "BaseLoss.parse.text": "base loss kind",
    "BatchPartition.contiguous.n": r"\bn\b",
    "BatchPartition.contiguous.group_size": "group size",
    "CorruptionSpec.kind": "corruption kind",
    "CorruptionSpec.rate": "rate",
    "CorruptionSpec.seed": "seed",
    "CorruptionSpec.num_classes": "class",
    "Dataset.num_classes": "class",
    "MlpParams.init.seed": "seed",
    "ThresholdMode.kind": "threshold mode",
    "ThresholdMode.epsilon": "epsilon",
    "ThresholdMode.npcl_fixed.epsilon": "epsilon",
    "ThresholdMode.npcl_adaptive.epsilon": "epsilon",
    "TrainConfig.epochs": "epochs",
    "TrainConfig.batch_size": "batch size",
    "TrainConfig.burn_in_epochs": "burn-in",
    "TrainConfig.lr": "learning rate",
    "TrainConfig.seed": "seed",
    "brute_force_optimize.C": "threshold C",
    "compute_threshold.n": r"\bn\b|group size",
    "compute_threshold.misclassified_count": "misclassified.count",
    "partial_optimize.C": "threshold C",
    "split.test_fraction": "test fraction",
    "split.seed": "seed",
    "synth_blobs.n": "sample",
    "synth_blobs.num_classes": "class",
    "synth_blobs.separation": "separation",
    "synth_blobs.noise_std": "noise std",
    "synth_blobs.seed": "seed",
    "synth_blobs.dim": "feature dimension",
}

EVERY = {repr(value) for value in BAD}
RECORD = "a record of results the package fills; it checks no field"
SEEDS = "numpy `SeedSequence` input; `None` draws OS entropy, left open"
# entry.parameter -> (the bad values, by repr, that it accepts; why)
ACCEPTED = {
    "AdamState.step": (EVERY, "the update counter, which `init` starts at 0 and each Adam step advances"),
    **{f"EpochMetrics.{name}": (EVERY, RECORD) for name in ENTRIES["EpochMetrics"][1]},
    **{f"SelectionResult.{name}": (EVERY, RECORD)
       for name in ("selected_count", "objective", "threshold", "selected_loss_sum")},
    **{f"{entry}.seed": ({"[1]", "None"}, SEEDS) for entry in ("MlpParams.init", "split", "synth_blobs")},
}

# parameters that take arrays, lists, tuples, callables or package objects, not scalars
NOT_SCALAR = {
    "m", "v", "params", "groups", "features", "labels", "clean_labels", "margins", "base_losses", "logits",
    "base_loss", "weights", "biases", "layer_sizes", "mask", "prefix_sums", "hidden", "losses", "losses01",
    "loss_vectors", "spec", "batch", "partition", "mode", "dataset", "workspace", "config", "train_set",
    "test_set", "on_batch", "TrainConfig.threshold", "grad_check.kind",
}
# file paths go to open(), which takes an integer, a bool included, as a file descriptor: a probe would
# read or write the test's own stdin or stdout
PATHS = {"path", "images_path", "labels_path"}


def public_entries():
    """``name -> callable`` for each function and class of ``npcl.__all__`` and each public classmethod."""
    entries = {}
    for name in npcl.__all__:
        obj = getattr(npcl, name)
        entries[name] = obj
        if inspect.isclass(obj):
            entries.update((f"{name}.{m}", getattr(obj, m)) for m, raw in vars(obj).items()
                           if isinstance(raw, classmethod) and not m.startswith("_"))
    return entries


def test_table_covers_every_scalar_parameter():
    scalars = set()
    for entry, call in public_entries().items():
        for param in inspect.signature(call).parameters:
            if not {param, f"{entry}.{param}"} & (NOT_SCALAR | PATHS):
                scalars.add(f"{entry}.{param}")
    assert scalars == set(NAMED) | set(ACCEPTED)
    assert {key.rsplit(".", 1)[0] for key in scalars} == set(ENTRIES)


@pytest.mark.parametrize("key", sorted(set(NAMED) | set(ACCEPTED)))
def test_bad_scalar_raises_naming_the_parameter_or_is_accepted(key):
    entry, param = key.rsplit(".", 1)
    call, valid = ENTRIES[entry]
    accepted = ACCEPTED.get(key, (set(), ""))[0]
    wrong = []
    for value in BAD:
        try:
            call(**{**valid, param: value})
        except ValueError as exc:
            if repr(value) in accepted or not re.search(NAMED[key], str(exc)):
                wrong.append(f"{param}={value!r}: {exc}")
        except Exception as exc:  # any other type is the fault this table finds
            wrong.append(f"{param}={value!r}: {type(exc).__name__}: {exc}")
        else:
            if repr(value) not in accepted:
                wrong.append(f"{param}={value!r} accepted")
    assert wrong == []


# records holding arrays, each built fresh on every call
RECORDS = {
    "Dataset": lambda: synth_blobs(8, 2, 3.0, 1.0, seed=0),
    "MlpParams": lambda: MlpParams.init([2, 3], seed=0),
    "AdamState": lambda: AdamState.init(MlpParams.init([2, 3], seed=0), 1e-3),
    "MarginBatch": lambda: MarginBatch.from_margins(np.array([1.0, -1.0])),
    "BatchPartition": lambda: BatchPartition.contiguous(4, 2),
    "SelectionResult": lambda: partial_optimize([0.1, 0.2, 0.3], 2.0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_holding_arrays_compare_by_identity(name):
    # the generated __eq__ compared the arrays and raised "truth value of an array is ambiguous"
    record, copy = RECORDS[name](), RECORDS[name]()
    assert record == record
    assert (record == copy) is False
