"""Bad scalars, bad layer sizes, bad arrays, bad package objects and bad paths fed to every public
entry, one parameter and one value at a time, and the records holding arrays, which compare by identity."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

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
    adversarial_risk_numeric,
    batched_objective,
    brute_force_optimize,
    check_monotonicity,
    compute_threshold,
    corrupt_dataset,
    curriculum_objective,
    empirical_adversarial_risk,
    evaluate,
    forward,
    grad_check,
    multiclass_margin,
    partial_optimize,
    save_dataset,
    split,
    synth_blobs,
    train,
)
from npcl.adversarial import project_chi_square_ball
from npcl.net import Workspace

BAD = [True, "1", [1], None, math.nan, math.inf, -math.inf, -1]

# entry -> (the call, arguments it accepts); each scalar parameter is probed from these
ENTRIES = {
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
    "project_chi_square_ball": (project_chi_square_ball, dict(w=np.array([3.0, -1.0, 0.5]), delta=0.5)),
    "split": (split, dict(dataset=synth_blobs(8, 2, 3.0, 1.0, seed=0), test_fraction=0.25, seed=0)),
    "synth_blobs": (synth_blobs, dict(n=8, num_classes=2, separation=3.0, noise_std=1.0, seed=0, dim=2)),
}

# entry.parameter -> the words (a regex) the ValueError for each bad value names it by
NAMED = {
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
    "project_chi_square_ball.delta": "delta",
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
SEEDS = "numpy `SeedSequence` entropy, as `[seed, stream]`"
# entry.parameter -> (the bad values, by repr, that it accepts; why)
ACCEPTED = {
    **{f"EpochMetrics.{name}": (EVERY, RECORD) for name in ENTRIES["EpochMetrics"][1]},
    **{f"SelectionResult.{name}": (EVERY, RECORD)
       for name in ("selected_count", "objective", "threshold", "selected_loss_sum")},
    **{f"{entry}.seed": ({"[1]"}, SEEDS) for entry in ("MlpParams.init", "split", "synth_blobs")},
    "project_chi_square_ball.delta": ({"inf"}, "an unbounded budget leaves the set {r >= 0, mean(r) = 1}"),
}

# parameters that take package objects or callables: neither scalars nor arrays
OBJECTS = {
    "params", "base_loss", "spec", "batch", "partition", "mode", "dataset", "workspace", "config", "train_set",
    "test_set", "on_batch", "TrainConfig.threshold", "grad_check.kind",
}
# layer-size parameters -> (the call of a value, a good value holding one given size, the words (a regex) the
# ValueError names them by)
SIZES = {
    "MlpParams.init.layer_sizes": (lambda sizes: MlpParams.init(sizes, seed=0), lambda size: [2, size],
                                   "layer size|input and output sizes"),
    "TrainConfig.hidden": (lambda sizes: TrainConfig(hidden=sizes), lambda size: (size,), "hidden layer size"),
}
# file paths go to open(), which takes an integer, a bool included, as a file descriptor: they are probed in
# a child process, so a path taken as one cannot read or write the test's own stdin or stdout
PATHS = {"path", "images_path", "labels_path"}


def public_entries():
    """``name -> callable`` for each function and class of ``npcl.__all__``, each public classmethod,
    and ``project_chi_square_ball``, public in ``npcl.adversarial``."""
    entries = {"project_chi_square_ball": project_chi_square_ball}
    for name in npcl.__all__:
        obj = getattr(npcl, name)
        entries[name] = obj
        if inspect.isclass(obj):
            entries.update((f"{name}.{m}", getattr(obj, m)) for m, raw in vars(obj).items()
                           if isinstance(raw, classmethod) and not m.startswith("_"))
    return entries


def test_table_covers_every_scalar_parameter():
    scalars, arrays = set(), set(ARRAYS) | set(ARRAYS_ACCEPTED)
    for entry, call in public_entries().items():
        for param in inspect.signature(call).parameters:
            if not {param, f"{entry}.{param}"} & (OBJECTS | PATHS | arrays | set(SIZES)):
                scalars.add(f"{entry}.{param}")
    assert scalars == set(NAMED) | set(ACCEPTED)
    assert {key.rsplit(".", 1)[0] for key in scalars} == set(ENTRIES)
    assert {key.rsplit(".", 1)[0] for key in arrays} == set(ARRAY_ENTRIES)
    assert all(key.rsplit(".", 1)[1] in ARRAY_ENTRIES[key.rsplit(".", 1)[0]][1] for key in arrays)


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


def test_only_records_take_every_bad_value():
    # an option no rule checks, as Adam's step counter and moments once were, cannot sit in these tables
    assert [key for key, (values, why) in ACCEPTED.items() if values == EVERY and why != RECORD] == []
    assert [key for key, why in ARRAYS_ACCEPTED.items() if why != RECORD] == []


@pytest.mark.parametrize("key", sorted(SIZES))
@pytest.mark.parametrize("form", ["whole", "element"])
def test_bad_layer_sizes_raise_naming_them(key, form):
    param = key.rsplit(".", 1)[1]
    call, holding, named = SIZES[key]
    call(holding(1))
    wrong = []
    for value in BAD:
        try:
            call(value if form == "whole" else holding(value))
        except ValueError as exc:
            if not re.search(named, str(exc)):
                wrong.append(f"{param} {form} {value!r}: {exc}")
        except Exception as exc:  # any other type is the fault this table finds
            wrong.append(f"{param} {form} {value!r}: {type(exc).__name__}: {exc}")
        else:
            wrong.append(f"{param} {form} {value!r} accepted")
    assert wrong == []


LOGITS = np.array([[2.0, 0.5], [0.5, 1.0]])
NET = MlpParams.init([2, 3], seed=0)
SPEC = AdvRiskSpec(0.5)
# entry -> (the call, arguments it accepts, arrays included); each array parameter is probed from these
ARRAY_ENTRIES = {
    "BatchPartition": (BatchPartition, dict(groups=[np.array([0, 1]), np.array([2])])),
    "Dataset": (Dataset, dict(features=np.zeros((2, 2)), labels=np.array([0, 1]), num_classes=2,
                              clean_labels=np.array([1, 1]))),
    "MarginBatch": (MarginBatch, dict(margins=np.array([1.0, -1.0]), base_losses=np.array([0.0, 2.0]))),
    "MarginBatch.from_margins": (MarginBatch.from_margins, dict(margins=np.array([1.0, -1.0]))),
    "MarginBatch.from_logits": (MarginBatch.from_logits, dict(logits=LOGITS, labels=np.array([0, 1]),
                                                              base_loss=BaseLoss.hinge())),
    "MlpParams": (MlpParams, dict(weights=[np.zeros((2, 3))], biases=[np.zeros(3)])),
    "SelectionResult": ENTRIES["SelectionResult"],
    "adversarial_risk_numeric": (adversarial_risk_numeric, dict(losses01=np.array([1.0, 0.0]), spec=SPEC)),
    "brute_force_optimize": ENTRIES["brute_force_optimize"],
    "check_monotonicity": (check_monotonicity, dict(loss_vectors=[np.array([1.0, 0.0]), np.zeros(2)], spec=SPEC)),
    "empirical_adversarial_risk": (empirical_adversarial_risk, dict(losses01=np.array([1.0, 0.0]), spec=SPEC)),
    "forward": (forward, dict(params=NET, features=np.zeros((2, 2)))),
    "grad_check": (grad_check, dict(params=NET, features=np.zeros((2, 2)), labels=np.array([0, 1]),
                                    kind=BaseLoss.hinge())),
    "multiclass_margin": (multiclass_margin, dict(logits=LOGITS, labels=np.array([0, 1]))),
    "partial_optimize": ENTRIES["partial_optimize"],
    "project_chi_square_ball": ENTRIES["project_chi_square_ball"],
}

# entry.parameter -> (what it takes, the words (a regex) the ValueError for each bad array names it by).
# "integers" must have an integer dtype, "finite" reals are checked for NaN and +-inf, and a "list of" them
# is probed in its first element
ARRAYS = {
    "BatchPartition.groups": ("list of integers", "group"),
    "Dataset.features": ("reals", "features"),
    "Dataset.labels": ("integers", "^labels|one label per row"),  # not "clean labels must match label shape"
    "Dataset.clean_labels": ("integers", "clean labels"),
    "MarginBatch.margins": ("finite", "margins"),
    "MarginBatch.base_losses": ("finite", "base_losses"),
    "MarginBatch.from_margins.margins": ("finite", "margins"),
    "MarginBatch.from_logits.logits": ("finite", "logits"),
    "MarginBatch.from_logits.labels": ("integers", "labels"),
    "MlpParams.weights": ("list of reals", "weight"),
    "MlpParams.biases": ("list of reals", "bias"),
    "adversarial_risk_numeric.losses01": ("finite", "losses"),  # the 0/1 rule rejects NaN and +-inf
    "brute_force_optimize.losses": ("finite", "losses"),
    "check_monotonicity.loss_vectors": ("list of finite", "loss"),
    "empirical_adversarial_risk.losses01": ("finite", "losses"),
    "forward.features": ("reals", "features"),
    "grad_check.features": ("reals", "features"),
    "grad_check.labels": ("integers", "labels"),
    "multiclass_margin.logits": ("finite", "logits"),
    "multiclass_margin.labels": ("integers", "labels"),
    "partial_optimize.losses": ("finite", "losses"),
    "project_chi_square_ball.w": ("finite", r"\bw\b"),
}
# entry.parameter -> why it takes every bad array
ARRAYS_ACCEPTED = {
    "SelectionResult.mask": RECORD,
    "SelectionResult.prefix_sums": RECORD,
}


def bad_arrays(kind, good):
    """``label -> bad value`` for a parameter taking ``kind`` whose good value is ``good``: the wrong rank
    (2-D for a vector, 1-D for a matrix), a 0-D scalar and an empty vector, then a float and a bool array
    where integers are due, and NaN and +-inf where finiteness is checked."""
    if kind.startswith("list of "):
        return {label: [bad, *good[1:]] for label, bad in bad_arrays(kind[len("list of "):], good[0]).items()}
    a = np.asarray(good)
    if a.ndim == 2:
        bad = {"1-D": a[0], "0-D": a[0, 0], "empty": a[0, :0]}
    else:
        bad = {"2-D": a[None], "0-D": a[0], "empty": a[:0]}
    if kind == "integers":
        bad.update(float=a.astype(np.float64), bool=a.astype(bool))
    for label, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)) if kind == "finite" else ():
        bad[label] = a.astype(np.float64)
        bad[label].flat[0] = value
    return bad


@pytest.mark.parametrize("key", sorted(set(ARRAYS) | set(ARRAYS_ACCEPTED)))
def test_bad_array_raises_naming_the_parameter_or_is_accepted(key):
    entry, param = key.rsplit(".", 1)
    call, valid = ARRAY_ENTRIES[entry]
    kind, named = ARRAYS.get(key, ("reals", None))
    wrong = []
    for label, value in bad_arrays(kind, valid[param]).items():
        try:
            call(**{**valid, param: value})
        except ValueError as exc:
            if key in ARRAYS_ACCEPTED or not re.search(named, str(exc)):
                wrong.append(f"{param} {label}: {exc}")
        except Exception as exc:  # any other type is the fault this table finds
            wrong.append(f"{param} {label}: {type(exc).__name__}: {exc}")
        else:
            if key not in ARRAYS_ACCEPTED:
                wrong.append(f"{param} {label} accepted")
    assert wrong == []


DATA = synth_blobs(8, 2, 3.0, 1.0, seed=0)
BATCH = MarginBatch.from_margins(np.array([1.0, -1.0]))
# entry -> (the call, arguments it accepts); each package-object parameter is probed from these
OBJECT_ENTRIES = {
    "AdamState": (AdamState, dict(params=NET)),
    "MarginBatch.from_logits": ARRAY_ENTRIES["MarginBatch.from_logits"],
    "TrainConfig": (TrainConfig, dict(threshold=ThresholdMode.full_q(), base_loss=BaseLoss.hinge())),
    "adversarial_risk_numeric": ARRAY_ENTRIES["adversarial_risk_numeric"],
    "batched_objective": (batched_objective, dict(batch=BATCH, partition=BatchPartition.contiguous(2, 1),
                                                  mode=ThresholdMode.full_q())),
    "check_monotonicity": ARRAY_ENTRIES["check_monotonicity"],
    "compute_threshold": ENTRIES["compute_threshold"],
    "corrupt_dataset": (corrupt_dataset, dict(dataset=DATA, spec=CorruptionSpec("pair", 0.1, 0, 2))),
    "curriculum_objective": (curriculum_objective, dict(batch=BATCH, mode=ThresholdMode.full_q())),
    "empirical_adversarial_risk": ARRAY_ENTRIES["empirical_adversarial_risk"],
    "evaluate": (evaluate, dict(params=NET, dataset=DATA, workspace=Workspace(NET, len(DATA)))),
    "forward": (forward, dict(params=NET, features=np.zeros((2, 2)), workspace=Workspace(NET, 2))),
    "grad_check": ARRAY_ENTRIES["grad_check"],
    "save_dataset": (save_dataset, dict(path="data.npds", dataset=DATA)),
    "split": ENTRIES["split"],
    "train": (train, dict(config=TrainConfig(epochs=1, batch_size=8, burn_in_epochs=0, hidden=()), train_set=DATA,
                          test_set=DATA, on_batch=lambda *progress: None)),
}
# entry.parameter -> why it takes None
TAKES_NONE = {
    "forward.workspace": "without one the pass builds a workspace for its input",
    "evaluate.workspace": "without one the pass builds a workspace for its input",
    "train.on_batch": "a run that reports no batch",
    "TrainConfig.threshold": "no selection: every sample trains, the summation baseline",
}


def object_parameters():
    return sorted(f"{entry}.{param}" for entry, call in public_entries().items()
                  for param in inspect.signature(call).parameters if {param, f"{entry}.{param}"} & OBJECTS)


def test_object_table_covers_every_object_parameter():
    assert {key.rsplit(".", 1)[0] for key in object_parameters()} == set(OBJECT_ENTRIES)
    assert set(TAKES_NONE) <= set(object_parameters())


@pytest.mark.parametrize("key", object_parameters())
def test_bad_object_raises_naming_the_parameter_or_takes_none(key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where save_dataset writes
    entry, param = key.rsplit(".", 1)
    call, valid = OBJECT_ENTRIES[entry]
    named = "^" + param.replace("_", "[_ ]") + " must be "
    wrong = []
    for value in ("1", None):
        takes = value is None and key in TAKES_NONE
        try:
            call(**{**valid, param: value})
        except ValueError as exc:
            if takes or not re.search(named, str(exc)):
                wrong.append(f"{param}={value!r}: {exc}")
        except Exception as exc:  # any other type is the fault this table finds
            wrong.append(f"{param}={value!r}: {type(exc).__name__}: {exc}")
        else:
            if not takes:
                wrong.append(f"{param}={value!r} accepted")
    assert wrong == []


# each path parameter as a call of the bad value, in a directory holding a valid file for every other path
PATH_PROBE = textwrap.dedent("""\
    import json, struct, sys
    from npcl import load_dataset, load_idx, save_dataset, synth_blobs
    data = synth_blobs(4, 2, 3.0, 1.0, seed=0)
    save_dataset("data.npds", data)
    open("images.idx", "wb").write(struct.pack(">IIII", 2051, 2, 1, 1) + bytes([0, 255]))
    open("labels.idx", "wb").write(struct.pack(">II", 2049, 2) + bytes([0, 1]))
    calls = {
        "load_idx.images_path": lambda path: load_idx(path, "labels.idx"),
        "load_idx.labels_path": lambda path: load_idx("images.idx", path),
        "load_dataset.path": load_dataset,
        "save_dataset.path": lambda path: save_dataset(path, data),
    }
    found = {}
    for key, call in calls.items():
        for value in json.loads(sys.argv[1]):
            try:
                call(value)
                found[f"{key}={value!r}"] = "accepted"
            except Exception as exc:
                found[f"{key}={value!r}"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(found))
""")
PATH_NAMED = {"load_idx.images_path": "images path", "load_idx.labels_path": "labels path",
              "load_dataset.path": "dataset path", "save_dataset.path": "dataset path"}


def test_bad_path_raises_naming_the_parameter(tmp_path):
    covered = {f"{entry}.{param}" for entry, call in public_entries().items()
               for param in inspect.signature(call).parameters if param in PATHS}
    assert covered == set(PATH_NAMED)
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", PATH_PROBE, json.dumps(BAD)], cwd=tmp_path, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    # "1" is a path: load finds no such file, and save writes one
    accepted = ("accepted", "FileNotFoundError: [Errno 2] No such file or directory: '1'")
    wrong = {probe: outcome for probe, outcome in found.items()
             if not (outcome in accepted if probe.endswith("='1'") else
                     outcome.startswith("ValueError: ") and PATH_NAMED[probe.split("=")[0]] in outcome)}
    assert len(found) == len(PATH_NAMED) * len(BAD) and wrong == {}


# records holding arrays, each built fresh on every call
RECORDS = {
    "Dataset": lambda: synth_blobs(8, 2, 3.0, 1.0, seed=0),
    "MlpParams": lambda: MlpParams.init([2, 3], seed=0),
    "AdamState": lambda: AdamState(MlpParams.init([2, 3], seed=0)),
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
