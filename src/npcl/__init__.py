"""Selection-based surrogates of the 0-1 loss for learning with noisy labels.

The core pieces:

* :mod:`npcl.losses` — margins and the ``BaseLoss`` hinge-family upper
  bounds of the 0-1 loss, with their logit subgradients in one loss pass
* :mod:`npcl.selection` — the sort/prefix-sum selection kernel and its
  brute-force oracle
* :mod:`npcl.objectives` — whole-set and per-batch curriculum objectives
* :mod:`npcl.corruption` — seeded symmetric / pair label flipping of a dataset
* :mod:`npcl.net` — a small numpy MLP on one flat parameter vector, with
  cached backprop and an in-place Adam update
* :mod:`npcl.training` — the epoch loop with burn-in and per-batch pruning
* :mod:`npcl.adversarial` — worst-case reweighted risk under a chi-square
  divergence budget
* :mod:`npcl.data` — IDX and NPDS ingestion, synthetic blobs, splits, serialization
* :mod:`npcl.verification` — the property checks behind ``npcl verify``,
  criterion 6's finite-difference ``grad_check`` among them
* :mod:`npcl.cli` — the ``npcl`` command (train / corrupt / verify / sweep)
"""

from .adversarial import (
    AdvRiskSpec,
    adversarial_risk_numeric,
    check_monotonicity,
    empirical_adversarial_risk,
)
from .corruption import CorruptionSpec, corrupt_dataset
from .data import Dataset, load_dataset, load_idx, save_dataset, split, synth_blobs
from .losses import BaseLoss, multiclass_margin
from .net import AdamState, MlpParams, forward
from .objectives import BatchPartition, MarginBatch, batched_objective, curriculum_objective
from .selection import SelectionResult, ThresholdMode, brute_force_optimize, compute_threshold, partial_optimize
from .training import EpochMetrics, TrainConfig, evaluate, train
from .verification import grad_check

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AdvRiskSpec",
    "BaseLoss",
    "BatchPartition",
    "CorruptionSpec",
    "Dataset",
    "EpochMetrics",
    "MarginBatch",
    "MlpParams",
    "SelectionResult",
    "ThresholdMode",
    "TrainConfig",
    "adversarial_risk_numeric",
    "batched_objective",
    "brute_force_optimize",
    "check_monotonicity",
    "compute_threshold",
    "corrupt_dataset",
    "curriculum_objective",
    "empirical_adversarial_risk",
    "evaluate",
    "forward",
    "grad_check",
    "load_dataset",
    "load_idx",
    "multiclass_margin",
    "partial_optimize",
    "save_dataset",
    "split",
    "synth_blobs",
    "train",
]
