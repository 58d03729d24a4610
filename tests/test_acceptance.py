"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-7 run the property checks of ``npcl.verification`` at the
criteria's seeds and counts.
"""

import time

import numpy as np
import pytest

from npcl import verification
from npcl.cli import run
from npcl.corruption import CorruptionSpec, corrupt_dataset
from npcl.data import synth_blobs
from npcl.losses import BaseLoss
from npcl.selection import ThresholdMode
from npcl.training import TrainConfig, train


def timed_check(check, seed, count):
    start = time.perf_counter()
    results = check(np.random.default_rng(seed), count)
    return results, time.perf_counter() - start


# ----------------------------------------------------------------------
# criteria 1-2: selection kernel vs brute force, optimum identities
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def selector_checks():
    return timed_check(verification.check_selector, 2024, 1000)


def test_criterion_01_selector_optimality(criterion, selector_checks):
    (optimal, _), elapsed = selector_checks
    criterion(
        1,
        optimal.ok and elapsed < 5.0,
        f"sort kernel equals brute force on 1000 instances exactly "
        f"({optimal.value} mismatches, {elapsed:.2f}s)",
    )


def test_criterion_02_optimum_identities(criterion, selector_checks):
    (_, identities), _ = selector_checks
    criterion(2, identities.ok, f"optimum identities hold on all instances ({identities.value} violations)")


# ----------------------------------------------------------------------
# criteria 3-5: bound chains, zero-prior reductions, pruning counts
# ----------------------------------------------------------------------


def test_criterion_03_bound_chains(criterion):
    [chains], elapsed = timed_check(verification.check_bound_chains, 7, 1000)
    criterion(
        3,
        chains.ok and elapsed < 5.0,
        f"bound chains hold exactly on 1000 batches ({chains.value} failures, {elapsed:.2f}s)",
    )


def test_criterion_04_zero_prior_reductions(criterion):
    [reductions] = verification.check_zero_prior_reductions(np.random.default_rng(8), 100)
    criterion(4, reductions.ok, f"zero-prior modes equal full modes exactly on 100 batches ({reductions.value} failures)")


def test_criterion_05_pruning_counts(criterion):
    [pruning] = verification.check_pruning_counts(np.random.default_rng(9), 100)
    criterion(
        5,
        pruning.ok,
        f"pruned count matches the boundary rule on 100 batches ({pruning.value} failures, both branches seen)",
    )


# ----------------------------------------------------------------------
# criterion 6: gradient fidelity
# ----------------------------------------------------------------------


def test_criterion_06_gradient_fidelity(criterion):
    [gradients], elapsed = timed_check(verification.check_gradients, 10, 100)
    criterion(
        6,
        gradients.ok and elapsed < 30.0,
        f"grad check on 100 nets x 3 losses, max relative error {gradients.value:.2e} ({elapsed:.1f}s)",
    )


# ----------------------------------------------------------------------
# criterion 7: adversarial risk, solver agreement and monotonicity
# ----------------------------------------------------------------------


def test_criterion_07_adversarial(criterion):
    rng = np.random.default_rng(11)
    [agreement] = verification.check_solver_agreement(rng, 500)
    [order] = verification.check_risk_order(rng, 200)
    criterion(
        7,
        agreement.ok and order.ok,
        f"closed form vs solver max gap {agreement.value:.2e} on 500 instances; "
        f"{order.value} monotonicity violations on 200 pairs x 3 deltas",
    )


# ----------------------------------------------------------------------
# criteria 8-9: desk-scale robustness and the misspecified-prior sweep
# ----------------------------------------------------------------------

BLOB_KW = dict(num_classes=4, separation=4.0, noise_std=1.0, dim=64)


def _desk_run(seed, prior=0.4, corrupt=True):
    """One criterion-8 desk run at npcl-adaptive ``prior``; ``prior=None`` trains on every sample."""
    train_set = synth_blobs(5000, seed=100 + seed, **BLOB_KW)
    test_set = synth_blobs(1000, seed=200 + seed, **BLOB_KW)
    if corrupt:
        train_set = corrupt_dataset(train_set, CorruptionSpec("symmetric", 0.4, 300 + seed, 4))
    config = TrainConfig(
        epochs=30,
        batch_size=128,
        burn_in_epochs=5,
        threshold=None if prior is None else ThresholdMode.npcl_adaptive(prior),
        base_loss=BaseLoss.hinge(),
        lr=1e-3,
        seed=seed,
    )
    metrics, _ = train(config, train_set, test_set)
    acc = float(np.mean([m.test_acc for m in metrics[-5:]]))
    precision = float(np.mean([m.label_precision for m in metrics[-5:]]))
    return acc, precision


@pytest.fixture(scope="module")
def desk_runs():
    start = time.perf_counter()
    runs = {"npcl": [], "baseline": []}
    for seed in range(1, 6):
        runs["npcl"].append(_desk_run(seed))
        runs["baseline"].append(_desk_run(seed, prior=None))
    runs["clean"] = _desk_run(1, prior=None, corrupt=False)
    runs["seconds"] = time.perf_counter() - start
    return runs


def test_criterion_08_desk_scale_robustness(criterion, desk_runs):
    clean_acc = desk_runs["clean"][0]
    npcl_acc = float(np.mean([acc for acc, _ in desk_runs["npcl"]]))
    npcl_prec = float(np.mean([prec for _, prec in desk_runs["npcl"]]))
    base_acc = float(np.mean([acc for acc, _ in desk_runs["baseline"]]))
    gap = 100.0 * (npcl_acc - base_acc)
    elapsed = desk_runs["seconds"]
    criterion(
        8,
        clean_acc > 0.95 and npcl_prec > 0.6 and gap >= 3.0 and elapsed < 300.0,
        f"clean {clean_acc:.3f} > 0.95; precision {npcl_prec:.3f} > 0.6; "
        f"selection beats none by {gap:.1f} points over 5 seeds ({elapsed:.0f}s)",
    )


def test_criterion_09_misspecified_prior_sweep(criterion, desk_runs):
    base_prec = desk_runs["baseline"][0][1]  # seed 1, selection disabled
    precisions = {0.4: desk_runs["npcl"][0][1]}
    for prior in (0.3, 0.5):
        precisions[prior] = _desk_run(1, prior=prior)[1]
    ok = all(p > base_prec for p in precisions.values())
    detail = ", ".join(f"prior {k}: {v:.3f}" for k, v in sorted(precisions.items()))
    criterion(9, ok, f"label precision above the no-selection baseline ({base_prec:.3f}) for {detail}")


# ----------------------------------------------------------------------
# criterion 10: byte-identical reruns through the CLI
# ----------------------------------------------------------------------


def test_criterion_10_determinism(criterion, tmp_path):
    def invoke(out):
        args = [
            "train",
            "--synthetic", "blobs",
            "--train-size", "400",
            "--test-size", "100",
            "--noise", "symmetric",
            "--noise-rate", "0.4",
            "--epsilon-prior", "0.4",
            "--epochs", "6",
            "--batch-size", "64",
            "--burn-in", "2",
            "--seed", "11",
            "--out", str(out),
        ]
        assert run(args) == 0

    invoke(tmp_path / "a")
    invoke(tmp_path / "b")
    same = (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
    criterion(10, same, "repeated train invocations produce byte-identical metrics CSV")
