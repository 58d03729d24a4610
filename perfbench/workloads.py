"""The four benchmark workloads.

A workload builds its inputs from the seed when constructed (that is the
set-up the harness times), runs one unit of work per ``run_pass`` call, and
checks each pass's output in ``check``, which returns one boolean per
checked operation.  ``work`` is the number of items one pass processes, the
numerator of ``items_per_s``.

Every call into npcl goes through the package's module attributes at call
time (``self.pkg.training.train``), so the tracer's wrappers are seen once
installed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

# Criterion-10 config of the acceptance suite and the digest of its metrics.csv.
GOLDEN_ARGS = [
    "train", "--synthetic", "blobs", "--train-size", "400", "--test-size", "100",
    "--noise", "symmetric", "--noise-rate", "0.4", "--epsilon-prior", "0.4",
    "--epochs", "6", "--batch-size", "64", "--burn-in", "2", "--seed", "11",
]
GOLDEN_SHA256 = "3033a9c36d9bed98ebe1dfa6d936823ddba65877c9c235b0f799147c403150da"


def _quiet_cli(pkg, argv):
    """Run the CLI with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return pkg.cli.run(argv)


def golden_check(pkg, scratch):
    """Criterion-10 run through the CLI; True when metrics.csv matches the digest."""
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        code = _quiet_cli(pkg, [*GOLDEN_ARGS, "--out", str(out)])
        csv_path = out / "metrics.csv"
        return code == 0 and csv_path.is_file() and (
            hashlib.sha256(csv_path.read_bytes()).hexdigest() == GOLDEN_SHA256)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _tail_means(rows):
    """Mean test accuracy and label precision over the last five epochs."""
    tail = rows[-5:]
    return (float(np.mean([r.test_acc for r in tail])),
            float(np.mean([r.label_precision for r in tail])))


def _best_rate(work, seconds):
    """Items per second of the fastest pass; see ``run.untraced_run``."""
    return work / min(seconds)


class DeskTrain:
    """Criterion-8 desk run: 5000x64 blobs, 40% symmetric noise, npcl-adaptive 0.4."""

    def __init__(self, pkg, seed, scratch):
        self.pkg = pkg
        blob = dict(num_classes=4, separation=4.0, noise_std=1.0, dim=64)
        self.train_set = pkg.data.synth_blobs(5000, seed=[seed, 100], **blob)
        self.test_set = pkg.data.synth_blobs(1000, seed=[seed, 200], **blob)
        spec = pkg.corruption.CorruptionSpec("symmetric", 0.4, seed, 4)
        self.train_set = pkg.corruption.corrupt_dataset(self.train_set, spec)
        self.config = pkg.training.TrainConfig(
            epochs=30, batch_size=128, burn_in_epochs=5,
            threshold=pkg.selection.ThresholdMode.npcl_adaptive(0.4),
            base_loss=pkg.losses.BaseLoss.hinge(), seed=seed,
        )
        self.work = len(self.train_set) * self.config.epochs
        self.reference = None
        self.quality = (0.0, 0.0)

    def run_pass(self):
        metrics, _ = self.pkg.training.train(self.config, self.train_set, self.test_set)
        return metrics

    def check(self, metrics):
        digest = hashlib.sha256("\n".join(m.as_row() for m in metrics).encode()).hexdigest()
        if self.reference is None:
            self.reference = digest
        self.quality = _tail_means(metrics)
        return [self.quality[1] > 0.6 and digest == self.reference]

    def details(self, times):
        acc, precision = self.quality
        return {
            "train_sample_epochs_per_s": (_best_rate(self.work, times), "1/s"),
            "test_acc": (acc, "frac"),
            "label_precision": (precision, "frac"),
            "metrics_sha256": (self.reference, "sha256"),
        }


class PriorSweep:
    """``npcl sweep`` over the five prior cells, 2000x64 blobs, 40% symmetric noise."""

    CELLS = 5

    def __init__(self, pkg, seed, scratch):
        self.pkg = pkg
        self.scratch = scratch
        self.argv = [
            "sweep", "--synthetic", "blobs", "--train-size", "2000", "--test-size", "500",
            "--blob-dim", "64", "--noise", "symmetric", "--noise-rate", "0.4",
            "--epochs", "10", "--burn-in", "2", "--seed", str(seed),
        ]
        self.work = self.CELLS * 2000 * 10
        self.reference = None
        self.quality = (0.0, 0.0)

    def run_pass(self):
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        return _quiet_cli(self.pkg, [*self.argv, "--out", str(out)]), out

    def check(self, output):
        code, out = output
        try:
            files = sorted(out.glob("*/metrics.csv"))
            digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
            cells = []
            for f in files:
                with open(f, newline="") as fh:
                    rows = list(csv.DictReader(fh))[-5:]
                cells.append([np.mean([float(r[k]) for r in rows])
                              for k in ("test_acc", "label_precision")])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if self.reference is None:
            self.reference = digest
        if cells:
            self.quality = tuple(float(v) for v in np.mean(cells, axis=0))
        return [code == 0 and len(files) == self.CELLS and digest == self.reference]

    def details(self, times):
        acc, precision = self.quality
        return {
            "train_sample_epochs_per_s": (_best_rate(self.work, times), "1/s"),
            "test_acc": (acc, "frac"),
            "label_precision": (precision, "frac"),
        }


class ObjectiveScan:
    """1e6 x 10 dyadic logits through ``from_logits``, four whole-set sorts and 128-groups.

    Logits are multiples of 2^-10, so every loss sum is exact in float64 and
    the bound chain is checked with exact comparisons.
    """

    N, K, GROUP = 1_000_000, 10, 128

    def __init__(self, pkg, seed, scratch):
        self.pkg = pkg
        sel = pkg.selection
        rng = np.random.default_rng([seed, 400])
        self.labels = rng.integers(0, self.K, size=self.N)
        logits = rng.integers(-4096, 4097, size=(self.N, self.K)).astype(np.float64)
        logits[np.arange(self.N), self.labels] += rng.integers(0, 8193, size=self.N)
        logits *= 1.0 / 1024.0
        self.logits = logits
        self.partition = pkg.objectives.BatchPartition.contiguous(self.N, self.GROUP)
        self.modes = [sel.ThresholdMode.full_q(), sel.ThresholdMode.full_e(),
                      sel.ThresholdMode.npcl_fixed(0.25), sel.ThresholdMode.npcl_adaptive(0.25)]
        self.work = (len(self.modes) + 1) * self.N
        self.reference = None
        self.stage_times = []

    def run_pass(self):
        obj = self.pkg.objectives
        t0 = time.perf_counter()
        batch = obj.MarginBatch.from_logits(self.logits, self.labels, self.pkg.losses.BaseLoss.hinge())
        t1 = time.perf_counter()
        whole = [obj.curriculum_objective(batch, mode) for mode in self.modes]
        t2 = time.perf_counter()
        grouped = obj.batched_objective(batch, self.partition, self.modes[0])
        t3 = time.perf_counter()
        self.stage_times.append((t1 - t0, t2 - t1, t3 - t2))
        return batch, whole, grouped

    @staticmethod
    def _identities_hold(result):
        """Prefix-sum optimality conditions of a selection result (criterion 2)."""
        prefix, c, t = result.prefix_sums, result.threshold, result.selected_count
        l_t = float(prefix[t - 1]) if t > 0 else 0.0
        if l_t > c + 1.0 - t or result.objective != max(l_t, c - t):
            return False
        return t == prefix.size or (prefix[t] > c - t and prefix[t] > max(l_t, c - t))

    def check(self, output):
        batch, whole, (q_hat, group_results) = output
        j, j_hat = batch.zero_one_total, batch.loss_total
        (q, _), (e, _) = whole[0], whole[1]
        values = (j, j_hat, q_hat, *(v for v, _ in whole))
        if self.reference is None:
            self.reference = values
        chain = j <= q <= q_hat <= j_hat and j <= 2 * e and values == self.reference
        results = [r for _, r in whole] + group_results
        return [chain] + [self._identities_hold(r) for r in results]

    def details(self, times):
        from_logits, whole, grouped = np.asarray(self.stage_times[-len(times):]).T
        return {
            "whole_select_samples_per_s": (_best_rate(len(self.modes) * self.N, whole), "1/s"),
            "grouped_select_samples_per_s": (_best_rate(self.N, from_logits + grouped), "1/s"),
        }


class AdversarialCheck:
    """Criterion-7-style solver instances plus monotonicity pairs.

    An unsaturated instance costs the solver about 35 times a saturated one,
    and in 100 free draws the unsaturated count has a standard deviation of
    5 around 45, so the work per pass would differ by about 11% between
    seeds.  Each pass therefore holds criterion 7's expected mix, each
    instance drawn from its distribution (n in [2, 60), k in [0, n], delta in
    [0, 2)) and kept while its kind's quota lasts.
    """

    MIX = {"trivial": 11, "saturated": 44, "unsaturated": 45}
    DELTAS = (0.01, 0.1, 1.0)
    PAIRS = 200

    def __init__(self, pkg, seed, scratch):
        self.pkg = pkg
        adv = pkg.adversarial
        rng = np.random.default_rng([seed, 700])
        quota = dict(self.MIX)
        self.instances = []
        while any(quota.values()):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(0, n + 1))
            delta = float(rng.uniform(0.0, 2.0))
            if k in (0, n) or delta == 0.0:
                kind = "trivial"
            else:
                kind = "saturated" if k / n >= 1.0 / (1.0 + delta) else "unsaturated"
            if quota[kind]:
                quota[kind] -= 1
                losses = np.zeros(n)
                losses[rng.choice(n, size=k, replace=False)] = 1.0
                self.instances.append((losses, adv.AdvRiskSpec(delta)))
        self.pairs = []
        for delta in self.DELTAS:
            spec = adv.AdvRiskSpec(delta)
            for _ in range(self.PAIRS):
                n = int(rng.integers(2, 40))
                pair = []
                for _ in range(2):
                    v = np.zeros(n)
                    v[rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)] = 1.0
                    pair.append(v)
                self.pairs.append((pair, spec))
        self.work = len(self.instances)
        self.max_gap = 0.0
        self.solver_times = []

    def run_pass(self):
        adv = self.pkg.adversarial
        t0 = time.perf_counter()
        risks = [(adv.empirical_adversarial_risk(l, spec), adv.adversarial_risk_numeric(l, spec))
                 for l, spec in self.instances]
        self.solver_times.append(time.perf_counter() - t0)
        reports = [adv.check_monotonicity(pair, spec) for pair, spec in self.pairs]
        return risks, reports

    def check(self, output):
        risks, reports = output
        gaps = [abs(closed - numeric) for closed, numeric in risks]
        self.max_gap = max(self.max_gap, *gaps)
        return [gap < 1e-6 for gap in gaps] + [not r.violations for r in reports]

    def details(self, times):
        return {
            "solver_instances_per_s": (_best_rate(self.work, self.solver_times[-len(times):]), "1/s"),
            "max_gap": (self.max_gap, "abs"),
        }


WORKLOADS = {
    "desk_train": DeskTrain,
    "prior_sweep": PriorSweep,
    "objective_scan": ObjectiveScan,
    "adversarial_check": AdversarialCheck,
}
