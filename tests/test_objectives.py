"""Curriculum objective values, bound chains, and pruning behavior."""

import hashlib
import re
import struct

import numpy as np
import pytest

from npcl.losses import BaseLoss, multiclass_margin
from npcl.objectives import BatchPartition, MarginBatch, batched_objective, curriculum_objective
from npcl.selection import ThresholdMode, brute_force_optimize, compute_threshold, partial_optimize


def brute_value(batch, mode):
    c = compute_threshold(mode, len(batch), batch.misclassified_count)
    return brute_force_optimize(batch.base_losses, c).objective


def dyadic_margins(rng, n):
    # grid margins keep hinge losses and all their partial sums exact, so
    # the bound-chain comparisons below are exact rather than approximate
    return rng.integers(-3 * 1024, 3 * 1024 + 1, size=n) / 1024.0


class TestMarginBatch:
    @pytest.mark.parametrize("kind", [BaseLoss.hinge(), BaseLoss.soft(), BaseLoss.weighted(0.5)], ids=str)
    def test_from_logits_matches_margin_and_values(self, kind):
        rng = np.random.default_rng(31)
        t = rng.integers(-8, 9, size=(200, 4)) / 4.0
        y = rng.integers(0, 4, size=200)
        batch = MarginBatch.from_logits(t, y, kind)
        assert np.array_equal(batch.margins, multiclass_margin(t, y))
        assert np.array_equal(batch.base_losses, kind.values(t, y))

    def test_from_logits_single_sample(self):
        batch = MarginBatch.from_logits([0.5, 2.0, -1.0], 0, BaseLoss.hinge())
        assert batch.margins.tolist() == [-1.5] and batch.base_losses.tolist() == [2.5]

    def test_from_margins_uses_hinge(self):
        b = MarginBatch.from_margins(np.array([2.0, -1.0]))
        assert np.array_equal(b.base_losses, [0.0, 2.0])
        assert b.misclassified_count == 1
        assert b.zero_one_total == 1
        assert b.loss_total == 2.0

    def test_rejects_losses_below_indicator(self):
        with pytest.raises(ValueError):
            MarginBatch(np.array([-1.0]), np.array([0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MarginBatch(np.array([1.0, 2.0]), np.array([0.0]))


class TestCurriculumObjective:
    def test_adaptive_full_bound_example(self):
        batch = MarginBatch.from_margins(np.array([2.0, -1.0]))
        value, _ = curriculum_objective(batch, ThresholdMode.full_q())
        assert value == 2.0
        assert value == brute_value(batch, ThresholdMode.full_q())
        assert batch.zero_one_total <= value <= batch.loss_total

    def test_scaled_bound_example(self):
        batch = MarginBatch.from_margins(np.array([2.0, -1.0]))
        value, _ = curriculum_objective(batch, ThresholdMode.full_e())
        assert value == 1.0
        assert value == brute_value(batch, ThresholdMode.full_e())
        assert batch.zero_one_total <= 2 * value

    def test_noise_pruned_example(self):
        # losses [0.1,0.2,0.5,2.0], eps=0.5 -> C=2: two selected, two pruned
        margins = 1.0 - np.array([0.1, 0.2, 0.5, 2.0])
        batch = MarginBatch.from_margins(margins)
        value, result = curriculum_objective(batch, ThresholdMode.npcl_fixed(0.5))
        assert value == pytest.approx(0.3)
        assert result.selected_count == 2
        assert (~result.mask).sum() == 2
        assert value == brute_value(batch, ThresholdMode.npcl_fixed(0.5))


class TestBatchedObjective:
    def test_single_group_degenerates(self):
        rng = np.random.default_rng(0)
        batch = MarginBatch.from_margins(dyadic_margins(rng, 12))
        part = BatchPartition.contiguous(12, 12)
        whole, _ = curriculum_objective(batch, ThresholdMode.full_q())
        split, results = batched_objective(batch, part, ThresholdMode.full_q())
        assert split == whole
        assert len(results) == 1

    def test_two_group_example(self):
        batch = MarginBatch.from_margins(np.array([2.0, -1.0, 2.0, -1.0]))
        part = BatchPartition([np.array([0, 1]), np.array([2, 3])])
        split, _ = batched_objective(batch, part, ThresholdMode.full_q())
        whole, _ = curriculum_objective(batch, ThresholdMode.full_q())
        assert split == 4.0
        # brute force puts the unpartitioned optimum at 3, below the
        # partitioned value, as the upper-bound ordering requires
        assert whole == 3.0
        assert whole == brute_value(batch, ThresholdMode.full_q())
        assert split >= whole

    def test_zero_losses_select_everything(self):
        batch = MarginBatch.from_margins(np.full(9, 2.0))
        part = BatchPartition.contiguous(9, 4)  # short last group
        value, results = batched_objective(batch, part, ThresholdMode.full_e())
        assert value == 0.0
        assert all(r.mask.all() for r in results)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            BatchPartition([np.array([0, 1]), np.array([], dtype=int)])
        with pytest.raises(ValueError):
            BatchPartition([np.array([0, 1]), np.array([1, 2])])
        with pytest.raises(ValueError):
            BatchPartition([])
        batch = MarginBatch.from_margins(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            batched_objective(batch, BatchPartition.contiguous(3, 2), ThresholdMode.full_e())


class TestBoundChains:
    def test_chains_on_random_batches(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = 64
            batch = MarginBatch.from_margins(dyadic_margins(rng, n))
            m = int(rng.choice([4, 8, 16]))
            perm = rng.permutation(n)
            part = BatchPartition([perm[i : i + m] for i in range(0, n, m)])

            j = batch.zero_one_total
            j_hat = batch.loss_total
            q, _ = curriculum_objective(batch, ThresholdMode.full_q())
            q_hat, _ = batched_objective(batch, part, ThresholdMode.full_q())
            e, _ = curriculum_objective(batch, ThresholdMode.full_e())
            e_hat, _ = batched_objective(batch, part, ThresholdMode.full_e())

            assert j <= q <= q_hat <= j_hat
            assert j <= 2 * e <= 2 * e_hat <= 2 * j_hat
            assert e <= q

    def test_small_case_against_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            batch = MarginBatch.from_margins(dyadic_margins(rng, int(rng.integers(1, 11))))
            for mode in (ThresholdMode.full_q(), ThresholdMode.full_e()):
                value, _ = curriculum_objective(batch, mode)
                assert value == brute_value(batch, mode)


class TestNoisePrunedReductions:
    def test_zero_prior_reduces_to_full_modes(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            batch = MarginBatch.from_margins(dyadic_margins(rng, int(rng.integers(1, 60))))
            ve, _ = curriculum_objective(batch, ThresholdMode.full_e())
            vf, _ = curriculum_objective(batch, ThresholdMode.npcl_fixed(0.0))
            assert vf == ve
            vq, _ = curriculum_objective(batch, ThresholdMode.full_q())
            va, _ = curriculum_objective(batch, ThresholdMode.npcl_adaptive(0.0))
            assert va == vq

    def test_pruning_count_in_late_training_regime(self):
        # the pruned-count rule presumes the sorted prefix stays cheap, as it
        # does once the model fits most clean samples: mostly zero losses,
        # a few small ones, the rest large
        rng = np.random.default_rng(34)
        eps, n = 0.25, 64
        prune_target = int(eps * n)
        keep = n - prune_target
        seen_full, seen_short = False, False
        for _ in range(100):
            zeros = int(rng.integers(keep - 2, keep + 3))
            smalls = 4  # keeps the first (1-eps)n prefix sums well under 1
            bigs = n - zeros - smalls
            losses = np.concatenate(
                [
                    np.zeros(zeros),
                    rng.integers(1, 20, size=smalls) / 1024.0,
                    rng.integers(2048, 5120, size=bigs) / 1024.0,
                ]
            )
            rng.shuffle(losses)
            margins = 1.0 - losses
            batch = MarginBatch.from_margins(margins)
            _, result = curriculum_objective(batch, ThresholdMode.npcl_fixed(eps))
            pruned = n - result.selected_count
            sorted_losses = np.sort(losses)
            boundary = sorted_losses[:keep + 1].sum()
            if boundary != 0.0:
                assert pruned == prune_target
                seen_full = True
            else:
                assert pruned == prune_target - 1
                seen_short = True
        assert seen_full and seen_short


def _grouped_cases():
    """(batch, partition) pairs: contiguous with a short tail, permuted equal groups, ragged."""
    rng = np.random.default_rng(2024)
    # continuous margins give inexact prefix sums; rounding some makes ties and zero losses
    margins = rng.normal(0.4, 1.3, size=1000)
    margins[::7] = np.round(margins[::7])
    batch = MarginBatch.from_margins(margins)
    yield batch, BatchPartition.contiguous(1000, 48)  # 20 groups of 48, one of 40
    small = MarginBatch.from_margins(margins[:512])
    perm = rng.permutation(512)
    yield small, BatchPartition([perm[i : i + 32] for i in range(0, 512, 32)])
    ragged = MarginBatch.from_margins(margins[:64])
    perm = rng.permutation(64)
    cuts = np.cumsum([1, 5, 5, 3, 17, 1, 1, 31])[:-1]
    yield ragged, BatchPartition(np.split(perm, cuts))
    yield ragged, BatchPartition([perm])  # one group of size n
    yield ragged, BatchPartition([[i] for i in perm])  # n groups of size 1


GROUPED_MODES = [ThresholdMode.full_q(), ThresholdMode.full_e(),
                 ThresholdMode.npcl_fixed(0.3), ThresholdMode.npcl_adaptive(0.3)]


class TestGroupedDigest:
    """sha256 over ``batched_objective``'s outputs on fixed partitions, all four modes.

    Recorded before the per-group loop was replaced by the row-wise kernel;
    the kernel must reproduce every total, objective, threshold, count, mask
    and prefix sum bit for bit.  Recorded with numpy 2.4 on x86-64.
    """

    DIGEST = "9ffdc3a017ee4e424bef587a12737aa086e9237a10cc8d244aee20a080f76666"

    def test_grouped_outputs_bit_identical(self):
        h = hashlib.sha256()
        for batch, part in _grouped_cases():
            for mode in GROUPED_MODES:
                total, results = batched_objective(batch, part, mode)
                h.update(struct.pack("<d", total))
                for r in results:
                    h.update(struct.pack("<ddq", r.objective, r.threshold, r.selected_count))
                    h.update(np.asarray(r.mask, dtype=bool).tobytes())
                    h.update(np.asarray(r.prefix_sums, dtype="<f8").tobytes())
        assert h.hexdigest() == self.DIGEST

    def test_matches_per_group_loop_on_random_ragged_partitions(self):
        # the reference is the loop the kernel replaced: one threshold and one
        # partial_optimize per group, the total summed left to right
        rng = np.random.default_rng(99)
        for _ in range(150):
            n = int(rng.integers(1, 90))
            batch = MarginBatch.from_margins(np.round(rng.normal(0.3, 1.5, size=n), int(rng.integers(1, 4))))
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 12))), replace=False))
            part = BatchPartition(np.split(rng.permutation(n), cuts))
            mode = GROUPED_MODES[int(rng.integers(0, 4))]
            total, results = batched_objective(batch, part, mode)
            expected = 0.0
            for group, r in zip(part.groups, results, strict=True):
                c = compute_threshold(mode, group.size, np.count_nonzero(batch.margins[group] < 0))
                ref = partial_optimize(batch.base_losses[group], c)
                assert (r.objective, r.threshold, r.selected_count, r.selected_loss_sum) == (
                    ref.objective, ref.threshold, ref.selected_count, ref.selected_loss_sum)
                assert np.array_equal(r.mask, ref.mask) and np.array_equal(r.prefix_sums, ref.prefix_sums)
                expected += ref.objective
            assert total == expected


class TestPublicErrors:
    """Validation stays at the public entries, with the same messages."""

    @pytest.mark.parametrize("losses, c, message", [
        ([0.1, -0.2], 1.0, "losses must be nonnegative"),
        ([0.1, np.nan], 1.0, "losses contain non-finite values"),
        ([0.1, np.inf], 1.0, "losses contain non-finite values"),
        ([], 0.0, "losses must be a non-empty 1-D vector"),
        ([[0.1, 0.2]], 1.0, "losses must be a non-empty 1-D vector"),
        ([0.1, 0.2], -0.5, re.escape("threshold C=-0.5 outside [0, 4]")),
        ([0.1, 0.2], 4.5, re.escape("threshold C=4.5 outside [0, 4]")),
        ([0.1, 0.2], np.nan, re.escape("threshold C=nan outside [0, 4]")),
    ])
    def test_partial_optimize(self, losses, c, message):
        with pytest.raises(ValueError, match=message):
            partial_optimize(losses, c)

    @pytest.mark.parametrize("margins, losses, message", [
        ([1.0, 2.0], [0.0, np.nan], "non-finite margins or losses"),
        ([1.0, 2.0], [0.0, -0.5], "base losses must upper-bound the 0-1 indicators"),
        ([1.0, 2.0], [0.0], "margins and base_losses must be equal-length 1-D vectors"),
    ])
    def test_margin_batch(self, margins, losses, message):
        with pytest.raises(ValueError, match=message):
            MarginBatch(np.array(margins), np.array(losses))

    def test_partition_size_mismatch(self):
        batch = MarginBatch.from_margins(np.array([1.0, -1.0]))
        for part in (BatchPartition.contiguous(3, 2), BatchPartition([[0]])):
            with pytest.raises(ValueError, match=f"partition covers {part.size} samples, batch has 2"):
                batched_objective(batch, part, ThresholdMode.full_e())
