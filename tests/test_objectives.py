"""Curriculum objective values, bound chains, and pruning behavior."""

import hashlib
import re
import struct

import numpy as np
import pytest

from npcl.losses import BaseLoss, _loss_pass, multiclass_margin
from npcl.objectives import BatchPartition, MarginBatch, batched_objective, curriculum_objective
from npcl.selection import ThresholdMode, brute_force_optimize, compute_threshold, partial_optimize
from npcl.verification import check_bound_chains, check_pruning_counts, check_zero_prior_reductions
from test_selection import reference_select


def brute_value(batch, mode):
    c = compute_threshold(mode, len(batch), batch.zero_one_total)
    return brute_force_optimize(batch.base_losses, c).objective


def dyadic_margins(rng, n):
    # grid margins keep hinge losses and all their partial sums exact, so
    # the objective comparisons below are exact rather than approximate
    return rng.integers(-3 * 1024, 3 * 1024 + 1, size=n) / 1024.0


class TestMarginBatch:
    @pytest.mark.parametrize("kind", [BaseLoss.hinge(), BaseLoss.soft(), BaseLoss.weighted(0.5)], ids=str)
    def test_from_logits_matches_margin_and_values(self, kind):
        rng = np.random.default_rng(31)
        t = rng.integers(-8, 9, size=(200, 4)) / 4.0
        y = rng.integers(0, 4, size=200)
        batch = MarginBatch.from_logits(t, y, kind)
        assert np.array_equal(batch.margins, multiclass_margin(t, y))
        assert np.array_equal(batch.base_losses, _loss_pass(t, y, kind, gradients=False)[1])

    def test_from_margins_uses_hinge(self):
        b = MarginBatch.from_margins(np.array([2.0, -1.0]))
        assert np.array_equal(b.base_losses, [0.0, 2.0])
        assert b.zero_one_total == 1
        assert b.loss_total == 2.0

    def test_rejects_losses_below_indicator(self):
        with pytest.raises(ValueError):
            MarginBatch(np.array([-1.0]), np.array([0.5]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MarginBatch(np.array([1.0, 2.0]), np.array([0.0]))

    def test_arrays_are_read_only_views_of_the_callers(self):
        margins, losses = np.array([2.0, -1.0, 0.5]), np.array([0.0, 2.0, 0.5])
        batch = MarginBatch(margins, losses)
        for view, own in ((batch.margins, margins), (batch.base_losses, losses)):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0
            assert np.shares_memory(view, own)
            own[0] += 0.0  # the caller's array stays writeable
            assert own.flags.writeable

    def test_sorted_losses_are_read_only_and_shared_across_modes(self):
        batch = MarginBatch.from_margins(np.array([2.0, -1.0, 0.5, -0.25]))
        _, full = curriculum_objective(batch, ThresholdMode.full_q())
        _, pruned = curriculum_objective(batch, ThresholdMode.npcl_fixed(0.5))
        assert np.shares_memory(full.prefix_sums, pruned.prefix_sums)
        with pytest.raises(ValueError, match="read-only"):
            full.prefix_sums[0] = 9.0
        for array in batch._sorted_rows:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 9.0
        # each mode's mask is its own
        assert full.mask.tolist() == [True, False, True, True] and pruned.mask.tolist() == [True, False, True, False]
        full.mask[0] = False
        assert pruned.mask[0]


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


ALL_MODES = [ThresholdMode.full_q(), ThresholdMode.full_e(),
             ThresholdMode.npcl_fixed(0.3), ThresholdMode.npcl_adaptive(0.3)]


def _result_bytes(value, result):
    return b"".join([struct.pack("<ddddq", value, result.objective, result.threshold, result.selected_loss_sum,
                                 result.selected_count), result.mask.tobytes(), result.prefix_sums.tobytes()])


def _reference_bytes(losses, c):
    """``reference_select``'s result as ``_result_bytes`` packs it, with -0.0 read as +0.0 as the kernel reads it."""
    mask, t, objective, prefix, loss_sum = reference_select(losses, c)
    objective, loss_sum, prefix = objective + 0.0, loss_sum + 0.0, prefix + 0.0
    return b"".join([struct.pack("<ddddq", objective, objective, c, loss_sum, t), mask.tobytes(), prefix.tobytes()])


def _check_one_batch_every_mode(margins, losses):
    """One batch cut at all four modes, in both orders; each result equals a fresh batch's and
    ``reference_select``'s bit for bit.  Returns the last batch's results in ``ALL_MODES`` order."""
    for modes in (ALL_MODES, ALL_MODES[::-1]):
        batch = MarginBatch(margins, losses)
        results = {}
        for mode in modes:
            value, result = curriculum_objective(batch, mode)
            got = _result_bytes(value, result)
            assert got == _result_bytes(*curriculum_objective(MarginBatch(margins, losses), mode))
            assert got == _reference_bytes(losses, result.threshold)
            results[str(mode)] = result
    return [results[str(mode)] for mode in ALL_MODES]


class TestOneSortPerBatch:
    """``curriculum_objective`` cuts one cached sort of the batch for every mode."""

    def test_every_mode_in_either_order_matches_a_fresh_batch_and_the_reference(self):
        rng = np.random.default_rng(404)
        inside = np.zeros(len(ALL_MODES), dtype=int)
        zero_cuts = 0
        for _ in range(60):
            n = int(rng.integers(2, 48))
            # quarter-step margins: dyadic hinge losses in long runs of equal values
            margins = (rng.integers(-8, 9, size=n) + int(rng.integers(0, 5))) / 4.0
            losses = np.maximum(0.0, 1.0 - margins)
            losses[(losses == 0.0) & (rng.random(n) < 0.5)] = -0.0
            for i, result in enumerate(_check_one_batch_every_mode(margins, losses)):
                t, ordered = result.selected_count, np.sort(losses)
                if 0 < t < n and ordered[t - 1] == ordered[t]:
                    inside[i] += 1
                    zero_cuts += ordered[t - 1] == 0.0
        assert np.all(inside >= 5), inside
        assert zero_cuts >= 1

    def test_a_long_row_drops_thousands_of_ties_by_position(self):
        losses = np.random.default_rng(5).integers(0, 9, size=100_000) / 4.0
        results = _check_one_batch_every_mode(1.0 - losses, losses)
        ordered = np.sort(losses)
        for result in results:
            cut = ordered[result.selected_count - 1]
            assert np.count_nonzero(losses <= cut) - result.selected_count > 1000


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

    def test_unit_groups_are_singletons(self):
        part = BatchPartition.contiguous(5, 1)
        assert [g.tolist() for g in part.groups] == [[0], [1], [2], [3], [4]]
        with pytest.raises(ValueError, match="group size must be >= 1"):
            BatchPartition.contiguous(5, 0)

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
        with pytest.raises(ValueError, match="^partition contains an empty group$"):
            BatchPartition([[0, 1], []])  # an empty list has dtype float64
        batch = MarginBatch.from_margins(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            batched_objective(batch, BatchPartition.contiguous(3, 2), ThresholdMode.full_e())

    @pytest.mark.parametrize("group, dtype", [([0.9, 1.2], "float64"), ([True, False], "bool")])
    def test_partition_takes_integer_indices_only(self, group, dtype):
        with pytest.raises(ValueError, match=f"^partition group 1 must be integers, got dtype {dtype}$"):
            BatchPartition([[2], group])


class TestBoundChains:
    def test_chains_on_random_batches(self):
        [result] = check_bound_chains(np.random.default_rng(77), 300)
        assert result.ok, result.detail

    def test_small_case_against_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            batch = MarginBatch.from_margins(dyadic_margins(rng, int(rng.integers(1, 11))))
            for mode in (ThresholdMode.full_q(), ThresholdMode.full_e()):
                value, _ = curriculum_objective(batch, mode)
                assert value == brute_value(batch, mode)


class TestNoisePrunedReductions:
    def test_zero_prior_reduces_to_full_modes(self):
        [result] = check_zero_prior_reductions(np.random.default_rng(21), 100)
        assert result.ok, result.detail

    def test_pruning_count_in_late_training_regime(self):
        [result] = check_pruning_counts(np.random.default_rng(34), 100)
        assert result.ok, result.detail


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

    @pytest.mark.parametrize("order", ["ordered", "permuted"])
    def test_equal_size_groups_read_as_view_or_gather_give_the_same_results(self, order):
        # 40 groups of 16 lie next to each other in one partition, and are read as one reshaped view;
        # in the other they alternate with groups of 8, and are read through a fancy index
        rng = np.random.default_rng(41)
        margins = np.round(rng.normal(0.3, 1.5, size=40 * 24), 1)
        perm = np.arange(margins.size) if order == "ordered" else rng.permutation(margins.size)
        sixteens, eights = np.split(perm[:640], 40), np.split(perm[640:], 40)
        adjacent = BatchPartition(sixteens + eights)
        scattered = BatchPartition([g for pair in zip(sixteens, eights) for g in pair])
        assert adjacent.ordered == (order == "ordered") and not scattered.ordered
        batch = MarginBatch.from_margins(margins)
        for mode in GROUPED_MODES:
            _, viewed = batched_objective(batch, adjacent, mode)
            _, gathered = batched_objective(batch, scattered, mode)
            for v, g in zip(viewed, gathered[::2] + gathered[1::2], strict=True):
                assert (v.objective, v.threshold, v.selected_count, v.selected_loss_sum) == (
                    g.objective, g.threshold, g.selected_count, g.selected_loss_sum)
                assert np.array_equal(v.mask, g.mask) and v.prefix_sums.tobytes() == g.prefix_sums.tobytes()


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
        ([0.1, -np.inf], 1.0, "losses contain non-finite values"),
        ([-0.1, np.nan], 1.0, "losses contain non-finite values"),
    ])
    def test_partial_optimize(self, losses, c, message):
        with pytest.raises(ValueError, match=message):
            partial_optimize(losses, c)

    @pytest.mark.parametrize("margins, losses, message", [
        ([1.0, 2.0], [0.0, np.nan], "base_losses contain non-finite values"),
        ([1.0, 2.0], [0.0, -0.5], "base losses must upper-bound the 0-1 indicators"),
        ([1.0, 2.0], [0.0], "margins and base_losses must have equal length, got 2 and 1"),
    ])
    def test_margin_batch(self, margins, losses, message):
        with pytest.raises(ValueError, match=message):
            MarginBatch(np.array(margins), np.array(losses))

    def test_partition_size_mismatch(self):
        batch = MarginBatch.from_margins(np.array([1.0, -1.0]))
        for part in (BatchPartition.contiguous(3, 2), BatchPartition([[0]])):
            with pytest.raises(ValueError, match=f"partition covers {part.size} samples, batch has 2"):
                batched_objective(batch, part, ThresholdMode.full_e())
