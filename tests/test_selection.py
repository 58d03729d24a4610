"""Selection kernel: exactness against brute force and structural identities."""

import re
import time

import numpy as np
import pytest

from npcl.selection import (
    _WINDOW,
    ThresholdMode,
    _select_rows,
    _thresholds,
    brute_force_optimize,
    compute_threshold,
    partial_optimize,
)
from npcl.verification import check_selector, optimum_identities_hold


def dyadic_losses(rng, n, high=4.0):
    # multiples of 2^-10 keep every subset sum exact in float64, so the
    # sorted-prefix route and the enumeration route agree bit for bit
    return rng.integers(0, int(high * 1024) + 1, size=n) / 1024.0


def reference_select(losses, c):
    """The one-problem kernel the row-wise core replaced: (mask, T, objective, prefix sums, L_T)."""
    l = np.asarray(losses, dtype=np.float64)
    n = l.size
    order = np.argsort(l, kind="stable")
    prefix = np.cumsum(l[order])
    keep = prefix <= c + 1.0 - np.arange(1, n + 1)
    t = int(np.count_nonzero(keep))
    loss_sum = float(prefix[t - 1]) if t > 0 else 0.0
    mask = np.zeros(n, dtype=bool)
    mask[order[:t]] = True
    return mask, t, max(loss_sum, c - t), prefix, loss_sum


def rough_losses(rng, n):
    # continuous values with some rounded to give ties and exact zeros
    l = rng.exponential(1.0, size=n)
    tied = rng.random(n) < 0.3
    l[tied] = np.round(l[tied], 1)
    l[rng.random(n) < 0.2] = 0.0
    return l


def coarse_losses(rng, shape):
    # quarter steps in [0, 2]: long runs of equal values, so cuts often fall inside one
    return rng.integers(0, 9, size=shape) / 4.0


def assert_rows_match_reference(rows, c):
    """Each row's result equals ``reference_select``'s, prefix sums byte for byte; returns the results."""
    results = _select_rows(rows, c)
    for row, ci, r in zip(rows, c, results, strict=True):
        mask, t, objective, prefix, loss_sum = reference_select(row, float(ci))
        assert (r.selected_count, r.objective, r.threshold, r.selected_loss_sum) == (
            t, objective, float(ci), loss_sum)
        assert np.array_equal(r.mask, mask) and r.prefix_sums.tobytes() == prefix.tobytes()
    return results


def cut_inside_ties(rows, results):
    """Rows whose cut value also belongs to samples left unselected."""
    count = 0
    for row, r in zip(rows, results):
        t, ordered = r.selected_count, np.sort(row)
        count += 0 < t < row.size and ordered[t - 1] == ordered[t]
    return count


class TestRowKernel:
    def test_rows_match_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g, m = int(rng.integers(1, 9)), int(rng.integers(1, 50))
            rows = np.stack([rough_losses(rng, m) for _ in range(g)])
            c = rng.uniform(0, 2 * m, size=g)
            c[rng.random(g) < 0.3] = np.floor(c[0])
            assert_rows_match_reference(rows, c)

        # coarse grids, all-zero rows, and rows with T = 0 beside rows with T > 0
        tied = empty = 0
        for _ in range(300):
            g, m = int(rng.integers(2, 9)), int(rng.integers(1, 50))
            rows = coarse_losses(rng, (g, m))
            rows[rng.random(g) < 0.25] = 0.0
            c = rng.integers(0, 2 * m + 1, size=g) * rng.choice([1.0, 0.5, 0.37], size=g)
            starved = rng.random(g) < 0.25
            rows[starved] += 0.25
            c[starved] = 0.0
            results = assert_rows_match_reference(rows, c)
            tied += cut_inside_ties(rows, results)
            counts = [r.selected_count for r in results]
            empty += 0 in counts and max(counts) > 0
        assert tied > 100 and empty > 100

        # one block the size of a 1e6-sample batch in groups of 128
        rows = coarse_losses(rng, (7813, 128))
        rows[::7] = 0.0
        rows[1::7] += 0.25
        c = rng.uniform(0, 256, size=7813)
        c[1::7] = 0.0
        results = assert_rows_match_reference(rows, c)
        assert cut_inside_ties(rows, results) > 1000
        assert sum(r.selected_count == 0 for r in results) >= 1116

        # rows past the bisection window, whose count T is bisected before the window is compared:
        # coarse ties at the cut, all-zero rows, integral C, and C at 0 and at 2m
        tied = inside = 0
        for _ in range(40):
            g, m = int(rng.integers(1, 5)), int(rng.integers(_WINDOW + 1, 4000))
            rows = coarse_losses(rng, (g, m)) * rng.choice([1.0, 0.25, 4.0], size=(g, 1))
            rows[rng.random(g) < 0.2] = 0.0
            c = rng.integers(0, 2 * m + 1, size=g) * rng.choice([1.0, 0.5, 0.37], size=g)
            c[rng.random(g) < 0.2] = 0.0
            c[rng.random(g) < 0.2] = 2.0 * m
            results = assert_rows_match_reference(rows, c)
            tied += cut_inside_ties(rows, results)
            inside += sum(_WINDOW < r.selected_count < m - _WINDOW for r in results)
        assert tied > 40 and inside > 25

        # every count of a long row: a row of ones selects T = floor((C + 1) / 2) at integral C, so the
        # C in [0, 2m] put the cut at each position, L_T meets its bound at odd C, and all of T ties
        for m in (_WINDOW + 1, 2 * _WINDOW, 2 * _WINDOW + 1, 1000):
            results = assert_rows_match_reference(np.ones((2 * m + 1, m)), np.arange(2.0 * m + 1))
            assert [r.selected_count for r in results] == [(c + 1) // 2 for c in range(2 * m + 1)]

        # one 1e5-sample row, cut at C = 0, 2m, an integer and a fraction
        m = 100_000
        rows = np.repeat(rough_losses(rng, m)[None], 4, axis=0)
        results = assert_rows_match_reference(rows, np.array([0.0, 2.0 * m, 60_000.0, 71_234.56]))
        assert results[0].selected_count < _WINDOW and results[1].selected_count == m
        assert all(_WINDOW < r.selected_count < m - _WINDOW for r in results[2:])

    def test_partial_optimize_is_the_one_row_case(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            l, c = rough_losses(rng, n), float(rng.uniform(0, 2 * n))
            r = partial_optimize(l, c)
            mask, t, objective, prefix, loss_sum = reference_select(l, c)
            assert (r.selected_count, r.objective, r.selected_loss_sum) == (t, objective, loss_sum)
            assert np.array_equal(r.mask, mask) and np.array_equal(r.prefix_sums, prefix)

    @pytest.mark.parametrize("mode", [ThresholdMode.full_q(), ThresholdMode.full_e(),
                                      ThresholdMode.npcl_fixed(0.37), ThresholdMode.npcl_adaptive(0.37)],
                             ids=str)
    def test_vector_thresholds_equal_scalar_ones(self, mode):
        n = np.repeat(np.arange(1, 60), 3)
        k = np.random.default_rng(19).integers(0, n + 1)
        vector = _thresholds(mode, n, k)
        assert vector.tolist() == [compute_threshold(mode, a, b) for a, b in zip(n.tolist(), k.tolist())]


class TestSignedZero:
    def test_single_negative_zero(self):
        r = partial_optimize([-0.0], 0.0)
        assert r.mask.tolist() == [True] and r.selected_count == 1
        assert r.prefix_sums.tobytes() == np.zeros(1).tobytes()
        assert not np.signbit(r.selected_loss_sum)

    def test_ties_among_signed_zeros_go_to_the_lowest_indices(self):
        r = partial_optimize([-0.0, 0.0, -0.0, 1.0], 1.0)
        assert r.mask.tolist() == [True, True, False, False]
        assert not np.signbit(r.prefix_sums).any()

    def test_mixed_zeros_match_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            g, m = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            rows = coarse_losses(rng, (g, m))
            rows[rng.random((g, m)) < 0.4] = 0.0
            rows[(rows == 0.0) & (rng.random((g, m)) < 0.5)] = -0.0
            c = rng.integers(0, 2 * m + 1, size=g) * rng.choice([1.0, 0.5], size=g)
            for row, ci, r in zip(rows, c, _select_rows(rows, c), strict=True):
                single = partial_optimize(row, ci)
                mask, t, objective, prefix, loss_sum = reference_select(row, float(ci))
                for got in (r, single):
                    assert (got.selected_count, got.objective, got.selected_loss_sum) == (t, objective, loss_sum)
                    assert np.array_equal(got.mask, mask)
                    # equal as numbers; the reference's leading -0.0 entries read +0.0 here
                    assert np.array_equal(got.prefix_sums, prefix)
                    assert not np.signbit(got.prefix_sums).any() and not np.signbit(got.selected_loss_sum)


class TestPartialOptimize:
    def test_example_three_smallest(self):
        r = partial_optimize([0.1, 0.2, 0.5, 2.0], 3.0)
        assert r.selected_count == 3
        assert np.array_equal(r.mask, [True, True, True, False])
        assert r.objective == pytest.approx(0.8)

    def test_example_all_zero_losses(self):
        r = partial_optimize([0.0, 0.0, 0.0], 3.0)
        assert r.mask.all()
        assert r.objective == 0.0

    def test_example_none_selected(self):
        r = partial_optimize([0.5, 0.5], 0.0)
        assert not r.mask.any()
        assert r.objective == 0.0
        assert r.selected_count == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            partial_optimize([-0.1, 0.2], 1.0)
        with pytest.raises(ValueError):
            partial_optimize([np.nan, 0.2], 1.0)
        with pytest.raises(ValueError):
            partial_optimize([0.1, 0.2], -0.5)
        with pytest.raises(ValueError):
            partial_optimize([0.1, 0.2], 4.5)  # C > 2n
        with pytest.raises(ValueError):
            partial_optimize([], 0.0)

    @pytest.mark.parametrize("losses", [["0.1", "0.2"], [b"0.1", b"0.2"], np.array([0.1, 0.2], dtype=object),
                                        np.array([0.1 + 0j, 0.2]), [0.1, None]], ids=repr)
    def test_losses_must_be_real_numbers(self, losses):
        # a cast to float64 parsed the strings and dropped imaginary parts
        with pytest.raises(ValueError, match="^losses must be real numbers, got dtype "):
            partial_optimize(losses, 1.0)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.int64, np.float32, np.float64])
    def test_real_dtypes_read_as_float64(self, dtype):
        r = partial_optimize(np.array([1, 0, 1], dtype=dtype), 2.0)
        expected = partial_optimize([1.0, 0.0, 1.0], 2.0)
        assert r.prefix_sums.dtype == np.float64
        np.testing.assert_array_equal(r.prefix_sums, expected.prefix_sums)
        np.testing.assert_array_equal(r.mask, expected.mask)

    def test_mask_is_prefix_of_sorted_order(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            l = dyadic_losses(rng, n)
            c = float(rng.uniform(0, 2 * n))
            r = partial_optimize(l, c)
            order = np.argsort(l, kind="stable")
            in_sorted = r.mask[order]
            assert in_sorted[: r.selected_count].all()
            assert not in_sorted[r.selected_count :].any()

    def test_optimum_identities(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            l = dyadic_losses(rng, n)
            c = float(rng.uniform(0, 2 * n))
            assert optimum_identities_hold(partial_optimize(l, c), c)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            l = dyadic_losses(rng, n)
            cs = np.sort(rng.uniform(0, 2 * n, size=5))
            counts = [partial_optimize(l, c).selected_count for c in cs]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_deterministic_under_ties(self):
        l = [0.5, 0.5, 0.5, 0.5, 0.0, 0.0]
        a = partial_optimize(l, 3.0)
        b = partial_optimize(l, 3.0)
        assert np.array_equal(a.mask, b.mask)
        # stable sort admits earlier-index duplicates first
        assert a.mask[4] and a.mask[5]


class TestBruteForce:
    def test_examples(self):
        assert brute_force_optimize([0.1, 0.2, 0.5, 2.0], 3.0).objective == pytest.approx(0.8)
        r = brute_force_optimize([0.1, 0.2, 0.5, 2.0], 2.0)
        assert r.objective == pytest.approx(0.3)
        assert r.selected_count == 2
        r0 = brute_force_optimize([3.0, 1.0, 0.2], 0.0)
        assert r0.objective == 0.0 and not r0.mask.any()

    def test_ties_across_chunks_keep_the_smallest_code(self):
        # every mask scores 0 at C = 0; n = 17 enumerates two chunks of 2^16 masks
        assert not brute_force_optimize(np.zeros(17), 0.0).mask.any()

    def test_capacity_limit(self):
        with pytest.raises(ValueError, match="limited to n <= 20, got n=21"):
            brute_force_optimize(np.zeros(21), 1.0)

    def test_full_capacity_matches_partial_optimize(self):
        losses = dyadic_losses(np.random.default_rng(20), 20)
        assert brute_force_optimize(losses, 8.0).objective == partial_optimize(losses, 8.0).objective

    def test_matches_partial_optimize(self):
        start = time.perf_counter()
        [optimal, _] = check_selector(np.random.default_rng(42), 1000)
        assert optimal.ok, optimal.detail
        assert time.perf_counter() - start < 5.0


class TestThresholds:
    def test_full_q(self):
        assert compute_threshold(ThresholdMode.full_q(), 4, 1) == 5.0

    def test_full_e(self):
        assert compute_threshold(ThresholdMode.full_e(), 4, 1) == 4.0

    def test_npcl_fixed(self):
        assert compute_threshold(ThresholdMode.npcl_fixed(0.2), 128, 0) == pytest.approx(102.4)

    def test_npcl_adaptive(self):
        c = compute_threshold(ThresholdMode.npcl_adaptive(0.2), 128, 30)
        assert c == pytest.approx(0.64 * 128 + 0.8 * 30)

    def test_range_always_valid(self):
        rng = np.random.default_rng(9)
        modes = [
            ThresholdMode.full_q(),
            ThresholdMode.full_e(),
            ThresholdMode.npcl_fixed(0.37),
            ThresholdMode.npcl_adaptive(0.37),
        ]
        for _ in range(200):
            n = int(rng.integers(1, 200))
            k = int(rng.integers(0, n + 1))
            for mode in modes:
                c = compute_threshold(mode, n, k)
                assert 0.0 <= c <= 2.0 * n

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown threshold mode 'x'$"):
            ThresholdMode("x")

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            ThresholdMode.npcl_fixed(1.0)
        with pytest.raises(ValueError):
            ThresholdMode.npcl_adaptive(-0.2)

    @pytest.mark.parametrize("kind", ["npcl-fixed", "npcl-adaptive"])
    @pytest.mark.parametrize("epsilon", ["0.1", True, None])
    def test_epsilon_must_be_a_real_number(self, kind, epsilon):
        message = f"epsilon must be a real number, got {epsilon!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ThresholdMode(kind, epsilon)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ThresholdMode.npcl_fixed(epsilon)  # the constructors take numbers only, as the class does

    def test_epsilon_is_stored_as_a_float(self):
        for epsilon in (0, np.float32(0.25), np.int64(0)):
            mode = ThresholdMode("npcl-adaptive", epsilon)
            assert type(mode.epsilon) is float and mode.epsilon == epsilon
        assert str(ThresholdMode.npcl_fixed(0)) == "npcl-fixed:0.0"

    @pytest.mark.parametrize("kind", ["full-q", "full-e"])
    def test_full_modes_reject_a_prior(self, kind):
        message = f"^epsilon must be 0 for {kind}, got 0.3; only npcl modes take a prior$"
        with pytest.raises(ValueError, match=message):
            ThresholdMode(kind, 0.3)
        assert ThresholdMode(kind, 0.0) == ThresholdMode(kind)

    def test_misclassified_bounds(self):
        with pytest.raises(ValueError):
            compute_threshold(ThresholdMode.full_q(), 4, 5)
        with pytest.raises(ValueError):
            compute_threshold(ThresholdMode.full_q(), 4, -1)
        with pytest.raises(ValueError, match="^group size must be >= 1$"):
            compute_threshold(ThresholdMode.full_q(), 0, 0)

    @pytest.mark.parametrize("n, k, message", [
        (5, 2.5, "misclassified_count must be an integer, got 2.5"),
        (5.9, 2, "n must be an integer, got 5.9"),
        (float("nan"), 2, "n must be an integer, got nan"),
        (5, float("inf"), "misclassified_count must be an integer, got inf"),
        ("5", True, "n must be an integer, got '5'"),
        (5, True, "misclassified_count must be an integer, got True"),
        (5, np.True_, "misclassified_count must be an integer, got np.True_"),
        (np.int64(5), "1", "misclassified_count must be an integer, got '1'"),
        # a type test, not a parse: an integral float is no count
        (7.0, 2.0, "n must be an integer, got 7.0"),
        (np.float64(7.0), 2, "n must be an integer, got np.float64(7.0)"),
    ])
    def test_non_integral_counts_name_the_argument(self, n, k, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compute_threshold(ThresholdMode.full_q(), n, k)

    def test_integral_counts_of_any_type(self):
        mode = ThresholdMode.npcl_adaptive(0.3)
        expected = compute_threshold(mode, 7, 2)
        assert compute_threshold(mode, np.int32(7), np.int64(2)) == expected
