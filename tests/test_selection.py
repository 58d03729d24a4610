"""Selection kernel: exactness against brute force and structural identities."""

import time

import numpy as np
import pytest

from npcl.selection import (
    ThresholdMode,
    brute_force_optimize,
    compute_threshold,
    partial_optimize,
)


def dyadic_losses(rng, n, high=4.0):
    # multiples of 2^-10 keep every subset sum exact in float64, so the
    # sorted-prefix route and the enumeration route agree bit for bit
    return rng.integers(0, int(high * 1024) + 1, size=n) / 1024.0


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
        # L_T <= C+1-T; if T < n: L_{T+1} > C-T
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            l = dyadic_losses(rng, n)
            c = float(rng.uniform(0, 2 * n))
            r = partial_optimize(l, c)
            t = r.selected_count
            l_t = r.prefix_sums[t - 1] if t > 0 else 0.0
            assert l_t <= c + 1.0 - t
            if t < n:
                assert r.prefix_sums[t] > c - t
            assert r.objective == max(l_t, c - t)

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

    def test_capacity_limit(self):
        with pytest.raises(ValueError):
            brute_force_optimize(np.zeros(21), 1.0)

    def test_matches_partial_optimize(self):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            l = dyadic_losses(rng, n)
            c = float(rng.uniform(0, 2 * n))
            fast = partial_optimize(l, c)
            exact = brute_force_optimize(l, c)
            assert fast.objective == exact.objective
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

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            ThresholdMode.npcl_fixed(1.0)
        with pytest.raises(ValueError):
            ThresholdMode.npcl_adaptive(-0.2)

    def test_misclassified_bounds(self):
        with pytest.raises(ValueError):
            compute_threshold(ThresholdMode.full_q(), 4, 5)
        with pytest.raises(ValueError):
            compute_threshold(ThresholdMode.full_q(), 4, -1)
