"""The property checks of ``npcl.verification`` against broken kernels: every failing instance
is counted and named in the detail, every tolerance is strict, and each check draws the
instances, ranges and counts it states."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from npcl import verification
from npcl.objectives import curriculum_objective
from npcl.selection import partial_optimize
from npcl.verification import (
    KINK_GAP,
    _dyadic,
    _losses01,
    _near_kink,
    check_bound_chains,
    check_gradients,
    check_pruning_counts,
    check_risk_order,
    check_selector,
    check_solver_agreement,
    check_zero_prior_reductions,
    optimum_identities_hold,
)

COUNT = 40


def rows(results):
    return [(r.ok, r.value, r.detail) for r in results]


class TestEveryFailureCounted:
    """A kernel broken on every instance: each check reports all ``count`` of them as failures."""

    def test_selector(self, monkeypatch):
        monkeypatch.setattr(verification, "brute_force_optimize", lambda losses, c: SimpleNamespace(objective=-1.0))
        monkeypatch.setattr(verification, "optimum_identities_hold", lambda result, c: False)
        assert rows(check_selector(np.random.default_rng(0), COUNT)) == [(False, COUNT, f"0/{COUNT} instances")] * 2

    def test_bound_chains(self, monkeypatch):
        monkeypatch.setattr(verification, "batched_objective", lambda batch, partition, mode: (-1.0, None))
        assert rows(check_bound_chains(np.random.default_rng(0), COUNT)) == [(False, COUNT, f"0/{COUNT} batches")]

    def test_zero_prior_reductions(self, monkeypatch):
        def pruned_modes_one_higher(batch, mode):
            value, result = curriculum_objective(batch, mode)
            return value + (mode.kind in ("npcl-fixed", "npcl-adaptive")), result

        monkeypatch.setattr(verification, "curriculum_objective", pruned_modes_one_higher)
        assert rows(check_zero_prior_reductions(np.random.default_rng(0), COUNT)) == [
            (False, COUNT, f"0/{COUNT} batches")]

    def test_pruning_counts(self, monkeypatch):
        def prune_one_fewer(batch, mode):
            value, result = curriculum_objective(batch, mode)
            return value, SimpleNamespace(selected_count=result.selected_count + 1)

        monkeypatch.setattr(verification, "curriculum_objective", prune_one_fewer)
        assert rows(check_pruning_counts(np.random.default_rng(0), COUNT)) == [
            (False, COUNT, f"0/{COUNT} batches, 2 of 2 branches seen")]

    def test_risk_order(self, monkeypatch):
        monkeypatch.setattr(verification, "check_monotonicity", lambda pair, spec: SimpleNamespace(violations=[0, 0]))
        assert rows(check_risk_order(np.random.default_rng(0), COUNT)) == [
            (False, 6 * COUNT, f"{6 * COUNT} violations on {COUNT} pairs x 3 budgets")]


class TestTolerancesAreStrict:
    """An error exactly at a check's tolerance fails it; a bound met with equality holds."""

    def test_identities_hold_with_the_cut_at_its_bound(self):
        result = partial_optimize(np.array([1.0]), 1.0)  # L_1 = 1 = C + 1 - T
        assert result.selected_count == 1 and optimum_identities_hold(result, 1.0)

    @pytest.mark.parametrize("loss, c, count, objective", [
        (1.0, 1.0, 0, 1.0),  # one fewer: L_{T+1} = 1 = C - T, and the objective still reads max(L_T, C - T)
        (2.0, 0.5, 1, 2.0),  # one more: L_T = 2 > C + 1 - T = 0.5
    ], ids=["next-loss-at-bound", "cut-past-bound"])
    def test_identities_fail_just_past_their_bounds(self, loss, c, count, objective):
        result = partial_optimize(np.array([loss]), c)
        assert not optimum_identities_hold(dataclasses.replace(result, selected_count=count, objective=objective), c)

    def test_gradients(self, monkeypatch):
        monkeypatch.setattr(verification, "grad_check", lambda params, x, y, kind: 1e-5)
        assert rows(check_gradients(np.random.default_rng(0), 2)) == [(False, 1e-5, "max relative error 1.00e-05")]

    def test_solver_agreement(self, monkeypatch):
        monkeypatch.setattr(verification, "empirical_adversarial_risk", lambda losses, spec: 1e-6)
        monkeypatch.setattr(verification, "adversarial_risk_numeric", lambda losses, spec: 0.0)
        assert rows(check_solver_agreement(np.random.default_rng(0), 3)) == [
            (False, 1e-6, "max disagreement 1.00e-06")]

    def test_bound_chains_hold_with_equality(self, monkeypatch):
        # margins beyond the hinge: J, Q, E, their partitioned forms and the hinge total are all 0
        monkeypatch.setattr(verification, "_dyadic", lambda rng, low, high, n: np.full(n, 2.0))
        assert rows(check_bound_chains(np.random.default_rng(0), 3)) == [(True, 0, "3/3 batches")]

    @pytest.mark.parametrize("logits, near", [
        ([[KINK_GAP, 0.0, -5.0]], False),  # margin exactly KINK_GAP from 0
        ([[0.5 * KINK_GAP, 0.0, -5.0]], True),
        ([[1.0 + 0.5 * KINK_GAP, 0.0, -5.0]], True),  # margin within KINK_GAP of the hinge kink at 1
        ([[5.0, KINK_GAP, 0.0]], False),  # top two rival scores exactly KINK_GAP apart
        ([[5.0, 0.5 * KINK_GAP, 0.0]], True),
    ], ids=["margin-at-gap", "margin-inside", "margin-near-one", "rivals-at-gap", "rivals-inside"])
    def test_kink_gap(self, logits, near):
        assert _near_kink(np.array(logits), np.array([0])) is near


class TestInstanceRanges:
    def test_gradients_check_three_losses_on_each_of_count_nets(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verification, "grad_check", lambda params, x, y, kind: calls.append(kind) or 0.0)
        assert rows(check_gradients(np.random.default_rng(0), 4)) == [(True, 0.0, "max relative error 0.00e+00")]
        assert len(calls) == 3 * 4

    def test_selector_thresholds_span_zero_to_two_n(self, monkeypatch):
        ratios = []

        def recording(losses, c):
            ratios.append(c / losses.size)
            return partial_optimize(losses, c)

        monkeypatch.setattr(verification, "partial_optimize", recording)
        check_selector(np.random.default_rng(0), 200)
        assert min(ratios) < 0.1 and max(ratios) > 1.9

    def test_dyadic_grid_spans_both_ends(self):
        x = _dyadic(np.random.default_rng(0), -3.0, 3.0, 20000)
        assert x.min() == -3.0 and x.max() == 3.0
        assert np.all(x * 1024 == np.round(x * 1024)) and np.any(x != np.round(x))

    def test_zero_one_losses_take_every_count(self):
        rng = np.random.default_rng(0)
        assert {int(_losses01(rng, 3).sum()) for _ in range(200)} == {0, 1, 2, 3}
