"""Worst-case reweighted risk: closed form, solver agreement, monotonicity."""

import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from npcl import adversarial
from npcl.adversarial import (
    AdvRiskSpec,
    adversarial_risk_numeric,
    check_monotonicity,
    empirical_adversarial_risk,
    project_chi_square_ball,
)
from npcl.verification import check_risk_order, check_solver_agreement


def random_loss_vector(rng, n, k=None):
    if k is None:
        k = int(rng.integers(0, n + 1))
    l = np.zeros(n)
    l[rng.choice(n, size=k, replace=False)] = 1.0
    return l


class TestClosedForm:
    def test_zero_budget_equals_plain_risk(self):
        l = np.array([1.0, 0.0, 0.0, 1.0])
        assert empirical_adversarial_risk(l, AdvRiskSpec(0.0)) == 0.5

    def test_quarter_risk_example(self):
        l = np.array([1.0, 0.0, 0.0, 0.0])
        value = empirical_adversarial_risk(l, AdvRiskSpec(0.1))
        assert value == pytest.approx(0.25 + np.sqrt(0.1 * 0.25 * 0.75), abs=1e-12)

    def test_all_ones_capped_at_one(self):
        l = np.ones(6)
        for delta in (0.0, 0.3, 5.0):
            assert empirical_adversarial_risk(l, AdvRiskSpec(delta)) == 1.0

    def test_all_zeros(self):
        assert empirical_adversarial_risk(np.zeros(5), AdvRiskSpec(1.0)) == 0.0
        assert empirical_adversarial_risk(np.array([-0.0, 0.0]), AdvRiskSpec(1.0)) == 0.0  # -0.0 is a zero

    def test_bounds_and_monotone_in_delta(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            l = random_loss_vector(rng, int(rng.integers(2, 40)))
            plain = l.mean()
            values = [
                empirical_adversarial_risk(l, AdvRiskSpec(d)) for d in (0.0, 0.05, 0.2, 1.0, 4.0)
            ]
            assert values[0] == pytest.approx(plain)
            for v in values:
                assert plain <= v <= 1.0
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_saturation_threshold(self):
        # the cap binds exactly when plain risk reaches 1/(1+delta)
        l = np.array([1.0] * 5 + [0.0] * 5)  # p = 0.5
        assert empirical_adversarial_risk(l, AdvRiskSpec(1.0)) == 1.0
        assert empirical_adversarial_risk(l, AdvRiskSpec(0.999)) < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="losses must be 0/1 valued"):
            empirical_adversarial_risk(np.array([0.5]), AdvRiskSpec(0.1))
        with pytest.raises(ValueError, match=re.escape("losses01 must be a non-empty 1-D vector, got shape (2, 2)")):
            empirical_adversarial_risk(np.array([[0.0, 1.0], [1.0, 1.0]]), AdvRiskSpec(0.1))
        for delta in (-0.1, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                AdvRiskSpec(delta)

    @pytest.mark.parametrize("delta", ["0.5", True, False, np.bool_(True), None, [0.5]],
                             ids=["str", "true", "false", "np-bool", "none", "list"])
    def test_budget_must_be_a_number(self, delta):
        # a type test, not a parse, as for the selection counts
        with pytest.raises(ValueError, match=re.escape(f"finite and nonnegative, got {delta!r}")):
            AdvRiskSpec(delta)

    @pytest.mark.parametrize("delta", [0, 2, 0.5, np.int64(1), np.float64(0.25), np.float32(0.5)])
    def test_numeric_budgets_accepted(self, delta):
        assert AdvRiskSpec(delta).delta == delta

    def test_returns_a_python_float(self):
        # below saturation, at the cap, and at delta = 0
        for l, delta in (([1.0, 0.0, 0.0, 0.0], 0.1), ([1.0, 1.0, 0.0], 5.0), ([1.0, 0.0], 0.0), ([0.0], 1.0)):
            assert type(empirical_adversarial_risk(np.array(l), AdvRiskSpec(delta))) is float
            assert type(adversarial_risk_numeric(np.array(l), AdvRiskSpec(delta))) is float

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 0.5, 2.0], ids=["nan", "inf", "minus-one", "half", "two"])
    def test_zero_one_check(self, bad):
        l = np.array([1.0, 0.0, bad])
        with pytest.raises(ValueError, match="losses must be 0/1 valued"):
            empirical_adversarial_risk(l, AdvRiskSpec(0.1))
        with pytest.raises(ValueError, match="losses must be 0/1 valued"):
            adversarial_risk_numeric(l, AdvRiskSpec(0.1))


class TestProjection:
    def test_feasibility(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            w = rng.normal(1.0, 2.0, size=n)
            delta = float(rng.uniform(0.01, 2.0))
            r = project_chi_square_ball(w, delta)
            assert r.mean() == pytest.approx(1.0, abs=1e-9)
            assert np.all(r >= -1e-12)
            assert np.mean((r - 1.0) ** 2) <= delta + 1e-9

    def test_interior_point_fixed(self):
        r = project_chi_square_ball(np.ones(4), 0.5)
        np.testing.assert_allclose(r, np.ones(4), atol=1e-12)

    def test_zero_budget_returns_uniform(self):
        np.testing.assert_array_equal(project_chi_square_ball(np.array([3.0, -1.0]), 0.0), [1.0, 1.0])

    def test_budget_below_rounding_returns_uniform(self):
        # 1 + 1e-17 rounds to 1, so no support has budget left
        np.testing.assert_array_equal(project_chi_square_ball(np.array([3.0, -1.0, 0.5]), 1e-17), np.ones(3))

    @pytest.mark.parametrize("w, delta, message", [
        ([3.0, -1.0, 0.5], float("nan"), "delta must be nonnegative, got nan"),
        ([3.0, -1.0, 0.5], -0.5, "delta must be nonnegative, got -0.5"),
        ([3.0, float("nan"), 0.5], 0.5, "entries of w contain non-finite values"),
        ([3.0, float("inf"), 0.5], 0.5, "entries of w contain non-finite values"),
        ([3.0, float("-inf"), 0.5], 0.5, "entries of w contain non-finite values"),
        ([3.0, float("nan"), 0.5], 1e-17, "entries of w contain non-finite values"),  # before the no-room exit
        ([], 0.5, "w must be a non-empty 1-D vector, got shape (0,)"),
        ([[3.0, -1.0], [0.5, 2.0]], 0.5, "w must be a non-empty 1-D vector, got shape (2, 2)"),
        (2.0, 0.5, "w must be a non-empty 1-D vector, got shape ()"),
    ], ids=["nan-delta", "negative-delta", "nan-w", "inf-w", "minus-inf-w", "nan-w-no-room", "empty-w",
            "2-d-w", "scalar-w"])
    def test_rejects_non_finite_input(self, w, delta, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            project_chi_square_ball(np.array(w), delta)


def bisection_projection(w, delta):
    """Slow reference: bisect the quadratic constraint's multiplier ``lam``.

    For fixed ``lam`` the projection is ``max(0, (w + lam - mu) / (1 + lam))``
    with ``mu`` from the sorted-prefix cut that makes the mean 1.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    v = np.sort(w)[::-1]
    k = np.arange(1, n + 1)

    def r_of(lam):
        mu = (np.cumsum(v) + k * lam - n * (1.0 + lam)) / k
        j = np.flatnonzero(v + lam - mu > 0)[-1]
        return np.maximum(0.0, (w + lam - mu[j]) / (1.0 + lam))

    def excess(lam):
        return np.mean((r_of(lam) - 1.0) ** 2) - delta

    if excess(0.0) <= 0:
        return r_of(0.0)
    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        lo, hi = hi, 4.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return r_of(hi)


def assert_matches_bisection(w, delta):
    r = project_chi_square_ball(w, delta)
    scale = max(1.0, float(np.max(np.abs(w))))
    np.testing.assert_allclose(r, bisection_projection(w, delta), rtol=0, atol=1e-12 * scale)
    return r


class TestExactProjection:
    def test_matches_bisection_on_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            w = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10), size=n)
            assert_matches_bisection(w, float(rng.uniform(0.001, 3.0)))

    def test_matches_bisection_on_solver_iterates(self):
        # the numeric solver projects r + step * l: two-level inputs with
        # many ties, steps growing to 1e8
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            l = random_loss_vector(rng, n, int(rng.integers(1, n)))
            delta = float(rng.uniform(0.01, 2.0))
            r = np.ones(n)
            for step in 4.0 ** np.arange(14):
                r = assert_matches_bisection(r + min(step, 1e8) * l, delta)
                assert r.mean() == pytest.approx(1.0, abs=1e-12)

    def test_kkt_form(self):
        # r = max(0, s * (w - theta)) with 0 < s <= 1, and a tight quadratic
        # constraint whenever s < 1
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            w = rng.normal(0.0, rng.uniform(0.1, 5.0), size=n)
            delta = float(rng.uniform(0.01, 1.5))
            r = project_chi_square_ball(w, delta)
            active = np.flatnonzero(r > 0)
            assert active.size >= 2  # one active sample alone would cost n - 1 > delta
            i, j = active[np.argmax(w[active])], active[np.argmin(w[active])]
            s = (r[i] - r[j]) / (w[i] - w[j])
            theta = w[i] - r[i] / s
            assert 0.0 < s <= 1.0 + 1e-9
            np.testing.assert_allclose(r, np.maximum(0.0, s * (w - theta)), atol=1e-9)
            assert r.mean() == pytest.approx(1.0, abs=1e-12)
            if s < 1.0 - 1e-9:
                assert np.mean((r - 1.0) ** 2) == pytest.approx(delta, abs=1e-9)

    def test_single_sample(self):
        np.testing.assert_array_equal(project_chi_square_ball(np.array([-7.0]), 0.3), [1.0])

    def test_interior_point_returned_as_is(self):
        w = np.array([0.8, 1.1, 1.3, 0.8])
        np.testing.assert_allclose(project_chi_square_ball(w, 0.5), w, atol=1e-15)

    def test_all_equal_inputs(self):
        np.testing.assert_allclose(project_chi_square_ball(np.full(7, -3.5), 0.4), np.ones(7), atol=1e-15)

    def test_large_budget_needs_no_multiplier(self):
        # delta = 5 admits the plain simplex cut [4, 0, 0, 0], whose mean((r - 1)^2) is 3
        w = np.array([10.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(project_chi_square_ball(w, 5.0), [4.0, 0.0, 0.0, 0.0], atol=1e-15)
        r = assert_matches_bisection(w, 2.0)
        assert np.mean((r - 1.0) ** 2) == pytest.approx(2.0, abs=1e-12)


class TestSolverAgreement:
    def test_matches_closed_form(self):
        [agreement] = check_solver_agreement(np.random.default_rng(4), 60)
        assert agreement.ok, agreement.detail

    def test_saturated_solver_stays_at_one(self):
        # a worst-case risk above 1 would need mean(r) > 1; the projection
        # holds the mean even at the solver's 1e8 steps
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(10, 60))
            l = random_loss_vector(rng, n, int(rng.integers(n // 2, n)))
            spec = AdvRiskSpec(float(rng.uniform(n / l.sum() - 1.0, 2.0)))
            assert empirical_adversarial_risk(l, spec) == 1.0
            assert adversarial_risk_numeric(l, spec) == pytest.approx(1.0, abs=1e-12)

    def test_budget_below_rounding(self):
        l = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        spec = AdvRiskSpec(1e-17)
        assert adversarial_risk_numeric(l, spec) == 0.4
        assert adversarial_risk_numeric(l, spec) == pytest.approx(empirical_adversarial_risk(l, spec), abs=1e-6)


# 14 growing steps capped at 1e8, then 6 at the cap: short steps as well as the solver's 1e8
SOLVER_STEPS = [min(4.0**i, 1e8) for i in range(14)] + [1e8] * 6


class TestProjectionBits:
    """Outputs pinned before the slice rewrite of the consistency scan."""

    def test_seeded_inputs(self):
        rng = np.random.default_rng(31)
        h = hashlib.sha256()
        for _ in range(300):
            n = int(rng.integers(1, 60))
            w = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10), size=n)
            h.update(project_chi_square_ball(w, float(rng.uniform(0.001, 3.0))).tobytes())
        assert h.hexdigest() == "971229b52639d83cf5cd567f8310492d2be94fd5bc032367b20368cb77bb6be7"

    def test_solver_iterates(self):
        # every step of the schedule, fixed points included
        rng = np.random.default_rng(32)
        h = hashlib.sha256()
        for _ in range(40):
            n = int(rng.integers(2, 60))
            l = random_loss_vector(rng, n, int(rng.integers(1, n)))
            delta = float(rng.uniform(0.01, 2.0))
            r = np.ones(n)
            for step in SOLVER_STEPS:
                r = project_chi_square_ball(r + step * l, delta)
                h.update(r.tobytes())
        assert h.hexdigest() == "68609d8ff813f52b7772f39419800deb7214fce2d45dcf3c396f4d7b4d925827"


def criterion7_instances():
    """Criterion 7's 500 solver instances, drawn as ``check_solver_agreement`` draws them at seed 11."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        l = random_loss_vector(rng, int(rng.integers(2, 60)))
        yield l, AdvRiskSpec(float(rng.uniform(0.0, 2.0)))


class TestFixedPointStop:
    def test_matches_closed_form_to_rounding(self):
        for l, spec in criterion7_instances():
            assert adversarial_risk_numeric(l, spec) == pytest.approx(
                empirical_adversarial_risk(l, spec), abs=1e-12
            )

    def test_projection_calls(self, monkeypatch):
        calls = []

        def counting(w, delta):
            calls.append(None)
            return project_chi_square_ball(w, delta)

        monkeypatch.setattr(adversarial, "project_chi_square_ball", counting)
        counts = []
        for l, spec in criterion7_instances():
            calls.clear()
            adversarial_risk_numeric(l, spec)
            counts.append(len(calls))
        # the first projection lands on the maximizer up to rounding; the second repeats it
        # (every saturated instance stops there) or settles its last bits, and the third repeats it
        assert max(counts) <= 3
        # trivial instances (all-0, all-1 or delta = 0) make none; the rest stop on a repeat
        assert Counter(counts) == {0: 47, 2: 223, 3: 230}


class TestMonotonicity:
    def test_ordered_pair(self):
        n = 20
        a = np.zeros(n)
        a[:2] = 1.0  # plain risk 0.1
        b = np.zeros(n)
        b[:6] = 1.0  # plain risk 0.3
        spec = AdvRiskSpec(0.05)
        ra = empirical_adversarial_risk(a, spec)
        rb = empirical_adversarial_risk(b, spec)
        assert ra < rb
        report = check_monotonicity([a, b], spec)
        assert not report.violations
        assert report.pairs_checked == 2

    def test_identical_vectors_equal_risks(self):
        v = np.array([1.0, 0.0, 1.0, 0.0])
        spec = AdvRiskSpec(0.3)
        report = check_monotonicity([v, v.copy()], spec)
        assert not report.violations
        assert empirical_adversarial_risk(v, spec) == empirical_adversarial_risk(v.copy(), spec)

    def test_saturated_branch(self):
        # saturation fills the whole upper interval of plain risks: once a
        # saturates and b's plain risk is at least a's, b saturates too
        n = 10
        a = np.zeros(n)
        a[:6] = 1.0
        b = np.zeros(n)
        b[:8] = 1.0
        spec = AdvRiskSpec(1.0)  # saturation at p >= 0.5
        assert empirical_adversarial_risk(a, spec) == 1.0
        assert empirical_adversarial_risk(b, spec) == 1.0
        report = check_monotonicity([a, b], spec)
        assert not report.violations

    def test_many_vectors_check_all_ordered_pairs(self):
        rng = np.random.default_rng(9)
        vectors = [random_loss_vector(rng, 12) for _ in range(6)]
        report = check_monotonicity(vectors, AdvRiskSpec(0.5))
        assert not report.violations
        assert report.pairs_checked == 30

    def test_random_pairs_violation_free(self):
        [order] = check_risk_order(np.random.default_rng(6), 100)
        assert order.ok, order.detail

    def test_validation(self):
        shape = "each loss vector must be a non-empty 1-D vector, got shape "
        for vectors, message in [
            ([[1.0, 0.0], [[1.0, 0.0]]], shape + "(1, 2)"),  # 2-D
            ([[1.0, 0.0], 1.0], shape + "()"),  # scalar
            ([[], []], shape + "(0,)"),
            ([[1.0, 0.0], [1.0, 0.5]], "losses must be 0/1 valued"),
            ([[1.0, np.nan], [1.0, 0.0]], "losses must be 0/1 valued"),
            ([[1.0, 0.0]], "need at least two loss vectors"),
            ([], "need at least two loss vectors"),
            ([[1.0], [1.0, 0.0]], "loss vectors must have equal length"),
            ([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0, 0.0, 1.0]], "loss vectors must have equal length"),
            ([[1.0, 0.5], [[1.0, 0.0]]], shape + "(1, 2)"),  # every shape before any value
            ([[1.0], [1.0, 0.5]], "losses must be 0/1 valued"),  # values before lengths
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                check_monotonicity([np.array(v) for v in vectors], AdvRiskSpec(0.1))

    @pytest.mark.parametrize("closed_form", [
        None,
        lambda p, delta: 1.0 - p,  # reverses the order: unsaturated-side violations
        lambda p, delta: 1.0 if p < 0.5 else p,  # saturates low risks: saturated-side violations
    ], ids=["closed-form", "reversed", "saturates-low"])
    def test_equals_a_per_pair_loop(self, monkeypatch, closed_form):
        # the counts of one pass over all vectors give what the closed form gives on each
        # vector; the broken forms check that both report the same violations, in order
        if closed_form is not None:
            monkeypatch.setattr(adversarial, "_worst_case", closed_form)
        rng, seen = np.random.default_rng(27), 0
        for case in range(1000):
            m, n = int(rng.integers(2, 7)), int(rng.integers(1, 61))
            delta = (0.0, 0.01, 0.1, 1.0, float(rng.uniform(0.0, 3.0)))[case % 5]
            spec = AdvRiskSpec(delta)
            vectors = [random_loss_vector(rng, n) for _ in range(m)]
            plain = [float(v.sum()) / n for v in vectors]
            adv = [empirical_adversarial_risk(v, spec) for v in vectors]
            pairs, violations = 0, []
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    pairs += 1
                    if adv[i] < 1.0:
                        if (plain[i] < plain[j]) != (adv[i] < adv[j]):
                            violations.append((i, j, plain[i], plain[j], adv[i], adv[j]))
                    elif plain[i] <= plain[j] and adv[j] != 1.0:
                        violations.append((i, j, plain[i], plain[j], adv[i], adv[j]))
            report = check_monotonicity(vectors, spec)
            assert report.pairs_checked == pairs == m * (m - 1)
            assert report.violations == violations
            seen += len(violations)
        assert (seen > 0) == (closed_form is not None)
