"""Property checks behind ``npcl verify`` and acceptance criteria 1-7.

Each check draws ``count`` instances from the generator it is given and
returns ``CheckResult`` rows.  The acceptance tests call the checks at the
criteria's seeds and counts; ``npcl verify`` calls them at the smaller
counts in ``SUITES``, with a generator seeded from ``--seed`` per suite.
The properties: the O(n log n) selection kernel is exactly optimal and its
optimum satisfies the prefix-sum identities; the objectives interleave as
0-1 total <= whole-set <= partitioned <= plain sum, zero-prior
noise-pruned modes equal the full modes, and a prior eps prunes eps*n
samples of a late-training batch; analytic loss gradients match central
differences away from kinks; the closed-form worst-case risk
matches the projected-ascent solver and keeps the plain-risk order.

Criterion 6's finite differences live here too: ``grad_check`` runs the
training step's cores of ``npcl.net`` and compares their gradient with
central differences of the loss.

Exact checks draw from a dyadic grid (multiples of 2^-10), which keeps
every partial sum exactly representable in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_instance
from .adversarial import (
    AdvRiskSpec,
    adversarial_risk_numeric,
    check_monotonicity,
    empirical_adversarial_risk,
)
from .losses import BaseLoss, _as_batch, _loss_pass, multiclass_margin
from .net import MlpParams, Workspace, _backprop, _check_features, _forward_cached, forward
from .objectives import BatchPartition, MarginBatch, batched_objective, curriculum_objective
from .selection import ThresholdMode, brute_force_optimize, partial_optimize

__all__ = ["CheckResult", "SUITES", "run_suites", "optimum_identities_hold", "check_selector",
           "check_bound_chains", "check_zero_prior_reductions", "check_pruning_counts", "grad_check",
           "check_gradients", "check_solver_agreement", "check_risk_order"]

KINK_GAP = 1e-3  # distance from a loss kink within which check_gradients redraws a net
GRAD_CHECK_STEP = 1e-5  # central-difference step of ``grad_check``


@dataclass
class CheckResult:
    """One checked property; ``value`` is its failure count or worst error."""

    suite: str
    name: str
    ok: bool
    value: float
    detail: str


def _dyadic(rng, low, high, n):
    return rng.integers(int(low * 1024), int(high * 1024) + 1, size=n) / 1024.0


def _losses01(rng, n):
    losses = np.zeros(n)
    losses[rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)] = 1.0
    return losses


def optimum_identities_hold(result, c):
    """The kernel's cut at threshold ``c``: ``L_T <= C + 1 - T``, ``L_{T+1} > C - T`` unless
    T = n, and the objective is ``max(L_T, C - T)``.  ``L_{T+1} > L_T`` is not implied: a zero
    next loss adds nothing.
    """
    t, prefix = result.selected_count, result.prefix_sums
    l_t = prefix[t - 1] if t > 0 else 0.0
    return bool(l_t <= c + 1.0 - t and (t == prefix.size or prefix[t] > c - t)
                and result.objective == max(l_t, c - t))


def check_selector(rng, count):
    """Kernel optimality and optimum identities on ``count`` instances, n in [1, 12]."""
    mismatches = violations = 0
    for _ in range(count):
        n = int(rng.integers(1, 13))
        losses = _dyadic(rng, 0.0, 4.0, n)
        c = float(rng.uniform(0, 2 * n))
        result = partial_optimize(losses, c)
        mismatches += result.objective != brute_force_optimize(losses, c).objective
        violations += not optimum_identities_hold(result, c)
    return [
        CheckResult("selector", "sort-kernel matches brute force", mismatches == 0, mismatches,
                    f"{count - mismatches}/{count} instances"),
        CheckResult("selector", "optimum prefix-sum identities", violations == 0, violations,
                    f"{count - violations}/{count} instances"),
    ]


def check_bound_chains(rng, count):
    """Exact bound chains on ``count`` batches of 64 margins, groups of 4, 8 or 16."""
    failures = 0
    for _ in range(count):
        batch = MarginBatch.from_margins(_dyadic(rng, -3.0, 3.0, 64))
        m = int(rng.choice([4, 8, 16]))
        perm = rng.permutation(64)
        part = BatchPartition([perm[i : i + m] for i in range(0, 64, m)])
        j, j_hat = batch.zero_one_total, batch.loss_total
        q, _ = curriculum_objective(batch, ThresholdMode.full_q())
        q_hat, _ = batched_objective(batch, part, ThresholdMode.full_q())
        e, _ = curriculum_objective(batch, ThresholdMode.full_e())
        e_hat, _ = batched_objective(batch, part, ThresholdMode.full_e())
        failures += not (j <= q <= q_hat <= j_hat and j <= 2 * e <= 2 * e_hat <= 2 * j_hat and e <= q)
    return [CheckResult("bounds", "bound chains interleave", failures == 0, failures,
                        f"{count - failures}/{count} batches")]


def check_zero_prior_reductions(rng, count):
    """Zero-prior noise-pruned modes equal the full modes on ``count`` batches, n in [1, 79]."""
    failures = 0
    for _ in range(count):
        n = int(rng.integers(1, 80))
        batch = MarginBatch.from_margins(_dyadic(rng, -3.0, 3.0, n))
        e, _ = curriculum_objective(batch, ThresholdMode.full_e())
        vf, _ = curriculum_objective(batch, ThresholdMode.npcl_fixed(0.0))
        q, _ = curriculum_objective(batch, ThresholdMode.full_q())
        va, _ = curriculum_objective(batch, ThresholdMode.npcl_adaptive(0.0))
        failures += vf != e or va != q
    return [CheckResult("bounds", "zero-prior modes reduce to full modes", failures == 0, failures,
                        f"{count - failures}/{count} batches")]


def check_pruning_counts(rng, count):
    """Samples ``npcl_fixed(0.25)`` prunes from ``count`` batches of 64 late-training losses:
    mostly zero, four small (so the kept prefix stays well under 1), the rest large.  It prunes
    eps*n, or one fewer when the (1-eps)n + 1 smallest losses sum to zero; both cases must occur.
    """
    eps, n = 0.25, 64
    target = int(eps * n)
    keep = n - target
    failures, seen = 0, set()
    for _ in range(count):
        zeros = int(rng.integers(keep - 2, keep + 3))
        losses = np.concatenate([np.zeros(zeros), rng.integers(1, 20, size=4) / 1024.0,
                                 rng.integers(2048, 5120, size=n - zeros - 4) / 1024.0])
        rng.shuffle(losses)
        _, result = curriculum_objective(MarginBatch.from_margins(1.0 - losses), ThresholdMode.npcl_fixed(eps))
        expected = target if np.sort(losses)[: keep + 1].sum() != 0.0 else target - 1
        seen.add(expected)
        failures += n - result.selected_count != expected
    return [CheckResult("bounds", "pruned count obeys the boundary rule",
                        failures == 0 and seen == {target, target - 1}, failures,
                        f"{count - failures}/{count} batches, {len(seen)} of 2 branches seen")]


def _near_kink(logits, labels):
    """A margin within ``KINK_GAP`` of 0 or 1, or a sample's top two rival scores within it."""
    u = multiclass_margin(logits, labels)
    rivals = logits.copy()
    rivals[np.arange(labels.size), labels] = -np.inf
    top = np.sort(rivals, axis=1)[:, -2:]
    return bool(np.any(np.abs(u) < KINK_GAP) or np.any(np.abs(u - 1.0) < KINK_GAP)
                or np.any(top[:, 1] - top[:, 0] < KINK_GAP))


def grad_check(params: MlpParams, features, labels, kind: BaseLoss):
    """Worst relative error of the training step's gradient vs central differences.

    The analytic gradient of the mean loss comes from the cores the training
    loop runs, with every sample selected.  Meaningful away from the hinge
    kinks and rival-score ties; the differences step by ``GRAD_CHECK_STEP``
    and the error is normalized by max(1, |analytic|, |numeric|).
    """
    x = _check_features(params, features)
    check_instance(kind, BaseLoss, "kind")
    probe = MlpParams(params.weights, params.biases)
    theta = probe.flat
    ws = Workspace(probe, x.shape[0])
    t, y = _as_batch(_forward_cached(probe, x, ws), labels)
    analytic = np.empty_like(theta)
    delta = _loss_pass(t, y, kind, gradients=True)[2] * (1.0 / x.shape[0])
    _backprop(probe, ws, delta, *probe.views(analytic))

    def loss_at():
        return float(np.mean(_loss_pass(_forward_cached(probe, x, ws), y, kind, gradients=False)[1]))

    worst = 0.0
    for i, original in enumerate(theta.copy()):
        theta[i] += GRAD_CHECK_STEP
        up = loss_at()
        theta[i] -= 2 * GRAD_CHECK_STEP
        down = loss_at()
        theta[i] = original
        numeric = (up - down) / (2 * GRAD_CHECK_STEP)
        scale = max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / scale)
    return worst


def check_gradients(rng, count):
    """Finite differences on ``count`` [3, 6, 4] nets x 3 losses; nets near a kink are redrawn."""
    kinds = [BaseLoss.hinge(), BaseLoss.soft(), BaseLoss.weighted(0.5)]
    worst = 0.0
    nets = 0
    while nets < count:
        params = MlpParams.init([3, 6, 4], seed=int(rng.integers(0, 2**31)))
        x = rng.normal(0.0, 2.0, size=(3, 3))
        y = rng.integers(0, 4, size=3)
        if _near_kink(forward(params, x), y):
            continue
        worst = max(worst, *(grad_check(params, x, y, kind) for kind in kinds))
        nets += 1
    return [CheckResult("gradients", "backprop matches finite differences", worst < 1e-5, worst,
                        f"max relative error {worst:.2e}")]


def check_solver_agreement(rng, count):
    """Closed-form worst-case risk vs the numeric solver on ``count`` 0/1 vectors, n in [2, 59]."""
    worst = 0.0
    for _ in range(count):
        losses = _losses01(rng, int(rng.integers(2, 60)))
        spec = AdvRiskSpec(float(rng.uniform(0.0, 2.0)))
        worst = max(
            worst,
            abs(empirical_adversarial_risk(losses, spec) - adversarial_risk_numeric(losses, spec)),
        )
    return [CheckResult("adversarial", "closed form matches solver", worst < 1e-6, worst,
                        f"max disagreement {worst:.2e}")]


def check_risk_order(rng, count):
    """Plain/worst-case risk order on ``count`` pairs per budget 0.01, 0.1, 1, n in [2, 39]."""
    violations = 0
    for delta in (0.01, 0.1, 1.0):
        spec = AdvRiskSpec(delta)
        for _ in range(count):
            n = int(rng.integers(2, 40))
            pair = [_losses01(rng, n), _losses01(rng, n)]
            violations += len(check_monotonicity(pair, spec).violations)
    return [CheckResult("adversarial", "risk order preserved", violations == 0, violations,
                        f"{violations} violations on {count} pairs x 3 budgets")]


# the checks behind each ``npcl verify`` suite, at counts that finish in seconds
SUITES = {
    "selector": [(check_selector, 300)],
    "bounds": [(check_bound_chains, 300), (check_zero_prior_reductions, 100), (check_pruning_counts, 100)],
    "gradients": [(check_gradients, 10)],
    "adversarial": [(check_solver_agreement, 60), (check_risk_order, 60)],
}


def run_suites(names=None, seed=0):
    """Run the named suites (all by default), each from its own ``default_rng(seed)``."""
    results = []
    for name in names or SUITES:
        rng = np.random.default_rng(seed)
        for check, count in SUITES[name]:
            results.extend(check(rng, count))
    return results
