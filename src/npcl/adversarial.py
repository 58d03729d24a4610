"""Worst-case reweighted 0-1 risk under a chi-square divergence budget.

For 0/1 per-sample losses with mean ``p`` and budget ``delta``, the
worst case over weights ``r`` with ``mean(r) = 1``, ``r >= 0`` and
``mean((r - 1)^2) <= delta`` is

    min(1, p + sqrt(delta * p * (1 - p)))

Derivation sketch: averaging the weights within the loss-1 group and
within the loss-0 group preserves the objective and the mean constraint
and (by convexity) only loosens the quadratic one, so a two-level weight
vector is optimal.  With ``a`` on the k loss-1 samples, the mean
constraint fixes the other level, the quadratic constraint reduces to
``(a - 1)^2 p / (1 - p) <= delta``, and the objective ``p * a`` is
maximized at the boundary, capped where the loss-0 weights hit zero.
The cap binds exactly when ``p >= 1 / (1 + delta)``, where the risk
saturates at 1.

``adversarial_risk_numeric`` ignores all of that and maximizes over the
full n-dimensional weight set by projected gradient ascent.  Its
Euclidean projection onto the weight set is exact: the KKT point
``max(0, s * (w - theta))`` has a closed form for each top-k support of
the sorted ``w``, and one scan over the prefix sums of ``w`` and ``w^2``
finds the consistent k, as in the l1-ball projection of Duchi et al.
(ICML 2008).  The ascent takes one fixed step, ``STEP * l``, and stops at
its first fixed point: when projecting ``r + STEP * l`` returns ``r`` bit
for bit, ``STEP * l`` lies in the normal cone of the weight set at ``r``,
which is exactly the condition for ``r`` to maximize the linear objective,
so every later step would repeat it.  The step is long enough that the
first projection lands on the maximizer up to rounding: a saturated
instance stops on its second projection, any other by its third.  The two
routes validate each other; the closed form is what the fast API returns.

Each risk entry makes one count pass per loss vector: its count of
entries equal to 1 must equal its count of nonzero entries, and that count
``k`` gives ``p = k / n``, the bits of ``mean(l)``, as 0/1 sums are exact.
``check_monotonicity`` makes that pass once over all its vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_finite, check_float_vector, check_instance, check_real, is_real

__all__ = [
    "AdvRiskSpec",
    "empirical_adversarial_risk",
    "adversarial_risk_numeric",
    "project_chi_square_ball",
    "check_monotonicity",
    "MonotonicityReport",
]

STEP = 1e8  # one step reaches the boundary; longer ones cost the projection precision


@dataclass(frozen=True)
class AdvRiskSpec:
    delta: float  # chi-square divergence budget

    def __post_init__(self):
        if not (is_real(self.delta) and self.delta >= 0 and np.isfinite(self.delta)):
            raise ValueError(f"divergence budget must be finite and nonnegative, got {self.delta!r}")


def _count_ones(l):
    """The number of ones in ``l``; ``ValueError`` if an entry is neither 0 nor 1 (NaN counts as nonzero)."""
    ones = int(np.count_nonzero(l == 1.0))
    if ones != np.count_nonzero(l):
        raise ValueError("losses must be 0/1 valued")
    return ones


def _worst_case(p, delta):
    return min(1.0, p + math.sqrt(delta * p * (1.0 - p)))


def empirical_adversarial_risk(losses01, spec: AdvRiskSpec):
    """Closed-form worst-case risk as a float; equals the plain risk at delta = 0."""
    l = check_float_vector(losses01, "losses01")
    check_instance(spec, AdvRiskSpec, "spec")
    return _worst_case(_count_ones(l) / l.size, spec.delta)  # a 0/1 sum is exact, so this is float(l.sum()) / n


def project_chi_square_ball(w, delta):
    """Euclidean projection onto {r : mean(r)=1, r>=0, mean((r-1)^2) <= delta}.

    KKT: with multiplier ``lam >= 0`` on the quadratic constraint, the
    projection is ``r = max(0, s * (w - theta))`` with ``s = 1 / (1 + lam)``
    in (0, 1].  Its support is the top k of the sorted ``w``.  For that set,
    ``sum(r) = n`` gives ``theta = mean_k - n / (k * s)``, and a tight
    quadratic constraint gives ``s^2 * S_k = n * (1 + delta) - n^2 / k``,
    with ``mean_k`` and ``S_k`` the mean and scatter of the top k.  Where
    that ``s`` exceeds 1 the constraint is slack and ``s = 1`` (``lam = 0``).
    Every k is scored in one vectorised pass from prefix sums, and the k
    whose cut is consistent, ``w_(k) > theta >= w_(k+1)``, is the exact
    projection.  Under rounding the least inconsistent k is taken.
    A ``delta`` that is not a real number, a negative or NaN one, a ``w``
    that is not a non-empty 1-D vector and a non-finite entry of ``w``
    raise ``ValueError``.
    """
    w = check_float_vector(w, "w")
    n = w.size
    if not check_real(delta, "delta") >= 0:  # NaN fails this too
        raise ValueError(f"delta must be nonnegative, got {delta}")
    top = check_finite(w, "entries of w")[1]

    k = np.arange(1, n + 1)
    # equal weights on k samples already spend n^2 / k - n of the budget
    budget = n * (1.0 + delta) - n * n / k
    # budget rises with k, so the supports with room left are the k from `first` on
    first = int(budget.searchsorted(0.0, side="right"))
    if first == n:
        return np.ones(n)  # no room left: delta is 0, or so small that 1 + delta rounds to 1
    # a shift of w leaves the projection unchanged (sum(r) is fixed); moving
    # the maximum to 0 limits cancellation in the prefix sums of squares
    u = w - top
    v = np.sort(u)[::-1]
    mean = np.add.accumulate(v) / k
    scatter = np.maximum(np.add.accumulate(v * v) - k * mean * mean, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(np.minimum(1.0, budget[first:] / scatter[first:]))
        theta = mean[first:] - n / (k[first:] * s)
    inconsistency = theta - v[first:]
    np.maximum(inconsistency[:-1], v[first + 1 :] - theta[:-1], out=inconsistency[:-1])
    j = int(inconsistency.argmin())
    return np.maximum(0.0, s[j] * (u - theta[j]))


def adversarial_risk_numeric(losses01, spec: AdvRiskSpec):
    """Worst-case risk by projected gradient ascent over the weight set.

    Fixed steps ``STEP * l`` from ``r = 1``, each projected back onto the
    set, until the first ``r`` that the next projection returns unchanged:
    that fixed point is the optimality condition (see the module docstring).
    Three projections reach it on every instance tried; 20 bound it.
    Returns the largest ``sum(r * l) / n`` over the iterates (the bits of
    ``np.mean``).
    """
    l = check_float_vector(losses01, "losses01")
    check_instance(spec, AdvRiskSpec, "spec")
    n, ones = l.size, _count_ones(l)
    if spec.delta == 0.0 or ones in (0, n):
        return ones / n

    r = np.ones(n)
    best = ones / n
    for _ in range(20):
        ascended = project_chi_square_ball(r + STEP * l, spec.delta)
        if (ascended == r).all():
            break  # STEP * l lies in the normal cone at r, so r is a maximizer
        r = ascended
        best = max(best, float((r * l).sum()) / n)
    return best


@dataclass
class MonotonicityReport:
    """Outcome of the pairwise order check between plain and worst-case risk."""

    pairs_checked: int
    violations: list = field(default_factory=list)


def check_monotonicity(loss_vectors, spec: AdvRiskSpec):
    """Verify the plain/worst-case order relationship over all ordered pairs.

    Unsaturated side: when the worst-case risk of ``a`` is below 1, the
    plain risks and worst-case risks of ``a`` and ``b`` must be ordered the
    same way.  Saturated side: when ``a`` saturates at 1 and its plain risk
    is not above ``b``'s, then ``b`` must saturate too.  (Only this forward
    implication is generally valid: saturation covers the whole upper
    interval of plain risks, so two saturated models can differ in plain
    risk.)  Each vector's shape is checked first; then one pass over all of
    them checks the 0/1 values and one more counts each vector's ones.
    """
    vectors = [check_float_vector(v, "each loss vector") for v in loss_vectors]
    check_instance(spec, AdvRiskSpec, "spec")
    m = len(vectors)
    if m < 2:
        raise ValueError("need at least two loss vectors")
    flat = np.concatenate(vectors)
    _count_ones(flat)
    if len({v.size for v in vectors}) != 1:
        raise ValueError("loss vectors must have equal length")
    n = vectors[0].size
    # past the 0/1 check a row sum is the exact count of ones, so p has the bits of float(v.sum()) / n
    plain = [ones / n for ones in flat.reshape(m, n).sum(axis=1).tolist()]
    adv = [_worst_case(p, spec.delta) for p in plain]
    report = MonotonicityReport(pairs_checked=m * (m - 1))
    for i, j in itertools.permutations(range(m), 2):
        if ((plain[i] < plain[j]) != (adv[i] < adv[j])) if adv[i] < 1.0 else (plain[i] <= plain[j] and adv[j] != 1.0):
            report.violations.append((i, j, plain[i], plain[j], adv[i], adv[j]))
    return report
