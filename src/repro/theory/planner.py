"""Algorithm 3 — principled hyperparameter selection for ASCS.

Given the problem model (``p``, ``alpha``, ``u``, ``sigma``, ``T``, sketch
shape) and risk budgets ``delta`` / ``delta*``, the planner produces:

* ``T0`` — the shortest exploration period for which the Theorem-1 bound on
  missing a signal at the first sampling step is at most ``delta``;
* ``theta`` — the steepest threshold slope for which the Theorem-2 bound on
  filtering a signal *during* sampling is at most ``delta* - delta``.

Section 8.1 defaults are wired into :func:`plan_hyperparameters`:
``delta = max(1.01 * SP, 0.05)``, ``delta* = delta + 0.15``,
``tau(T0) = 1e-4`` for correlation streams.  When the bounds saturate
(``SP`` close to 1 — the trillion-scale regime where every bucket holds
signals), the planner falls back to a fixed exploration fraction and a
conservative slope, mirroring what any practical deployment must do; the
fallback is flagged on the returned plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.theory.bounds import (
    ProblemModel,
    saturation_probability,
    theorem1_miss_probability,
    theorem2_escape_probabilities,
    theorem2_escape_probability,
)

__all__ = ["ASCSPlan", "find_exploration_length", "find_threshold_slope", "plan_hyperparameters"]

#: Minimum exploration length for the CLT assumption (the paper's gamma).
DEFAULT_GAMMA = 30

#: Exploration fraction used when the Theorem-1 bound saturates.
FALLBACK_EXPLORATION_FRACTION = 0.1

#: Slope fraction of ``u`` used when the Theorem-2 bound saturates.
FALLBACK_THETA_FRACTION = 0.5


@dataclass(frozen=True)
class ASCSPlan:
    """Resolved ASCS hyperparameters plus provenance.

    Attributes
    ----------
    exploration_length:
        ``T0`` — samples inserted unconditionally before sampling starts.
    tau0:
        Initial sampling threshold ``tau(T0)``.
    theta:
        Threshold slope; ``tau(t) = tau0 + theta (t - T0) / T``.
    delta / delta_star:
        Risk budgets actually used (after the saturation adjustment).
    saturation:
        The model's saturation probability ``1 - p0^K``.
    used_fallback:
        True when the closed-form bounds were vacuous and heuristic
        defaults were substituted.
    """

    exploration_length: int
    tau0: float
    theta: float
    delta: float
    delta_star: float
    saturation: float
    used_fallback: bool

    def threshold_at(self, t: int, total: int) -> float:
        """The sampling threshold ``tau(t)`` for stream position ``t``."""
        if t < self.exploration_length:
            return 0.0
        return self.tau0 + self.theta * (t - self.exploration_length) / total


def find_exploration_length(
    model: ProblemModel,
    tau0: float,
    delta: float,
    *,
    gamma: int = DEFAULT_GAMMA,
) -> int | None:
    """Binary search the minimum ``T0`` with Theorem-1 bound ``<= delta``.

    Returns ``None`` when even ``T0 = T`` cannot satisfy the budget (the
    bound saturates above ``delta``).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    lo, hi = max(1, int(gamma)), int(model.T)
    if lo > hi:
        lo = hi
    # The Theorem-1 bound decreases in T0 (longer exploration, better
    # estimates), so a binary search for the crossing point is valid.
    if theorem1_miss_probability(model, hi, tau0) > delta:
        return None
    if theorem1_miss_probability(model, lo, tau0) <= delta:
        return lo
    while lo < hi:
        mid = (lo + hi) // 2
        if theorem1_miss_probability(model, mid, tau0) <= delta:
            hi = mid
        else:
            lo = mid + 1
    return lo


def find_threshold_slope(
    model: ProblemModel,
    t0: int,
    tau0: float,
    budget: float,
    *,
    grid: int = 4096,
) -> float | None:
    """Largest ``theta`` in ``(0, u)`` with Theorem-2 bound ``<= budget``.

    The bound is not provably monotone in ``theta`` across all regimes, so
    the search scans a dense grid (robust) and refines the winning cell by
    bisection against the feasibility predicate.
    """
    if budget <= 0.0:
        return None
    thetas = np.linspace(0.0, model.u, grid, endpoint=False)[1:]
    feasible = theorem2_escape_probabilities(model, t0, tau0, thetas) <= budget
    if not feasible.any():
        return None
    best = float(thetas[np.nonzero(feasible)[0][-1]])
    # Refine within the grid cell above the last feasible point.
    lo, hi = best, min(best + model.u / grid, model.u * (1 - 1e-12))
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if theorem2_escape_probability(model, t0, tau0, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def plan_hyperparameters(
    model: ProblemModel,
    *,
    tau0: float = 1e-4,
    delta: float | None = None,
    delta_star: float | None = None,
    gamma: int = DEFAULT_GAMMA,
) -> ASCSPlan:
    """Run Algorithm 3 with the section-8.1 defaults.

    Parameters
    ----------
    model:
        Problem parameters (see :class:`repro.theory.ProblemModel`).
    tau0:
        Initial sampling threshold; the paper uses ``1e-4`` for correlation
        matrices and a low percentile of the explored estimates for
        covariance matrices.
    delta:
        Probability budget for missing a signal at ``T0``.  Default:
        ``max(1.01 * SP, 0.05)`` capped at 0.5.
    delta_star:
        Total miss budget.  Default ``delta + 0.15``.
    gamma:
        CLT floor for ``T0``.
    """
    sp = saturation_probability(model)
    if delta is None:
        delta = min(max(1.01 * sp, 0.05), 0.5)
    if delta_star is None:
        delta_star = min(delta + 0.15, 0.95)
    if not delta < delta_star:
        raise ValueError(f"need delta < delta_star, got {delta} >= {delta_star}")

    used_fallback = False
    t0 = find_exploration_length(model, tau0, delta, gamma=gamma)
    if t0 is None or t0 >= model.T:
        t0 = max(int(gamma), int(FALLBACK_EXPLORATION_FRACTION * model.T))
        t0 = min(t0, model.T - 1) if model.T > 1 else model.T
        used_fallback = True

    theta = find_threshold_slope(model, t0, tau0, delta_star - delta)
    if theta is None:
        theta = FALLBACK_THETA_FRACTION * model.u
        used_fallback = True

    return ASCSPlan(
        exploration_length=int(t0),
        tau0=float(tau0),
        theta=float(theta),
        delta=float(delta),
        delta_star=float(delta_star),
        saturation=float(sp),
        used_fallback=used_fallback,
    )
