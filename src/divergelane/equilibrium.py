"""Equilibrium computation for the diverge lane-choice model.

The equilibrium is computed through the closed-form best response of an
auxiliary two-player game: player ``i`` picks its bifurcating share in
``[0, q_i]`` to minimize the squared gap between its two lane costs.  Its
best response is the interior root of the (linear-in-own-share) cost gap,
clipped to the action interval, and the equilibrium is the fixed point of
the two best responses composed.  A damped Gauss-Seidel iteration finds it;
an exhaustive grid scan over both bifurcating shares serves as a slow,
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CostCoefficients,
    DemandConfig,
    DivergeInstance,
    FlowDistribution,
    WardropResiduals,
    _check_link,
    cost_gap,
    wardrop_residuals,
)


class BoundaryBranchError(ValueError):
    """The best response is pinned at a boundary, so the interior slope
    formula does not apply (the slope is 0 there)."""


@dataclass(frozen=True)
class AuxiliaryAction:
    """Action pair of the auxiliary game: one bifurcating share per player."""

    y1: float
    y2: float

    def __post_init__(self) -> None:
        if self.y1 < 0 or self.y2 < 0:
            raise ValueError(f"actions must be non-negative, got ({self.y1}, {self.y2})")

    def action(self, link: int) -> float:
        _check_link(link)
        return self.y1 if link == 1 else self.y2


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 10_000
    convergence_tol: float = 1e-12
    damping: float = 0.5

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError(
                f"convergence_tol must be finite and > 0, got {self.convergence_tol!r}"
            )
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping!r}")


@dataclass(frozen=True)
class EquilibriumReport:
    flow: FlowDistribution
    iterations: int
    residuals: WardropResiduals
    converged: bool


def best_response(c: CostCoefficients, q_i: float, x_j_b: float, link: int) -> float:
    """Bifurcating share of ``link`` that equalizes its two lane costs.

    Solves ``cf*(q_i - x) = cb*(lambda*x + mu*x_j_b) + nu*x*x_j_b`` for the
    own share ``x`` and clips to ``[0, q_i]``; the clipped branches are the
    all-bifurcating and all-feed-through regimes where one lane dominates
    over the whole interval.
    """
    _check_link(link)
    if q_i < 0:
        raise ValueError(f"q_i must be non-negative, got {q_i!r}")
    if x_j_b < 0:
        raise ValueError(f"x_j_b must be non-negative, got {x_j_b!r}")
    cf = c.feed_rate(link)
    numerator = cf * q_i - c.cb * c.cross_factor(link) * x_j_b
    denominator = cf + c.cb * c.same_factor(link) + c.nu * x_j_b
    return min(max(numerator / denominator, 0.0), q_i)


def best_response_slope(c: CostCoefficients, q_i: float, x_j_b: float, link: int) -> float:
    """Derivative of the best response with respect to the other share.

    Only defined on the interior branch (best response strictly inside
    ``(0, q_i)``); at a boundary the response is locally constant and a
    :class:`BoundaryBranchError` is raised instead of returning 0.
    """
    _check_link(link)
    cf = c.feed_rate(link)
    denominator = cf + c.cb * c.same_factor(link) + c.nu * x_j_b
    root = (cf * q_i - c.cb * c.cross_factor(link) * x_j_b) / denominator
    if root <= 0.0 or root >= q_i:
        raise BoundaryBranchError(
            f"best response for link {link} at x_j_b={x_j_b!r} is at a boundary "
            f"(root {root!r} outside (0, {q_i!r})); slope is 0 there"
        )
    return -(c.cb * c.cross_factor(link) + c.nu * root) / denominator


def nash_player_cost(
    c: CostCoefficients, q: DemandConfig, y: AuxiliaryAction, link: int
) -> float:
    """Squared lane-cost gap of one auxiliary-game player at action pair ``y``."""
    _check_link(link)
    for l in (1, 2):
        if y.action(l) > q.share(l) + 1e-12:
            raise ValueError(
                f"action y{l} = {y.action(l)!r} exceeds demand share q{l} = {q.share(l)!r}"
            )
    flow = FlowDistribution(
        xf1=max(q.q1 - y.y1, 0.0),
        xb1=y.y1,
        xf2=max(q.q2 - y.y2, 0.0),
        xb2=y.y2,
    )
    cf = c.feed_rate(link)
    other = 3 - link
    gap = cf * flow.feed_share(link) - (
        c.cb
        * (
            c.same_factor(link) * flow.bifurcating_share(link)
            + c.cross_factor(link) * flow.bifurcating_share(other)
        )
        + c.nu * flow.bifurcating_share(link) * flow.bifurcating_share(other)
    )
    return gap * gap


def solve_fixed_point(
    g: DivergeInstance,
    opts: SolverOptions | None = None,
    initial: tuple[float, float] | None = None,
) -> EquilibriumReport:
    """Find the equilibrium by damped alternating best responses.

    Starting from half the demand shares (or the optional warm start),
    each sweep updates ``y_i <- (1 - damping) * y_i + damping * B_i(y_j)``
    in Gauss-Seidel order.  The iteration stops once the sweep update is
    below ``convergence_tol`` *and* the resulting split certifies as an
    equilibrium at that tolerance; running out of iterations returns a
    report with ``converged=False`` and the final residuals rather than a
    silent wrong answer.
    """
    if opts is None:
        opts = SolverOptions()
    c = g.costs
    q1, q2 = g.demand.q1, g.demand.q2
    d = opts.damping
    tol = opts.convergence_tol
    if initial is None:
        y1, y2 = q1 / 2.0, q2 / 2.0
    else:
        y1, y2 = initial
        if not (0.0 <= y1 <= q1 and 0.0 <= y2 <= q2):
            raise ValueError(f"initial actions {initial!r} outside [0, q_i]")
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        y1_new = (1.0 - d) * y1 + d * best_response(c, q1, y2, 1)
        y2_new = (1.0 - d) * y2 + d * best_response(c, q2, y1_new, 2)
        delta = max(abs(y1_new - y1), abs(y2_new - y2))
        y1, y2 = y1_new, y2_new
        if delta <= tol:
            flow = FlowDistribution(max(q1 - y1, 0.0), y1, max(q2 - y2, 0.0), y2)
            residuals = wardrop_residuals(g, flow)
            if residuals.max_residual <= tol:
                return EquilibriumReport(flow, iterations, residuals, converged=True)
    flow = FlowDistribution(max(q1 - y1, 0.0), y1, max(q2 - y2, 0.0), y2)
    residuals = wardrop_residuals(g, flow)
    return EquilibriumReport(flow, iterations, residuals, converged=False)


def _grid_axis(q: float, resolution: float) -> np.ndarray:
    """Grid over [0, q] with the given step; always contains 0 and q."""
    if q <= 0.0:
        return np.array([0.0])
    steps = int(np.floor(q / resolution + 1e-12))
    points = np.minimum(np.arange(steps + 1, dtype=float) * resolution, q)
    if q - points[-1] > 1e-15:
        points = np.append(points, q)
    return points


def violation_magnitude(g: DivergeInstance, x: FlowDistribution) -> float:
    """Total equilibrium violation of ``x``: for each populated class, the
    positive part of the cost advantage it is forgoing.

    Zero exactly at equilibria.  Unlike the share-weighted residual
    products, this measure stays sharp when a class's share is small, which
    is what lets the grid oracle localize equilibria to grid precision.
    """
    total = 0.0
    for link in (1, 2):
        gap = cost_gap(g.costs, x, link)
        if x.feed_share(link) > 0.0:
            total += max(gap, 0.0)
        if x.bifurcating_share(link) > 0.0:
            total += max(-gap, 0.0)
    return total


def solve_grid_oracle(g: DivergeInstance, resolution: float) -> FlowDistribution:
    """Exhaustive-scan equilibrium oracle, independent of the solver.

    Scans ``(xb1, xb2)`` over the full action grid and returns the cell
    minimizing :func:`violation_magnitude` (the summed clamped-positive
    cost disadvantages of the populated classes), breaking ties toward the
    lexicographically smallest pair.  Slow but shares no logic with the
    fixed-point iteration beyond the cost model.
    """
    if not resolution > 0:
        raise ValueError(f"resolution must be > 0, got {resolution!r}")
    c = g.costs
    q1, q2 = g.demand.q1, g.demand.q2
    axis1 = _grid_axis(q1, resolution)
    axis2 = _grid_axis(q2, resolution)
    xb1 = axis1[:, None]
    xb2 = axis2[None, :]
    xf1 = q1 - xb1
    xf2 = q2 - xb2
    gap1 = c.cf1 * xf1 - (c.cb * (c.lambda1 * xb1 + c.mu1 * xb2) + c.nu * xb1 * xb2)
    gap2 = c.cf2 * xf2 - (c.cb * (c.lambda2 * xb2 + c.mu2 * xb1) + c.nu * xb2 * xb1)
    objective = (
        np.where(xf1 > 0.0, np.maximum(gap1, 0.0), 0.0)
        + np.where(xb1 > 0.0, np.maximum(-gap1, 0.0), 0.0)
        + np.where(xf2 > 0.0, np.maximum(gap2, 0.0), 0.0)
        + np.where(xb2 > 0.0, np.maximum(-gap2, 0.0), 0.0)
    )
    # argmin scans xb1-major then xb2, so the first minimum is the
    # lexicographically smallest tie.
    i, j = np.unravel_index(int(np.argmin(objective)), objective.shape)
    b1 = float(axis1[i])
    b2 = float(axis2[j])
    return FlowDistribution(max(q1 - b1, 0.0), b1, max(q2 - b2, 0.0), b2)
