"""Equilibrium computation for the diverge lane-choice model.

Each bifurcating share enters its own link's cost gap linearly, so the
equilibria have a closed form.  At an equilibrium each populated link
keeps all its traffic on its feed lane or balances its two lanes, so
:func:`solve_equilibria` enumerates four candidate splits for a whole array
of demands at once: one link on its feed lane and the other at its best
response, or both shares at a root of the interior gap equations, which
reduce to a line and a quadratic.  It certifies each candidate with the
residual products and returns the best-certified one with the number of
distinct equilibria.

The paper's method is kept as an independent cross-check: the best
response of an auxiliary two-player game (player ``i`` picks its
bifurcating share in ``[0, q_i]`` to minimize the squared gap between its
two lane costs) is the interior root of the gap clipped to the action
interval, and :func:`solve_fixed_point` iterates the two best responses,
damped, to their fixed point.  An exhaustive grid scan over both
bifurcating shares serves as a slow oracle.
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
    cost_gaps,
    max_residual,
    wardrop_residuals,
)

#: Candidates closer than this in both shares count as one equilibrium.
DISTINCT_TOL = 1e-9

#: Weight of the best response in each step of :func:`solve_fixed_point`.
DAMPING = 0.5


class BoundaryBranchError(ValueError):
    """The best response is pinned at a boundary, so the interior slope
    formula does not apply (the slope is 0 there)."""


@dataclass(frozen=True)
class AuxiliaryAction:
    """Action pair of the auxiliary game: one bifurcating share per player."""

    y1: float
    y2: float

    def __post_init__(self) -> None:
        if not (0 <= self.y1 < math.inf and 0 <= self.y2 < math.inf):
            raise ValueError(f"actions must be finite and non-negative, got {self.y1, self.y2}")


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 10_000
    convergence_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError(
                f"convergence_tol must be finite and > 0, got {self.convergence_tol!r}"
            )


@dataclass(frozen=True)
class EquilibriumReport:
    flow: FlowDistribution
    iterations: int
    residuals: WardropResiduals
    converged: bool


def _gap_root(c: CostCoefficients, q_i, x_j_b, link: int):
    """Own share that zeroes ``link``'s cost gap, unclipped, and the gap's
    slope magnitude in that share (floats or arrays).

    Solves ``cf*(q_i - x) = cb*(lambda*x + mu*x_j_b) + nu*x*x_j_b`` for the
    own share ``x``.
    """
    cf = c.feed_rate(link)
    denominator = cf + c.cb * c.same_factor(link) + c.nu * x_j_b
    return (cf * q_i - c.cb * c.cross_factor(link) * x_j_b) / denominator, denominator


def _checked_gap_root(c: CostCoefficients, q_i: float, x_j_b: float, link: int):
    """:func:`_gap_root` for one link, both shares finite and non-negative."""
    _check_link(link)
    if not 0.0 <= q_i < math.inf:
        raise ValueError(f"q_i must be finite and non-negative, got {q_i!r}")
    if not 0.0 <= x_j_b < math.inf:
        raise ValueError(f"x_j_b must be finite and non-negative, got {x_j_b!r}")
    return _gap_root(c, q_i, x_j_b, link)


def best_response(c: CostCoefficients, q_i: float, x_j_b: float, link: int) -> float:
    """Bifurcating share of ``link`` that equalizes its two lane costs.

    The root of the gap (:func:`_gap_root`) clipped to ``[0, q_i]``.  The
    clip at 0 is the all-feed-through regime, where the bifurcating lane
    dominates.  An empty feed lane costs 0, so the root never exceeds
    ``q_i``: the all-bifurcating clip is reached only through rounding.
    """
    root, _ = _checked_gap_root(c, q_i, x_j_b, link)
    return min(max(root, 0.0), q_i)


def best_response_slope(c: CostCoefficients, q_i: float, x_j_b: float, link: int) -> float:
    """Derivative of the best response with respect to the other share.

    Only defined on the interior branch (best response strictly inside
    ``(0, q_i)``); at a boundary the response is locally constant and a
    :class:`BoundaryBranchError` is raised instead of returning 0.
    """
    root, denominator = _checked_gap_root(c, q_i, x_j_b, link)
    if root <= 0.0 or root >= q_i:
        raise BoundaryBranchError(
            f"best response for link {link} at x_j_b={x_j_b!r} is at a boundary "
            f"(root {root!r} outside (0, {q_i!r})); slope is 0 there"
        )
    return -(c.cb * c.cross_factor(link) + c.nu * root) / denominator


def _interior_roots(c: CostCoefficients, q1: np.ndarray, q2: np.ndarray):
    """The two candidate splits ``(y1, y2)`` where both cost gaps vanish,
    unclipped, as arrays of shape ``(2, n)``.

    With ``A_i = cf_i + cb*lambda_i``, subtracting the two gap equations
    cancels ``nu*y1*y2`` and leaves the line ``a1*y1 + a2*y2 = d``, where
    ``a1 = cb*mu2 - A1``, ``a2 = A2 - cb*mu1`` and
    ``d = cf2*q2 - cf1*q1``.  Substituting the line into link 1's gap gives
    ``nu*a1*y1**2 + (cb*mu1*a1 - a2*A1 - nu*d)*y1 + (a2*cf1*q1 - cb*mu1*d)
    = 0``, and into link 2's gap the mirror image in ``y2``.  The
    substitution solves for the share whose line coefficient is smaller in
    magnitude, so the back-substitution divides by the larger one (never 0
    unless the line vanishes, in which case the roots are the origin).

    The roots do not depend on the rates' common scale, but the quadratic's
    discriminant is quartic in them, so the rates are first scaled below 1
    by a power of two, which is exact.
    """
    e = math.frexp(max(c.cf1, c.cf2, c.cb, c.nu))[1]
    cf1, cf2, cb, nu = (math.ldexp(rate, -e) for rate in (c.cf1, c.cf2, c.cb, c.nu))
    A1 = cf1 + cb * c.lambda1
    A2 = cf2 + cb * c.lambda2
    a1 = cb * c.mu2 - A1
    a2 = A2 - cb * c.mu1
    d = cf2 * q2 - cf1 * q1
    if a1 == 0.0 and a2 == 0.0:
        zero = np.zeros((2, q1.size))
        return zero, zero
    swap = abs(a1) > abs(a2)
    if swap:
        a_own, a_other, A_own, cfq, cb_mu = a2, a1, A2, cf2 * q2, cb * c.mu2
    else:
        a_own, a_other, A_own, cfq, cb_mu = a1, a2, A1, cf1 * q1, cb * c.mu1
    a = nu * a_own
    b = cb_mu * a_own - a_other * A_own - nu * d
    k = a_other * cfq - cb_mu * d
    # Cancellation-free roots k/h and h/a.  A discriminant below 0 leaves
    # no real root and is read as 0 (a rounded double root); certification
    # rejects what is not an equilibrium.  With a = 0 the equation is linear
    # and k/h is its one root, so it fills both slots.  A root that
    # overflows lies far outside the box and is clipped with it.
    h = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * k, 0.0)), b))
    with np.errstate(over="ignore"):
        small = np.divide(k, h, out=np.zeros_like(h), where=h != 0.0)
        large = small if a == 0.0 else np.divide(h, a, out=np.zeros_like(h), where=h != 0.0)
        own = np.stack((small, large))
        other = (d - a_own * own) / a_other
    return (other, own) if swap else (own, other)


def _candidate_splits(c: CostCoefficients, q1: np.ndarray, q2: np.ndarray):
    """The four candidate splits ``(y1, y2)`` per demand, arrays of shape
    ``(4, n)`` clipped to the action box: ``(0, B2(0))``, ``(B1(0), 0)``
    with ``B_i`` link ``i``'s :func:`_gap_root`, then the two interior roots.

    Every equilibrium is one of them.  A link with ``q_i > 0`` all on its
    bifurcating lane is never in equilibrium, since its empty feed lane
    costs 0 and ``rb_i = q_i * b_i > 0``.  So each link keeps all its
    traffic on its feed lane (``y_i = 0``, an empty link included) or
    balances its lanes (its gap vanishes).  With one link on its feed lane,
    the other's gap strictly decreases in its own share, so that share is
    its unique best response, the clipped root; with both balancing, both
    gaps vanish (:func:`_interior_roots`).
    """
    zero = np.zeros_like(q1)
    root1, root2 = _interior_roots(c, q1, q2)
    y1 = (zero, _gap_root(c, q1, zero, 1)[0])
    y2 = (_gap_root(c, q2, zero, 2)[0], zero)
    return (
        np.clip(np.concatenate((y1, root1)), 0.0, q1),
        np.clip(np.concatenate((y2, root2)), 0.0, q2),
    )


def solve_equilibria(
    c: CostCoefficients, q1: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Equilibria for an array of exit-1 demands ``q1`` (``q2 = 1 - q1``),
    in closed form.

    Every candidate of :func:`_candidate_splits` is certified when its
    largest residual product is ``<= tol``.  Returns the arrays
    ``(xb1, xb2, max_residual, count)``: the candidate with the smallest
    largest residual product (the first in candidate order on a tie, so
    output is deterministic), that residual, and the number of distinct
    certified candidates, counting those within ``DISTINCT_TOL`` in both
    shares as one.  Every equilibrium is a candidate, so ``count`` misses
    none, but a continuum of them (``a1 = a2 = d = 0`` in
    :func:`_interior_roots`) counts only as its edge points.  A row with
    ``count == 0`` did not certify; it still holds its least-residual
    candidate.  Scaling all four rates and ``tol`` by a power of two leaves
    the splits and ``count`` unchanged and scales the residuals exactly, as
    long as no cost overflows or underflows.
    """
    q1 = np.asarray(q1, dtype=float)
    if q1.ndim != 1 or not np.all((q1 >= 0.0) & (q1 <= 1.0)):
        raise ValueError("q1 must be a 1-d array of finite demand shares in [0, 1]")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    q2 = 1.0 - q1
    y1, y2 = _candidate_splits(c, q1, q2)
    residual = max_residual(c, q1 - y1, y1, q2 - y2, y2)
    certified = residual <= tol
    count = np.zeros(q1.shape, dtype=int)
    for k in range(len(y1)):
        near = (np.abs(y1[:k] - y1[k]) <= DISTINCT_TOL) & (np.abs(y2[:k] - y2[k]) <= DISTINCT_TOL)
        count += certified[k] & ~(certified[:k] & near).any(axis=0)
    best = np.argmin(residual, axis=0)
    rows = np.arange(q1.size)
    return y1[best, rows], y2[best, rows], residual[best, rows], count


def nash_player_cost(
    c: CostCoefficients, q: DemandConfig, y: AuxiliaryAction, link: int
) -> float:
    """Squared lane-cost gap of one auxiliary-game player at action pair ``y``."""
    _check_link(link)
    for l, y_l, q_l in ((1, y.y1, q.q1), (2, y.y2, q.q2)):
        if y_l > q_l + 1e-12:
            raise ValueError(f"action y{l} = {y_l!r} exceeds demand share q{l} = {q_l!r}")
    gap = cost_gaps(c, max(q.q1 - y.y1, 0.0), y.y1, max(q.q2 - y.y2, 0.0), y.y2)[link - 1]
    return gap * gap


def solve_fixed_point(
    g: DivergeInstance,
    opts: SolverOptions | None = None,
    initial: tuple[float, float] | None = None,
) -> EquilibriumReport:
    """Find the equilibrium by damped alternating best responses.

    Starting from half the demand shares (or the optional warm start),
    each sweep updates ``y_i <- (1 - DAMPING) * y_i + DAMPING * B_i(y_j)``
    in Gauss-Seidel order; the damping is fixed at ``DAMPING`` = 1/2.  The
    iteration stops once the sweep update is below ``convergence_tol``
    *and* the resulting split certifies as an equilibrium at that
    tolerance; running out of iterations returns a report with
    ``converged=False`` and the final residuals rather than a silent wrong
    answer.
    """
    if opts is None:
        opts = SolverOptions()
    c = g.costs
    q1, q2 = g.demand.q1, g.demand.q2
    tol = opts.convergence_tol
    if initial is None:
        y1, y2 = q1 / 2.0, q2 / 2.0
    else:
        y1, y2 = initial
        if not (0.0 <= y1 <= q1 and 0.0 <= y2 <= q2):
            raise ValueError(f"initial actions {initial!r} outside [0, q_i]")
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        y1_new = (1.0 - DAMPING) * y1 + DAMPING * best_response(c, q1, y2, 1)
        y2_new = (1.0 - DAMPING) * y2 + DAMPING * best_response(c, q2, y1_new, 2)
        delta = max(abs(y1_new - y1), abs(y2_new - y2))
        y1, y2 = y1_new, y2_new
        if delta <= tol:
            flow = FlowDistribution.from_bifurcating_shares(g.demand, y1, y2)
            residuals = wardrop_residuals(g, flow)
            if residuals.max_residual <= tol:
                return EquilibriumReport(flow, iterations, residuals, converged=True)
    flow = FlowDistribution.from_bifurcating_shares(g.demand, y1, y2)
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


def violation_magnitude(c: CostCoefficients, xf1, xb1, xf2, xb2):
    """Total equilibrium violation at the given shares (floats or arrays):
    for each populated class, the positive part of the cost advantage it is
    forgoing.

    Zero exactly at equilibria.  Unlike the share-weighted residual
    products, this measure stays sharp when a class's share is small, which
    is what lets the grid oracle localize equilibria to grid precision.
    """
    gap1, gap2 = cost_gaps(c, xf1, xb1, xf2, xb2)
    return (
        np.where(xf1 > 0.0, np.maximum(gap1, 0.0), 0.0)
        + np.where(xb1 > 0.0, np.maximum(-gap1, 0.0), 0.0)
        + np.where(xf2 > 0.0, np.maximum(gap2, 0.0), 0.0)
        + np.where(xb2 > 0.0, np.maximum(-gap2, 0.0), 0.0)
    )


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
    q1, q2 = g.demand.q1, g.demand.q2
    axis1 = _grid_axis(q1, resolution)
    axis2 = _grid_axis(q2, resolution)
    xb1 = axis1[:, None]
    xb2 = axis2[None, :]
    objective = violation_magnitude(g.costs, q1 - xb1, xb1, q2 - xb2, xb2)
    # argmin scans xb1-major then xb2, so the first minimum is the
    # lexicographically smallest tie.
    i, j = np.unravel_index(int(np.argmin(objective)), objective.shape)
    return FlowDistribution.from_bifurcating_shares(g.demand, float(axis1[i]), float(axis2[j]))
