"""Core lane-choice model for a two-exit traffic diverge with a bifurcating
center lane.

A diverge instance is a normalized demand split over the two exit links plus
a vector of dimensionless cost coefficients.  Vehicles bound for exit link
``i`` either use that link's dedicated feed-through lane or the shared center
lane that can serve both exits.  Costs are linear-plus-interaction functions
of the four class proportions; an aggregate flow split is an equilibrium when
no populated class could lower its cost by switching lanes, which this module
expresses through four signed residual products (one per lane class).

:func:`lane_costs` is the one statement of the cost model.  It, and the
:func:`cost_gaps` and :func:`residual_products` derived from it, take the
four shares as floats or as numpy arrays of one shape, so the solvers, the
calibrator and the simulator all evaluate the same arithmetic.  The module
is also the one statement of the data schema that the others read: the
coefficient names, kinds, admissible ranges and symmetric tie, and the rows
(:class:`DataPoint`, their :func:`share_matrix`).  Every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Absolute tolerance for internal feasibility and equality checks.
ABS_TOL = 1e-12

#: Default tolerance when certifying a flow split as an equilibrium.
EQUILIBRIUM_TOL = 1e-9

#: Lower bound keeping the capacity-increase factors strictly positive, as
#: the model states: the lower end of calibration's ``FACTOR_BOUNDS`` and the
#: factor products' column bound in the exact MILP.  No division needs it: a
#: best response's denominator is at least ``cf_i > 0`` for any factor >= 0.
FACTOR_FLOOR = 1e-9

LINKS = (1, 2)

#: The eight cost coefficients in field order: the rates, finite and
#: strictly positive, and the capacity factors, in ``[FACTOR_FLOOR, 1]``.
COEFFICIENT_NAMES = ("cf1", "cf2", "cb", "lambda1", "lambda2", "mu1", "mu2", "nu")
RATE_NAMES = ("cf1", "cf2", "cb", "nu")
FACTOR_NAMES = ("lambda1", "lambda2", "mu1", "mu2")

#: A symmetric diverge's tie: the free parameter of each coefficient
#: (``COEFFICIENT_NAMES`` order), so that ``cf1 = cf2 = cb``,
#: ``lambda1 = lambda2`` and ``mu1 = mu2``.
SYMMETRIC_TIE = (0, 0, 0, 1, 1, 2, 2, 3)


class FeasibilityError(ValueError):
    """A flow split violates conservation or non-negativity for its demand."""


def _check_link(link: int) -> None:
    if link not in LINKS:
        raise ValueError(f"link must be 1 or 2, got {link!r}")


@dataclass(frozen=True)
class DemandConfig:
    """Normalized demand shares of the two exit links (must sum to 1)."""

    q1: float
    q2: float

    def __post_init__(self) -> None:
        if not (0 <= self.q1 < math.inf and 0 <= self.q2 < math.inf):
            raise ValueError(
                f"demand shares must be finite and non-negative, got ({self.q1}, {self.q2})"
            )
        if abs(self.q1 + self.q2 - 1.0) > ABS_TOL:
            raise ValueError(f"demand shares must sum to 1, got {self.q1 + self.q2!r}")

    def share(self, link: int) -> float:
        _check_link(link)
        return self.q1 if link == 1 else self.q2


@dataclass(frozen=True)
class CostCoefficients:
    """Dimensionless cost coefficients characterizing a diverge.

    ``cf1``/``cf2`` are the feed-through cost rates of the two exit links and
    ``cb`` the rate of the shared bifurcating lane.  ``lambda1``/``lambda2``
    scale the same-destination bifurcating load and ``mu1``/``mu2`` the
    cross-destination load (both in ``[FACTOR_FLOOR, 1]``: values below 1
    model the capacity increase at the split).  ``nu`` penalizes destination
    heterogeneity through the product of the two bifurcating shares.
    """

    cf1: float
    cf2: float
    cb: float
    lambda1: float
    lambda2: float
    mu1: float
    mu2: float
    nu: float

    def __post_init__(self) -> None:
        for name in RATE_NAMES:
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        for name in FACTOR_NAMES:
            value = getattr(self, name)
            if not FACTOR_FLOOR <= value <= 1.0:
                raise ValueError(
                    f"{name} must lie in [{FACTOR_FLOOR}, 1], got {value!r}"
                )

    def feed_rate(self, link: int) -> float:
        _check_link(link)
        return self.cf1 if link == 1 else self.cf2

    def same_factor(self, link: int) -> float:
        _check_link(link)
        return self.lambda1 if link == 1 else self.lambda2

    def cross_factor(self, link: int) -> float:
        _check_link(link)
        return self.mu1 if link == 1 else self.mu2

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in COEFFICIENT_NAMES)


@dataclass(frozen=True)
class FlowDistribution:
    """Proportions of the four vehicle classes (feed/bifurcating per link)."""

    xf1: float
    xb1: float
    xf2: float
    xb2: float

    def __post_init__(self) -> None:
        for name in ("xf1", "xb1", "xf2", "xb2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")

    @classmethod
    def from_bifurcating_shares(
        cls, demand: DemandConfig, xb1: float, xb2: float
    ) -> "FlowDistribution":
        """Build a conservation-satisfying split from the bifurcating shares.

        The feed-through shares are the demand remainders, so the result
        satisfies flow conservation by construction; shares outside
        ``[0, q_i]`` fail.
        """
        if not 0.0 <= xb1 <= demand.q1:
            raise FeasibilityError(f"xb1 must lie in [0, q1={demand.q1}], got {xb1!r}")
        if not 0.0 <= xb2 <= demand.q2:
            raise FeasibilityError(f"xb2 must lie in [0, q2={demand.q2}], got {xb2!r}")
        return cls(demand.q1 - xb1, xb1, demand.q2 - xb2, xb2)


@dataclass(frozen=True)
class DivergeInstance:
    """A demand configuration together with the diverge's cost coefficients."""

    demand: DemandConfig
    costs: CostCoefficients


@dataclass(frozen=True)
class WardropResiduals:
    """Signed equilibrium residuals, one per vehicle class.

    ``rf_i`` is the feed-through share times (feed cost minus bifurcating
    cost) for link ``i``; ``rb_i`` is the bifurcating share times the negated
    gap.  A split is an equilibrium exactly when all four are non-positive.
    """

    rf1: float
    rb1: float
    rf2: float
    rb2: float

    @property
    def max_residual(self) -> float:
        return max(self.rf1, self.rb1, self.rf2, self.rb2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.rf1, self.rb1, self.rf2, self.rb2)


def check_feasible(demand: DemandConfig, flow: FlowDistribution, tol: float = ABS_TOL) -> None:
    """Raise :class:`FeasibilityError` if a link's two shares do not sum to
    its demand share.  The shares themselves are non-negative:
    :class:`FlowDistribution` admits no other."""
    for link, xf, xb, q in (
        (1, flow.xf1, flow.xb1, demand.q1),
        (2, flow.xf2, flow.xb2, demand.q2),
    ):
        if abs(xf + xb - q) > tol:
            raise FeasibilityError(
                f"xf{link} + xb{link} = {xf + xb!r} violates conservation with q{link} = {q!r}"
            )


@dataclass(frozen=True)
class DataPoint:
    """One dataset row: demand split, observed flow split, and the total
    demand in vehicles per hour (bookkeeping only)."""

    demand: DemandConfig
    flow: FlowDistribution
    total_demand_vph: float = 0.0

    def __post_init__(self) -> None:
        check_feasible(self.demand, self.flow)
        check_total_demand(self.total_demand_vph)


def check_total_demand(total_demand_vph: float) -> None:
    """Raise ``ValueError`` unless a dataset's total demand (vph) is finite
    and non-negative."""
    if not 0 <= total_demand_vph < math.inf:
        raise ValueError(f"total_demand_vph must be finite and >= 0, got {total_demand_vph!r}")


def share_matrix(points: Sequence[DataPoint]) -> np.ndarray:
    """Shares xf1, xb1, xf2, xb2 of ``points`` in the kernel's order: C-contiguous ``(4, K)``."""
    return np.array([[getattr(p.flow, x) for p in points] for x in ("xf1", "xb1", "xf2", "xb2")])


def lane_costs(c: CostCoefficients, xf1, xb1, xf2, xb2):
    """Lane costs ``(feed 1, bifurcating 1, feed 2, bifurcating 2)`` at the
    given class shares, which may be floats or numpy arrays.

    A feed-through lane costs its rate times its share.  The shared lane's
    load enters each bifurcating cost through that link's capacity-increase
    factors, and both bifurcating costs carry the same heterogeneity penalty
    ``nu * (xb1 * xb2)``, so the costs of a symmetric diverge mirror exactly.
    """
    heterogeneity = c.nu * (xb1 * xb2)
    return (
        c.cf1 * xf1,
        c.cb * (c.lambda1 * xb1 + c.mu1 * xb2) + heterogeneity,
        c.cf2 * xf2,
        c.cb * (c.lambda2 * xb2 + c.mu2 * xb1) + heterogeneity,
    )


def cost_gaps(c: CostCoefficients, xf1, xb1, xf2, xb2):
    """Feed-through cost minus bifurcating cost on links 1 and 2."""
    f1, b1, f2, b2 = lane_costs(c, xf1, xb1, xf2, xb2)
    return f1 - b1, f2 - b2


def residual_products(c: CostCoefficients, xf1, xb1, xf2, xb2):
    """The four equilibrium residual products ``(rf1, rb1, rf2, rb2)``: each
    class share times the cost it would save by switching lanes."""
    gap1, gap2 = cost_gaps(c, xf1, xb1, xf2, xb2)
    return (xf1 * gap1, xb1 * -gap1, xf2 * gap2, xb2 * -gap2)


def max_residual(c: CostCoefficients, xf1, xb1, xf2, xb2) -> np.ndarray:
    """Largest residual product at the given share arrays, elementwise.

    Ties keep the earlier product, as the built-in ``max`` of
    :attr:`WardropResiduals.max_residual` does, so a signed zero prints the
    same from either.
    """
    rf1, rb1, rf2, rb2 = residual_products(c, xf1, xb1, xf2, xb2)
    largest = rf1
    for product in (rb1, rf2, rb2):
        largest = np.where(product > largest, product, largest)
    return largest


def feed_through_cost(c: CostCoefficients, x: FlowDistribution, link: int) -> float:
    """Cost experienced by feed-through users of ``link``: rate times share."""
    _check_link(link)
    return lane_costs(c, x.xf1, x.xb1, x.xf2, x.xb2)[2 * link - 2]


def bifurcating_cost(c: CostCoefficients, x: FlowDistribution, link: int) -> float:
    """Cost experienced by bifurcating-lane users bound for ``link``."""
    _check_link(link)
    return lane_costs(c, x.xf1, x.xb1, x.xf2, x.xb2)[2 * link - 1]


def wardrop_residuals(g: DivergeInstance, x: FlowDistribution) -> WardropResiduals:
    """Evaluate the four equilibrium residual products exactly (no clipping).

    ``x`` must be feasible for the instance's demand; infeasibility raises
    :class:`FeasibilityError` naming the violated constraint.
    """
    check_feasible(g.demand, x)
    return WardropResiduals(*residual_products(g.costs, x.xf1, x.xb1, x.xf2, x.xb2))


def is_wardrop_equilibrium(
    g: DivergeInstance, x: FlowDistribution, tol: float = EQUILIBRIUM_TOL
) -> bool:
    """True iff ``x`` is feasible within ``tol`` and all residuals are <= ``tol``."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    try:
        check_feasible(g.demand, x, tol=max(tol, ABS_TOL))
    except FeasibilityError:
        return False
    return max(residual_products(g.costs, x.xf1, x.xb1, x.xf2, x.xb2)) <= tol


def uniqueness_margins(c: CostCoefficients) -> tuple[float, float]:
    """Per-link slack of the sufficient uniqueness condition.

    For link ``i`` the margin is ``(lambda_i - mu_i) * cb - (nu - cf_i)``;
    a non-negative margin on both links guarantees a unique equilibrium.
    """
    return (
        (c.lambda1 - c.mu1) * c.cb - (c.nu - c.cf1),
        (c.lambda2 - c.mu2) * c.cb - (c.nu - c.cf2),
    )


def check_uniqueness_condition(c: CostCoefficients) -> tuple[bool, bool]:
    """Whether the sufficient uniqueness condition holds on each link."""
    m1, m2 = uniqueness_margins(c)
    return (m1 >= 0.0, m2 >= 0.0)
