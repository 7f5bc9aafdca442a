"""Best response, fixed-point solver, grid oracle, and slope properties."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divergelane import (
    AuxiliaryAction,
    BoundaryBranchError,
    CostCoefficients,
    DemandConfig,
    DivergeInstance,
    SolverOptions,
    best_response,
    best_response_slope,
    bifurcating_cost,
    feed_through_cost,
    FlowDistribution,
    is_wardrop_equilibrium,
    nash_player_cost,
    solve_equilibria,
    solve_fixed_point,
    solve_grid_oracle,
)
from divergelane.equilibrium import DISTINCT_TOL, _candidate_splits, _gap_root, _interior_roots
from divergelane.model import RATE_NAMES, max_residual, residual_products

from conftest import CAL_VAL, coefficients, random_uniqueness_instance


def bisect_best_response(c, q_i, x_j_b, link, tol=1e-13):
    """Independent oracle: bisection on the cost gap over [0, q_i], using
    only the cost functions."""
    demand_other = 1.0 - q_i  # placeholder demand for the other link

    def gap(x):
        if link == 1:
            fl = FlowDistribution(q_i - x, x, max(demand_other - x_j_b, 0.0), x_j_b)
        else:
            fl = FlowDistribution(max(demand_other - x_j_b, 0.0), x_j_b, q_i - x, x)
        return feed_through_cost(c, fl, link) - bifurcating_cost(c, fl, link)

    lo, hi = 0.0, q_i
    if q_i == 0.0:
        return 0.0
    if gap(lo) <= 0.0:
        return 0.0
    if gap(hi) >= 0.0:
        return q_i
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Frozen oracle values (bisection / closed forms, cross-checked against the
# grid oracle in the corresponding tests below).
BR_HALF_ZERO = 0.26737967914438504
FP_Q1_ONLY_XB1 = 0.5347593582887701
FP_SYMMETRIC_ROOT = 0.18599314396498423
SLOPE_HALF_ZERO = -0.4675934645562924


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverOptions(max_iterations=0)
        with pytest.raises(ValueError, match="convergence_tol"):
            SolverOptions(convergence_tol=0.0)

    def test_auxiliary_action_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            AuxiliaryAction(-0.1, 0.2)

    @pytest.mark.parametrize("y", [(np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1), (0.1, np.inf)])
    def test_auxiliary_action_finite(self, y):
        with pytest.raises(ValueError, match="finite"):
            AuxiliaryAction(*y)


class TestBestResponse:
    def test_empty_action_set(self):
        assert best_response(CAL_VAL, 0.0, 0.3, 1) == 0.0

    def test_interior_value_matches_bisection(self):
        value = best_response(CAL_VAL, 0.5, 0.0, 1)
        assert value == pytest.approx(BR_HALF_ZERO, abs=1e-15)
        assert value == pytest.approx(bisect_best_response(CAL_VAL, 0.5, 0.0, 1), abs=1e-12)

    def test_clipped_to_zero(self):
        # numerator 1.45*0.1 - 1.45*0.69*0.5 < 0
        assert best_response(CAL_VAL, 0.1, 0.5, 1) == 0.0

    def test_clipped_to_demand(self):
        c = CostCoefficients(1e6, 1e6, 1.0, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3)
        assert best_response(c, 0.4, 0.0, 1) == pytest.approx(0.4, abs=1e-6)

    def test_matches_bisection_at_random_points(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = random_uniqueness_instance(rng)
            link = int(rng.integers(1, 3))
            q_i = g.demand.share(link)
            x_j_b = float(rng.uniform(0.0, g.demand.share(3 - link)))
            mine = best_response(g.costs, q_i, x_j_b, link)
            oracle = bisect_best_response(g.costs, q_i, x_j_b, link)
            assert mine == pytest.approx(oracle, abs=1e-10)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            best_response(CAL_VAL, -0.1, 0.0, 1)
        with pytest.raises(ValueError):
            best_response(CAL_VAL, 0.5, -0.1, 1)

    @pytest.mark.parametrize("function", [best_response, best_response_slope])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, function, value):
        with pytest.raises(ValueError, match="q_i must be finite"):
            function(CAL_VAL, value, 0.1, 1)
        with pytest.raises(ValueError, match="x_j_b must be finite"):
            function(CAL_VAL, 0.5, value, 1)


class TestSolveFixedPoint:
    def test_single_destination(self):
        g = DivergeInstance(DemandConfig(1.0, 0.0), CAL_VAL)
        report = solve_fixed_point(g)
        assert report.converged
        assert report.flow.xb2 == 0.0 and report.flow.xf2 == 0.0
        assert report.flow.xb1 == pytest.approx(FP_Q1_ONLY_XB1, abs=1e-9)
        assert report.flow.xf1 == pytest.approx(1.0 - FP_Q1_ONLY_XB1, abs=1e-9)

    def test_symmetric_demand_quadratic_root(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        report = solve_fixed_point(g)
        assert report.converged
        assert report.flow.xb1 == pytest.approx(FP_SYMMETRIC_ROOT, abs=1e-9)
        assert report.flow.xb2 == pytest.approx(FP_SYMMETRIC_ROOT, abs=1e-9)
        assert is_wardrop_equilibrium(g, report.flow, 1e-9)

    def test_dominant_bifurcating_lane(self):
        c = CostCoefficients(1e6, 1e6, 1.0, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3)
        g = DivergeInstance(DemandConfig(0.6, 0.4), c)
        report = solve_fixed_point(g)
        assert report.converged
        assert report.flow.xb1 == pytest.approx(0.6, abs=1e-4)
        assert report.flow.xb2 == pytest.approx(0.4, abs=1e-4)

    def test_non_convergence_reports_instead_of_raising(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        report = solve_fixed_point(g, SolverOptions(max_iterations=2))
        assert not report.converged
        assert report.iterations == 2
        assert report.residuals.max_residual > 0

    @pytest.mark.parametrize("initial", [(-0.1, 0.2), (0.6, 0.2), (0.2, 0.6)])
    def test_initial_outside_box_rejected(self, initial):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        with pytest.raises(ValueError, match="outside"):
            solve_fixed_point(g, initial=initial)

    def test_initialization_independence(self):
        rng = np.random.default_rng(17)
        g = random_uniqueness_instance(rng)
        baseline = solve_fixed_point(g)
        assert baseline.converged
        for _ in range(10):
            start = (
                float(rng.uniform(0.0, g.demand.q1)),
                float(rng.uniform(0.0, g.demand.q2)),
            )
            report = solve_fixed_point(g, initial=start)
            assert report.converged
            assert report.flow.xb1 == pytest.approx(baseline.flow.xb1, abs=1e-9)
            assert report.flow.xb2 == pytest.approx(baseline.flow.xb2, abs=1e-9)

    def test_certification_sweep(self):
        # Every uniqueness-satisfying random instance converges to a
        # certified equilibrium.
        rng = np.random.default_rng(23)
        for _ in range(1000):
            g = random_uniqueness_instance(rng)
            report = solve_fixed_point(g)
            assert report.converged
            assert is_wardrop_equilibrium(g, report.flow, 1e-9)


def action_grid(q, step):
    """Evenly spaced grid over [0, q] whose last spacing stays >= step/2."""
    points = np.arange(0.0, q, step)
    points = points[points <= q - step / 2]
    return np.append(points, q)


def grid_objective(g, xb1, xb2):
    # Scalar recomputation of the oracle's objective from the cost
    # functions, kept independent of the vectorized scan.
    x = FlowDistribution.from_bifurcating_shares(g.demand, xb1, xb2)
    total = 0.0
    for link, feed, bifurcating in ((1, x.xf1, x.xb1), (2, x.xf2, x.xb2)):
        gap = feed_through_cost(g.costs, x, link) - bifurcating_cost(g.costs, x, link)
        if feed > 0.0:
            total += max(gap, 0.0)
        if bifurcating > 0.0:
            total += max(-gap, 0.0)
    return total


class TestGridOracle:
    def test_boundary_equilibrium(self):
        # Feed lanes almost free: everyone stays off the shared lane.
        c = CostCoefficients(1e-9, 1e-9, 5.0, 1.0, 1.0, 1.0, 1.0, 3.0)
        g = DivergeInstance(DemandConfig(0.5, 0.5), c)
        flow = solve_grid_oracle(g, 1e-3)
        assert flow.xb1 == 0.0 and flow.xb2 == 0.0

    def test_matches_quadratic_root(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        flow = solve_grid_oracle(g, 1e-3)
        assert flow.xb1 == pytest.approx(FP_SYMMETRIC_ROOT, abs=2e-3)
        assert flow.xb2 == pytest.approx(FP_SYMMETRIC_ROOT, abs=2e-3)

    def test_oracle_minimality(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_uniqueness_instance(rng)
            resolution = 1e-3
            oracle_flow = solve_grid_oracle(g, resolution)
            oracle_value = grid_objective(g, oracle_flow.xb1, oracle_flow.xb2)
            report = solve_fixed_point(g)
            # Snap the solver's answer onto the grid and compare objectives.
            snap1 = min(round(report.flow.xb1 / resolution) * resolution, g.demand.q1)
            snap2 = min(round(report.flow.xb2 / resolution) * resolution, g.demand.q2)
            assert grid_objective(g, snap1, snap2) >= oracle_value - 1e-15

    def test_agreement_with_solver(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            g = random_uniqueness_instance(rng)
            report = solve_fixed_point(g)
            assert report.converged
            oracle_flow = solve_grid_oracle(g, 1e-3)
            assert abs(oracle_flow.xb1 - report.flow.xb1) <= 2e-3
            assert abs(oracle_flow.xb2 - report.flow.xb2) <= 2e-3

    @pytest.mark.parametrize("q1", [0.0, 1.0])
    def test_single_destination(self, q1):
        # The empty link's axis is the one point 0.
        g = DivergeInstance(DemandConfig(q1, 1.0 - q1), CAL_VAL)
        flow = solve_grid_oracle(g, 1e-3)
        report = solve_fixed_point(g)
        assert (flow.xb1 if q1 == 0.0 else flow.xb2) == 0.0
        assert abs(flow.xb1 - report.flow.xb1) <= 2e-3
        assert abs(flow.xb2 - report.flow.xb2) <= 2e-3

    def test_bad_resolution(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        with pytest.raises(ValueError, match="resolution"):
            solve_grid_oracle(g, 0.0)


class TestNashPlayerCost:
    def test_zero_at_interior_best_response(self):
        q = DemandConfig(0.5, 0.5)
        y2 = 0.1
        y1 = best_response(CAL_VAL, 0.5, y2, 1)
        cost = nash_player_cost(CAL_VAL, q, AuxiliaryAction(y1, y2), 1)
        assert cost <= 1e-24

    def test_square_of_gap(self):
        # J_1^f = 4 * 0.5 = 2 at y = 0 while the empty shared lane costs 0.
        c = CostCoefficients(4.0, 4.0, 1.0, 0.5, 0.5, 0.5, 0.5, 1.0)
        q = DemandConfig(0.5, 0.5)
        assert nash_player_cost(c, q, AuxiliaryAction(0.0, 0.0), 1) == pytest.approx(4.0, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            g = random_uniqueness_instance(rng)
            y = AuxiliaryAction(
                float(rng.uniform(0, g.demand.q1)), float(rng.uniform(0, g.demand.q2))
            )
            for link in (1, 2):
                assert nash_player_cost(g.costs, g.demand, y, link) >= 0.0

    def test_out_of_bounds_action(self):
        with pytest.raises(ValueError, match="exceeds"):
            nash_player_cost(CAL_VAL, DemandConfig(0.5, 0.5), AuxiliaryAction(0.6, 0.0), 1)

    def test_unilateral_optimality_at_equilibrium(self):
        # At the solved equilibrium no player can improve over a fine grid
        # of unilateral deviations.
        rng = np.random.default_rng(41)
        for _ in range(25):
            g = random_uniqueness_instance(rng)
            report = solve_fixed_point(g)
            assert report.converged
            y_star = (report.flow.xb1, report.flow.xb2)
            for link in (1, 2):
                q_i = g.demand.share(link)
                grid = action_grid(q_i, 1e-4)
                costs = []
                for y_dev in grid:
                    y = (
                        AuxiliaryAction(float(y_dev), y_star[1])
                        if link == 1
                        else AuxiliaryAction(y_star[0], float(y_dev))
                    )
                    costs.append(nash_player_cost(g.costs, g.demand, y, link))
                own = nash_player_cost(
                    g.costs, g.demand, AuxiliaryAction(*y_star), link
                )
                # Boundary equilibria settle within the iteration tolerance
                # of the boundary grid point, so allow that slack.
                assert own <= min(costs) + 1e-12


class TestBestResponseSlope:
    def test_vanishing_cross_terms_give_zero_slope(self):
        c = CostCoefficients(1.0, 1.0, 1.0, 0.5, 0.5, 1e-9, 1e-9, 1e-300)
        slope = best_response_slope(c, 0.5, 0.1, 1)
        assert slope == pytest.approx(0.0, abs=1e-8)

    def test_reference_value(self):
        slope = best_response_slope(CAL_VAL, 0.5, 0.0, 1)
        assert slope == pytest.approx(SLOPE_HALF_ZERO, abs=1e-12)

    def test_boundary_branch_raises(self):
        # Best response clips to 0 here (see TestBestResponse).
        with pytest.raises(BoundaryBranchError):
            best_response_slope(CAL_VAL, 0.1, 0.5, 1)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(43)
        step = 1e-6
        checked = 0
        while checked < 200:
            g = random_uniqueness_instance(rng)
            link = int(rng.integers(1, 3))
            q_i = g.demand.share(link)
            x_j_b = float(rng.uniform(step, g.demand.share(3 - link)))
            response = best_response(g.costs, q_i, x_j_b, link)
            if not 1e-4 < response < q_i - 1e-4:
                continue
            slope = best_response_slope(g.costs, q_i, x_j_b, link)
            fd = (
                best_response(g.costs, q_i, x_j_b + step, link)
                - best_response(g.costs, q_i, x_j_b - step, link)
            ) / (2 * step)
            assert -1.0 - 1e-12 <= slope <= 0.0
            assert slope == pytest.approx(fd, abs=1e-5)
            checked += 1

    def test_composed_map_slope_in_unit_interval(self):
        # The two best responses composed have finite-difference slope in
        # [0, 1) under the uniqueness condition.
        rng = np.random.default_rng(47)
        for _ in range(50):
            g = random_uniqueness_instance(rng)
            c, demand = g.costs, g.demand
            z = action_grid(demand.q1, 1e-3)
            values = np.array(
                [best_response(c, demand.q1, best_response(c, demand.q2, float(v), 2), 1) for v in z]
            )
            slopes = np.diff(values) / np.diff(z)
            assert slopes.min() >= -1e-9
            assert slopes.max() < 1.0

    def test_fixed_point_unique_at_grid_scale(self):
        # g(z) - z changes sign exactly once over the action interval.
        rng = np.random.default_rng(53)
        for _ in range(25):
            g = random_uniqueness_instance(rng)
            c, demand = g.costs, g.demand
            z = action_grid(demand.q1, 1e-4)
            h = np.array(
                [
                    best_response(c, demand.q1, best_response(c, demand.q2, float(v), 2), 1) - v
                    for v in z
                ]
            )
            signs = np.sign(np.where(np.abs(h) <= 1e-12, 0.0, h))
            nonzero = signs[signs != 0]
            crossings = int(np.count_nonzero(np.diff(nonzero) != 0))
            touches_zero = bool((signs == 0).any())
            assert crossings == 1 or (crossings == 0 and touches_zero)

    def test_monotone_comparative_statics(self):
        # With fixed costs, the converged bifurcating share of link 1 is
        # non-decreasing in its demand share.
        previous = -1.0
        for q1 in np.arange(0.36, 0.6201, 0.01):
            g = DivergeInstance(DemandConfig(float(q1), float(1.0 - q1)), CAL_VAL)
            report = solve_fixed_point(g)
            assert report.converged
            assert report.flow.xb1 >= previous
            previous = report.flow.xb1


def mirrored(c):
    """The same diverge with the two links' labels swapped."""
    return CostCoefficients(
        c.cf2, c.cf1, c.cb, c.lambda2, c.lambda1, c.mu2, c.mu1, c.nu
    )


@st.composite
def degenerate_coefficients(draw):
    """Coefficients whose interior line has ``a2 = 0`` exactly, or, mirrored,
    ``nu*a1 = 0``.  Dyadic values keep ``cf2 + cb*lambda2 - cb*mu1`` exact."""
    cb = draw(st.integers(4, 20)) / 4
    lam2 = draw(st.integers(2, 15)) / 16
    mu1 = draw(st.integers(int(lam2 * 16) + 1, 16)) / 16
    c = CostCoefficients(
        draw(st.floats(1.0, 5.0)),
        cb * (mu1 - lam2),
        cb,
        draw(st.floats(0.1, 1.0)),
        lam2,
        mu1,
        draw(st.floats(0.1, 1.0)),
        draw(st.floats(0.1, 3.0)),
    )
    assert c.cf2 + c.cb * c.lambda2 - c.cb * c.mu1 == 0.0
    return mirrored(c) if draw(st.booleans()) else c


#: Exit-1 demands: both single-destination ends plus random interior shares.
demand_arrays = st.lists(st.floats(0.0, 1.0), max_size=12).map(
    lambda q: np.array([0.0, 1.0, *q])
)

#: Exit-1 demands that also hold shares within 1e-15 and 1e-9 of either end,
#: where rounding decides which candidates certify.
edge_demand_arrays = demand_arrays.map(
    lambda q: np.concatenate((q, [1e-15, 1e-9, 1.0 - 1e-15, 1.0 - 1e-9]))
)


def box_corners(q1, q2):
    """The four corners ``(0, 0)``, ``(q1, 0)``, ``(0, q2)``, ``(q1, q2)`` of
    the action box, as arrays of shape ``(4, n)``."""
    zero = np.zeros_like(q1)
    return np.stack((zero, q1, zero, q1)), np.stack((zero, zero, q2, q2))


def eight_candidates(c, q1, q2):
    """Reference enumeration: the four box corners, then the two splits with
    one link on its feed lane and the other at its best response, then the
    two interior roots, clipped to the box."""
    zero = np.zeros_like(q1)
    corner1, corner2 = box_corners(q1, q2)
    root1, root2 = _interior_roots(c, q1, q2)
    y1 = np.concatenate((corner1, [zero, _gap_root(c, q1, zero, 1)[0]], root1))
    y2 = np.concatenate((corner2, [_gap_root(c, q2, zero, 2)[0], zero], root2))
    return np.clip(y1, 0.0, q1), np.clip(y2, 0.0, q2)


def reference_equilibria(c, q1, tol):
    """:func:`solve_equilibria` over :func:`eight_candidates`: the first
    least-residual candidate, and the certified candidates counted unless an
    earlier certified one lies within ``DISTINCT_TOL`` in both shares."""
    q2 = 1.0 - q1
    y1, y2 = eight_candidates(c, q1, q2)
    residual = max_residual(c, q1 - y1, y1, q2 - y2, y2)
    certified = residual <= tol
    count = np.zeros(q1.shape, dtype=int)
    for k in range(len(y1)):
        seen = np.zeros(q1.shape, dtype=bool)
        for j in range(k):
            seen |= (
                certified[j]
                & (np.abs(y1[j] - y1[k]) <= DISTINCT_TOL)
                & (np.abs(y2[j] - y2[k]) <= DISTINCT_TOL)
            )
        count += certified[k] & ~seen
    best = np.argmin(residual, axis=0)
    rows = np.arange(q1.size)
    return y1[best, rows], y2[best, rows], residual[best, rows], count


class TestSolveEquilibria:
    @settings(max_examples=200)
    @given(c=st.one_of(coefficients, degenerate_coefficients()), q1=demand_arrays)
    # Both line coefficients 0.  At q1 = 0.5, d = 0 too and the equilibria
    # form a continuum, where the fixed point need not land on a candidate.
    @example(c=CostCoefficients(0.5, 0.5, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0), q1=np.array([0.3]))
    def test_against_fixed_point(self, c, q1):
        xb1, xb2, residual, count = solve_equilibria(c, q1, 1e-12)
        assert np.all(residual <= 1e-12)
        assert np.all(count >= 1)
        y1, y2 = _candidate_splits(c, q1, 1.0 - q1)
        certified = max_residual(c, q1 - y1, y1, 1.0 - q1 - y2, y2) <= 1e-12
        for i, q in enumerate(q1.tolist()):
            report = solve_fixed_point(DivergeInstance(DemandConfig(q, 1.0 - q), c))
            if not report.converged:
                continue
            assert residual[i] <= report.residuals.max_residual
            near = (np.abs(y1[:, i] - report.flow.xb1) <= 1e-9) & (
                np.abs(y2[:, i] - report.flow.xb2) <= 1e-9
            )
            assert np.any(certified[:, i] & near)

    @pytest.mark.parametrize("tol", [1e-12, 0.0])
    @settings(max_examples=300)
    @given(c=st.one_of(coefficients, degenerate_coefficients()), q1=edge_demand_arrays)
    def test_matches_eight_candidate_reference(self, tol, c, q1):
        # Bit for bit, the sign of a zero residual included.
        mine = solve_equilibria(c, q1, tol)
        reference = reference_equilibria(c, q1, tol)
        for got, want in zip(mine, reference):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=300)
    @given(c=st.one_of(coefficients, degenerate_coefficients()), q1=edge_demand_arrays)
    def test_box_corners_are_never_equilibria(self, c, q1):
        # A link all on its bifurcating lane leaves its feed lane empty at
        # cost 0; with both links on their feed lanes both bifurcating lanes
        # cost 0.  Either way a populated class gains by switching.
        q2 = 1.0 - q1
        y1, y2 = box_corners(q1, q2)
        assert np.all(max_residual(c, q1 - y1, y1, q2 - y2, y2) > 0.0)
        # Nor is a link with q_i > 0 all on its bifurcating lane, whatever the
        # other share (here the other link's best response):
        # rb_i = q_i * b_i > 0.  Evaluated exactly, since in floats the
        # product underflows to 0 for a subnormal q_i.
        exact = CostCoefficients(*map(Fraction, c.as_tuple()))
        b1 = np.clip(_gap_root(c, q1, q2, 1)[0], 0.0, q1)
        b2 = np.clip(_gap_root(c, q2, q1, 2)[0], 0.0, q2)
        for i in np.flatnonzero(q1 > 0.0):
            shares = map(Fraction, (0.0, q1[i], q2[i] - b2[i], b2[i]))
            assert residual_products(exact, *shares)[1] > 0
        for i in np.flatnonzero(q2 > 0.0):
            shares = map(Fraction, (q1[i] - b1[i], b1[i], 0.0, q2[i]))
            assert residual_products(exact, *shares)[3] > 0

    def test_symmetric_demand_quadratic_root(self):
        xb1, xb2, residual, count = solve_equilibria(CAL_VAL, np.array([0.5]), 1e-12)
        assert xb1[0] == pytest.approx(FP_SYMMETRIC_ROOT, abs=1e-15)
        assert xb2[0] == pytest.approx(FP_SYMMETRIC_ROOT, abs=1e-15)
        assert count.tolist() == [1]

    def test_counts_every_equilibrium(self):
        # Fails the uniqueness margin on both links: at q1 = 0.18 link 1 all
        # on feed-through, link 2 all on feed-through, and one interior split
        # are all equilibria.
        c = CostCoefficients(2.6, 0.5, 5.0, 0.6, 0.05, 0.8, 1.0, 18.0)
        q1 = np.array([0.18])
        *_, count = solve_equilibria(c, q1, 1e-12)
        assert count.tolist() == [3]
        y1, y2 = _candidate_splits(c, q1, 1.0 - q1)
        g = DivergeInstance(DemandConfig(0.18, 1.0 - 0.18), c)
        found = {
            (round(a / DISTINCT_TOL), round(b / DISTINCT_TOL))
            for a, b in zip(y1[:, 0].tolist(), y2[:, 0].tolist())
            if is_wardrop_equilibrium(
                g, FlowDistribution.from_bifurcating_shares(g.demand, a, b), 1e-12
            )
        }
        assert len(found) == 3

    @pytest.mark.parametrize("k", [-600, -300, 300, 600])
    def test_rates_scaled_by_a_power_of_two(self, k):
        # Rates, costs, residuals and the tolerance all scale exactly; the
        # interior quadratic's discriminant, quartic in the rates, is what
        # would overflow or underflow.
        q1 = np.concatenate((np.linspace(0.0, 1.0, 101), [1e-15, 1e-9, 1.0 - 1e-15, 1.0 - 1e-9]))
        non_unique = CostCoefficients(2.6, 0.5, 5.0, 0.6, 0.05, 0.8, 1.0, 18.0)
        for c in (CAL_VAL, non_unique):
            rates = {name: math.ldexp(getattr(c, name), k) for name in RATE_NAMES}
            scaled = CostCoefficients(**{**vars(c), **rates})
            xb1, xb2, residual, count = solve_equilibria(c, q1, 1e-12)
            got = solve_equilibria(scaled, q1, math.ldexp(1e-12, k))
            assert got[0].tobytes() == xb1.tobytes()
            assert got[1].tobytes() == xb2.tobytes()
            assert got[2].tobytes() == np.ldexp(residual, k).tobytes()
            assert got[3].tolist() == count.tolist()
            assert count.max() == (3 if c is non_unique else 1)

    def test_deterministic_and_row_independent(self):
        q1 = np.linspace(0.0, 1.0, 41)
        whole = solve_equilibria(CAL_VAL, q1, 1e-12)
        for i in (0, 17, 40):
            row = solve_equilibria(CAL_VAL, q1[i : i + 1], 1e-12)
            assert [a[0] for a in row] == [a[i] for a in whole]

    @pytest.mark.parametrize("q1", [[-0.1], [1.5], [np.nan], [[0.5]]])
    def test_bad_demands_rejected(self, q1):
        with pytest.raises(ValueError, match="q1"):
            solve_equilibria(CAL_VAL, np.array(q1), 1e-12)

    @pytest.mark.parametrize("tol", [-1e-12, np.inf, np.nan])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            solve_equilibria(CAL_VAL, np.array([0.5]), tol)
