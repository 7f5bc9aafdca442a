"""Cost functions, residuals, and the uniqueness condition."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divergelane import (
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    FeasibilityError,
    FlowDistribution,
    bifurcating_cost,
    check_uniqueness_condition,
    count_violations,
    feed_through_cost,
    is_wardrop_equilibrium,
    lane_costs,
    solve_equilibria,
    solve_fixed_point,
    uniqueness_margins,
    wardrop_residuals,
)

from divergelane.fileio import format_dataset, parse_dataset
from divergelane.model import (
    COEFFICIENT_NAMES, EQUILIBRIUM_TOL, FACTOR_NAMES, RATE_NAMES, share_matrix,
)

from conftest import (
    CAL_VAL,
    COEFFICIENT_ORDER,
    admissible,
    boundary_tuples,
    coefficients,
    noisy_protocol_grid,
    random_coefficients,
)


def flow(xf1, xb1, xf2, xb2):
    return FlowDistribution(xf1, xb1, xf2, xb2)


@st.composite
def data_points(draw):
    """A feasible data point: any demand split, any bifurcating shares."""
    q1 = draw(st.floats(0.0, 1.0))
    demand = DemandConfig(q1, 1.0 - q1)
    xb1 = draw(st.floats(0.0, demand.q1))
    xb2 = draw(st.floats(0.0, demand.q2))
    return DataPoint(demand, FlowDistribution.from_bifurcating_shares(demand, xb1, xb2))


class TestFeedThroughCost:
    def test_zero_flow(self):
        assert feed_through_cost(CAL_VAL, flow(0.0, 0.5, 0.25, 0.25), 1) == 0.0

    def test_direct_product(self):
        assert feed_through_cost(CAL_VAL, flow(0.5, 0.0, 0.25, 0.25), 1) == pytest.approx(
            0.725, abs=1e-15
        )

    def test_direct_product_other_rate(self):
        c = CostCoefficients(2.0, 2.0, 1.0, 0.5, 0.5, 0.5, 0.5, 1.0)
        assert feed_through_cost(c, flow(0.25, 0.25, 0.25, 0.25), 1) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_invalid_link(self):
        with pytest.raises(ValueError, match="link"):
            feed_through_cost(CAL_VAL, flow(0.5, 0.0, 0.5, 0.0), 3)


class TestBifurcatingCost:
    def test_empty_lane(self):
        assert bifurcating_cost(CAL_VAL, flow(0.5, 0.0, 0.5, 0.0), 1) == 0.0
        assert bifurcating_cost(CAL_VAL, flow(0.5, 0.0, 0.5, 0.0), 2) == 0.0

    def test_hand_value(self):
        # 1.45 * (0.87*0.2 + 0.69*0.1) + 1 * 0.2 * 0.1, checked by hand and
        # by exact rational arithmetic: 7447/20000.
        x = flow(0.3, 0.2, 0.4, 0.1)
        assert bifurcating_cost(CAL_VAL, x, 1) == pytest.approx(0.37235, abs=1e-15)

    def test_reduces_to_share_sum(self):
        c = CostCoefficients(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-300)
        x = flow(0.0, 0.3, 0.3, 0.4)
        assert bifurcating_cost(c, x, 1) == pytest.approx(0.7, abs=1e-12)

    def test_invalid_link(self):
        with pytest.raises(ValueError, match="link"):
            bifurcating_cost(CAL_VAL, flow(0.5, 0.0, 0.5, 0.0), 0)


class TestWardropResiduals:
    def test_empty_lane_residuals_vanish(self):
        # Classes with zero share contribute zero residuals, and an almost
        # free feed lane keeps the populated classes non-positive too.
        c = CostCoefficients(1e-9, 1e-9, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        g = DivergeInstance(DemandConfig(0.5, 0.5), c)
        res = wardrop_residuals(g, flow(0.5, 0.0, 0.5, 0.0))
        assert res.rb1 == 0.0 and res.rb2 == 0.0
        assert res.max_residual <= 1e-9

    def test_feed_cheaper_flags_bifurcating_users(self):
        c = CostCoefficients(1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        g = DivergeInstance(DemandConfig(0.5, 0.5), c)
        x = flow(0.1, 0.4, 0.1, 0.4)
        res = wardrop_residuals(g, x)
        # J_f = 0.1, J_b = 5*(0.4 + 0.4) + 0.16 > J_f: feed users are happy,
        # bifurcating users are not.
        assert res.rf1 < 0 and res.rf2 < 0
        assert res.rb1 > 0 and res.rb2 > 0

    def test_solver_output_certifies(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        report = solve_fixed_point(g)
        res = wardrop_residuals(g, report.flow)
        assert res.max_residual <= 1e-9

    def test_constructed_non_equilibrium(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        x = flow(0.5, 0.0, 0.0, 0.5)
        res = wardrop_residuals(g, x)
        # Link 2 rides the bifurcating lane alone: J_2^b = 1.45*0.87*0.5 > 0 = J_2^f.
        assert res.rb2 > 0

    def test_infeasible_flow_raises(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        with pytest.raises(FeasibilityError, match="conservation"):
            wardrop_residuals(g, flow(0.5, 0.2, 0.5, 0.0))


class TestIsWardropEquilibrium:
    def test_solver_output(self):
        g = DivergeInstance(DemandConfig(0.3, 0.7), CAL_VAL)
        report = solve_fixed_point(g)
        assert is_wardrop_equilibrium(g, report.flow, 1e-9)

    def test_all_feed_through_rejected_when_bifurcating_cheaper(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        x = flow(0.5, 0.0, 0.5, 0.0)
        # Empty bifurcating lane costs 0 < J_1^f = 0.725.
        assert not is_wardrop_equilibrium(g, x, 1e-9)

    def test_huge_tolerance_accepts_any_feasible(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        for x in (flow(0.5, 0.0, 0.5, 0.0), flow(0.0, 0.5, 0.0, 0.5), flow(0.25, 0.25, 0.4, 0.1)):
            assert is_wardrop_equilibrium(g, x, 1e9)

    def test_infeasible_flow_is_false(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        assert not is_wardrop_equilibrium(g, flow(0.5, 0.3, 0.5, 0.0), 1e-9)

    def test_negative_tolerance_rejected(self):
        g = DivergeInstance(DemandConfig(0.5, 0.5), CAL_VAL)
        with pytest.raises(ValueError, match="tol"):
            is_wardrop_equilibrium(g, flow(0.5, 0.0, 0.5, 0.0), -1.0)


class TestUniquenessCondition:
    def test_reference_coefficients(self):
        m1, m2 = uniqueness_margins(CAL_VAL)
        # (0.87 - 0.69) * 1.45 - (1 - 1.45) = 0.261 + 0.45
        assert m1 == pytest.approx(0.711, abs=1e-12)
        assert m2 == pytest.approx(0.711, abs=1e-12)
        assert check_uniqueness_condition(CAL_VAL) == (True, True)

    def test_boundary_equality_passes(self):
        c = CostCoefficients(1.0, 1.0, 2.0, 0.5, 0.5, 0.5, 0.5, 1.0)
        assert uniqueness_margins(c) == (0.0, 0.0)
        assert check_uniqueness_condition(c) == (True, True)

    def test_failing_coefficients(self):
        c = CostCoefficients(1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 5.0)
        # (0.5 - 1.0) * 1 = -0.5 < 5 - 1 = 4 on both links.
        assert check_uniqueness_condition(c) == (False, False)


class TestInvariants:
    def test_cost_monotonicity(self):
        # Componentwise larger flows never reduce either cost.
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            c = random_coefficients(rng)
            base = rng.uniform(0.0, 0.5, 4)
            bigger = base + rng.uniform(0.0, 0.5, 4)
            x_lo = flow(*base)
            x_hi = flow(*bigger)
            for link in (1, 2):
                assert feed_through_cost(c, x_hi, link) >= feed_through_cost(c, x_lo, link)
                assert bifurcating_cost(c, x_hi, link) >= bifurcating_cost(c, x_lo, link)

    def test_symmetric_costs_mirror_exactly(self):
        rng = np.random.default_rng(11)
        array_rng = np.random.default_rng(12)
        for _ in range(200):
            cf = rng.uniform(1.0, 5.0)
            lam = rng.uniform(0.1, 1.0)
            mu = rng.uniform(0.1, 1.0)
            nu = rng.uniform(0.1, 3.0)
            c = CostCoefficients(cf, cf, cf, lam, lam, mu, mu, nu)
            xf1, xb1, xf2, xb2 = rng.uniform(0.0, 0.5, 4)
            x = flow(xf1, xb1, xf2, xb2)
            mirrored = flow(xf2, xb2, xf1, xb1)
            assert bifurcating_cost(c, x, 1) == bifurcating_cost(c, mirrored, 2)
            # The same kernel on numpy arrays of shares mirrors exactly too.
            shares = array_rng.uniform(0.0, 0.5, (4, 16))
            f1, b1, f2, b2 = lane_costs(c, *shares)
            assert np.array_equal(
                np.stack(lane_costs(c, shares[2], shares[3], shares[0], shares[1])),
                np.stack((f2, b2, f1, b1)),
            )

    @settings(max_examples=300)
    @given(c=coefficients, data=st.lists(data_points(), min_size=1, max_size=15))
    def test_calibrator_products_match_verifier_residuals(self, c, data):
        # The calibrator's condition products (array path) are the verifier's
        # residuals (scalar path), bit for bit.
        products = count_violations(c, data).products
        for row, point in zip(products, data):
            residuals = wardrop_residuals(DivergeInstance(point.demand, c), point.flow)
            assert [float(v).hex() for v in row] == [v.hex() for v in residuals.as_tuple()]

    @settings(max_examples=300)
    @given(data=st.lists(data_points(), max_size=15))
    @example(data=[])
    def test_share_matrix_holds_each_points_shares(self, data):
        # Rows xf1, xb1, xf2, xb2, bit for bit, in the order the residual
        # kernel takes them; the dataset writer reads it, and still
        # round-trips exactly.
        matrix = share_matrix(data)
        assert matrix.shape == (4, len(data))
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        for column, p in zip(matrix.T.tolist(), data):
            expected = [p.flow.xf1, p.flow.xb1, p.flow.xf2, p.flow.xb2]
            assert [v.hex() for v in column] == [float(v).hex() for v in expected]
        assert parse_dataset(format_dataset(data)) == data

    @settings(max_examples=300)
    @given(
        c=coefficients,
        shares=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        k=st.integers(0, 3),
        other=st.floats(0.0, 1.0),
    )
    def test_lane_costs_are_monotone_and_mirror(self, c, shares, k, other):
        costs = lane_costs(c, *shares)
        # Raising (or lowering) one share never lowers (or raises) a cost.
        moved = list(shares)
        moved[k] = other
        for before, after in zip(costs, lane_costs(c, *moved)):
            assert (after >= before) if other >= shares[k] else (after <= before)
        # A feed-through cost reads only its own share.
        for feed in (0, 2):
            if k != feed:
                assert lane_costs(c, *moved)[feed] == costs[feed]
        # The symmetric diverge mirrors: swapping the links swaps the costs.
        sym = CostCoefficients(c.cf1, c.cf1, c.cb, c.lambda1, c.lambda1, c.mu1, c.mu1, c.nu)
        xf1, xb1, xf2, xb2 = shares
        f1, b1, f2, b2 = lane_costs(sym, xf1, xb1, xf2, xb2)
        assert lane_costs(sym, xf2, xb2, xf1, xb1) == (f2, b2, f1, b1)

    def test_cb_factor_rescaling_changes_nothing(self):
        # The costs read cb only times a factor, so (cb*k, factors/k) with k a
        # power of two, both products exact, gives the same bits everywhere.
        data = noisy_protocol_grid()
        shares = share_matrix(data)
        q1 = np.linspace(0.0, 1.0, 2001)

        def outputs(c):
            return (
                np.stack(lane_costs(c, *shares)).tobytes(),
                np.array(uniqueness_margins(c)).tobytes(),
                count_violations(c, data).products.tobytes(),
                [a.tobytes() for a in solve_equilibria(c, q1, EQUILIBRIUM_TOL)],
            )

        rng = np.random.default_rng(3)
        pairs = 0
        for _ in range(200):
            c = random_coefficients(rng)
            before = outputs(c)
            for k in (0.25, 0.5, 2.0, 4.0):
                factors = {name: getattr(c, name) / k for name in FACTOR_NAMES}
                if all(admissible(name, v) for name, v in factors.items()):
                    assert outputs(replace(c, cb=c.cb * k, **factors)) == before, (c, k)
                    pairs += 1
        assert pairs > 300

    def test_residual_antisymmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            c = random_coefficients(rng)
            q1 = rng.uniform(0.2, 0.8)
            demand = DemandConfig(q1, 1.0 - q1)
            xb1 = rng.uniform(1e-6, q1 - 1e-6)
            xb2 = rng.uniform(1e-6, demand.q2 - 1e-6)
            x = FlowDistribution.from_bifurcating_shares(demand, xb1, xb2)
            res = wardrop_residuals(DivergeInstance(demand, c), x)
            assert res.rf1 * res.rb1 <= 0.0
            assert res.rf2 * res.rb2 <= 0.0

    def test_feasibility_closure(self):
        demand = DemandConfig(0.4, 0.6)
        x = FlowDistribution.from_bifurcating_shares(demand, 0.1, 0.3)
        assert x.xf1 + x.xb1 == pytest.approx(0.4, abs=1e-15)
        with pytest.raises(FeasibilityError):
            FlowDistribution.from_bifurcating_shares(demand, 0.5, 0.3)
        with pytest.raises(FeasibilityError):
            FlowDistribution.from_bifurcating_shares(demand, -0.1, 0.3)

    def test_second_bifurcating_share_within_demand(self):
        with pytest.raises(FeasibilityError, match="xb2 must lie in"):
            FlowDistribution.from_bifurcating_shares(DemandConfig(0.4, 0.6), 0.1, 0.7)


class TestTypeValidation:
    def test_demand_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DemandConfig(0.5, 0.6)
        with pytest.raises(ValueError, match="non-negative"):
            DemandConfig(-0.1, 1.1)

    def test_coefficient_bounds(self):
        with pytest.raises(ValueError, match="cf1"):
            CostCoefficients(0.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError, match="lambda1"):
            CostCoefficients(1.0, 1.0, 1.0, 1.5, 0.5, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError, match="mu2"):
            CostCoefficients(1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="nu"):
            CostCoefficients(1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, -1.0)

    def test_flow_non_negative(self):
        with pytest.raises(ValueError, match="xb1"):
            FlowDistribution(0.5, -0.1, 0.5, 0.1)


class TestValidationBoundary:
    def test_schema_names_the_fields(self):
        assert tuple(f.name for f in fields(CostCoefficients)) == COEFFICIENT_NAMES
        assert COEFFICIENT_NAMES == COEFFICIENT_ORDER
        assert sorted(RATE_NAMES + FACTOR_NAMES) == sorted(COEFFICIENT_NAMES)
        assert set(FACTOR_NAMES) == {"lambda1", "lambda2", "mu1", "mu2"}

    @settings(max_examples=500)
    @given(values=boundary_tuples())
    def test_coefficients_accept_exactly_the_admissible(self, values):
        bad = [name for name, v in zip(COEFFICIENT_ORDER, values) if not admissible(name, v)]
        if bad:
            with pytest.raises(ValueError, match="|".join(bad)):
                CostCoefficients(*values)
        else:
            assert CostCoefficients(*values).as_tuple() == values
