"""Violation counting, the indicator system, and both calibration solvers."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from divergelane import (
    CalibrationOptions,
    ConfigurationError,
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    FeasibilityError,
    FlowDistribution,
    bifurcating_cost,
    build_milp,
    calibrate_exact,
    calibrate_search,
    check_uniqueness_condition,
    count_violations,
    feed_through_cost,
    parse_dataset,
    solve_fixed_point,
)
from divergelane import calibration
from divergelane.calibration import (
    COEFFICIENT_NAMES,
    DEFAULT_LOWER_BOUNDS,
    DEFAULT_UPPER_BOUNDS,
    FACTOR_NAMES,
    _condition_matrix,
    _data_arrays,
    _variable_space,
    linearized_values,
)

from conftest import (
    CAL_VAL,
    NOISY_FIVE_CSV,
    noiseless_protocol_dataset,
    random_coefficients,
)

NOISY_FIVE = parse_dataset(NOISY_FIVE_CSV)


def equilibrium_point(c, q1, total_vph=3000.0):
    demand = DemandConfig(q1, 1.0 - q1)
    report = solve_fixed_point(DivergeInstance(demand, c))
    assert report.converged
    return DataPoint(demand=demand, flow=report.flow, total_demand_vph=total_vph)


def enumerate_min_violations(data, opts):
    """Oracle: try every indicator assignment (in increasing violation
    order) and return the first count whose satisfied conditions can all
    hold at the counting margin (product <= epsilon) somewhere in the box."""
    space = _variable_space(opts)
    matrix = _condition_matrix(_data_arrays(data), space)
    n = matrix.shape[0]
    for count in range(n + 1):
        for violated in itertools.combinations(range(n), count):
            satisfied = [i for i in range(n) if i not in violated]
            result = linprog(
                np.zeros(len(space.names)),
                A_ub=np.vstack((matrix[satisfied], space.coupling_matrix)),
                b_ub=np.concatenate(
                    (np.full(len(satisfied), opts.epsilon), np.zeros(len(space.coupling_matrix)))
                ),
                bounds=list(space.box),
                method="highs",
                options={"primal_feasibility_tolerance": 1e-9},
            )
            if result.status == 0:
                return count
    return n


def noisy_point(rng, truth, sd):
    """An equilibrium of ``truth`` at a random demand with Gaussian noise of
    standard deviation ``sd`` on both bifurcating shares."""
    point = equilibrium_point(truth, float(rng.uniform(0.2, 0.8)))
    q1, q2 = point.demand.q1, point.demand.q2
    xb1 = float(np.clip(point.flow.xb1 + rng.normal(0.0, sd), 0.0, q1))
    xb2 = float(np.clip(point.flow.xb2 + rng.normal(0.0, sd), 0.0, q2))
    flow = FlowDistribution.from_bifurcating_shares(point.demand, xb1, xb2)
    return DataPoint(demand=point.demand, flow=flow)


class TestCalibrationOptions:
    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            CalibrationOptions(epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            CalibrationOptions(epsilon=float("inf"))
        with pytest.raises(ValueError, match="epsilon"):
            CalibrationOptions(epsilon=float("nan"))
        with pytest.raises(ValueError, match="restarts"):
            CalibrationOptions(restarts=0)
        with pytest.raises(ValueError, match="unknown coefficient"):
            CalibrationOptions(lower_bounds={"gamma": 1.0})


class TestCountViolations:
    def test_round_trip_is_zero(self):
        data = noiseless_protocol_dataset()
        assert count_violations(CAL_VAL, data, 1e-6).count == 0

    def test_single_planted_violation(self):
        # One tuple where the bifurcating users of link 1 strictly lose:
        # J_1^b = 1.45*(0.87*0.5 + 0.69*0) = 0.63 > J_1^f = 1.45*0.3, while
        # link 2 keeps its whole demand on the (cheaper) feed lane.
        point = DataPoint(
            demand=DemandConfig(0.8, 0.2),
            flow=FlowDistribution(0.3, 0.5, 0.2, 0.0),
        )
        g1f = feed_through_cost(CAL_VAL, point.flow, 1)
        g1b = bifurcating_cost(CAL_VAL, point.flow, 1)
        g2f = feed_through_cost(CAL_VAL, point.flow, 2)
        g2b = bifurcating_cost(CAL_VAL, point.flow, 2)
        assert g1b > g1f
        assert g2f <= g2b  # feed users of link 2 are content
        report = count_violations(CAL_VAL, [point], 1e-6)
        assert report.count == 1
        assert report.flags == (((False, True, False, False)),)

    def test_tight_gap_counts_as_satisfied(self):
        # Both classes of link 1 populated with exactly equal costs.
        c = CostCoefficients(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        point = DataPoint(
            demand=DemandConfig(1.0, 0.0),
            flow=FlowDistribution(0.5, 0.5, 0.0, 0.0),
        )
        report = count_violations(c, [point], 1e-6)
        assert report.count == 0
        assert float(report.products[0, 0]) == 0.0
        assert float(report.products[0, 1]) == 0.0

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            count_violations(CAL_VAL, [], 1e-6)

    def test_infeasible_point_named(self):
        bogus = SimpleNamespace(
            demand=DemandConfig(0.5, 0.5),
            flow=FlowDistribution(0.5, 0.2, 0.5, 0.0),
            total_demand_vph=0.0,
        )
        with pytest.raises(FeasibilityError, match="k=1"):
            count_violations(CAL_VAL, [bogus], 1e-6)

    def test_positive_sum_matches_flags(self):
        data = [equilibrium_point(CAL_VAL, 0.4), equilibrium_point(CAL_VAL, 0.6)]
        probe = CostCoefficients(3.0, 1.2, 2.0, 0.9, 0.4, 0.2, 0.8, 2.5)
        report = count_violations(probe, data, 1e-6)
        flagged = report.products[np.array(report.flags)]
        assert report.positive_sum == pytest.approx(float(flagged.sum()), abs=1e-15)
        assert report.count == int(np.array(report.flags).sum())


def box_coefficients(rng):
    """Coefficients drawn uniformly from the default calibration box."""
    return CostCoefficients(
        *(
            rng.uniform(DEFAULT_LOWER_BOUNDS[name], DEFAULT_UPPER_BOUNDS[name])
            for name in ("cf1", "cf2", "cb", "lambda1", "lambda2", "mu1", "mu2", "nu")
        )
    )


class TestBuildMilp:
    def test_row_and_variable_counts(self):
        # 8 linearized coefficients, 12 binaries and the margin; 12
        # condition rows and 8 factor-coupling rows.
        data = [equilibrium_point(CAL_VAL, q) for q in (0.4, 0.5, 0.6)]
        c, integrality, bounds, constraints = build_milp(data, CalibrationOptions())
        assert c.shape == integrality.shape == bounds.lb.shape == bounds.ub.shape == (21,)
        assert constraints.A.shape == (20, 21)
        assert integrality.tolist() == [0] * 8 + [1] * 12 + [0]
        assert c.tolist() == [0] * 8 + [1] * 12 + [-0.5]
        assert bounds.lb[8:].tolist() == [0] * 13
        assert bounds.ub[8:].tolist() == [1] * 13

    def test_symmetry_reduces_continuous_variables(self):
        data = [equilibrium_point(CAL_VAL, 0.5)]
        c, integrality, _, constraints = build_milp(data, CalibrationOptions(symmetry=True))
        assert c.shape == (4 + 4 + 1,)
        assert int(integrality.sum()) == 4
        assert constraints.A.shape == (4 + 4, 9)

    def test_rows_reproduce_products(self):
        # The coefficient part of each condition row, evaluated at fixed
        # coefficients, reproduces the product count_violations evaluates.
        data = [equilibrium_point(CAL_VAL, 0.45), equilibrium_point(CAL_VAL, 0.55)]
        opts = CalibrationOptions(symmetry=True)
        _, _, _, constraints = build_milp(data, opts)
        probe = CostCoefficients(2.0, 2.0, 2.0, 0.8, 0.8, 0.3, 0.3, 1.5)
        z = np.array(list(linearized_values(probe, symmetry=True).values()))
        report = count_violations(probe, data, opts.epsilon)
        products = constraints.A[: 4 * len(data), : z.size] @ z
        np.testing.assert_allclose(products, report.products.ravel(), rtol=0, atol=1e-12)

    def test_condition_matrix_matches_row_loop(self):
        # Reference: condition rows built one point at a time from the two
        # cost gaps; the vectorized matrix must match it exactly.
        rng = np.random.default_rng(59)
        truth = random_coefficients(rng)
        data = [noisy_point(rng, truth, 0.02) for _ in range(4)]
        for symmetry in (False, True):
            space = _variable_space(CalibrationOptions(symmetry=symmetry))
            col = space.names.index
            expected = []
            for p in data:
                xf1, xb1, xf2, xb2 = p.flow.xf1, p.flow.xb1, p.flow.xf2, p.flow.xb2
                gap1 = np.zeros(len(space.names))
                gap2 = np.zeros(len(space.names))
                if symmetry:
                    gap1[[col("cf"), col("cb_lambda"), col("cb_mu")]] = (xf1, -xb1, -xb2)
                    gap2[[col("cf"), col("cb_lambda"), col("cb_mu")]] = (xf2, -xb2, -xb1)
                else:
                    gap1[[col("cf1"), col("cb_lambda1"), col("cb_mu1")]] = (xf1, -xb1, -xb2)
                    gap2[[col("cf2"), col("cb_lambda2"), col("cb_mu2")]] = (xf2, -xb2, -xb1)
                gap1[col("nu")] = gap2[col("nu")] = -(xb1 * xb2)
                expected += [xf1 * gap1, -xb1 * gap1, xf2 * gap2, -xb2 * gap2]
            actual = _condition_matrix(_data_arrays(data), space)
            assert np.array_equal(actual, np.array(expected))

    def test_encoding_soundness(self):
        # Setting the binaries to the violation flags, with the margin at 0,
        # satisfies every row and bound for any coefficients in the box.
        rng = np.random.default_rng(61)
        for symmetry in (False, True):
            opts = CalibrationOptions(epsilon=1e-6, symmetry=symmetry)
            for _ in range(25):
                truth = random_coefficients(rng)
                q1 = float(rng.uniform(0.2, 0.8))
                data = [equilibrium_point(truth, q1), noisy_point(rng, truth, 0.02)]
                probe = box_coefficients(rng)
                if symmetry:
                    probe = CostCoefficients(
                        probe.cf1, probe.cf1, probe.cf1, probe.lambda1, probe.lambda1,
                        probe.mu1, probe.mu1, probe.nu,
                    )
                report = count_violations(probe, data, opts.epsilon)
                _, _, bounds, constraints = build_milp(data, opts)
                z = list(linearized_values(probe, symmetry).values())
                x = np.array(z + [float(f) for f in np.ravel(report.flags)] + [0.0])
                assert np.all(bounds.lb <= x) and np.all(x <= bounds.ub)
                assert np.all(constraints.A @ x <= constraints.ub + 1e-9)


#: Coefficients a symmetric diverge ties to one free parameter.
TIED_GROUPS = (("cf1", "cf2", "cb"), ("lambda1", "lambda2"), ("mu1", "mu2"), ("nu",))


def sum_tied_columns(matrix):
    """Columns of an asymmetric (one per coefficient) matrix summed by group."""
    return np.column_stack(
        [matrix[:, [COEFFICIENT_NAMES.index(n) for n in g]].sum(axis=1) for g in TIED_GROUPS]
    )


@st.composite
def feasible_points(draw):
    """One to eight feasible points: any demand split, any bifurcating shares."""
    points = []
    for _ in range(draw(st.integers(1, 8))):
        q1 = draw(st.floats(0.0, 1.0))
        demand = DemandConfig(q1, 1.0 - q1)
        xb1 = draw(st.floats(0.0, demand.q1))
        xb2 = draw(st.floats(0.0, demand.q2))
        points.append(
            DataPoint(demand, FlowDistribution.from_bifurcating_shares(demand, xb1, xb2))
        )
    return points


@st.composite
def coefficient_bounds(draw):
    """Valid per-coefficient bounds.  Unless ``overlap`` is drawn false,
    each tied group's intervals share a drawn point."""
    overlap = draw(st.booleans())
    lower, upper = {}, {}
    for group in TIED_GROUPS:
        floor, top = (1e-6, 1.0) if group[0] in FACTOR_NAMES else (0.01, 20.0)
        pivot = draw(st.floats(floor, top))
        for name in group:
            if overlap:
                lower[name] = draw(st.floats(floor, pivot))
                upper[name] = draw(st.floats(pivot, top))
            else:
                a, b = draw(st.floats(floor, top)), draw(st.floats(floor, top))
                lower[name], upper[name] = min(a, b), max(a, b)
    return lower, upper


class TestSymmetryTie:
    """Symmetry is the asymmetric encoding with tied coefficients."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        points=feasible_points(),
        bounds=coefficient_bounds(),
        u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_symmetric_space_is_the_tied_asymmetric_one(self, points, bounds, u):
        lower, upper = bounds
        merged_lo = {n: max(lower[m] for m in g) for g in TIED_GROUPS for n in g}
        merged_hi = {n: min(upper[m] for m in g) for g in TIED_GROUPS for n in g}
        try:
            sym = _variable_space(
                CalibrationOptions(symmetry=True, lower_bounds=lower, upper_bounds=upper)
            )
        except ConfigurationError:
            assert any(merged_lo[n] > merged_hi[n] for n in COEFFICIENT_NAMES)
            return
        assert sym.names == ("cf", "cb_lambda", "cb_mu", "nu")
        arrays = _data_arrays(points)
        # At most one entry per group is non-zero, so the sums are exact.
        asym = _variable_space(CalibrationOptions(lower_bounds=lower, upper_bounds=upper))
        assert np.array_equal(
            _condition_matrix(arrays, sym), sum_tied_columns(_condition_matrix(arrays, asym))
        )
        # Box and coupling rows are those of the mirrored, merged bounds.
        mirrored = _variable_space(
            CalibrationOptions(lower_bounds=merged_lo, upper_bounds=merged_hi)
        )
        first = [COEFFICIENT_NAMES.index(g[0]) for g in TIED_GROUPS]
        assert sym.box == tuple(mirrored.box[k] for k in first)
        assert np.array_equal(sym.lo, mirrored.lo[first])
        assert np.array_equal(sym.hi, mirrored.hi[first])
        coupling = sum_tied_columns(mirrored.coupling_matrix)
        # Rows of lambda1, mu1 and of lambda2, mu2.
        assert np.array_equal(sym.coupling_matrix, coupling[[0, 1, 4, 5]])
        assert np.array_equal(sym.coupling_matrix, coupling[[2, 3, 6, 7]])
        # Parameters map to mirrored coefficients.
        theta = np.minimum(sym.lo + np.array(u) * (sym.hi - sym.lo), sym.hi)
        c = sym.coefficients(theta)
        assert c.cf1 == c.cf2 == c.cb == theta[0]
        assert c.lambda1 == c.lambda2 == theta[1]
        assert c.mu1 == c.mu2 == theta[2]
        assert c.nu == theta[3]
        linear = linearized_values(c, symmetry=False)
        assert linearized_values(c, symmetry=True) == {
            "cf": linear["cf1"],
            "cb_lambda": linear["cb_lambda1"],
            "cb_mu": linear["cb_mu1"],
            "nu": linear["nu"],
        }


class TestCalibrateExact:
    def test_noiseless_round_trip(self):
        data = noiseless_protocol_dataset()
        opts = CalibrationOptions(symmetry=True)
        result = calibrate_exact(data, opts)
        assert result.violations == 0
        assert result.certificate == "exact"
        assert count_violations(result.coefficients, data, opts.epsilon).count == 0
        # The recovered coefficients reproduce every observed equilibrium.
        for point in data:
            report = solve_fixed_point(DivergeInstance(point.demand, result.coefficients))
            assert report.converged
            assert report.flow.xb1 == pytest.approx(point.flow.xb1, abs=1e-6)
            assert report.flow.xb2 == pytest.approx(point.flow.xb2, abs=1e-6)

    def test_planted_unsatisfiable_condition(self):
        # Point 2 sends link-1 demand down the bifurcating lane with an
        # empty feed lane: its cost is at least cb*lambda1*xb1 > 0 = J_1^f
        # for every admissible vector, so exactly that condition must be
        # counted; everything else is consistent with the truth below.
        truth = CostCoefficients(2.0, 2.0, 4.0, 0.6, 0.6, 0.8, 0.8, 1.2)
        good = equilibrium_point(truth, 0.5)
        bad = DataPoint(
            demand=DemandConfig(0.4, 0.6),
            flow=FlowDistribution(0.0, 0.4, 0.6, 0.0),
        )
        data = [good, bad]
        opts = CalibrationOptions(lower_bounds={"lambda1": 0.1})
        assert count_violations(truth, data, opts.epsilon).count == 1
        result = calibrate_exact(data, opts)
        assert result.violations == 1
        assert enumerate_min_violations(data, opts) == 1
        flagged = [
            (k, j)
            for k, flags in enumerate(result.indicator_assignment)
            for j, v in enumerate(flags)
            if v
        ]
        assert flagged == [(1, 1)]  # point 2, bifurcating condition of link 1

    def test_exhaustive_oracle_agreement_on_random_instances(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            truth = random_coefficients(rng)
            q1 = float(rng.uniform(0.25, 0.75))
            data = [equilibrium_point(truth, q1)]
            # Perturb the flow off the equilibrium manifold to force a
            # nontrivial optimum.
            p = data[0]
            delta = float(rng.uniform(0.02, 0.1)) * min(p.flow.xb1, p.flow.xf1, 0.3)
            flow = FlowDistribution(
                p.flow.xf1 - delta, p.flow.xb1 + delta, p.flow.xf2, p.flow.xb2
            )
            data = [DataPoint(demand=p.demand, flow=flow), equilibrium_point(truth, 1 - q1)]
            opts = CalibrationOptions()
            result = calibrate_exact(data, opts)
            assert result.violations == enumerate_min_violations(data, opts)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 2),
        symmetry=st.booleans(),
        epsilon=st.sampled_from((1e-3, 1e-2)),
    )
    def test_noisy_instances_match_oracle(self, seed, K, symmetry, epsilon):
        # On noisy data the optimum is usually nonzero; the MILP must find
        # the oracle's count, and its recount must meet the proven bound.
        rng = np.random.default_rng(seed)
        truth = random_coefficients(rng)
        try:
            data = [noisy_point(rng, truth, 0.03) for _ in range(K)]
        except AssertionError:  # solver did not converge for this truth
            return
        opts = CalibrationOptions(epsilon=epsilon, symmetry=symmetry)
        result = calibrate_exact(data, opts)
        assert result.certificate == "exact"
        assert result.violations == enumerate_min_violations(data, opts)
        assert result.violations == count_violations(result.coefficients, data, epsilon).count

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_zero_count_found_on_noisy_data(self, symmetry):
        # Every condition of NOISY_FIVE can hold at 1e-2 (the search finds
        # such a fit); an exact count above 0 would be a false certificate.
        opts = CalibrationOptions(epsilon=1e-2, symmetry=symmetry)
        assert calibrate_search(NOISY_FIVE, opts).violations == 0
        result = calibrate_exact(NOISY_FIVE, opts)
        assert result.violations == 0
        assert result.certificate == "exact"
        assert count_violations(result.coefficients, NOISY_FIVE, 1e-2).count == 0

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            calibrate_exact([], CalibrationOptions())

    def test_single_point_is_consistent(self):
        data = [equilibrium_point(CAL_VAL, 0.5)]
        result = calibrate_exact(data, CalibrationOptions(symmetry=True))
        assert result.violations == 0

    @pytest.mark.parametrize("symmetry, proven", [(True, 5), (False, 4)])
    def test_node_limit_leaves_a_heuristic_fit(self, monkeypatch, symmetry, proven):
        # Stopped after one node, HiGHS has not proven its incumbent
        # optimal: the fit is certified heuristic, and its count is still
        # the recount of the coefficients returned.
        opts = CalibrationOptions(epsilon=1e-3, symmetry=symmetry)
        result = calibrate_exact(NOISY_FIVE, opts)
        assert (result.certificate, result.violations) == ("exact", proven)
        monkeypatch.setattr(calibration, "MILP_NODE_LIMIT", 1)
        result = calibrate_exact(NOISY_FIVE, opts)
        assert result.certificate == "heuristic"
        assert result.violations == count_violations(result.coefficients, NOISY_FIVE, 1e-3).count

    def test_infeasible_bounds_rejected(self):
        data = [equilibrium_point(CAL_VAL, 0.5)]
        opts = CalibrationOptions(lower_bounds={"cf1": 5.0}, upper_bounds={"cf1": 2.0})
        with pytest.raises(ConfigurationError, match="cf1"):
            calibrate_exact(data, opts)

    def test_uniqueness_recorded(self):
        data = noiseless_protocol_dataset()
        opts = CalibrationOptions(symmetry=True)
        result = calibrate_exact(data, opts)
        assert result.uniqueness == check_uniqueness_condition(result.coefficients)
        assert result.uniqueness == (True, True)


class TestCalibrateSearch:
    def test_noiseless_round_trip(self):
        data = noiseless_protocol_dataset()
        opts = CalibrationOptions(symmetry=True, restarts=200, seed=0)
        result = calibrate_search(data, opts)
        assert result.violations == 0
        assert result.certificate == "heuristic"

    def test_noisy_proportions(self):
        # Uniform noise of amplitude 0.01 on the bifurcating proportions,
        # feed shares rebuilt from conservation.
        rng = np.random.default_rng(71)
        data = []
        for point in noiseless_protocol_dataset():
            xb1 = float(
                np.clip(point.flow.xb1 + rng.uniform(-0.01, 0.01), 0.0, point.demand.q1)
            )
            xb2 = float(
                np.clip(point.flow.xb2 + rng.uniform(-0.01, 0.01), 0.0, point.demand.q2)
            )
            flow = FlowDistribution.from_bifurcating_shares(point.demand, xb1, xb2)
            data.append(DataPoint(demand=point.demand, flow=flow, total_demand_vph=3000.0))
        opts = CalibrationOptions(symmetry=True, epsilon=1e-2, restarts=60, seed=0)
        result = calibrate_search(data, opts)
        assert result.violations <= 0.2 * 4 * len(data)

    def test_single_point_matches_exact(self):
        data = [equilibrium_point(CAL_VAL, 0.5)]
        opts = CalibrationOptions(symmetry=True, restarts=10, seed=3)
        search = calibrate_search(data, opts)
        exact = calibrate_exact(data, opts)
        assert search.violations == 0
        assert search.violations == exact.violations

    def test_never_worse_than_exact(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            truth = random_coefficients(rng)
            q1 = float(rng.uniform(0.3, 0.7))
            data = [equilibrium_point(truth, q1), equilibrium_point(truth, 1 - q1)]
            opts = CalibrationOptions(restarts=40, seed=11)
            search = calibrate_search(data, opts)
            exact = calibrate_exact(data, opts)
            assert search.violations >= exact.violations
            assert search.violations == exact.violations  # noiseless round trips agree

    def test_objective_reproducibility(self):
        data = noiseless_protocol_dataset()
        opts = CalibrationOptions(symmetry=True, restarts=30, seed=5)
        result = calibrate_search(data, opts)
        recount = count_violations(result.coefficients, data, opts.epsilon)
        assert result.violations == recount.count
        assert result.indicator_assignment == recount.flags

    def test_deterministic_given_seed(self):
        data = noiseless_protocol_dataset()
        opts = CalibrationOptions(symmetry=True, restarts=25, seed=9)
        first = calibrate_search(data, opts)
        second = calibrate_search(data, opts)
        assert first.coefficients == second.coefficients
        assert first.violations == second.violations
