"""Violation counting, the indicator system, and both calibration solvers."""

import hashlib
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning, linprog

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
    _STEP_FRACTIONS,
    COEFFICIENT_NAMES,
    FACTOR_BOUNDS,
    FACTOR_NAMES,
    RATE_BOUNDS,
    CalibrationResult,
    _condition_matrix,
    _exact_problem,
    _least_squares_start,
    _linear_rows,
    _objectives,
    _products,
    _recover_parameters,
    _variable_space,
    linearized_values,
)
from divergelane.model import SYMMETRIC_TIE, cost_gaps, residual_products, share_matrix

from conftest import (
    CAL_VAL,
    NOISY_FIVE_CSV,
    noiseless_protocol_dataset,
    noisy_protocol_grid,
    random_coefficients,
)

NOISY_FIVE = parse_dataset(NOISY_FIVE_CSV)


def equilibrium_point(c, q1, total_vph=3000.0):
    demand = DemandConfig(q1, 1.0 - q1)
    report = solve_fixed_point(DivergeInstance(demand, c))
    assert report.converged
    return DataPoint(demand=demand, flow=report.flow, total_demand_vph=total_vph)


def milp_box(data, opts):
    """The exact stages' region for the linearized variables: their box as
    (lower, upper) pairs, and the factor-coupling rows (``rows . z <= ub``)."""
    problem = _exact_problem(data, opts)
    return list(zip(problem.lo, problem.hi)), problem.coupling, np.zeros(len(problem.coupling))


def enumerate_min_violations(data, opts):
    """Oracle: try every indicator assignment (in increasing violation
    order) and return the first count whose satisfied conditions can all
    hold at the counting margin (product <= epsilon) somewhere in the
    MILP's box."""
    space = _variable_space(opts)
    matrix = _exact_problem(data, opts).conditions
    box, coupling, coupling_ub = milp_box(data, opts)
    n = matrix.shape[0]
    for count in range(n + 1):
        for violated in itertools.combinations(range(n), count):
            satisfied = [i for i in range(n) if i not in violated]
            result = linprog(
                np.zeros(len(space.names)),
                A_ub=np.vstack((matrix[satisfied], coupling)),
                b_ub=np.concatenate((np.full(len(satisfied), opts.epsilon), coupling_ub)),
                bounds=box,
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


def reference_objective(theta, conditions, space, epsilon):
    """The search objective of one parameter vector, scored alone through
    the batched objective."""
    count, positive, deficit = _objectives(theta[None, :], conditions, space, epsilon)[0].tolist()
    return (int(count), positive, deficit)


def reference_refine(theta, conditions, space, epsilon, *, sweeps=None):
    """Steepest compass search from ``theta`` with a shrinking step, one
    restart alone.  Returns its objective, its point, and when it reached
    the zero objective: ``(step fraction index, sweep)``, ``(-1, 0)`` at the
    start, or None.  ``sweeps``, if given, receives the number of sweeps run
    at each step fraction before the zero objective."""
    theta = theta.copy()
    value = reference_objective(theta, conditions, space, epsilon)
    if value == (0, 0.0, 0.0):
        return value, theta, (-1, 0)
    lo, hi = space.lo, space.hi
    span = hi - lo
    for f, fraction in enumerate(_STEP_FRACTIONS):
        for sweep in range(40):
            best = None
            for dim in range(theta.shape[0]):
                for direction in (1.0, -1.0):
                    trial = theta.copy()
                    step = fraction * span[dim]
                    trial[dim] = min(max(trial[dim] + direction * step, lo[dim]), hi[dim])
                    trial_value = reference_objective(trial, conditions, space, epsilon)
                    if trial_value < (value if best is None else best[0]):
                        best = trial_value, trial
            if best is None:
                break
            value, theta = best
            if value == (0, 0.0, 0.0):
                return value, theta, (f, sweep)
        if sweeps is not None:
            sweeps.append(sweep + 1)
    return value, theta, None


def reference_starts(data, opts):
    """The search's starts: the least-squares seed, then box samples."""
    space = _variable_space(opts)
    lo, hi = space.lo, space.hi
    rng = np.random.default_rng(opts.seed)
    ls = _least_squares_start(share_matrix(data), space)
    starts = [0.5 * (lo + hi) if ls is None else np.clip(ls, lo, hi)]
    for _ in range(opts.restarts - 1):
        starts.append(lo + rng.random(lo.shape[0]) * (hi - lo))
    return starts


def reference_search(data, opts):
    """:func:`calibrate_search` with its restarts run one after another: the
    first restart to reach the zero objective, the lowest index among those
    that reach it in the same sweep, or else the best."""
    space = _variable_space(opts)
    conditions = _condition_matrix(share_matrix(data), space)
    runs = [
        reference_refine(start, conditions, space, opts.epsilon)
        for start in reference_starts(data, opts)
    ]
    reached = [(when, i) for i, (_, _, when) in enumerate(runs) if when is not None]
    if reached:
        best_theta = runs[min(reached)[1]][1]
    else:
        best_theta = min(runs, key=lambda run: (run[0], space.coefficients(run[1]).as_tuple()))[1]
    coefficients = space.coefficients(best_theta)
    report = count_violations(coefficients, data, opts.epsilon)
    return CalibrationResult(
        coefficients=coefficients,
        violations=report.count,
        indicator_assignment=report.flags,
        certificate="heuristic",
        uniqueness=check_uniqueness_condition(coefficients),
    )


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

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
    def test_epsilon_must_be_finite_and_non_negative(self, epsilon):
        # A NaN or infinite margin used to count 0 violations on a point
        # with 2 at 1e-6.
        demand = DemandConfig(0.5, 0.5)
        point = DataPoint(demand, FlowDistribution(0.5, 0.0, 0.0, 0.5))
        assert count_violations(CAL_VAL, [point], 1e-6).count == 2
        with pytest.raises(ValueError, match="epsilon"):
            count_violations(CAL_VAL, [point], epsilon)

    def test_count_matches_flags(self):
        data = [equilibrium_point(CAL_VAL, 0.4), equilibrium_point(CAL_VAL, 0.6)]
        probe = CostCoefficients(3.0, 1.2, 2.0, 0.9, 0.4, 0.2, 0.8, 2.5)
        report = count_violations(probe, data, 1e-6)
        assert report.count == int(np.array(report.flags).sum())


def kind_bounds(name):
    """The calibration box's (lower, upper) pair for coefficient ``name``."""
    return FACTOR_BOUNDS if name in FACTOR_NAMES else RATE_BOUNDS


def box_coefficients(rng):
    """Coefficients drawn uniformly from the default calibration box."""
    return CostCoefficients(
        *(
            rng.uniform(*kind_bounds(name))
            for name in ("cf1", "cf2", "cb", "lambda1", "lambda2", "mu1", "mu2", "nu")
        )
    )


class TestBuildMilp:
    def test_row_and_variable_counts(self):
        # 8 linearized coefficients and 12 binaries; 12 condition rows and
        # one coupling row per factor, 4.
        data = [equilibrium_point(CAL_VAL, q) for q in (0.4, 0.5, 0.6)]
        c, integrality, bounds, constraints = build_milp(data, CalibrationOptions())
        assert c.shape == integrality.shape == bounds.lb.shape == bounds.ub.shape == (20,)
        assert constraints.A.shape == (16, 20)
        assert integrality.tolist() == [0] * 8 + [1] * 12
        assert c.tolist() == [0] * 8 + [1] * 12
        assert bounds.lb[8:].tolist() == [0] * 12
        assert bounds.ub[8:].tolist() == [1] * 12

    def test_symmetry_reduces_continuous_variables(self):
        data = [equilibrium_point(CAL_VAL, 0.5)]
        c, integrality, _, constraints = build_milp(data, CalibrationOptions(symmetry=True))
        assert c.shape == (4 + 4,)
        assert int(integrality.sum()) == 4
        assert constraints.A.shape == (4 + 2, 8)

    @pytest.mark.parametrize("points", [5, 57])
    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("epsilon", [1e-6, 1e-3])
    def test_no_entry_highs_ignores(self, points, symmetry, epsilon):
        # HiGHS drops constraint-matrix values of magnitude <= 1e-9 (its
        # small_matrix_value), so such an entry states a row it never reads.
        if points == 5:
            data = NOISY_FIVE
        else:
            data = noisy_protocol_grid(sweep_vph=tuple(1150.0 + 12.5 * i for i in range(57)))
        _, _, _, constraints = build_milp(data, CalibrationOptions(epsilon, symmetry=symmetry))
        matrix = np.asarray(constraints.A)
        assert np.abs(matrix[matrix != 0]).min() > 1e-9

    @settings(max_examples=300)
    @given(symmetry=st.booleans(), u=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    def test_every_search_point_is_a_milp_point(self, symmetry, u):
        # Any parameter vector in the search box, linearized, lies in the
        # MILP's column bounds and coupling rows, and recovers to rounding.
        opts = CalibrationOptions(symmetry=symmetry)
        space = _variable_space(opts)
        theta = space.lo + np.array(u[: len(space.names)]) * (space.hi - space.lo)
        theta = np.minimum(theta, space.hi)
        z = space.linearize(theta)
        box, coupling, coupling_ub = milp_box(NOISY_FIVE, opts)
        assert all(lower <= value <= upper for value, (lower, upper) in zip(z, box))
        assert np.all(coupling @ z <= coupling_ub)
        np.testing.assert_allclose(_recover_parameters(z, space), theta, rtol=1e-15, atol=0)

    def test_rows_reproduce_products(self):
        # The coefficient part of each condition row, evaluated at fixed
        # coefficients, reproduces the product count_violations evaluates,
        # and the cost-gap rows the least-squares start fits reproduce the
        # gaps; with and without symmetry, at several probes.
        rng = np.random.default_rng(67)
        data = [equilibrium_point(CAL_VAL, 0.45), equilibrium_point(CAL_VAL, 0.55)]
        data += [noisy_point(rng, random_coefficients(rng), 0.02) for _ in range(3)]
        arrays = share_matrix(data)
        fixed = CostCoefficients(2.0, 2.0, 2.0, 0.8, 0.8, 0.3, 0.3, 1.5)
        for symmetry in (False, True):
            opts = CalibrationOptions(symmetry=symmetry)
            _, _, _, constraints = build_milp(data, opts)
            gap_rows = np.stack(
                _linear_rows(cost_gaps, arrays, _variable_space(opts)), axis=1
            ).reshape(2 * len(data), -1)
            for probe in [fixed] + [random_coefficients(rng) for _ in range(4)]:
                if symmetry:
                    probe = CostCoefficients(
                        probe.cf1, probe.cf1, probe.cf1, probe.lambda1, probe.lambda1,
                        probe.mu1, probe.mu1, probe.nu,
                    )
                z = np.array(list(linearized_values(probe, symmetry).values()))
                report = count_violations(probe, data, opts.epsilon)
                products = constraints.A[: 4 * len(data), : z.size] @ z
                np.testing.assert_allclose(products, report.products.ravel(), rtol=0, atol=1e-12)
                gaps = np.column_stack(cost_gaps(probe, *arrays)).ravel()
                np.testing.assert_allclose(gap_rows @ z, gaps, rtol=0, atol=1e-12)

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
            actual = _condition_matrix(share_matrix(data), space)
            assert np.array_equal(actual, np.array(expected))

    def test_encoding_soundness(self):
        # Setting the binaries to the violation flags satisfies every row
        # and bound for any coefficients in the box.
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
                x = np.array(z + [float(f) for f in np.ravel(report.flags)])
                assert np.all(bounds.lb <= x) and np.all(x <= bounds.ub)
                assert np.all(constraints.A @ x <= constraints.ub + 1e-9)


class TestPinnedMilp:
    """:func:`build_milp`'s arrays and the least-squares start, byte for
    byte, on the benchmark's noisy set and its every-third subset at a
    margin of 1e-3.  The digests cover each array's C-ordered bytes, so a
    change in the last bit of a big-M or of a start shows here even where
    the fits, and the tests that compare them, do not move."""

    @pytest.fixture(scope="class")
    def grid(self):
        return noisy_protocol_grid()

    @pytest.mark.parametrize(
        "stride, symmetry, expected",
        [
            (1, True, "fc2f929cbbc834c708e88a997e16a7f9720f9a6161f1e07c125096e8c7b476d5"),
            (1, False, "686051b93c57a012a11af5f7be83481dbf6767e12590a0e5b315ad0fae3c6789"),
            (3, True, "1bd26b07ad11bdf736a7757bc23b10b42dd2225d552669adebf8cc5480cb9be8"),
            (3, False, "fcf946aa2245fbeccb84b9342230493c20fc7b3f8930dc098d74698edcd65ee9"),
        ],
        ids=["15-symmetric", "15-asymmetric", "5-symmetric", "5-asymmetric"],
    )
    def test_bytes(self, grid, stride, symmetry, expected):
        data = grid[::stride]
        opts = CalibrationOptions(epsilon=1e-3, symmetry=symmetry)
        c, integrality, bounds, constraints = build_milp(data, opts)
        start = _least_squares_start(share_matrix(data), _variable_space(opts))
        digest = hashlib.sha256(b"no start" if start is None else b"")
        arrays = (c, integrality, bounds.lb, bounds.ub, constraints.A, constraints.ub)
        for array in arrays if start is None else (*arrays, start):
            array = np.ascontiguousarray(array)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == expected


class TestPinnedExactFit:
    """:func:`calibrate_exact`'s fits on the benchmark's every-third subset
    at a margin of 1e-3, to the last bit.  A HiGHS option or an encoding
    change that leads the solver to another fit of the same count shows here
    even where the count and the certificate do not move."""

    @pytest.mark.parametrize(
        "symmetry, coefficients, violations",
        [
            (
                True,
                (1.0, 1.0, 1.0, 0.7452486168308152, 0.7452486168308152,
                 0.6684967900468761, 0.6684967900468761, 1.2230878198370294),
                5,
            ),
            (
                False,
                (1.0, 2.8192180195144627, 10.0, 0.008409995099171896, 0.17280828181155944,
                 0.01101442931601986, 0.1343098097855591, 9.59014682239142),
                4,
            ),
        ],
        ids=["symmetric", "asymmetric"],
    )
    def test_fit(self, symmetry, coefficients, violations):
        opts = CalibrationOptions(epsilon=1e-3, symmetry=symmetry)
        result = calibrate_exact(noisy_protocol_grid()[::3], opts)
        assert result.coefficients == CostCoefficients(*coefficients)
        assert (result.violations, result.certificate) == (violations, "exact")


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


class TestMilpFeasibleByConstruction:
    """:func:`build_milp` has a feasible point for any data: every box point
    with all its conditions released."""

    @settings(max_examples=200)
    @given(
        points=feasible_points(),
        symmetry=st.booleans(),
        epsilon=st.sampled_from((1e-6, 1e-3)),
        u=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    )
    def test_every_condition_released_is_feasible(self, points, symmetry, epsilon, u):
        # Every indicator at 1: the claim that lets calibrate_exact switch
        # off HiGHS's first-feasible-point heuristic.
        opts = CalibrationOptions(epsilon, symmetry=symmetry)
        space = _variable_space(opts)
        theta = space.lo + np.array(u[: len(space.names)]) * (space.hi - space.lo)
        theta = np.minimum(theta, space.hi)
        _, _, bounds, constraints = build_milp(points, opts)
        x = np.concatenate((space.linearize(theta), np.ones(4 * len(points))))
        assert np.all(bounds.lb <= x) and np.all(x <= bounds.ub)
        assert np.all(constraints.A @ x <= constraints.ub)


class TestSymmetryTie:
    """Symmetry is the asymmetric encoding with tied coefficients."""

    @settings(max_examples=300)
    @given(
        points=feasible_points(),
        u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_symmetric_space_is_the_tied_asymmetric_one(self, points, u):
        sym = _variable_space(CalibrationOptions(symmetry=True))
        assert sym.names == ("cf", "cb_lambda", "cb_mu", "nu")
        arrays = share_matrix(points)
        # At most one entry per group is non-zero, so the sums are exact.
        asym = _variable_space(CalibrationOptions())
        assert np.array_equal(
            _condition_matrix(arrays, sym), sum_tied_columns(_condition_matrix(arrays, asym))
        )
        # The MILP's box and coupling rows are those of each group's first
        # coefficient.
        first = [COEFFICIENT_NAMES.index(g[0]) for g in TIED_GROUPS]
        sym_box, sym_coupling, sym_ub = milp_box(points, CalibrationOptions(symmetry=True))
        asym_box, asym_coupling, asym_ub = milp_box(points, CalibrationOptions())
        assert sym_box == [asym_box[k] for k in first]
        assert np.array_equal(sym.lo, asym.lo[first])
        assert np.array_equal(sym.hi, asym.hi[first])
        coupling = sum_tied_columns(asym_coupling)
        # Rows of lambda1, mu1 and of lambda2, mu2.
        assert np.array_equal(sym_coupling, coupling[[0, 2]])
        assert np.array_equal(sym_coupling, coupling[[1, 3]])
        assert np.array_equal(sym_ub, asym_ub[[0, 2]])
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


class TestSearchKernel:
    """The search scores its rows as the MILP's condition rows dotted with
    their linearized values, not through the elementwise cost kernel."""

    @settings(max_examples=300)
    @given(
        points=feasible_points(),
        symmetry=st.booleans(),
        u=st.lists(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), min_size=1, max_size=4),
        epsilon=st.sampled_from((1e-6, 1e-3, 1e-2)),
    )
    def test_products_and_count_match_the_elementwise_kernel(self, points, symmetry, u, epsilon):
        space = _variable_space(CalibrationOptions(symmetry=symmetry))
        theta = space.lo + np.array(u)[:, : len(space.names)] * (space.hi - space.lo)
        theta = np.minimum(theta, space.hi)
        arrays = share_matrix(points)
        conditions = _condition_matrix(arrays, space)
        products = _products(theta, conditions, space)
        counts = _objectives(theta, conditions, space, epsilon)[:, 0]
        for row, actual, count in zip(theta, products, counts):
            c = space.coefficients(row)
            expected = np.stack(residual_products(c, *arrays), -1).ravel()
            tol = 1e-12 * max(1.0, float(np.abs(expected).max()))
            np.testing.assert_allclose(actual, expected, rtol=0, atol=tol)
            if not np.any(np.abs(expected - epsilon) <= tol):
                assert count == count_violations(c, points, epsilon).count

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_rows_score_alike_in_any_block(self, symmetry):
        # A row's objective may not depend on the rows scored with it.  A
        # BLAS matrix product breaks this: its rounding of a row depends on
        # the block's shape, so a restart scored alone would not follow the
        # path it follows among the others.
        data = noisy_protocol_grid()
        space = _variable_space(CalibrationOptions(symmetry=symmetry))
        conditions = _condition_matrix(share_matrix(data), space)
        rng = np.random.default_rng(11)
        rows, others = (
            space.lo + rng.random((m, len(space.names))) * (space.hi - space.lo) for m in (40, 3000)
        )
        mixed = np.empty((len(rows) + len(others), len(space.names)))
        at = rng.permutation(len(mixed))[: len(rows)]
        mixed[at] = rows
        mixed[np.setdiff1d(np.arange(len(mixed)), at)] = others
        assert len(mixed) > 4 * (calibration._BLOCK_PRODUCTS // len(conditions))
        expected = _objectives(rows, conditions, space, 1e-3)
        alone = [_objectives(row[None, :], conditions, space, 1e-3)[0] for row in rows]
        assert np.array_equal(np.array(alone), expected)
        assert np.array_equal(_objectives(rows[::-1], conditions, space, 1e-3)[::-1], expected)
        assert np.array_equal(_objectives(mixed, conditions, space, 1e-3)[at], expected)


class TestDefaultBox:
    """Both solvers search the module's one coefficient box."""

    def test_corners_are_ordered_coefficients(self):
        bounds = [kind_bounds(n) for n in COEFFICIENT_NAMES]
        for corner in zip(*bounds):
            CostCoefficients(*corner)
        assert all(lower <= upper for lower, upper in bounds)

    def test_tied_coefficients_share_their_bounds(self):
        # _variable_space bounds each parameter by its kind, read from the
        # factor mask, which holds only when every tied group is of one kind.
        for j in set(SYMMETRIC_TIE):
            group = [n for n, t in zip(COEFFICIENT_NAMES, SYMMETRIC_TIE) if t == j]
            assert len({n in FACTOR_NAMES for n in group}) == 1, group
        for symmetry in (False, True):
            space = _variable_space(CalibrationOptions(symmetry=symmetry))
            for name, j in zip(COEFFICIENT_NAMES, space.tie):
                assert (space.lo[j], space.hi[j]) == kind_bounds(name), name


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
        # empty feed lane: its cost is at least nu*xb1*xb2 > 0 = J_1^f, and
        # nu >= 1 on the box keeps that product at or above 0.085, so exactly
        # that condition must be counted.  Link 2 of point 2 splits at the
        # truth's equal costs, 10*xf2 = 0.5*(xb2 + 0.4) + 0.4*xb2, and point
        # 1 is the truth's equilibrium.
        truth = CostCoefficients(2.0, 10.0, 1.0, 0.5, 0.5, 0.5, 0.5, 1.0)
        good = equilibrium_point(truth, 0.5)
        xb2 = (10.0 * 0.6 - 0.5 * 0.4) / (10.0 + 0.5 + 0.4)
        bad = DataPoint(
            demand=DemandConfig(0.4, 0.6),
            flow=FlowDistribution(0.0, 0.4, 0.6 - xb2, xb2),
        )
        data = [good, bad]
        opts = CalibrationOptions()
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

    @settings(max_examples=40)
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

    @pytest.mark.parametrize("symmetry, proven", [(True, 5), (False, 17)])
    def test_node_limit_leaves_a_heuristic_fit(self, monkeypatch, symmetry, proven):
        # Stopped after one node, HiGHS has not proven its incumbent
        # optimal: the fit is certified heuristic, and its count is still
        # the recount of the coefficients returned.  The asymmetric MILP of
        # NOISY_FIVE closes at the root, so that case takes the 15 points.
        data = NOISY_FIVE if symmetry else noisy_protocol_grid()
        opts = CalibrationOptions(epsilon=1e-3, symmetry=symmetry)
        result = calibrate_exact(data, opts)
        assert (result.certificate, result.violations) == ("exact", proven)
        monkeypatch.setattr(calibration, "MILP_NODE_LIMIT", 1)
        result = calibrate_exact(data, opts)
        assert result.certificate == "heuristic"
        assert result.violations == count_violations(result.coefficients, data, 1e-3).count

    def test_milp_without_a_solution_raises(self, monkeypatch):
        # HiGHS returns no point when it stops before finding a feasible one.
        monkeypatch.setattr(
            "scipy.optimize.milp",
            lambda *args, **kwargs: SimpleNamespace(x=None, message="no point found"),
        )
        with pytest.raises(
            ConfigurationError, match="^the calibration MILP has no solution: no point found$"
        ):
            calibrate_exact(NOISY_FIVE, CalibrationOptions(epsilon=1e-3))

    def test_lp_without_an_optimum_keeps_the_milp_point(self, monkeypatch):
        # When HiGHS finds no optimum for the fit LP, the MILP's own point is
        # the fit, printed with its recount.
        real = scipy.optimize.milp
        points = []

        def recording_milp(*args, **kwargs):
            result = real(*args, **kwargs)
            points.append(result.x)
            return result

        monkeypatch.setattr("scipy.optimize.milp", recording_milp)
        monkeypatch.setattr(
            "scipy.optimize.linprog",
            lambda *args, **kwargs: SimpleNamespace(status=4, message="numerical difficulties"),
        )
        opts = CalibrationOptions(epsilon=1e-3)
        result = calibrate_exact(NOISY_FIVE, opts)
        space = _variable_space(opts)
        [x] = points
        z = x[:len(space.names)]
        assert result.coefficients == space.coefficients(_recover_parameters(z, space))
        assert result.violations == count_violations(result.coefficients, NOISY_FIVE, 1e-3).count

    def test_infeasible_lp_at_the_default_margin_prints_a_fit(self):
        # HiGHS accepts the MILP's point within its feasibility tolerance, so
        # at 1e-6 the LP can find the kept rows infeasible.  The MILP's point
        # is then the fit, certified heuristic with its recount.
        data = noisy_protocol_grid(seed=14)[1::3]
        result = calibrate_exact(data, CalibrationOptions(symmetry=True))
        assert (result.certificate, result.violations) == ("heuristic", 10)
        assert result.violations == count_violations(result.coefficients, data, 1e-6).count

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-2])
    @pytest.mark.parametrize("symmetry", [True, False])
    @pytest.mark.parametrize("points", [5, 15])
    def test_fit_has_the_largest_margin_of_its_kept_rows(self, points, symmetry, epsilon):
        # The fit is the LP point that pushes the kept products furthest
        # below epsilon: no unflagged product exceeds epsilon - t*, where t*
        # is that LP's optimum, solved again here from the exact stages'
        # rows.  An exact count releases exactly the flagged conditions, so
        # the kept rows are the unflagged ones.  NOISY_FIVE is the 15-point
        # set's every-third subset.
        data = NOISY_FIVE if points == 5 else noisy_protocol_grid()
        opts = CalibrationOptions(epsilon=epsilon, symmetry=symmetry)
        result = calibrate_exact(data, opts)
        assert result.certificate == "exact"
        kept = ~np.ravel(result.indicator_assignment)
        box, coupling, coupling_ub = milp_box(data, opts)
        conditions = _exact_problem(data, opts).conditions[kept]
        lp = linprog(
            np.append(np.zeros(coupling.shape[1]), -1.0),
            A_ub=np.vstack((
                np.column_stack((conditions, np.ones(len(conditions)))),
                np.column_stack((coupling, np.zeros(len(coupling)))),
            )),
            b_ub=np.concatenate((np.full(len(conditions), epsilon), coupling_ub)),
            bounds=box + [(0.0, epsilon)],
            method="highs",
        )
        assert lp.status == 0
        products = count_violations(result.coefficients, data, epsilon).products.ravel()
        assert products[kept].max() <= epsilon + lp.fun + 1e-9

    @staticmethod
    def recording_milp(monkeypatch, *emitted):
        """Replace :func:`scipy.optimize.milp` by a fake that records its
        options, emits each ``(message, category)`` warning and then solves
        with the real one."""
        real = scipy.optimize.milp
        calls = []

        def fake(*args, **kwargs):
            calls.append(dict(kwargs["options"]))
            for message, category in emitted:
                warnings.warn(message, category)
            return real(*args, **kwargs)

        monkeypatch.setattr("scipy.optimize.milp", fake)
        return calls

    def test_options_reach_highs(self, monkeypatch):
        calls = self.recording_milp(monkeypatch)
        calibrate_exact(NOISY_FIVE, CalibrationOptions(epsilon=1e-3))
        [options] = calls
        assert options["node_limit"] == calibration.MILP_NODE_LIMIT
        assert options["mip_heuristic_run_feasibility_jump"] is False

    def test_unrecognized_option_warnings_are_silenced(self, monkeypatch):
        # scipy's warning for an option it passes on, and a HiGHS build's for
        # one it does not know; pytest turns an escaped warning into an error.
        self.recording_milp(
            monkeypatch,
            ("Unrecognized options detected: {'mip_heuristic_run_feasibility_jump'}. "
             "These will be passed to HiGHS verbatim.", RuntimeWarning),
            ("Unrecognized options detected: {'mip_heuristic_run_feasibility_jump': False}",
             OptimizeWarning),
        )
        result = calibrate_exact(NOISY_FIVE, CalibrationOptions(epsilon=1e-3))
        assert (result.certificate, result.violations) == ("exact", 4)

    @pytest.mark.parametrize(
        "message, category",
        [
            ("overflow encountered in multiply", RuntimeWarning),
            ("Unrecognized options detected: {'x'}", UserWarning),
            ("The problem may be infeasible. Unrecognized options detected", OptimizeWarning),
        ],
    )
    def test_other_warnings_surface(self, monkeypatch, message, category):
        self.recording_milp(monkeypatch, (message, category))
        with pytest.warns(category, match=message[:20]):
            calibrate_exact(NOISY_FIVE, CalibrationOptions(epsilon=1e-3))

    def test_closed_stdout_is_left_alone(self):
        # With file descriptor 1 closed there is no stdout to silence, so
        # the solve runs without the redirect and fd 1 stays closed.
        src = str(Path(calibration.__file__).resolve().parents[1])
        code = (
            "import os, sys\n"
            "from divergelane import CalibrationOptions, calibrate_exact, parse_dataset\n"
            "data = parse_dataset(sys.argv[1])\n"
            "os.close(1)\n"
            "result = calibrate_exact(data, CalibrationOptions(epsilon=1e-3))\n"
            "try:\n"
            "    os.fstat(1)\n"
            "except OSError:\n"
            "    print(result.certificate, result.violations, file=sys.stderr)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", code, NOISY_FIVE_CSV],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 0, child.stderr.decode()
        assert child.stderr.decode() == "exact 4\n"

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

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(1, 6),
        symmetry=st.booleans(),
        restarts=st.integers(1, 6),
        epsilon=st.sampled_from((1e-4, 1e-2)),
    )
    def test_lockstep_matches_sequential_restarts(self, seed, K, symmetry, restarts, epsilon):
        # At both margins some draws stop at the first sweep in which a
        # restart reaches the zero objective and some run every sweep (9 and
        # 11 of the 20 here); either way the search returns what the
        # restarts give one by one.
        rng = np.random.default_rng(seed)
        truth = random_coefficients(rng)
        try:
            data = [noisy_point(rng, truth, 0.01) for _ in range(K)]
        except AssertionError:  # solver did not converge for this truth
            return
        opts = CalibrationOptions(
            epsilon=epsilon, symmetry=symmetry, restarts=restarts, seed=seed % 1000
        )
        result = calibrate_search(data, opts)
        expected = reference_search(data, opts)
        assert result.coefficients == expected.coefficients
        assert result.violations == expected.violations
        assert result.indicator_assignment == expected.indicator_assignment

    def test_earliest_zero_wins_and_ties_go_to_the_lower_index(self, monkeypatch):
        # Alone, restarts 1 and 2 reach the zero objective in the first sweep
        # of step fraction 1, at different points, restart 3 a sweep later,
        # and restart 0 only at fraction 2.  The search stops after that
        # first sweep and returns restart 1's point.
        demand = DemandConfig(0.6484381455503759, 1.0 - 0.6484381455503759)
        flow = FlowDistribution.from_bifurcating_shares(demand, 0.36786159834750215, 0.0)
        data = [DataPoint(demand, flow)]
        opts = CalibrationOptions(epsilon=1e-2, symmetry=True, restarts=4, seed=2)
        space = _variable_space(opts)
        conditions = _condition_matrix(share_matrix(data), space)
        sweeps = [[] for _ in range(opts.restarts)]
        runs = [
            reference_refine(start, conditions, space, opts.epsilon, sweeps=ran)
            for start, ran in zip(reference_starts(data, opts), sweeps)
        ]
        assert [when for _, _, when in runs] == [(2, 1), (1, 0), (1, 0), (1, 1)]
        assert runs[1][1].tolist() != runs[2][1].tolist()
        calls = 0
        objectives = calibration._objectives

        def counting(theta, *args):
            nonlocal calls
            calls += 1
            return objectives(theta, *args)

        monkeypatch.setattr(calibration, "_objectives", counting)
        result = calibrate_search(data, opts)
        assert result.coefficients == space.coefficients(runs[1][1])
        assert result == reference_search(data, opts)
        # The starts, every sweep of fraction 0 (as many as its longest
        # restart ran) and one sweep of fraction 1.
        assert calls == 1 + max(ran[0] for ran in sweeps) + 1

    @pytest.mark.parametrize(
        "values, winner",
        [
            # Rows 1 and 2 reach the zero objective (-0.0 is zero): the
            # earlier wins, though row 2 has the smaller parameters.
            ([[1, 0.5, 0], [0, 0, -0.0], [0, 0, 0], [0, 0, 0]], 1),
            # None reaches it; rows 0, 2 and 3 tie on the objective: the
            # smaller parameters win at a higher index, then the lower index.
            ([[2, 0.1, 0], [3, 0, 0], [2, 0.1, 0], [2, 0.1, 0]], 2),
            # A smaller count beats a smaller sum and smaller parameters.
            ([[2, 0.1, 0], [1, 5.0, 1.0], [2, 0.1, 0], [2, 0.1, 0]], 1),
            # A smaller positive sum beats a smaller deficit.
            ([[1, 0.1, 3.0], [3, 0, 0], [1, 0.2, 0], [1, 0.2, 0]], 0),
        ],
    )
    def test_winner_rule(self, monkeypatch, values, winner):
        # Row 2 (and its copy, row 3) has the smallest parameters, then row 1.
        thetas = np.array(
            [[3.0, 0.5, 0.5, 2.0], [2.0, 0.5, 0.6, 2.0], [2.0, 0.5, 0.4, 2.0], [2.0, 0.5, 0.4, 2.0]]
        )
        monkeypatch.setattr(
            calibration,
            "_lockstep_refine",
            lambda *args: (thetas.copy(), np.array(values, dtype=float)),
        )
        opts = CalibrationOptions(symmetry=True, restarts=4, seed=0)
        result = calibrate_search([equilibrium_point(CAL_VAL, 0.5)], opts)
        assert result.coefficients == _variable_space(opts).coefficients(thetas[winner])

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            calibrate_search([], CalibrationOptions())

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_no_interior_link_starts_at_the_box_centre(self, symmetry):
        # Every link has one class empty, so no cost-equality row exists.
        data = [
            DataPoint(DemandConfig(0.4, 0.6), FlowDistribution(0.4, 0.0, 0.0, 0.6)),
            DataPoint(DemandConfig(0.7, 0.3), FlowDistribution(0.0, 0.7, 0.3, 0.0)),
        ]
        opts = CalibrationOptions(symmetry=symmetry, restarts=3, seed=4)
        assert _least_squares_start(share_matrix(data), _variable_space(opts)) is None
        assert calibrate_search(data, opts) == reference_search(data, opts)

    @pytest.mark.parametrize("symmetry", [True, False])
    @pytest.mark.parametrize("step_vph", [50.0, 25.0])
    def test_positive_ray_starts_inside_the_box(self, symmetry, step_vph):
        # Only the fitted ray's direction matters.  The benchmark's symmetric
        # set (noise seed 2019, 50 vph) fits every rate positive but below
        # 1e-9, and some seeds fit a ray that leaves the box once scaled onto
        # the rate floor.
        space = _variable_space(CalibrationOptions(symmetry=symmetry))
        sweep = tuple(np.arange(1150.0, 1850.0 + step_vph / 2, step_vph).tolist())
        assert len(sweep) == (15 if step_vph == 50.0 else 29)
        for seed in (2019, 1, 2, 3, 4, 5, 6):
            data = noisy_protocol_grid(seed=seed, sweep_vph=sweep)
            start = _least_squares_start(share_matrix(data), space)
            assert start is not None, seed
            assert np.all(space.lo <= start) and np.all(start <= space.hi), seed
            space.coefficients(start)

    def test_deterministic_given_seed(self):
        data = noiseless_protocol_dataset()
        opts = CalibrationOptions(symmetry=True, restarts=25, seed=9)
        first = calibrate_search(data, opts)
        second = calibrate_search(data, opts)
        assert first.coefficients == second.coefficients
        assert first.violations == second.violations


class TestLongChain:
    """The benchmark's 15-point noisy set at a margin of 1e-3, where no fit
    reaches zero and a few restarts creep through every sweep of the finer
    step fractions."""

    @pytest.fixture(scope="class")
    def data(self):
        return noisy_protocol_grid()

    def test_creeping_restart_matches_reference(self, data):
        opts = CalibrationOptions(epsilon=1e-3, symmetry=True)
        space = _variable_space(opts)
        conditions = _condition_matrix(share_matrix(data), space)
        start = reference_starts(data, opts)[180]
        sweeps = []
        value, theta, _ = reference_refine(start, conditions, space, opts.epsilon, sweeps=sweeps)
        assert sum(count == 40 for count in sweeps) >= 3
        thetas, values = calibration._lockstep_refine(
            start[None, :], conditions, space, opts.epsilon
        )
        assert thetas[0].tolist() == theta.tolist()
        count, positive, deficit = values[0].tolist()
        assert (int(count), positive, deficit) == value

    def test_one_row_blocks_change_nothing(self, monkeypatch, data):
        # At the default block size both the rows below and the first sweep
        # of the search (20 restarts, 16 moves each) span several blocks.
        opts = CalibrationOptions(epsilon=1e-3, restarts=20)
        space = _variable_space(opts)
        conditions = _condition_matrix(share_matrix(data), space)
        rng = np.random.default_rng(5)
        theta = space.lo + rng.random((1000, len(space.lo))) * (space.hi - space.lo)
        per_block = calibration._BLOCK_PRODUCTS // (4 * len(data))
        assert per_block < min(len(theta), opts.restarts * 2 * len(space.lo))
        expected = _objectives(theta, conditions, space, opts.epsilon)
        fit = calibrate_search(data, opts)
        monkeypatch.setattr(calibration, "_BLOCK_PRODUCTS", 1)
        assert np.array_equal(_objectives(theta, conditions, space, opts.epsilon), expected)
        assert calibrate_search(data, opts) == fit

    @pytest.mark.parametrize("symmetry, before", [(True, 1925), (False, 1288)])
    def test_batched_calls_capped(self, monkeypatch, data, symmetry, before):
        # ``before``: the batched objective calls of the lockstep search that
        # looked ahead only to the end of each sweep.  The steepest search
        # makes one batched call per sweep (396 and 384 here), so the cap of
        # 0.6 times as many (1,155 and 772) bounds its total sweeps.
        calls = 0
        objectives = calibration._objectives

        def counting(theta, *args):
            nonlocal calls
            calls += 1
            return objectives(theta, *args)

        monkeypatch.setattr(calibration, "_objectives", counting)
        calibrate_search(data, CalibrationOptions(epsilon=1e-3, symmetry=symmetry))
        assert calls <= 0.6 * before
