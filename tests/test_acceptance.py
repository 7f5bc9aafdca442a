"""End-to-end acceptance checks.

Each test exercises one numbered contract of the package (solver
certification, oracle equivalence, calibration round trips, protocol
shapes) at its stated tolerance and runtime budget, and prints one
PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see
them.
"""

import time

import numpy as np
import pytest

from divergelane import (
    AuxiliaryAction,
    CalibrationOptions,
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    SolverOptions,
    best_response,
    best_response_slope,
    bifurcating_cost,
    calibrate_exact,
    calibrate_search,
    check_uniqueness_condition,
    feed_through_cost,
    FlowDistribution,
    generate_dataset,
    is_wardrop_equilibrium,
    load_dataset,
    nash_player_cost,
    SimulationConfig,
    solve_fixed_point,
    solve_grid_oracle,
    uniqueness_margins,
    write_coefficients,
)
from divergelane.cli import main

from conftest import (
    CAL_VAL,
    PROTOCOL_SWEEP_VPH,
    PROTOCOL_TOTAL_VPH,
    noiseless_protocol_dataset,
    random_uniqueness_instance,
)

CERTIFICATION_SEED = 20_240_801


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {number}: {detail}"


def certification_instances(count: int):
    rng = np.random.default_rng(CERTIFICATION_SEED)
    return [random_uniqueness_instance(rng) for _ in range(count)]


def test_criterion_01_uniqueness_condition_on_reference_coefficients(tmp_path, capsys):
    path = tmp_path / "reference.coeffs"
    write_coefficients(path, CAL_VAL, symmetry=True)
    code = main(["check", "--coeffs", str(path)])
    out = capsys.readouterr().out
    margins_ok = code == 0
    for line in out.strip().splitlines()[1:]:
        _, margin, verdict = line.split(",")
        margins_ok = margins_ok and verdict == "true"
        margins_ok = margins_ok and abs(float(margin) - 0.711) <= 1e-12
    start = time.perf_counter()
    margins = uniqueness_margins(CAL_VAL)
    verdicts = check_uniqueness_condition(CAL_VAL)
    elapsed = time.perf_counter() - start
    margins_ok = margins_ok and verdicts == (True, True)
    margins_ok = margins_ok and all(abs(m - 0.711) <= 1e-12 for m in margins)
    ok = margins_ok and elapsed < 1e-3
    with capsys.disabled():
        report(1, ok, f"margins {margins[0]:.3f}/{margins[1]:.3f}, check in {elapsed * 1e6:.0f} us")


def test_criterion_02_wardrop_certification_sweep(capsys):
    instances = certification_instances(1000)
    start = time.perf_counter()
    opts = SolverOptions(max_iterations=10_000)
    all_ok = True
    worst_iterations = 0
    for g in instances:
        result = solve_fixed_point(g, opts)
        worst_iterations = max(worst_iterations, result.iterations)
        all_ok = all_ok and result.converged
        all_ok = all_ok and is_wardrop_equilibrium(g, result.flow, 1e-9)
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 5.0
    with capsys.disabled():
        report(2, ok, f"1000 instances certified at 1e-9, max {worst_iterations} sweeps, {elapsed:.2f} s")


def test_criterion_03_oracle_equivalence(capsys):
    instances = certification_instances(100)
    start = time.perf_counter()
    worst = 0.0
    for g in instances:
        solved = solve_fixed_point(g)
        oracle = solve_grid_oracle(g, 1e-3)
        worst = max(
            worst,
            abs(oracle.xb1 - solved.flow.xb1),
            abs(oracle.xb2 - solved.flow.xb2),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-3 and elapsed < 60.0
    with capsys.disabled():
        report(3, ok, f"100 instances, max oracle-solver gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_nash_wardrop_equivalence(capsys):
    instances = certification_instances(50)
    worst_excess = 0.0
    spot_checks = 0
    for g in instances:
        solved = solve_fixed_point(g)
        assert solved.converged
        y_star = (solved.flow.xb1, solved.flow.xb2)
        c, demand = g.costs, g.demand
        for link in (1, 2):
            q_i = demand.share(link)
            other = y_star[1] if link == 1 else y_star[0]
            grid = np.arange(0.0, q_i, 1e-4)
            grid = np.append(grid[grid <= q_i - 5e-5], q_i)
            # Squared cost gap over all unilateral deviations, vectorized.
            cf = c.feed_rate(link)
            gap = cf * (q_i - grid) - (
                c.cb * (c.same_factor(link) * grid + c.cross_factor(link) * other)
                + c.nu * grid * other
            )
            deviation_costs = gap * gap
            if spot_checks < 5:
                probe = int(len(grid) // 2)
                y = (
                    AuxiliaryAction(float(grid[probe]), y_star[1])
                    if link == 1
                    else AuxiliaryAction(y_star[0], float(grid[probe]))
                )
                assert nash_player_cost(c, demand, y, link) == pytest.approx(
                    float(deviation_costs[probe]), rel=1e-12, abs=1e-300
                )
                spot_checks += 1
            own = nash_player_cost(c, demand, AuxiliaryAction(*y_star), link)
            worst_excess = max(worst_excess, own - float(deviation_costs.min()))
    ok = worst_excess <= 1e-12
    with capsys.disabled():
        report(4, ok, f"50 instances, worst cost excess over deviation grid {worst_excess:.2e}")


def test_criterion_05_slope_bounds(capsys):
    rng = np.random.default_rng(CERTIFICATION_SEED + 1)
    start = time.perf_counter()
    step = 1e-6
    checked = 0
    worst_fd_gap = 0.0
    bounds_ok = True
    instances = 0
    while instances < 200:
        g = random_uniqueness_instance(rng)
        instances += 1
        for _ in range(50):
            link = int(rng.integers(1, 3))
            q_i = g.demand.share(link)
            x_j_b = float(rng.uniform(0.0, g.demand.share(3 - link)))
            response = best_response(g.costs, q_i, x_j_b, link)
            if not 1e-4 < response < q_i - 1e-4 or x_j_b < step:
                continue
            slope = best_response_slope(g.costs, q_i, x_j_b, link)
            bounds_ok = bounds_ok and -1.0 - 1e-12 <= slope <= 0.0
            fd = (
                best_response(g.costs, q_i, x_j_b + step, link)
                - best_response(g.costs, q_i, x_j_b - step, link)
            ) / (2 * step)
            worst_fd_gap = max(worst_fd_gap, abs(slope - fd))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = bounds_ok and worst_fd_gap <= 1e-5 and elapsed < 5.0 and checked > 1000
    with capsys.disabled():
        report(
            5,
            ok,
            f"{checked} interior slopes in [-1, 0], max fd mismatch {worst_fd_gap:.1e}, {elapsed:.2f} s",
        )


def test_criterion_06_noiseless_calibration_round_trip(capsys):
    start = time.perf_counter()
    data = noiseless_protocol_dataset()
    opts = CalibrationOptions(symmetry=True)
    result = calibrate_exact(data, opts)
    reproduction = 0.0
    for point in data:
        solved = solve_fixed_point(DivergeInstance(point.demand, result.coefficients))
        reproduction = max(
            reproduction,
            abs(solved.flow.xf1 - point.flow.xf1),
            abs(solved.flow.xb1 - point.flow.xb1),
            abs(solved.flow.xf2 - point.flow.xf2),
            abs(solved.flow.xb2 - point.flow.xb2),
        )
    elapsed = time.perf_counter() - start
    ok = result.violations == 0 and reproduction <= 1e-6 and elapsed < 120.0
    with capsys.disabled():
        report(
            6,
            ok,
            f"exact violations={result.violations}, equilibria reproduced to {reproduction:.1e}, {elapsed:.1f} s",
        )


def test_criterion_07_calibration_under_noise(capsys):
    start = time.perf_counter()
    cfg = SimulationConfig(
        n_vehicles=5000,
        sigma=0.5,
        seed=1,
        total_demand_vph=PROTOCOL_TOTAL_VPH,
        demand_sweep=PROTOCOL_SWEEP_VPH,
    )
    data = generate_dataset(CAL_VAL, cfg)
    # The counting margin is scaled to the simulator's noise floor; the
    # solver-data default of 1e-6 would flag essentially every condition
    # for every admissible coefficient vector.
    opts = CalibrationOptions(symmetry=True, epsilon=1e-2, restarts=60, seed=0)
    result = calibrate_search(data, opts)
    elapsed = time.perf_counter() - start
    budget = 0.2 * 4 * len(data)
    ok = (
        result.violations <= budget
        and result.uniqueness == (True, True)
        and elapsed < 300.0
    )
    with capsys.disabled():
        report(
            7,
            ok,
            f"search violations={result.violations}/{4 * len(data)} (budget {budget:.0f}), "
            f"uniqueness={result.uniqueness}, {elapsed:.0f} s",
        )


def test_criterion_08_validation_sweep_shape(tmp_path, capsys):
    coeffs_path = tmp_path / "reference.coeffs"
    write_coefficients(coeffs_path, CAL_VAL, symmetry=True)
    out_path = tmp_path / "sweep.csv"
    start = time.perf_counter()
    code = main(
        ["sweep", "--coeffs", str(coeffs_path), "--range", "0.36:0.62",
         "--step", "0.01", "--D", "3200", "--out", str(out_path)]
    )
    elapsed = time.perf_counter() - start
    points = load_dataset(out_path)
    q1 = np.array([p.demand.q1 for p in points])
    xb1 = np.array([p.flow.xb1 for p in points])
    strictly_increasing = bool(np.all(np.diff(xb1) > 0))
    slope, intercept = np.polyfit(q1, xb1, 1)
    fitted = slope * q1 + intercept
    r_squared = 1.0 - float(np.sum((xb1 - fitted) ** 2) / np.sum((xb1 - xb1.mean()) ** 2))
    ok = (
        code == 0
        and len(points) == 27
        and strictly_increasing
        and r_squared >= 0.99
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(8, ok, f"27 rows, xb1 strictly increasing, R^2={r_squared:.5f}, {elapsed * 1e3:.0f} ms")


def test_criterion_09_monotone_cost_suite(capsys):
    rng = np.random.default_rng(CERTIFICATION_SEED + 2)
    start = time.perf_counter()
    ok = True
    for _ in range(10_000):
        cf1, cf2, cb = rng.uniform(1.0, 5.0, 3)
        lam1, lam2, mu1, mu2 = rng.uniform(0.1, 1.0, 4)
        nu = rng.uniform(0.1, 3.0)
        c = CostCoefficients(cf1, cf2, cb, lam1, lam2, mu1, mu2, nu)
        low = rng.uniform(0.0, 0.5, 4)
        high = low + rng.uniform(0.0, 0.5, 4)
        x_low = FlowDistribution(*low)
        x_high = FlowDistribution(*high)
        for link in (1, 2):
            ok = ok and feed_through_cost(c, x_high, link) >= feed_through_cost(c, x_low, link)
            ok = ok and bifurcating_cost(c, x_high, link) >= bifurcating_cost(c, x_low, link)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(9, ok, f"10^4 ordered pairs, both costs monotone, {elapsed:.2f} s")


def test_criterion_10_exact_heuristic_consistency(capsys):
    rng = np.random.default_rng(CERTIFICATION_SEED + 3)
    start = time.perf_counter()
    agreements = 0
    for _ in range(20):
        while True:
            c = float(rng.uniform(1.2, 4.5))
            lam = float(rng.uniform(0.15, 1.0))
            mu = float(rng.uniform(0.1, 1.0))
            nu = float(rng.uniform(1.0, 2.5))
            truth = CostCoefficients(c, c, c, lam, lam, mu, mu, nu)
            if all(m >= 0 for m in uniqueness_margins(truth)):
                break
        K = int(rng.integers(1, 7))
        data = []
        for _ in range(K):
            q1 = float(rng.uniform(0.2, 0.8))
            demand = DemandConfig(q1, 1.0 - q1)
            solved = solve_fixed_point(DivergeInstance(demand, truth))
            assert solved.converged
            data.append(DataPoint(demand=demand, flow=solved.flow))
        opts = CalibrationOptions(symmetry=True, restarts=40, seed=17)
        exact = calibrate_exact(data, opts)
        search = calibrate_search(data, opts)
        if search.violations == exact.violations:
            agreements += 1
    elapsed = time.perf_counter() - start
    ok = agreements == 20 and elapsed < 120.0
    with capsys.disabled():
        report(10, ok, f"{agreements}/20 datasets with matching minimal counts, {elapsed:.1f} s")
