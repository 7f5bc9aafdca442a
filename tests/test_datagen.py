"""Discrete-driver steady-state simulator."""

import hashlib
import multiprocessing.process
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divergelane
from divergelane import (
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    FlowDistribution,
    SimulationConfig,
    count_violations,
    generate_dataset,
    simulate_steady_state,
    solve_fixed_point,
    write_coefficients,
)
from divergelane.cli import main
from divergelane.datagen import NOISE_COST_FRACTION

from conftest import CAL_VAL, random_coefficients


def instance(q1):
    return DivergeInstance(DemandConfig(q1, 1.0 - q1), CAL_VAL)


@pytest.fixture(scope="module")
def zero_noise_data():
    cfg = SimulationConfig(n_vehicles=10_000, sigma=0.0, rounds=120, seed=2)
    return generate_dataset(CAL_VAL, cfg)


class TestSimulateSteadyState:
    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(n_vehicles=800, sigma=0.5, rounds=60, seed=42)
        first = simulate_steady_state(instance(0.45), cfg)
        second = simulate_steady_state(instance(0.45), cfg)
        assert first == second

    def test_different_seeds_differ_under_noise(self):
        base = dict(n_vehicles=800, sigma=0.5, rounds=60)
        a = simulate_steady_state(instance(0.45), SimulationConfig(seed=1, **base))
        b = simulate_steady_state(instance(0.45), SimulationConfig(seed=2, **base))
        assert a.flow != b.flow

    def test_single_destination_keeps_other_link_empty(self):
        cfg = SimulationConfig(n_vehicles=500, sigma=0.5, rounds=40, seed=7)
        point = simulate_steady_state(instance(1.0), cfg)
        assert point.flow.xf2 == 0.0
        assert point.flow.xb2 == 0.0

    def test_conservation_is_exact(self):
        cfg = SimulationConfig(n_vehicles=777, sigma=0.5, rounds=50, seed=3)
        point = simulate_steady_state(instance(0.38), cfg)
        assert abs(point.flow.xf1 + point.flow.xb1 - point.demand.q1) <= 1e-15
        assert abs(point.flow.xf2 + point.flow.xb2 - point.demand.q2) <= 1e-15

    def test_noiseless_limit_matches_solver(self):
        # Large population, no perception noise: aggregate shares land on
        # the equilibrium up to quantization.
        n = 100_000
        cfg = SimulationConfig(n_vehicles=n, sigma=0.0, rounds=200, seed=5)
        g = instance(0.5)
        point = simulate_steady_state(g, cfg)
        report = solve_fixed_point(g)
        tolerance = 2.0 / n + 1e-3
        assert point.flow.xb1 == pytest.approx(report.flow.xb1, abs=tolerance)
        assert point.flow.xb2 == pytest.approx(report.flow.xb2, abs=tolerance)

    def test_zero_noise_limit_is_seed_insensitive(self):
        n = 20_000
        base = dict(n_vehicles=n, sigma=0.0, rounds=120)
        a = simulate_steady_state(instance(0.5), SimulationConfig(seed=11, **base))
        b = simulate_steady_state(instance(0.5), SimulationConfig(seed=12, **base))
        assert abs(a.flow.xb1 - b.flow.xb1) <= 1e-3
        assert abs(a.flow.xb2 - b.flow.xb2) <= 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_vehicles"):
            SimulationConfig(n_vehicles=0)
        with pytest.raises(ValueError, match="sigma"):
            SimulationConfig(sigma=1.5)
        with pytest.raises(ValueError, match="rounds"):
            SimulationConfig(rounds=0)
        with pytest.raises(ValueError, match="sweep demand"):
            SimulationConfig(demand_sweep=(0.0, 1500.0))
        with pytest.raises(ValueError, match="sweep demand"):
            SimulationConfig(demand_sweep=(3200.0,))

    @pytest.mark.parametrize("total", [float("inf"), float("nan"), 0.0, -3000.0])
    def test_total_demand_must_be_finite_and_positive(self, total):
        with pytest.raises(ValueError, match="total_demand_vph"):
            SimulationConfig(total_demand_vph=total, demand_sweep=(1500.0,))


#: A script whose sweep workers fail, in the way ``sys.argv[2]`` names, under
#: the start method ``sys.argv[1]``, with three shares.  The wrap sits at the
#: top level, so forked workers inherit it and spawned ones re-run it; the
#: calling process simulates its own share.  With "raise", the first worker
#: raises and the second never finishes, so the call returns only if it
#: terminates the second.  With "exit", the first worker sends its points and
#: the second exits without sending.
FAILING_WORKERS = f"""\
import multiprocessing, os, sys
import divergelane.datagen as datagen
from divergelane import CostCoefficients, SimulationConfig, generate_dataset, write_coefficients
from divergelane.cli import main

simulate_point = datagen._simulate_point


def failing_point(c_true, cfg, k, d1):
    if multiprocessing.parent_process() is not None:
        if sys.argv[2] == "raise":
            if k % 3 == 2:
                multiprocessing.parent_process().join()  # until the caller exits
            raise ValueError("boom")
        if k % 3 == 2:
            os._exit(3)
    return simulate_point(c_true, cfg, k, d1)


datagen._simulate_point = failing_point

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    os.sched_getaffinity = lambda pid: {{0, 1, 2}}
    cfg = SimulationConfig(n_vehicles=60, seed=3, demand_sweep=(1200.0, 1500.0, 1700.0))
    try:
        generate_dataset({CAL_VAL!r}, cfg)
    except Exception as exc:
        print(type(exc).__name__, exc)
    print("children", multiprocessing.active_children())
    if sys.argv[2] == "raise":
        write_coefficients("diverge.coeffs", {CAL_VAL!r}, symmetry=True)
        print("exit", main(["generate", "--coeffs", "diverge.coeffs", "--n", "60",
                            "--sweep", "1200:1700:250", "--out", "data.csv"]))
        print("children", multiprocessing.active_children())
        print("written", os.path.exists("data.csv"))
"""


def run_with_failing_workers(tmp_path, method: str, failure: str) -> tuple[list[str], str]:
    script = tmp_path / "failing_workers.py"
    script.write_text(FAILING_WORKERS)
    src = str(Path(divergelane.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, str(script), method, failure], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src}, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr.decode()
    return child.stdout.decode().splitlines(), child.stderr.decode()


class TestGenerateDataset:
    def test_protocol_sweep_shape(self):
        cfg = SimulationConfig(n_vehicles=400, sigma=0.5, rounds=30, seed=1)
        data = generate_dataset(CAL_VAL, cfg)
        assert len(data) == 15
        for point, d1 in zip(data, cfg.demand_sweep):
            nominal = d1 / cfg.total_demand_vph
            assert point.demand.q1 == pytest.approx(nominal, abs=1.0 / cfg.n_vehicles)
            assert point.total_demand_vph == 3000.0
        assert data[0].demand.q1 == pytest.approx(1150.0 / 3000.0, abs=1.0 / 400)
        assert data[-1].demand.q1 == pytest.approx(1850.0 / 3000.0, abs=1.0 / 400)

    def test_single_entry(self):
        cfg = SimulationConfig(
            n_vehicles=400, sigma=0.5, rounds=30, seed=1, demand_sweep=(1500.0,)
        )
        assert len(generate_dataset(CAL_VAL, cfg)) == 1

    def test_empty_sweep_rejected(self):
        cfg = SimulationConfig(n_vehicles=400, demand_sweep=())
        with pytest.raises(ValueError, match="non-empty"):
            generate_dataset(CAL_VAL, cfg)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("points", [1, 2, 15])
    def test_pool_returns_the_per_point_results(self, sigma, points):
        sweep = SimulationConfig().demand_sweep[:points]
        cfg = SimulationConfig(n_vehicles=60, sigma=sigma, rounds=20, seed=3, demand_sweep=sweep)
        expected = [
            simulate_steady_state(
                instance(d1 / cfg.total_demand_vph), replace(cfg, seed=cfg.seed + k)
            )
            for k, d1 in enumerate(sweep)
        ]
        assert generate_dataset(CAL_VAL, cfg) == expected

    def test_spawned_workers_return_the_same_rows(self, tmp_path):
        # Spawned workers start from a fresh import, so this checks that the
        # point function pickles by reference and that the rows do not depend
        # on the start method.
        cfg = SimulationConfig(
            n_vehicles=60, sigma=0.5, rounds=20, seed=3, demand_sweep=(1200.0, 1500.0, 1700.0)
        )
        script = tmp_path / "spawn_rows.py"
        script.write_text(
            "import multiprocessing\n"
            "from divergelane import CostCoefficients, SimulationConfig, generate_dataset\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            f"    for point in generate_dataset({CAL_VAL!r}, {cfg!r}):\n"
            "        print(repr(point))\n"
        )
        src = str(Path(divergelane.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, str(script)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src}, timeout=120, check=False,
        )
        assert child.returncode == 0, child.stderr.decode()
        rows = [repr(point) for point in generate_dataset(CAL_VAL, cfg)]
        assert child.stdout.decode().splitlines() == rows

    @pytest.mark.parametrize("affinity", [True, False], ids=["sched_getaffinity", "cpu_count"])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("points", [1, 2, 15])
    def test_every_worker_count_returns_the_serial_rows(self, monkeypatch, affinity, cpus, points):
        sweep = SimulationConfig().demand_sweep[:points]
        cfg = SimulationConfig(n_vehicles=60, sigma=0.5, rounds=20, seed=3, demand_sweep=sweep)
        expected = [
            simulate_steady_state(
                instance(d1 / cfg.total_demand_vph), replace(cfg, seed=cfg.seed + k)
            )
            for k, d1 in enumerate(sweep)
        ]
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        assert generate_dataset(CAL_VAL, cfg) == expected
        # The calling process simulates the first share itself.
        assert len(started) == min(points, cpus) - 1
        assert not any(process.is_alive() for process in started)

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_worker_exception_reaches_the_caller(self, tmp_path, method):
        stdout, stderr = run_with_failing_workers(tmp_path, method, "raise")
        assert stdout == ["ValueError boom", "children []", "exit 1", "children []",
                          "written False"]
        assert "error: boom" in stderr

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_worker_exit_without_sending_raises(self, tmp_path, method):
        stdout, _ = run_with_failing_workers(tmp_path, method, "exit")
        assert stdout == [
            "RuntimeError simulation worker exited with code 3 before sending", "children []"
        ]

    def test_zero_noise_round_trip_has_near_zero_violations(self, zero_noise_data):
        # Quantization is the only error source, so counting with a margin
        # above the per-driver cost step sees (almost) nothing.
        report = count_violations(CAL_VAL, zero_noise_data, epsilon=1e-3)
        assert report.count <= 0.02 * 4 * len(zero_noise_data)

    def test_zero_noise_sweep_is_monotone(self, zero_noise_data):
        shares = [p.flow.xb1 for p in zero_noise_data]
        assert all(b >= a - 1e-12 for a, b in zip(shares, shares[1:]))


class TestBurnIn:
    """The default round count is past the burn-in: its end state has the
    same distribution as a run ten times as long."""

    SEEDS = 60
    N = 200
    #: Two-sample z bound, fixed before the first run.
    Z_BOUND = 4.0

    def end_counts(self, c, sigma, q1, seed, **rounds):
        # A sweep repeating one demand runs seeds seed .. seed + SEEDS - 1.
        cfg = SimulationConfig(
            n_vehicles=self.N, sigma=sigma, seed=seed, total_demand_vph=1.0,
            demand_sweep=(q1,) * self.SEEDS, **rounds,
        )
        data = generate_dataset(c, cfg)
        return self.N * np.array([(p.flow.xb1, p.flow.xb2) for p in data])

    @pytest.mark.parametrize(
        "c, sigma, q1",
        [
            (CAL_VAL, 0.5, 0.45),
            (CAL_VAL, 1.0, 0.6),
            (random_coefficients(np.random.default_rng(3)), 0.2, 0.5),
        ],
        ids=["cal_val-0.5", "cal_val-1.0", "random-0.2"],
    )
    def test_default_end_state_matches_a_long_run(self, c, sigma, q1):
        short = self.end_counts(c, sigma, q1, seed=0)
        long = self.end_counts(c, sigma, q1, seed=1000, rounds=200)
        se = np.sqrt((short.var(axis=0, ddof=1) + long.var(axis=0, ddof=1)) / self.SEEDS)
        z = (short.mean(axis=0) - long.mean(axis=0)) / se
        assert np.all(np.abs(z) <= self.Z_BOUND), z


def reference_simulate(g_true, cfg):
    """The scalar driver loop the simulator used before it moved to per-round
    arrays and memoized lane costs, kept verbatim as the reference."""
    c = g_true.costs
    n = cfg.n_vehicles
    n2 = int(round(n * g_true.demand.q2))
    n1 = n - n2
    rng = np.random.default_rng(cfg.seed)

    links = [1] * n1 + [2] * n2
    lanes = [0] * n  # 0 = feed-through, 1 = bifurcating
    counts_f = [0, n1, n2]  # index by link, entry 0 unused
    counts_b = [0, 0, 0]
    inv_n = 1.0 / n

    amplitude = [
        0.0,
        cfg.sigma * NOISE_COST_FRACTION * (c.cf1 + c.cb),
        cfg.sigma * NOISE_COST_FRACTION * (c.cf2 + c.cb),
    ]
    noisy = cfg.sigma > 0.0

    cf = [0.0, c.cf1, c.cf2]
    lam = [0.0, c.lambda1, c.lambda2]
    mu = [0.0, c.mu1, c.mu2]
    cb, nu = c.cb, c.nu

    # Lane costs at the current aggregate shares; recomputed only when a
    # driver actually switches.
    feed_cost = [0.0, 0.0, 0.0]
    bif_cost = [0.0, 0.0, 0.0]

    def recompute() -> None:
        xb1 = counts_b[1] * inv_n
        xb2 = counts_b[2] * inv_n
        feed_cost[1] = cf[1] * counts_f[1] * inv_n
        feed_cost[2] = cf[2] * counts_f[2] * inv_n
        heterogeneity = nu * xb1 * xb2
        bif_cost[1] = cb * (lam[1] * xb1 + mu[1] * xb2) + heterogeneity
        bif_cost[2] = cb * (lam[2] * xb2 + mu[2] * xb1) + heterogeneity

    recompute()
    for _ in range(cfg.rounds):
        order = rng.permutation(n).tolist()
        if noisy:
            draws = rng.uniform(-1.0, 1.0, size=2 * n)
            noise_f = draws[:n].tolist()
            noise_b = draws[n:].tolist()
        switched = 0
        for position, driver in enumerate(order):
            link = links[driver]
            perceived_f = feed_cost[link]
            perceived_b = bif_cost[link]
            if noisy:
                a = amplitude[link]
                perceived_f += a * noise_f[position]
                perceived_b += a * noise_b[position]
            if perceived_b < perceived_f:
                target = 1
            elif perceived_f < perceived_b:
                target = 0
            else:
                target = lanes[driver]
            if target != lanes[driver]:
                lanes[driver] = target
                if target == 1:
                    counts_f[link] -= 1
                    counts_b[link] += 1
                else:
                    counts_f[link] += 1
                    counts_b[link] -= 1
                switched += 1
                recompute()
        if switched == 0:
            break

    demand = DemandConfig(n1 * inv_n, n2 * inv_n)
    flow = FlowDistribution(
        counts_f[1] * inv_n,
        counts_b[1] * inv_n,
        counts_f[2] * inv_n,
        counts_b[2] * inv_n,
    )
    return DataPoint(demand=demand, flow=flow, total_demand_vph=cfg.total_demand_vph)


class TestMatchesReference:
    """The simulator's output is bit-identical to the scalar reference loop."""

    @settings(max_examples=120)
    @given(
        q1=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        n=st.integers(1, 400),
        rounds=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        reference_costs=st.booleans(),
    )
    def test_equals_reference_loop(self, q1, sigma, n, rounds, seed, reference_costs):
        costs = CAL_VAL if reference_costs else random_coefficients(np.random.default_rng(seed))
        g = DivergeInstance(DemandConfig(q1, 1.0 - q1), costs)
        cfg = SimulationConfig(n_vehicles=n, sigma=sigma, rounds=rounds, seed=seed)
        assert simulate_steady_state(g, cfg) == reference_simulate(g, cfg)

    @pytest.mark.parametrize("q1", [1.0, 0.0, 0.5])
    @pytest.mark.parametrize("n", [4, 64])
    def test_exact_ties_keep_the_lane(self, q1, n):
        # Dyadic coefficients make the two lane costs exactly equal once half
        # of a link's drivers bifurcate; a tie must not move the driver.
        costs = CostCoefficients(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
        g = DivergeInstance(DemandConfig(q1, 1.0 - q1), costs)
        cfg = SimulationConfig(n_vehicles=n, sigma=0.0, rounds=20, seed=n)
        point = simulate_steady_state(g, cfg)
        assert point == reference_simulate(g, cfg)
        if q1 == 1.0:
            assert point.flow.xb1 == 0.5

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize("d1", [1150.0, 1500.0, 1850.0])
    def test_equals_reference_loop_at_the_cli_default_size(self, sigma, d1):
        # The property above stops at 400 drivers; ``generate`` runs 5000.
        cfg = SimulationConfig(sigma=sigma, seed=1)
        q1 = d1 / cfg.total_demand_vph
        g = DivergeInstance(DemandConfig(q1, 1.0 - q1), CAL_VAL)
        assert simulate_steady_state(g, cfg) == reference_simulate(g, cfg)

    @pytest.mark.parametrize(
        "sigma, digest",
        [
            ("0.5", "1c578091d8cffcf541e36430a67b9a143ae129a42f0aa89bbd1f403f1ecd6d05"),
            ("0", "017b7a885ebefd42a15f2c89d83093525e2761733f9fab170fb1037834eb14e4"),
        ],
    )
    def test_generate_bytes_are_pinned(self, tmp_path, sigma, digest):
        # Digests of ``generate`` output captured from the reference loop.
        coeffs = tmp_path / "diverge.coeffs"
        write_coefficients(coeffs, CAL_VAL, symmetry=True)
        out = tmp_path / "data.csv"
        code = main(
            ["generate", "--coeffs", str(coeffs), "--n", "200", "--sweep", "1150:1850:350",
             "--seed", "1", "--sigma", sigma, "--out", str(out)]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_exact_tie_under_tiny_noise_follows_own_minus_other():
    # Two drivers on link 1 with dyadic costs: whoever moves first switches,
    # which leaves both lanes costing exactly 0.5 for the second driver.
    # Noise of 1e-300 is far below the costs' rounding: the simulator
    # compares the cost difference with the noise difference, so that driver
    # switches iff its own lane's noise exceeds the other's, as in exact
    # arithmetic.  The reference loop's perceived-cost sums round the noise
    # away and keep the lane, as the simulator does without noise.
    costs = CostCoefficients(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
    g = DivergeInstance(DemandConfig(1.0, 0.0), costs)
    sigma = 1e-300
    amp = sigma * NOISE_COST_FRACTION * (costs.cf1 + costs.cb)
    moved = []
    for seed in range(16):
        cfg = SimulationConfig(n_vehicles=2, sigma=sigma, rounds=1, seed=seed)
        rng = np.random.default_rng(seed)
        rng.permutation(2)
        draws = rng.uniform(-1.0, 1.0, size=4)
        own_minus_other = amp * draws[1] - amp * draws[3]
        xb1 = simulate_steady_state(g, cfg).flow.xb1
        assert xb1 == (1.0 if own_minus_other > 0.0 else 0.5), seed
        assert reference_simulate(g, cfg).flow.xb1 == 0.5
        assert simulate_steady_state(g, replace(cfg, sigma=0.0, rounds=20)).flow.xb1 == 0.5
        moved.append(xb1 == 1.0)
    assert any(moved) and not all(moved)
