"""Synthetic steady-state lane-share data from discrete driver dynamics.

Stands in for a microscopic traffic simulator: a fixed population of
drivers, split between the two destinations, repeatedly re-picks the
cheaper of its two lanes where "cheaper" is the model cost at the current
aggregate shares plus an independent uniform perception error.  After a
fixed number of update rounds the aggregate shares are reported as one data
point.  With the imperfection parameter at zero this is plain best-response
dynamics and converges to the model equilibrium up to the 1/n quantization
of shares; with noise the reported shares scatter around a slightly
displaced steady state, which is exactly the kind of data the calibration
module is meant to digest.

All randomness comes from one seeded generator per run: a permutation of
the drivers followed by a flat block of perception noise per round, so runs
are reproducible bit for bit.

Each driver moves at most once per round, so the round's visiting order
fixes every driver's link, round-start lane and scaled perception noise up
front; those are built as numpy arrays per round.  The four lane costs come
from the model's :func:`~divergelane.model.lane_costs` at the shares of the
two integer bifurcating counts and are memoized per visited count pair, so
the remaining scalar scan does two additions and one comparison per driver
and one table lookup per switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import DataPoint
from .model import (
    CostCoefficients,
    DemandConfig,
    DivergeInstance,
    FlowDistribution,
    lane_costs,
)

#: Perception-noise scale relative to the lane cost rates: the noise is
#: uniform in +/- sigma * NOISE_COST_FRACTION * (cf_i + cb).
NOISE_COST_FRACTION = 0.05


@dataclass(frozen=True)
class SimulationConfig:
    """Protocol parameters for one synthetic data-collection campaign.

    ``demand_sweep`` lists the exit-1 demands (vph) to visit; each entry
    becomes one data point with ``q1 = d1 / total_demand_vph``.
    """

    n_vehicles: int = 5000
    sigma: float = 0.5
    rounds: int = 500
    seed: int = 1
    total_demand_vph: float = 3000.0
    demand_sweep: tuple[float, ...] = tuple(float(d) for d in range(1150, 1851, 50))

    def __post_init__(self) -> None:
        if self.n_vehicles < 1:
            raise ValueError(f"n_vehicles must be >= 1, got {self.n_vehicles}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma!r}")
        if not 0 < self.total_demand_vph < math.inf:
            raise ValueError(
                f"total_demand_vph must be finite and > 0, got {self.total_demand_vph!r}"
            )
        for d in self.demand_sweep:
            if not 0.0 < d < self.total_demand_vph:
                raise ValueError(
                    f"sweep demand {d!r} outside (0, {self.total_demand_vph!r})"
                )


def simulate_steady_state(g_true: DivergeInstance, cfg: SimulationConfig) -> DataPoint:
    """Run the driver dynamics once and report the final aggregate shares.

    Destination counts are the demand shares rounded to integers with the
    remainder assigned to link 1, so the reported proportions satisfy flow
    conservation exactly (integer counts over the common denominator
    ``n_vehicles``); the data point's demand is the realized integer split.
    Deterministic for a fixed seed.
    """
    c = g_true.costs
    n = cfg.n_vehicles
    n2 = int(round(n * g_true.demand.q2))
    n1 = n - n2
    rng = np.random.default_rng(cfg.seed)
    inv_n = 1.0 / n

    # The state is the pair of bifurcating counts, encoded as one integer
    # key = b1 * stride + b2.  A driver's "kind" is 2 * (link - 1) + lane
    # (lane 0 = feed-through, 1 = bifurcating): it indexes the state's cost
    # tuple, ``kind ^ 1`` is the other lane of the same link, and
    # ``key_step[kind]`` moves the key when that driver switches.
    stride = n2 + 1
    key_step = (stride, -stride, 1, -1)
    memo: dict[int, tuple[float, float, float, float]] = {}

    # The model's lane costs at a state's shares, computed once per visited
    # state: (feed 1, bifurcating 1, feed 2, bifurcating 2).
    def costs_at(key: int) -> tuple[float, float, float, float]:
        b1, b2 = divmod(key, stride)
        costs = lane_costs(c, (n1 - b1) * inv_n, b1 * inv_n, (n2 - b2) * inv_n, b2 * inv_n)
        memo[key] = costs
        return costs

    link_of = np.array([0] * n1 + [1] * n2, dtype=np.intp)  # link - 1
    amplitude = np.array([
        cfg.sigma * NOISE_COST_FRACTION * (c.cf1 + c.cb),
        cfg.sigma * NOISE_COST_FRACTION * (c.cf2 + c.cb),
    ])
    lanes = bytearray(n)
    lanes_view = np.frombuffer(lanes, dtype=np.uint8)
    noisy = cfg.sigma > 0.0
    no_noise = [0.0] * n

    key = 0
    costs = costs_at(key)
    for _ in range(cfg.rounds):
        order = rng.permutation(n)
        # Each driver moves at most once per round, so its lane at its turn
        # is its round-start lane.
        link_seq = link_of[order]
        lane_seq = lanes_view[order]
        kind_seq = 2 * link_seq + lane_seq
        if noisy:
            draws = rng.uniform(-1.0, 1.0, size=2 * n)
            amp = amplitude[link_seq]
            noise_f = amp * draws[:n]
            noise_b = amp * draws[n:]
            noise_own = np.where(lane_seq, noise_b, noise_f).tolist()
            noise_other = np.where(lane_seq, noise_f, noise_b).tolist()
        else:
            # Adding 0.0 leaves every (finite) cost and comparison unchanged.
            noise_own = noise_other = no_noise
        switched = 0
        for driver, kind, own, other in zip(
            order.tolist(), kind_seq.tolist(), noise_own, noise_other
        ):
            # Switch only if the other lane is strictly cheaper; ties stay.
            if costs[kind ^ 1] + other < costs[kind] + own:
                lanes[driver] ^= 1
                key += key_step[kind]
                costs = memo.get(key) or costs_at(key)
                switched += 1
        if switched == 0:
            break

    b1, b2 = divmod(key, stride)
    demand = DemandConfig(n1 * inv_n, n2 * inv_n)
    flow = FlowDistribution((n1 - b1) * inv_n, b1 * inv_n, (n2 - b2) * inv_n, b2 * inv_n)
    return DataPoint(demand=demand, flow=flow, total_demand_vph=cfg.total_demand_vph)


def generate_dataset(c_true: CostCoefficients, cfg: SimulationConfig) -> list[DataPoint]:
    """One simulated data point per sweep entry, seeded as ``seed + k``."""
    if not cfg.demand_sweep:
        raise ValueError("demand_sweep must be non-empty")
    points = []
    for k, d1 in enumerate(cfg.demand_sweep):
        q1 = d1 / cfg.total_demand_vph
        instance = DivergeInstance(DemandConfig(q1, 1.0 - q1), c_true)
        points.append(simulate_steady_state(instance, replace(cfg, seed=cfg.seed + k)))
    return points
