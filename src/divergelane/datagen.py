"""Synthetic steady-state lane-share data from discrete driver dynamics.

Stands in for a microscopic traffic simulator: a fixed population of
drivers, split between the two destinations, repeatedly re-picks the
cheaper of its two lanes where "cheaper" is the model cost at the current
aggregate shares plus an independent uniform perception error.  After
``SimulationConfig.rounds`` update rounds (20 by default), or after the
first round in which nobody switches, the aggregate shares are reported as
one data point.  The bifurcating counts are stationary from round 4-5, so
the default is four times that burn-in.  With the imperfection parameter at
zero this is plain best-response dynamics and converges to the model
equilibrium up to the 1/n quantization of shares; with noise the reported
shares scatter around a slightly displaced steady state, which is exactly
the kind of data the calibration module is meant to digest.

All randomness comes from one seeded generator per run: a permutation of
the drivers followed by a flat block of perception noise per round, so runs
are reproducible bit for bit.

Each driver moves at most once per round, so the round's visiting order
fixes every driver's link, round-start lane and scaled perception noise up
front; those are built as numpy arrays per round.  A driver switches iff
the other lane's cost minus its own is below its own lane's noise minus the
other's, the perceived-cost comparison rearranged.  The four cost
differences come from the model's :func:`~divergelane.model.cost_gaps` at
the shares of the two integer bifurcating counts and are memoized per
visited count pair, so the remaining scalar scan does one lookup and one
comparison per driver and one memo lookup per switch.  The two tests can
decide differently only where the perceived costs agree to rounding, as at
an exact cost tie under noise below the costs' rounding: there the
rearranged test follows the noise, as exact arithmetic does.

:func:`generate_dataset` splits the sweep into ``min(points, usable CPUs)``
strided shares: the calling process simulates the first, and one worker
process per other share sends its points back over a pipe.  Each point
still draws from its own generator seeded ``seed + k``, so the output does
not depend on the worker count or the start method.  Where the platform's
default start method is spawn or forkserver (macOS; Linux from Python
3.14), workers re-import the calling script, so a script that calls it must
do so under ``if __name__ == "__main__":``.  Of this package, such a worker
imports only this module and ``model``, plus what the calling script
imports.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    FlowDistribution,
    cost_gaps,
)

#: Perception-noise scale relative to the lane cost rates: the noise is
#: uniform in +/- sigma * NOISE_COST_FRACTION * (cf_i + cb).
NOISE_COST_FRACTION = 0.05


@dataclass(frozen=True)
class SimulationConfig:
    """Protocol parameters for one synthetic data-collection campaign.

    ``demand_sweep`` lists the exit-1 demands (vph) to visit; each entry
    becomes one data point with ``q1 = d1 / total_demand_vph``.

    ``rounds`` is the number of update rounds a point runs, each visiting
    every driver once in a fresh random order; a round in which nobody
    switches ends the run early.  The default of 20 is four times the
    measured burn-in: over 240-400 seeds per case (sigma from 0 to 1, 400 to
    5000 drivers, three coefficient sets) the bifurcating counts are
    stationary from round 4-5, and the round-20 end state lies within 0.6
    standard errors of the long-run mean.
    """

    n_vehicles: int = 5000
    sigma: float = 0.5
    rounds: int = 20
    seed: int = 1
    total_demand_vph: float = 3000.0
    demand_sweep: tuple[float, ...] = tuple(float(d) for d in range(1150, 1851, 50))

    def __post_init__(self) -> None:
        if self.n_vehicles < 1:
            raise ValueError(f"n_vehicles must be >= 1, got {self.n_vehicles}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    # (lane 0 = feed-through, 1 = bifurcating): it indexes the state's
    # advantage tuple, and ``key_step[kind]`` moves the key when that driver
    # switches.
    stride = n2 + 1
    key_step = (stride, -stride, 1, -1)
    memo: dict[int, tuple[float, float, float, float]] = {}

    # Each kind's other-lane cost minus own-lane cost, computed once per
    # visited state: (-gap1, gap1, -gap2, gap2) with gap = feed - bifurcating.
    def advantage_at(key: int) -> tuple[float, float, float, float]:
        b1, b2 = divmod(key, stride)
        gap1, gap2 = cost_gaps(c, (n1 - b1) * inv_n, b1 * inv_n, (n2 - b2) * inv_n, b2 * inv_n)
        memo[key] = advantage = (-gap1, gap1, -gap2, gap2)
        return advantage

    # Per driver: the kind of its feed-through lane and its noise amplitude.
    feed_kind = np.repeat(np.array([0, 2], dtype=np.intp), (n1, n2))
    amplitude = cfg.sigma * NOISE_COST_FRACTION * np.repeat([c.cf1 + c.cb, c.cf2 + c.cb], (n1, n2))
    lanes = bytearray(n)
    lanes_view = np.frombuffer(lanes, dtype=np.uint8)
    noisy = cfg.sigma > 0.0
    no_noise = [0.0] * n

    key = 0
    advantage = advantage_at(key)
    for _ in range(cfg.rounds):
        order = rng.permutation(n)
        # Each driver moves at most once per round, so its lane at its turn
        # is its round-start lane.
        lane_seq = lanes_view[order]
        kind_seq = feed_kind[order] + lane_seq
        if noisy:
            draws = rng.uniform(-1.0, 1.0, size=2 * n)
            amp = amplitude[order]
            # A driver's spread is its own lane's noise minus the other's.
            feed_minus_bif = amp * draws[:n] - amp * draws[n:]
            spreads = np.where(lane_seq, -feed_minus_bif, feed_minus_bif).tolist()
        else:
            spreads = no_noise
        switched = 0
        for driver, kind, spread in zip(order.tolist(), kind_seq.tolist(), spreads):
            # Switch only if the other lane looks strictly cheaper; ties stay.
            if advantage[kind] < spread:
                lanes[driver] ^= 1
                key += key_step[kind]
                advantage = memo.get(key) or advantage_at(key)
                switched += 1
        if switched == 0:
            break

    b1, b2 = divmod(key, stride)
    demand = DemandConfig(n1 * inv_n, n2 * inv_n)
    flow = FlowDistribution((n1 - b1) * inv_n, b1 * inv_n, (n2 - b2) * inv_n, b2 * inv_n)
    return DataPoint(demand=demand, flow=flow, total_demand_vph=cfg.total_demand_vph)


def _simulate_point(
    c_true: CostCoefficients, cfg: SimulationConfig, k: int, d1: float
) -> DataPoint:
    """Sweep point ``k``: exit-1 demand ``d1``, simulated with seed ``seed + k``."""
    q1 = d1 / cfg.total_demand_vph
    instance = DivergeInstance(DemandConfig(q1, 1.0 - q1), c_true)
    return simulate_steady_state(instance, replace(cfg, seed=cfg.seed + k))


def _simulate_share(
    c_true: CostCoefficients, cfg: SimulationConfig, share: int, shares: int
) -> list[DataPoint]:
    """The sweep points ``share, share + shares, ...``, in sweep order."""
    sweep = cfg.demand_sweep
    return [_simulate_point(c_true, cfg, k, sweep[k]) for k in range(share, len(sweep), shares)]


def _send_share(
    sender, c_true: CostCoefficients, cfg: SimulationConfig, share: int, shares: int
) -> None:
    """Worker body: send the share's points, or the exception that stopped it."""
    try:
        result: list[DataPoint] | Exception = _simulate_share(c_true, cfg, share, shares)
    except Exception as exc:
        result = exc
    sender.send(result)


def generate_dataset(c_true: CostCoefficients, cfg: SimulationConfig) -> list[DataPoint]:
    """One simulated data point per sweep entry, seeded as ``seed + k``.

    The calling process simulates the first of ``min(points, usable CPUs)``
    strided shares and one worker process per other share sends back the
    rest; no process is started for one share.  A worker's exception is
    raised here, as is ``RuntimeError`` for a worker that exits without
    sending, and no worker outlives the call.  The output does not depend on
    the worker count or the start method.  Where that method is spawn or
    forkserver (macOS; Linux from Python 3.14), call this under
    ``if __name__ == "__main__":``.
    """
    sweep = cfg.demand_sweep
    if not sweep:
        raise ValueError("demand_sweep must be non-empty")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    shares = min(len(sweep), cpus)
    if shares == 1:
        return _simulate_share(c_true, cfg, 0, 1)

    # Imported here, not at module top: it would add to every CLI start,
    # and only a sweep that starts workers needs it.
    import multiprocessing

    workers = []
    try:
        for share in range(1, shares):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(
                target=_send_share, args=(sender, c_true, cfg, share, shares)
            )
            worker.start()
            workers.append((worker, receiver))
            # The worker now holds the only write end, so its exit without
            # sending reads as EOF here.
            sender.close()
        results = [_simulate_share(c_true, cfg, 0, shares)]
        for worker, receiver in workers:
            try:
                result = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(
                    f"simulation worker exited with code {worker.exitcode} before sending"
                ) from None
            if isinstance(result, Exception):
                raise result
            results.append(result)
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.join()
    return [results[k % shares][k // shares] for k in range(len(sweep))]
