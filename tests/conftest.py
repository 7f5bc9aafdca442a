"""Shared fixtures and samplers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from divergelane import (
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    FlowDistribution,
    solve_fixed_point,
    uniqueness_margins,
)

# Every property test is derandomized and keeps no example database, so a
# run is reproducible; tests set only their own ``max_examples``.
settings.register_profile("divergelane", deadline=None, derandomize=True, database=None)
settings.load_profile("divergelane")

#: Symmetric calibrated coefficients used as the reference diverge throughout.
CAL_VAL = CostCoefficients(
    cf1=1.45, cf2=1.45, cb=1.45,
    lambda1=0.87, lambda2=0.87,
    mu1=0.69, mu2=0.69,
    nu=1.0,
)

#: Demand protocol: exit-1 demands in vph at a fixed total of 3000 vph.
PROTOCOL_TOTAL_VPH = 3000.0
PROTOCOL_SWEEP_VPH = tuple(float(d) for d in range(1150, 1851, 50))

#: Five noisy points: equilibria of CAL_VAL at exit-1 demands 1150:1850:150
#: vph plus Gaussian share noise of sd 0.01, snapped to multiples of 1/5000.
#: No fit satisfies every condition at a margin of 1e-3; every condition can
#: hold at 1e-2.
NOISY_FIVE_CSV = """k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph
1,0.3834,0.6166,0.295,0.0884,0.3164,0.3002,3000.0
2,0.4334,0.5666,0.3132,0.1202,0.3266,0.24,3000.0
3,0.4834,0.5166,0.3124,0.171,0.3068,0.2098,3000.0
4,0.5334,0.4666,0.3086,0.2248,0.3154,0.1512,3000.0
5,0.5834,0.4166,0.3262,0.2572,0.2984,0.1182,3000.0
"""


@pytest.fixture
def cal_val() -> CostCoefficients:
    return CAL_VAL


def random_coefficients(rng: np.random.Generator) -> CostCoefficients:
    """Draw coefficients from the property-test ranges (rates in [1, 5],
    factors in [0.1, 1], heterogeneity in [0.1, 3])."""
    cf1, cf2, cb = rng.uniform(1.0, 5.0, 3)
    lam1, lam2, mu1, mu2 = rng.uniform(0.1, 1.0, 4)
    nu = rng.uniform(0.1, 3.0)
    return CostCoefficients(cf1, cf2, cb, lam1, lam2, mu1, mu2, nu)


_rates = st.floats(1.0, 5.0)
_factors = st.floats(0.1, 1.0)
#: Coefficients from the property-test ranges of ``random_coefficients``.
coefficients = st.builds(
    CostCoefficients, _rates, _rates, _rates, _factors, _factors, _factors, _factors,
    st.floats(0.1, 3.0),
)


def random_uniqueness_instance(rng: np.random.Generator) -> DivergeInstance:
    """Random instance whose coefficients satisfy the uniqueness condition
    on both links."""
    while True:
        c = random_coefficients(rng)
        m1, m2 = uniqueness_margins(c)
        if m1 >= 0.0 and m2 >= 0.0:
            break
    q1 = float(rng.uniform(0.02, 0.98))
    return DivergeInstance(DemandConfig(q1, 1.0 - q1), c)


def noiseless_protocol_dataset(
    c: CostCoefficients = CAL_VAL,
    sweep_vph: tuple[float, ...] = PROTOCOL_SWEEP_VPH,
    total_vph: float = PROTOCOL_TOTAL_VPH,
) -> list[DataPoint]:
    """Dataset of solver equilibria over the demand protocol."""
    points = []
    for d1 in sweep_vph:
        demand = DemandConfig(d1 / total_vph, 1.0 - d1 / total_vph)
        report = solve_fixed_point(DivergeInstance(demand, c))
        assert report.converged
        points.append(DataPoint(demand=demand, flow=report.flow, total_demand_vph=total_vph))
    return points


def noisy_protocol_grid(
    grid: int = 5000,
    sd: float = 0.01,
    seed: int = 2019,
    sweep_vph: tuple[float, ...] = PROTOCOL_SWEEP_VPH,
) -> list[DataPoint]:
    """The benchmark's calibration input, rebuilt: equilibria of ``CAL_VAL``
    over the demand protocol (or ``sweep_vph``) plus Gaussian share noise of
    standard deviation ``sd``, snapped to multiples of ``1/grid``.  At a
    margin of 1e-3 no fit satisfies every condition, so the search runs all
    its restarts."""
    rng = np.random.default_rng(seed)
    points = []
    for d1 in sweep_vph:
        q1 = d1 / PROTOCOL_TOTAL_VPH
        n1 = int(round(grid * q1))
        n2 = grid - n1
        flow = solve_fixed_point(DivergeInstance(DemandConfig(q1, 1.0 - q1), CAL_VAL)).flow
        b1 = min(max(int(round((flow.xb1 + rng.normal(0.0, sd)) * grid)), 0), n1)
        b2 = min(max(int(round((flow.xb2 + rng.normal(0.0, sd)) * grid)), 0), n2)
        points.append(
            DataPoint(
                demand=DemandConfig(n1 / grid, n2 / grid),
                flow=FlowDistribution((n1 - b1) / grid, b1 / grid, (n2 - b2) / grid, b2 / grid),
                total_demand_vph=PROTOCOL_TOTAL_VPH,
            )
        )
    return points


#: Coefficient names in field order, and the capacity factors among them,
#: spelled out so the validation tests do not read the schema they check.
COEFFICIENT_ORDER = ("cf1", "cf2", "cb", "lambda1", "lambda2", "mu1", "mu2", "nu")
_FACTORS = frozenset(("lambda1", "lambda2", "mu1", "mu2"))


def admissible(name: str, value: float) -> bool:
    """Whether ``value`` is a valid coefficient ``name``: a capacity factor
    in [1e-9, 1], any other coefficient finite and strictly positive."""
    if name in _FACTORS:
        return 1e-9 <= value <= 1.0
    return 0.0 < value < math.inf


def admissible_values(name: str) -> st.SearchStrategy[float]:
    return st.floats(1e-9, 1.0) if name in _FACTORS else st.floats(1e-3, 1e3)


#: Values at and past the validation boundary of either kind: NaN, +/-inf,
#: zeros, negatives, the smallest subnormal, factors at and just below the
#: 1e-9 floor, and factors at and above 1 -- or any float at all.
edge_values = st.one_of(
    st.sampled_from(
        (
            math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324,
            5e-10, math.nextafter(1e-9, 0.0), 1e-9,
            1.0, math.nextafter(1.0, 2.0), 1.5,
        )
    ),
    st.floats(),
)


@st.composite
def boundary_tuples(draw) -> tuple[float, ...]:
    """Eight admissible coefficients with up to two entries replaced by an
    edge value (which may itself be admissible)."""
    values = [draw(admissible_values(name)) for name in COEFFICIENT_ORDER]
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, 7))] = draw(edge_values)
    return tuple(values)
