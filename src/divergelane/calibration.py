"""Recover cost coefficients from steady-state lane-share data.

Calibration minimizes the number of equilibrium conditions a coefficient
vector violates over a set of observed (demand, flow) tuples.  Each of the
four conditions per data point is a sign constraint on a product that is
affine in a *linearized* coefficient vector: the bifurcating rate multiplied
by a capacity factor is treated as a single variable (``cb_lambda1 = cb *
lambda1`` and so on), which keeps every constraint linear while the factors
themselves are recovered by division afterwards.  A condition is violated
when its product exceeds the margin ``epsilon`` (:func:`count_violations`).

A symmetric diverge is not a second model but the same eight coefficients
with some tied together (``cf1 = cf2 = cb``, ``lambda1 = lambda2``,
``mu1 = mu2``).  Symmetry is therefore data: a map ``tie`` from each
coefficient to its free parameter, the identity or
``(0, 0, 0, 1, 1, 2, 2, 3)``.  Every rule of the encoding (bounds,
condition rows, coefficient recovery, the search) is written once and reads
that map; a tied parameter is bounded by the intersection of its
coefficients' bounds.

Two solvers share that encoding:

* :func:`calibrate_exact` — one mixed-integer program (:func:`build_milp`,
  one indicator per condition) solved by HiGHS through
  :func:`scipy.optimize.milp`, returning a provably minimal violation count
  when HiGHS closes the search within ``MILP_NODE_LIMIT`` branch-and-bound
  nodes, and its best fit so far otherwise.
* :func:`calibrate_search` — seeded multi-start randomized search with
  coordinate refinement, scalable to any size but only a heuristic
  certificate.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy.optimize import Bounds, LinearConstraint

from .model import (
    FACTOR_FLOOR,
    CostCoefficients,
    DemandConfig,
    FeasibilityError,
    FlowDistribution,
    check_feasible,
    check_uniqueness_condition,
    residual_products,
    uniqueness_margins,
)

COEFFICIENT_NAMES = ("cf1", "cf2", "cb", "lambda1", "lambda2", "mu1", "mu2", "nu")
RATE_NAMES = ("cf1", "cf2", "cb", "nu")
FACTOR_NAMES = ("lambda1", "lambda2", "mu1", "mu2")

DEFAULT_LOWER_BOUNDS: dict[str, float] = {
    **{name: 1.0 for name in RATE_NAMES},
    **{name: FACTOR_FLOOR for name in FACTOR_NAMES},
}
DEFAULT_UPPER_BOUNDS: dict[str, float] = {
    **{name: 10.0 for name in RATE_NAMES},
    **{name: 1.0 for name in FACTOR_NAMES},
}

#: Free parameter of each coefficient (``COEFFICIENT_NAMES`` order) and the
#: parameters' linearized names, without and with symmetry.
_TIES = {
    False: (
        (0, 1, 2, 3, 4, 5, 6, 7),
        ("cf1", "cf2", "cb", "cb_lambda1", "cb_lambda2", "cb_mu1", "cb_mu2", "nu"),
    ),
    True: ((0, 0, 0, 1, 1, 2, 2, 3), ("cf", "cb_lambda", "cb_mu", "nu")),
}
_CB = COEFFICIENT_NAMES.index("cb")

#: Branch-and-bound nodes HiGHS may explore in :func:`calibrate_exact`.  A
#: node count, unlike a wall clock, stops every run at the same incumbent,
#: so the output stays byte-deterministic.
MILP_NODE_LIMIT = 10_000


class ConfigurationError(ValueError):
    """Calibration options are inconsistent (e.g. a lower bound above an upper)."""


@dataclass(frozen=True)
class DataPoint:
    """One calibration tuple: demand split, observed flow split, and the
    total demand in vehicles per hour (bookkeeping only)."""

    demand: DemandConfig
    flow: FlowDistribution
    total_demand_vph: float = 0.0

    def __post_init__(self) -> None:
        check_feasible(self.demand, self.flow)
        if not 0 <= self.total_demand_vph < math.inf:
            raise ValueError(
                f"total_demand_vph must be finite and >= 0, got {self.total_demand_vph!r}"
            )


@dataclass(frozen=True)
class CalibrationOptions:
    """Knobs shared by both calibration solvers.

    ``epsilon`` is the violation-counting margin: a condition is violated
    when its product exceeds it.  Scale it to the data's noise floor: 1e-6
    suits solver-generated data, while simulator output typically needs 1e-3
    to 1e-2.  ``lower_bounds``/``upper_bounds`` override the default
    coefficient box (rates in [1, 10], factors in (0, 1]).  ``restarts``
    and ``seed`` drive :func:`calibrate_search` only; the exact solver's
    effort is bounded by the module constant ``MILP_NODE_LIMIT``.
    """

    epsilon: float = 1e-6
    symmetry: bool = False
    lower_bounds: Mapping[str, float] | None = None
    upper_bounds: Mapping[str, float] | None = None
    restarts: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        for mapping in (self.lower_bounds, self.upper_bounds):
            if mapping is not None:
                unknown = set(mapping) - set(COEFFICIENT_NAMES)
                if unknown:
                    raise ValueError(f"unknown coefficient names in bounds: {sorted(unknown)}")


@dataclass(frozen=True)
class ViolationCount:
    """Output of :func:`count_violations`.

    ``flags`` holds one boolean per (point, condition) in the order
    (f1, b1, f2, b2); ``positive_sum`` is the sum of the flagged products,
    the tie-breaking quantity of the randomized search.
    """

    count: int
    flags: tuple[tuple[bool, bool, bool, bool], ...]
    products: np.ndarray = field(repr=False)
    positive_sum: float = 0.0


@dataclass(frozen=True)
class CalibrationResult:
    coefficients: CostCoefficients
    violations: int
    indicator_assignment: tuple[tuple[bool, bool, bool, bool], ...]
    certificate: str
    uniqueness: tuple[bool, bool]


# ---------------------------------------------------------------------------
# Shared encoding helpers


@dataclass(frozen=True)
class _Arrays:
    xf1: np.ndarray
    xb1: np.ndarray
    xf2: np.ndarray
    xb2: np.ndarray


def _data_arrays(data: Sequence[DataPoint]) -> _Arrays:
    return _Arrays(
        xf1=np.array([p.flow.xf1 for p in data]),
        xb1=np.array([p.flow.xb1 for p in data]),
        xf2=np.array([p.flow.xf2 for p in data]),
        xb2=np.array([p.flow.xb2 for p in data]),
    )


def _products(c: CostCoefficients, a: _Arrays) -> np.ndarray:
    """Condition products, one row per point in the order (f1, b1, f2, b2)."""
    return np.column_stack(residual_products(c, a.xf1, a.xb1, a.xf2, a.xb2))


def _violated(products: np.ndarray, epsilon: float) -> tuple[np.ndarray, int, float]:
    """Flags of the violated conditions (product above ``epsilon``), their
    count, and the sum of their products."""
    flags = products > epsilon
    count = int(flags.sum())
    return flags, count, float(products[flags].sum()) if count else 0.0


def count_violations(
    c: CostCoefficients, data: Sequence[DataPoint], epsilon: float = 1e-6
) -> ViolationCount:
    """Count equilibrium conditions violated by ``c`` over ``data``.

    A condition is violated when its product exceeds ``epsilon`` (the margin
    realizes the strict sign test in floating point; a product of exactly
    zero is always satisfied).  Returns the count together with per-condition
    flags and products.
    """
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    for k, point in enumerate(data, start=1):
        try:
            check_feasible(point.demand, point.flow)
        except FeasibilityError as exc:
            raise FeasibilityError(f"data point k={k}: {exc}") from exc
    products = _products(c, _data_arrays(data))
    flag_matrix, count, positive_sum = _violated(products, epsilon)
    return ViolationCount(
        count=count,
        flags=tuple(tuple(bool(v) for v in row) for row in flag_matrix),
        products=products,
        positive_sum=positive_sum,
    )


@dataclass(frozen=True)
class _VariableSpace:
    """The free parameters of a calibration.

    ``tie[k]`` is the parameter of coefficient ``k`` (``COEFFICIENT_NAMES``
    order) and ``factor`` marks the parameters of the capacity factors.
    ``lo``/``hi`` bound each parameter as a coefficient (the search box);
    ``box`` bounds its linearized variable, which for a factor is the
    product with the rate ``cb``, and each ``coupling_matrix`` row
    (``row . z <= 0``) ties such a product to its factor's bounds times the
    rate variable.
    """

    tie: tuple[int, ...]
    names: tuple[str, ...]
    factor: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    box: tuple[tuple[float, float], ...]
    coupling_matrix: np.ndarray

    @property
    def rate(self) -> int:
        """The parameter of ``cb``, the rate of every factor product."""
        return self.tie[_CB]

    def coefficients(self, theta: np.ndarray) -> CostCoefficients:
        """The coefficients of parameter values ``theta``."""
        values = theta.tolist()
        return CostCoefficients(*(values[j] for j in self.tie))


def _variable_space(opts: CalibrationOptions) -> _VariableSpace:
    lower = {**DEFAULT_LOWER_BOUNDS, **(opts.lower_bounds or {})}
    upper = {**DEFAULT_UPPER_BOUNDS, **(opts.upper_bounds or {})}
    for name in COEFFICIENT_NAMES:
        lb, ub = lower[name], upper[name]
        if lb > ub:
            raise ConfigurationError(f"lower bound {lb!r} exceeds upper bound {ub!r} for {name}")
        if name in FACTOR_NAMES and not (0 < lb and ub <= 1.0):
            raise ConfigurationError(
                f"{name} bounds must lie within (0, 1], got [{lb!r}, {ub!r}]"
            )
        if name in RATE_NAMES and not lb > 0:
            raise ConfigurationError(f"{name} lower bound must be > 0, got {lb!r}")
    tie, names = _TIES[opts.symmetry]
    lo, hi = [], []
    for j in range(len(names)):
        group = [name for name, t in zip(COEFFICIENT_NAMES, tie) if t == j]
        lb, ub = max(lower[name] for name in group), min(upper[name] for name in group)
        if lb > ub:
            raise ConfigurationError(
                f"symmetry-merged bounds for {'/'.join(group)} are empty: [{lb!r}, {ub!r}]"
            )
        lo.append(lb)
        hi.append(ub)
    factor = np.zeros(len(names), dtype=bool)
    factor[[tie[COEFFICIENT_NAMES.index(name)] for name in FACTOR_NAMES]] = True
    rate = tie[_CB]
    box = tuple(
        (lo[j] * lo[rate], hi[j] * hi[rate]) if factor[j] else (lo[j], hi[j])
        for j in range(len(names))
    )
    matrix = np.zeros((2 * int(factor.sum()), len(names)))
    for r, j in enumerate(np.flatnonzero(factor)):
        matrix[2 * r, [j, rate]] = (1.0, -hi[j])  # product <= ub * rate
        matrix[2 * r + 1, [j, rate]] = (-1.0, lo[j])  # product >= lb * rate
    return _VariableSpace(tie, names, factor, np.array(lo), np.array(hi), box, matrix)


def linearized_values(c: CostCoefficients, symmetry: bool) -> dict[str, float]:
    """Map a coefficient vector into the linearized variable space (a tied
    parameter takes the value of the first coefficient in its group)."""
    tie, names = _TIES[symmetry]
    values = c.as_tuple()
    linearized: dict[str, float] = {}
    for k, j in enumerate(tie):
        if names[j] not in linearized:
            factor = COEFFICIENT_NAMES[k] in FACTOR_NAMES
            linearized[names[j]] = c.cb * values[k] if factor else values[k]
    return linearized


def _gap_rows(a: _Arrays, space: _VariableSpace) -> tuple[np.ndarray, np.ndarray]:
    """Linearized cost gaps of links 1 and 2: row k of each, dotted with the
    linearized variables, is that link's feed-through minus bifurcating
    cost at point k."""
    f1, f2, _, l1, l2, m1, m2, nu = space.tie
    gap1 = np.zeros((a.xf1.shape[0], len(space.names)))
    gap2 = np.zeros_like(gap1)
    gap1[:, f1], gap1[:, l1], gap1[:, m1] = a.xf1, -a.xb1, -a.xb2
    gap2[:, f2], gap2[:, l2], gap2[:, m2] = a.xf2, -a.xb2, -a.xb1
    gap1[:, nu] = gap2[:, nu] = -(a.xb1 * a.xb2)
    return gap1, gap2


def _condition_matrix(a: _Arrays, space: _VariableSpace) -> np.ndarray:
    """Affine condition coefficients: row (4k + j) gives condition j of
    point k as a dot product with the linearized variables."""
    gap1, gap2 = _gap_rows(a, space)
    rows = np.stack(
        (
            a.xf1[:, None] * gap1,
            -a.xb1[:, None] * gap1,
            a.xf2[:, None] * gap2,
            -a.xb2[:, None] * gap2,
        ),
        axis=1,
    )
    return rows.reshape(-1, len(space.names))


def _recover_coefficients(z: np.ndarray, space: _VariableSpace) -> CostCoefficients:
    """Coefficients of linearized values ``z``: each rate clipped to its
    bounds, each factor product divided by the clipped ``cb``, then clipped."""
    theta = np.clip(z, space.lo, space.hi)
    f = space.factor
    theta[f] = np.clip(z[f] / theta[space.rate], space.lo[f], space.hi[f])
    return space.coefficients(theta)


# ---------------------------------------------------------------------------
# Exact solver: one mixed-integer program, solved by HiGHS


def _flush_c_stdio() -> None:
    """``fflush(NULL)``: push the C library's stdio buffers to their files."""
    try:
        fflush = ctypes.CDLL(None).fflush
    except (OSError, TypeError, AttributeError):  # no C library handle here
        return
    fflush.argtypes = (ctypes.c_void_p,)
    fflush.restype = ctypes.c_int
    fflush(None)


@contextlib.contextmanager
def _c_stdout_silenced() -> Iterator[None]:
    """Point file descriptor 1 at the null device for the duration.

    HiGHS prints some MIP diagnostics from C++ straight to standard output
    even with its display off, which would corrupt a coefficients file the
    CLI writes to stdout.  C stdio is flushed on both sides of the switch
    (a piped stdout is fully buffered).  Not safe against other threads
    writing to stdout meanwhile.
    """
    sys.stdout.flush()
    try:
        saved = os.dup(1)
    except OSError:  # no stdout to protect
        yield
        return
    try:
        _flush_c_stdio()
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), 1)
        yield
    finally:
        _flush_c_stdio()
        os.dup2(saved, 1)
        os.close(saved)


def build_milp(
    data: Sequence[DataPoint], opts: CalibrationOptions
) -> tuple[np.ndarray, np.ndarray, Bounds, LinearConstraint]:
    """The exact-calibration MILP as ``(c, integrality, bounds, constraints)``,
    the arguments of :func:`scipy.optimize.milp`.

    Columns are the linearized coefficients ``z`` within their box, one
    binary ``e`` per condition (row order of :func:`_condition_matrix`), and
    a margin ``s`` in [0, 1].  Condition ``k`` gives the row
    ``A_k.z - T_k*e_k + eps*s <= eps``, where ``T_k`` is the largest value
    ``A_k.z`` takes on the box, so ``e_k = 1`` releases the row; the
    factor-coupling rows follow.  The objective is ``sum(e) - s/2``.
    """
    # scipy loads here, not at import, so commands without a MILP skip its
    # import time and memory.
    from scipy.optimize import Bounds, LinearConstraint

    space = _variable_space(opts)
    A = _condition_matrix(_data_arrays(data), space)
    m, n = A.shape
    lo, hi = np.array(space.box).T
    T = np.maximum(0.0, np.maximum(A * lo, A * hi).sum(axis=1))
    eps = opts.epsilon
    coupling = space.coupling_matrix
    rows = np.block(
        [
            [A, -np.diag(T), np.full((m, 1), eps)],
            [coupling, np.zeros((coupling.shape[0], m + 1))],
        ]
    )
    c = np.concatenate((np.zeros(n), np.ones(m), [-0.5]))
    integrality = np.concatenate((np.zeros(n), np.ones(m), [0.0]))
    bounds = Bounds(np.concatenate((lo, np.zeros(m + 1))), np.concatenate((hi, np.ones(m + 1))))
    constraints = LinearConstraint(
        rows, -np.inf, np.concatenate((np.full(m, eps), np.zeros(coupling.shape[0])))
    )
    return c, integrality, bounds, constraints


def calibrate_exact(data: Sequence[DataPoint], opts: CalibrationOptions) -> CalibrationResult:
    """Minimize the violation count exactly by solving :func:`build_milp`.

    Any coefficient vector violating ``n`` conditions at ``opts.epsilon``
    gives a feasible point with ``sum(e) = n`` and ``s = 0``, and the margin,
    worth at most 1/2, never pays for a binary; so the solver's proven bound
    on ``sum(e)`` is a lower bound on the violation count.  The margin pushes
    the satisfied products to <= 0 where it can.  The recovered
    coefficients are recounted with :func:`count_violations`, and the
    certificate is ``exact`` only when the recount meets the bound.
    HiGHS stops after ``MILP_NODE_LIMIT`` nodes with its best fit so far,
    which the same rule certifies: ``exact`` only if its recount still
    meets the proven bound.
    """
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    from scipy.optimize import milp

    space = _variable_space(opts)
    c, integrality, bounds, constraints = build_milp(data, opts)
    with _c_stdout_silenced():
        result = milp(
            c,
            integrality=integrality,
            bounds=bounds,
            constraints=constraints,
            options={"node_limit": MILP_NODE_LIMIT},
        )
    if result.x is None:
        raise ConfigurationError(f"the calibration MILP has no solution: {result.message}")
    coefficients = _recover_coefficients(result.x[: len(space.names)], space)
    report = count_violations(coefficients, data, opts.epsilon)
    lower_bound = math.ceil(result.mip_dual_bound - 1e-6)
    return CalibrationResult(
        coefficients=coefficients,
        violations=report.count,
        indicator_assignment=report.flags,
        certificate="exact" if report.count == lower_bound else "heuristic",
        uniqueness=check_uniqueness_condition(coefficients),
    )


# ---------------------------------------------------------------------------
# Heuristic solver: multi-start randomized search with coordinate refinement


def _objective(
    theta: np.ndarray, arrays: _Arrays, space: _VariableSpace, epsilon: float
) -> tuple[int, float, float]:
    """Lexicographic search objective.

    Primary: violation count.  Secondary: summed positive parts of the
    violated products.  Tertiary: deficit of the uniqueness condition, so
    that among otherwise equivalent fits the solver prefers one whose
    equilibrium predictions are certified unique.
    """
    c = space.coefficients(theta)
    _, count, positive = _violated(_products(c, arrays), epsilon)
    margins = uniqueness_margins(c)
    deficit = max(0.0, -min(margins))
    return (count, positive, deficit)


def _least_squares_start(a: _Arrays, space: _VariableSpace) -> np.ndarray | None:
    """Deterministic start: fit the interior cost-equality rows in the
    linearized space and rescale onto the admissible box (the equilibrium
    conditions are scale-invariant, so only the ray direction matters)."""
    tiny = 1e-9
    # Point-major rows (link 1, then link 2) of the links whose two classes
    # are both populated.
    interior = np.column_stack(
        ((a.xf1 > tiny) & (a.xb1 > tiny), (a.xf2 > tiny) & (a.xb2 > tiny))
    )
    if not interior.any():
        return None
    matrix = np.stack(_gap_rows(a, space), axis=1)[interior]
    # An untied cb appears in no gap row (only through the products), so
    # drop its column and anchor it at the mean feed rate afterwards.
    fitted = sorted({j for k, j in enumerate(space.tie) if k != _CB})
    if len(fitted) < len(space.names):
        matrix = matrix[:, fitted]
    # Ridge-anchored least squares: the nearest near-null direction to an
    # all-ones anchor, which keeps underdetermined fits positive.
    d = matrix.shape[1]
    delta = 1e-6 * max(1.0, float(np.linalg.norm(matrix)))
    augmented = np.vstack((matrix, delta * np.eye(d)))
    target = np.concatenate((np.zeros(matrix.shape[0]), delta * np.ones(d)))
    v, *_ = np.linalg.lstsq(augmented, target, rcond=None)
    if v[0] < 0:
        v = -v
    theta = np.zeros(len(space.names))
    theta[fitted] = v
    f1, f2 = space.tie[:2]  # the feed rates' parameters
    theta[space.rate] = 0.5 * (theta[f1] + theta[f2])
    rates = ~space.factor
    if np.any(theta[rates] <= tiny):
        return None
    theta *= np.max(space.lo[rates] / theta[rates])
    if np.any(theta[rates] > space.hi[rates]):
        return None
    f = space.factor
    theta[f] = np.clip(theta[f] / theta[space.rate], space.lo[f], space.hi[f])
    return theta


# The schedule reaches well below the counting margin's width in
# coefficient space (products move by roughly step * share per step), so a
# walk can actually land inside a zero-violation band instead of straddling it.
_STEP_FRACTIONS = (
    0.25, 0.08, 0.025, 0.008, 0.0025,
    8e-4, 2.5e-4, 8e-5, 2.5e-5, 8e-6, 2.5e-6, 8e-7,
)


def _refine(
    theta: np.ndarray, arrays: _Arrays, space: _VariableSpace, epsilon: float
) -> tuple[tuple[int, float, float], np.ndarray]:
    """Coordinate pattern search from ``theta`` with a shrinking step."""
    theta = theta.copy()
    value = _objective(theta, arrays, space, epsilon)
    lo, hi = space.lo, space.hi
    span = hi - lo
    for fraction in _STEP_FRACTIONS:
        for _ in range(40):
            improved = False
            for dim in range(theta.shape[0]):
                step = fraction * span[dim]
                for direction in (1.0, -1.0):
                    while True:
                        trial = theta.copy()
                        trial[dim] = min(max(trial[dim] + direction * step, lo[dim]), hi[dim])
                        if trial[dim] == theta[dim]:
                            break
                        trial_value = _objective(trial, arrays, space, epsilon)
                        if trial_value < value:
                            theta, value = trial, trial_value
                            improved = True
                        else:
                            break
            if not improved:
                break
    return value, theta


def calibrate_search(
    data: Sequence[DataPoint], opts: CalibrationOptions
) -> CalibrationResult:
    """Heuristic violation-count minimization over the bounded box.

    Runs ``opts.restarts`` starts (one deterministic least-squares seed plus
    random box samples) through a coordinate pattern search, returning the
    lexicographically best outcome; deterministic for a fixed seed and never
    worse than the best raw start point.
    """
    K = len(data)
    if K == 0:
        raise ValueError("data must be non-empty")
    space = _variable_space(opts)
    arrays = _data_arrays(data)
    lo, hi = space.lo, space.hi
    rng = np.random.default_rng(opts.seed)

    ls = _least_squares_start(arrays, space)
    starts = [0.5 * (lo + hi) if ls is None else np.clip(ls, lo, hi)]
    for _ in range(opts.restarts - 1):
        starts.append(lo + rng.random(lo.shape[0]) * (hi - lo))

    best: tuple[tuple[int, float, float], tuple[float, ...]] | None = None
    for start in starts:
        value, theta = _refine(start, arrays, space, opts.epsilon)
        key = (value, space.coefficients(theta).as_tuple())
        if best is None or key < best:
            best, best_theta = key, theta
        if best[0] == (0, 0.0, 0.0):
            break

    coefficients = space.coefficients(best_theta)
    report = count_violations(coefficients, data, opts.epsilon)
    return CalibrationResult(
        coefficients=coefficients,
        violations=report.count,
        indicator_assignment=report.flags,
        certificate="heuristic",
        uniqueness=check_uniqueness_condition(coefficients),
    )
