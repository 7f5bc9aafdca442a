"""Recover cost coefficients from steady-state lane-share data.

Calibration minimizes the number of equilibrium conditions a coefficient
vector violates over a set of observed (demand, flow) tuples.  Each of the
four conditions per data point is a sign constraint on a product that is
affine in a *linearized* coefficient vector: the bifurcating rate multiplied
by a capacity factor is treated as a single variable (``cb_lambda1 = cb *
lambda1`` and so on), which keeps every constraint linear while the factors
themselves are recovered by division afterwards.  A condition is violated
when its product exceeds the margin ``epsilon`` (:func:`count_violations`).

Two solvers share that encoding:

* :func:`calibrate_exact` — one mixed-integer program (:func:`build_milp`,
  one indicator per condition) solved by HiGHS through
  :func:`scipy.optimize.milp`, returning a provably minimal violation count
  (guarded to small instances).
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
from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

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

class ConfigurationError(ValueError):
    """Calibration options are inconsistent (e.g. a lower bound above an upper)."""


class ExactSolverGuardError(RuntimeError):
    """The instance exceeds the exact solver's binary-count guard."""


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
    coefficient box (rates in [1, 10], factors in (0, 1]).
    """

    epsilon: float = 1e-6
    symmetry: bool = False
    lower_bounds: Mapping[str, float] | None = None
    upper_bounds: Mapping[str, float] | None = None
    solver: str = "heuristic"
    restarts: int = 200
    seed: int = 0
    max_exact_binaries: int = 28

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if self.solver not in ("exact", "heuristic"):
            raise ValueError(f"solver must be 'exact' or 'heuristic', got {self.solver!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_exact_binaries < 4:
            raise ValueError(f"max_exact_binaries must be >= 4, got {self.max_exact_binaries}")
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


def _resolve_bounds(opts: CalibrationOptions) -> dict[str, tuple[float, float]]:
    lower = dict(DEFAULT_LOWER_BOUNDS)
    upper = dict(DEFAULT_UPPER_BOUNDS)
    if opts.lower_bounds:
        lower.update(opts.lower_bounds)
    if opts.upper_bounds:
        upper.update(opts.upper_bounds)
    bounds: dict[str, tuple[float, float]] = {}
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
        bounds[name] = (lb, ub)
    return bounds


def _merge_bounds(
    bounds: dict[str, tuple[float, float]], names: Sequence[str]
) -> tuple[float, float]:
    lb = max(bounds[name][0] for name in names)
    ub = min(bounds[name][1] for name in names)
    if lb > ub:
        raise ConfigurationError(
            f"symmetry-merged bounds for {'/'.join(names)} are empty: [{lb!r}, {ub!r}]"
        )
    return lb, ub


@dataclass(frozen=True)
class _VariableSpace:
    """Linearized continuous variables, their box, and the coupling rows
    (each ``row . z <= 0``) tying each rate-times-factor product to the
    bounds of its factor times its rate variable."""

    symmetry: bool
    names: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    coupling_matrix: np.ndarray
    factor_bounds: dict[str, tuple[float, float]]
    rate_bounds: dict[str, tuple[float, float]]


def _variable_space(opts: CalibrationOptions) -> _VariableSpace:
    bounds = _resolve_bounds(opts)
    if opts.symmetry:
        cf = _merge_bounds(bounds, ("cf1", "cf2", "cb"))
        lam = _merge_bounds(bounds, ("lambda1", "lambda2"))
        mu = _merge_bounds(bounds, ("mu1", "mu2"))
        nu = bounds["nu"]
        names = ("cf", "cb_lambda", "cb_mu", "nu")
        box = (
            cf,
            (lam[0] * cf[0], lam[1] * cf[1]),
            (mu[0] * cf[0], mu[1] * cf[1]),
            nu,
        )
        factor_bounds = {"cb_lambda": lam, "cb_mu": mu}
        rate_bounds = {"cf": cf, "nu": nu}
    else:
        names = ("cf1", "cf2", "cb", "cb_lambda1", "cb_lambda2", "cb_mu1", "cb_mu2", "nu")
        factor_bounds = {
            "cb_lambda1": bounds["lambda1"],
            "cb_lambda2": bounds["lambda2"],
            "cb_mu1": bounds["mu1"],
            "cb_mu2": bounds["mu2"],
        }
        rate_bounds = {name: bounds[name] for name in ("cf1", "cf2", "cb", "nu")}
        cb = bounds["cb"]
        box = (
            bounds["cf1"],
            bounds["cf2"],
            cb,
            *(
                (factor_bounds[name][0] * cb[0], factor_bounds[name][1] * cb[1])
                for name in ("cb_lambda1", "cb_lambda2", "cb_mu1", "cb_mu2")
            ),
            bounds["nu"],
        )
    rate = names.index("cf" if opts.symmetry else "cb")
    matrix = np.zeros((2 * len(factor_bounds), len(names)))
    for r, (product, (lb, ub)) in enumerate(factor_bounds.items()):
        matrix[2 * r, [names.index(product), rate]] = (1.0, -ub)  # product <= ub * rate
        matrix[2 * r + 1, [names.index(product), rate]] = (-1.0, lb)  # product >= lb * rate
    return _VariableSpace(
        symmetry=opts.symmetry,
        names=names,
        box=box,
        coupling_matrix=matrix,
        factor_bounds=factor_bounds,
        rate_bounds=rate_bounds,
    )


def linearized_values(c: CostCoefficients, symmetry: bool) -> dict[str, float]:
    """Map a coefficient vector into the linearized variable space."""
    if symmetry:
        return {
            "cf": c.cf1,
            "cb_lambda": c.cb * c.lambda1,
            "cb_mu": c.cb * c.mu1,
            "nu": c.nu,
        }
    return {
        "cf1": c.cf1,
        "cf2": c.cf2,
        "cb": c.cb,
        "cb_lambda1": c.cb * c.lambda1,
        "cb_lambda2": c.cb * c.lambda2,
        "cb_mu1": c.cb * c.mu1,
        "cb_mu2": c.cb * c.mu2,
        "nu": c.nu,
    }


def _gap_rows(a: _Arrays, space: _VariableSpace) -> tuple[np.ndarray, np.ndarray]:
    """Linearized cost gaps of links 1 and 2: row k of each, dotted with the
    linearized variables, is that link's feed-through minus bifurcating
    cost at point k."""
    col = space.names.index
    f1, l1, m1, f2, l2, m2 = (
        ("cf", "cb_lambda", "cb_mu") * 2
        if space.symmetry
        else ("cf1", "cb_lambda1", "cb_mu1", "cf2", "cb_lambda2", "cb_mu2")
    )
    gap1 = np.zeros((a.xf1.shape[0], len(space.names)))
    gap2 = np.zeros_like(gap1)
    gap1[:, col(f1)], gap1[:, col(l1)], gap1[:, col(m1)] = a.xf1, -a.xb1, -a.xb2
    gap2[:, col(f2)], gap2[:, col(l2)], gap2[:, col(m2)] = a.xf2, -a.xb2, -a.xb1
    gap1[:, col("nu")] = gap2[:, col("nu")] = -(a.xb1 * a.xb2)
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
    def clip(value: float, lohi: tuple[float, float]) -> float:
        return min(max(value, lohi[0]), lohi[1])

    if space.symmetry:
        cf = clip(float(z[0]), space.rate_bounds["cf"])
        lam = clip(float(z[1]) / cf, space.factor_bounds["cb_lambda"])
        mu = clip(float(z[2]) / cf, space.factor_bounds["cb_mu"])
        nu = clip(float(z[3]), space.rate_bounds["nu"])
        return CostCoefficients(cf, cf, cf, lam, lam, mu, mu, nu)
    cf1 = clip(float(z[0]), space.rate_bounds["cf1"])
    cf2 = clip(float(z[1]), space.rate_bounds["cf2"])
    cb = clip(float(z[2]), space.rate_bounds["cb"])
    lam1 = clip(float(z[3]) / cb, space.factor_bounds["cb_lambda1"])
    lam2 = clip(float(z[4]) / cb, space.factor_bounds["cb_lambda2"])
    mu1 = clip(float(z[5]) / cb, space.factor_bounds["cb_mu1"])
    mu2 = clip(float(z[6]) / cb, space.factor_bounds["cb_mu2"])
    nu = clip(float(z[7]), space.rate_bounds["nu"])
    return CostCoefficients(cf1, cf2, cb, lam1, lam2, mu1, mu2, nu)


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
    Refuses instances with more than ``opts.max_exact_binaries`` conditions;
    use :func:`calibrate_search` (or raise the guard) beyond that.
    """
    K = len(data)
    if K == 0:
        raise ValueError("data must be non-empty")
    n_conditions = 4 * K
    if n_conditions > opts.max_exact_binaries:
        raise ExactSolverGuardError(
            f"instance has {n_conditions} indicator variables, above the exact-solver "
            f"guard of {opts.max_exact_binaries}; use solver='heuristic' "
            f"(calibrate_search) or raise max_exact_binaries"
        )
    space = _variable_space(opts)
    c, integrality, bounds, constraints = build_milp(data, opts)
    with _c_stdout_silenced():
        result = milp(c, integrality=integrality, bounds=bounds, constraints=constraints)
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


def _search_space(space: _VariableSpace) -> tuple[np.ndarray, np.ndarray]:
    """Box of the search's parameters, the coefficients themselves (tied
    under symmetry): the rates other than ``nu``, the factors, then ``nu``."""
    rates = dict(space.rate_bounds)
    nu = rates.pop("nu")
    lo, hi = np.array((*rates.values(), *space.factor_bounds.values(), nu)).T
    return lo, hi


def _theta_to_coefficients(theta: np.ndarray, symmetry: bool) -> CostCoefficients:
    if symmetry:
        cf, lam, mu, nu = (float(v) for v in theta)
        return CostCoefficients(cf, cf, cf, lam, lam, mu, mu, nu)
    return CostCoefficients(*(float(v) for v in theta))


def _objective(
    theta: np.ndarray, arrays: _Arrays, symmetry: bool, epsilon: float
) -> tuple[int, float, float]:
    """Lexicographic search objective.

    Primary: violation count.  Secondary: summed positive parts of the
    violated products.  Tertiary: deficit of the uniqueness condition, so
    that among otherwise equivalent fits the solver prefers one whose
    equilibrium predictions are certified unique.
    """
    c = _theta_to_coefficients(theta, symmetry)
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
    if not space.symmetry:
        # cb never appears alone in a gap row (only through the products),
        # so drop its column and anchor it at the mean feed rate afterwards.
        matrix = matrix[:, [0, 1, 3, 4, 5, 6, 7]]
    # Ridge-anchored least squares: the nearest near-null direction to an
    # all-ones anchor, which keeps underdetermined fits positive.
    d = matrix.shape[1]
    delta = 1e-6 * max(1.0, float(np.linalg.norm(matrix)))
    augmented = np.vstack((matrix, delta * np.eye(d)))
    target = np.concatenate((np.zeros(matrix.shape[0]), delta * np.ones(d)))
    v, *_ = np.linalg.lstsq(augmented, target, rcond=None)
    if v[0] < 0:
        v = -v
    if space.symmetry:
        cf, g, h, nu = (float(x) for x in v)
        if cf <= tiny or nu <= tiny:
            return None
        cf_b, nu_b = space.rate_bounds["cf"], space.rate_bounds["nu"]
        scale = max(cf_b[0] / cf, nu_b[0] / nu)
        if cf * scale > cf_b[1] or nu * scale > nu_b[1]:
            return None
        cf, g, h, nu = cf * scale, g * scale, h * scale, nu * scale
        lam_b = space.factor_bounds["cb_lambda"]
        mu_b = space.factor_bounds["cb_mu"]
        lam = min(max(g / cf, lam_b[0]), lam_b[1])
        mu = min(max(h / cf, mu_b[0]), mu_b[1])
        return np.array([cf, lam, mu, nu])
    cf1, cf2, g1, g2, h1, h2, nu = (float(x) for x in v)
    if cf1 <= tiny or cf2 <= tiny or nu <= tiny:
        return None
    cb = 0.5 * (cf1 + cf2)
    rb = space.rate_bounds
    scale = max(rb["cf1"][0] / cf1, rb["cf2"][0] / cf2, rb["nu"][0] / nu, rb["cb"][0] / cb)
    values = np.array([cf1, cf2, cb, g1, g2, h1, h2, nu]) * scale
    if (
        values[0] > rb["cf1"][1]
        or values[1] > rb["cf2"][1]
        or values[2] > rb["cb"][1]
        or values[7] > rb["nu"][1]
    ):
        return None
    fb = space.factor_bounds
    lam1 = min(max(values[3] / values[2], fb["cb_lambda1"][0]), fb["cb_lambda1"][1])
    lam2 = min(max(values[4] / values[2], fb["cb_lambda2"][0]), fb["cb_lambda2"][1])
    mu1 = min(max(values[5] / values[2], fb["cb_mu1"][0]), fb["cb_mu1"][1])
    mu2 = min(max(values[6] / values[2], fb["cb_mu2"][0]), fb["cb_mu2"][1])
    return np.array([values[0], values[1], values[2], lam1, lam2, mu1, mu2, values[7]])


# The schedule reaches well below the counting margin's width in
# coefficient space (products move by roughly step * share per step), so a
# walk can actually land inside a zero-violation band instead of straddling it.
_STEP_FRACTIONS = (
    0.25, 0.08, 0.025, 0.008, 0.0025,
    8e-4, 2.5e-4, 8e-5, 2.5e-5, 8e-6, 2.5e-6, 8e-7,
)


def _refine(
    theta: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    arrays: _Arrays,
    symmetry: bool,
    epsilon: float,
) -> tuple[tuple[int, float, float], np.ndarray]:
    """Coordinate pattern search from ``theta`` with a shrinking step."""
    theta = theta.copy()
    value = _objective(theta, arrays, symmetry, epsilon)
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
                        trial_value = _objective(trial, arrays, symmetry, epsilon)
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
    lo, hi = _search_space(space)
    rng = np.random.default_rng(opts.seed)

    starts: list[np.ndarray] = []
    seed_theta = None
    ls = _least_squares_start(arrays, space)
    if ls is not None:
        seed_theta = np.minimum(np.maximum(ls, lo), hi)
        starts.append(seed_theta)
    else:
        starts.append(0.5 * (lo + hi))
    for _ in range(opts.restarts - 1):
        starts.append(lo + rng.random(lo.shape[0]) * (hi - lo))

    best_value: tuple[int, float, float] | None = None
    best_theta: np.ndarray | None = None
    for start in starts:
        value, theta = _refine(start, lo, hi, arrays, opts.symmetry, opts.epsilon)
        candidate = _theta_to_coefficients(theta, opts.symmetry)
        key = (value, candidate.as_tuple())
        if best_value is None or key < (
            best_value,
            _theta_to_coefficients(best_theta, opts.symmetry).as_tuple(),
        ):
            best_value, best_theta = value, theta
        if best_value == (0, 0.0, 0.0):
            break

    assert best_theta is not None
    coefficients = _theta_to_coefficients(best_theta, opts.symmetry)
    report = count_violations(coefficients, data, opts.epsilon)
    return CalibrationResult(
        coefficients=coefficients,
        violations=report.count,
        indicator_assignment=report.flags,
        certificate="heuristic",
        uniqueness=check_uniqueness_condition(coefficients),
    )
