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
coefficient to its free parameter, the identity or the model's
:data:`~divergelane.model.SYMMETRIC_TIE`.  Every rule of the encoding
(bounds, condition rows, coefficient recovery, the search) is written once
and reads that map.  Names, kinds and tie come from the model.

Two solvers share that encoding:

* :func:`calibrate_exact` — two stages that read one set of rows: the
  condition matrix, the coupling rows and the box.  A mixed-integer program
  (:func:`build_milp`, one indicator per condition) solved by HiGHS through
  :func:`scipy.optimize.milp` finds the count: provably minimal when HiGHS
  closes the search within ``MILP_NODE_LIMIT`` branch-and-bound nodes, its
  best so far otherwise.  Then one LP (:func:`scipy.optimize.linprog`) places
  the fit furthest below the margin on the condition rows the MILP kept; when
  HiGHS finds no optimum for it, the MILP's own point is the fit.
* :func:`calibrate_search` — a seeded multi-start steepest coordinate
  (compass) search, with no pattern move: each sweep moves every restart at
  once to its best one-step neighbour, and the search ends after the first
  sweep in which a restart violates no condition and meets the uniqueness
  condition.  It scores its moves as rows of the MILP's condition matrix.
  Scalable to any size but only a heuristic certificate.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy.optimize import Bounds, LinearConstraint

from .model import (
    COEFFICIENT_NAMES,
    FACTOR_FLOOR,
    FACTOR_NAMES,
    SYMMETRIC_TIE,
    CostCoefficients,
    DataPoint,
    FeasibilityError,
    check_feasible,
    check_uniqueness_condition,
    cost_gaps,
    residual_products,
    share_matrix,
    uniqueness_margins,
)

#: The calibration box, one (lower, upper) pair per coefficient kind: every
#: rate in ``RATE_BOUNDS`` and every capacity factor in ``FACTOR_BOUNDS``.
RATE_BOUNDS = (1.0, 10.0)
FACTOR_BOUNDS = (FACTOR_FLOOR, 1.0)

#: Free parameter of each coefficient (``COEFFICIENT_NAMES`` order) and the
#: parameters' linearized names, without and with symmetry.
_TIES = {
    False: (
        tuple(range(len(COEFFICIENT_NAMES))),
        tuple(f"cb_{name}" if name in FACTOR_NAMES else name for name in COEFFICIENT_NAMES),
    ),
    True: (SYMMETRIC_TIE, ("cf", "cb_lambda", "cb_mu", "nu")),
}
_CB = COEFFICIENT_NAMES.index("cb")

#: Branch-and-bound nodes HiGHS may explore in :func:`calibrate_exact`.  A
#: node count, unlike a wall clock, stops every run at the same incumbent,
#: so the output stays byte-deterministic.
MILP_NODE_LIMIT = 10_000


class ConfigurationError(ValueError):
    """HiGHS rejected the calibration MILP or returned no point for it."""


@dataclass(frozen=True)
class CalibrationOptions:
    """Knobs shared by both calibration solvers.

    ``epsilon`` is the violation-counting margin: a condition is violated
    when its product exceeds it.  Scale it to the data's noise floor: 1e-6
    suits solver-generated data, while simulator output typically needs 1e-3
    to 1e-2.  Both solvers search one coefficient box, one pair per kind:
    every rate in ``RATE_BOUNDS`` = [1, 10] and every factor in
    ``FACTOR_BOUNDS`` = ``[FACTOR_FLOOR, 1]``.  ``restarts`` and ``seed`` drive
    :func:`calibrate_search` only; the exact solver's effort is bounded by
    the module constant ``MILP_NODE_LIMIT``.
    """

    epsilon: float = 1e-6
    symmetry: bool = False
    restarts: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ViolationCount:
    """Output of :func:`count_violations`.

    ``flags`` holds one boolean per (point, condition) in the order
    (f1, b1, f2, b2).
    """

    count: int
    flags: tuple[tuple[bool, bool, bool, bool], ...]
    products: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CalibrationResult:
    coefficients: CostCoefficients
    violations: int
    indicator_assignment: tuple[tuple[bool, bool, bool, bool], ...]
    certificate: str
    uniqueness: tuple[bool, bool]


# ---------------------------------------------------------------------------
# Shared encoding helpers


def count_violations(
    c: CostCoefficients, data: Sequence[DataPoint], epsilon: float = CalibrationOptions.epsilon
) -> ViolationCount:
    """Count equilibrium conditions violated by ``c`` over ``data``.

    A condition is violated when its product exceeds ``epsilon`` (the margin
    realizes the strict sign test in floating point; a product of exactly
    zero is always satisfied), which must be finite and >= 0.  Returns the
    count together with per-condition flags and products.
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon!r}")
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    for k, point in enumerate(data, start=1):
        try:
            check_feasible(point.demand, point.flow)
        except FeasibilityError as exc:
            raise FeasibilityError(f"data point k={k}: {exc}") from exc
    products = np.stack(residual_products(c, *share_matrix(data)), -1)
    flags = products > epsilon
    return ViolationCount(int(flags.sum()), tuple(map(tuple, flags.tolist())), products)


#: Coefficient arrays, one per name, which the model reads as a CostCoefficients.
_Columns = namedtuple("_Columns", COEFFICIENT_NAMES)


@dataclass(frozen=True)
class _VariableSpace:
    """The free parameters of a calibration.

    ``tie[k]`` is the parameter of coefficient ``k`` (``COEFFICIENT_NAMES``
    order) and ``factor`` marks the parameters of the capacity factors.
    ``lo``/``hi`` bound each parameter as a coefficient (the search box).
    """

    tie: tuple[int, ...]
    names: tuple[str, ...]
    factor: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def rate(self) -> int:
        """The parameter of ``cb``, the rate of every factor product."""
        return self.tie[_CB]

    def coefficients(self, theta: np.ndarray) -> CostCoefficients:
        """The coefficients of parameter values ``theta``."""
        values = theta.tolist()
        return CostCoefficients(*(values[j] for j in self.tie))

    def linearize(self, theta: np.ndarray) -> np.ndarray:
        """Linearized values of parameter values ``theta`` (any leading
        shape): each factor parameter times the ``cb`` parameter, the rest
        as they are."""
        return np.where(self.factor, theta * theta[..., self.rate, None], theta)


def _variable_space(opts: CalibrationOptions) -> _VariableSpace:
    tie, names = _TIES[opts.symmetry]
    factor = np.zeros(len(names), dtype=bool)
    factor[[tie[COEFFICIENT_NAMES.index(name)] for name in FACTOR_NAMES]] = True
    lo, hi = np.where(factor[:, None], FACTOR_BOUNDS, RATE_BOUNDS).T
    return _VariableSpace(tie, names, factor, lo, hi)


def linearized_values(c: CostCoefficients, symmetry: bool) -> dict[str, float]:
    """Map a coefficient vector into the linearized variable space (a tied
    parameter takes the value of the first coefficient in its group)."""
    space = _variable_space(CalibrationOptions(symmetry=symmetry))
    first = [space.tie.index(j) for j in range(len(space.names))]
    theta = np.array(c.as_tuple())[first]
    return dict(zip(space.names, space.linearize(theta).tolist()))


def _linear_rows(kernel, a: np.ndarray, space: _VariableSpace) -> tuple[np.ndarray, ...]:
    """The quantities ``kernel(c, *a)`` (``cost_gaps`` or
    ``residual_products``) as ``(K, n)`` rows: row k of each, dotted with
    the linearized variables, is that quantity at point k.

    Each quantity is linear in the linearized variables, so column j is the
    kernel evaluated with variable j at 1 and every other at 0: the
    coefficients tied to j are 1, and ``cb``, which the kernel reads only
    times a factor, is 1 in every column.
    """
    columns = np.eye(len(space.names))
    c = [columns[j] for j in space.tie]
    c[_CB] = np.ones(len(space.names))
    return kernel(_Columns(*c), *a[:, :, None])


def _condition_matrix(a: np.ndarray, space: _VariableSpace) -> np.ndarray:
    """Affine condition coefficients: row (4k + j) gives condition j of
    point k as a dot product with the linearized variables."""
    return np.stack(_linear_rows(residual_products, a, space), 1).reshape(-1, len(space.names))


def _recover_parameters(z: np.ndarray, space: _VariableSpace) -> np.ndarray:
    """Parameters of linearized values ``z``: each rate clipped to its
    bounds, each factor product divided by the clipped ``cb``, then clipped."""
    theta = np.clip(z, space.lo, space.hi)
    f = space.factor
    theta[f] = np.clip(z[f] / theta[space.rate], space.lo[f], space.hi[f])
    return theta


def _result(
    c: CostCoefficients, data: Sequence[DataPoint], epsilon: float, bound: int | None = None
) -> CalibrationResult:
    """The result of fit ``c``: its recount on ``data``, certified ``exact``
    only when that equals ``bound``, a proven lower bound on the count."""
    report = count_violations(c, data, epsilon)
    return CalibrationResult(
        coefficients=c,
        violations=report.count,
        indicator_assignment=report.flags,
        certificate="exact" if report.count == bound else "heuristic",
        uniqueness=check_uniqueness_condition(c),
    )


# ---------------------------------------------------------------------------
# Exact solver: a mixed-integer program finds the count, one LP places the fit


def _flush_c_stdio() -> None:
    """``fflush(NULL)``: push the C library's stdio buffers to their files."""
    import ctypes  # only the exact solver's stdout guard needs it

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


#: What both exact stages read, built once per calibration: the variable
#: space, the condition matrix, one coupling row per factor (``product -
#: hi*cb <= 0``) and the box ``[lo, hi]`` of the linearized values ``z``.  The
#: factor floor holds through ``lo`` and the clip in :func:`_recover_parameters`.
_ExactProblem = namedtuple("_ExactProblem", "space conditions coupling lo hi")


def _exact_problem(data: Sequence[DataPoint], opts: CalibrationOptions) -> _ExactProblem:
    space = _variable_space(opts)
    coupling = np.eye(len(space.names))[space.factor]
    coupling[:, space.rate] = -space.hi[space.factor]
    lo, hi = space.linearize(space.lo), space.linearize(space.hi)
    return _ExactProblem(space, _condition_matrix(share_matrix(data), space), coupling, lo, hi)


def _milp_arrays(problem: _ExactProblem, epsilon: float):
    # scipy loads here, not at import, so commands without a MILP skip its
    # import time and memory.
    from scipy.optimize import Bounds, LinearConstraint

    _, A, coupling, lo, hi = problem
    m, n = A.shape
    T = np.maximum(0.0, np.maximum(A * lo, A * hi).sum(axis=1))
    rows = np.block([[A, -np.diag(T)], [coupling, np.zeros((len(coupling), m))]])
    c = np.concatenate((np.zeros(n), np.ones(m)))
    integrality = np.concatenate((np.zeros(n), np.ones(m)))
    bounds = Bounds(np.concatenate((lo, np.zeros(m))), np.concatenate((hi, np.ones(m))))
    ub = np.concatenate((np.full(m, epsilon), np.zeros(len(coupling))))
    return c, integrality, bounds, LinearConstraint(rows, -np.inf, ub)


def build_milp(
    data: Sequence[DataPoint], opts: CalibrationOptions
) -> tuple[np.ndarray, np.ndarray, Bounds, LinearConstraint]:
    """The exact-calibration MILP as ``(c, integrality, bounds, constraints)``,
    the arguments of :func:`scipy.optimize.milp`.

    Columns are the linearized coefficients ``z`` within their box and one
    binary ``e`` per condition (row order of :func:`_condition_matrix`).
    Condition ``k`` gives the row ``A_k.z - T_k*e_k <= eps``, where ``T_k``
    is the largest value ``A_k.z`` takes on the box, so ``e_k = 1`` releases
    the row.  The factor-coupling rows follow.  The objective is ``sum(e)``.
    """
    return _milp_arrays(_exact_problem(data, opts), opts.epsilon)


def _fewest_violations(
    problem: _ExactProblem, epsilon: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Stage 1, the MILP: its point ``z``, the mask of the condition rows it
    keeps, and its count bound."""
    from scipy.optimize import OptimizeWarning, milp

    c, integrality, bounds, constraints = _milp_arrays(problem, epsilon)
    with warnings.catch_warnings():
        # scipy passes an option it does not document on to HiGHS with a
        # RuntimeWarning, and a HiGHS that does not know one ignores it with
        # an OptimizeWarning; both messages start with these words.
        for category in (RuntimeWarning, OptimizeWarning):
            warnings.filterwarnings("ignore", "Unrecognized options detected", category)
        result = milp(
            c, integrality=integrality, bounds=bounds, constraints=constraints,
            # The MILP is feasible by construction (any box point with every
            # indicator at 1 meets every row), so feasibility jump, a heuristic
            # that searches for a first feasible point, has nothing to find.
            # Under HiGHS 1.12 5-point solves at 1e-3 took 0.060–0.075 s with
            # it and 0.034–0.045 s without (CPU, one thread, median of 5).
            options={"node_limit": MILP_NODE_LIMIT, "mip_heuristic_run_feasibility_jump": False},
        )
    if result.x is None:
        what = "is rejected by HiGHS" if "Model error" in result.message else "has no solution"
        raise ConfigurationError(f"the calibration MILP {what}: {result.message}")
    n = len(problem.lo)
    return result.x[:n], result.x[n:] < 0.5, math.ceil(result.mip_dual_bound - 1e-6)


def _max_margin_point(problem: _ExactProblem, epsilon: float, z: np.ndarray) -> np.ndarray:
    """Stage 2, the LP: the ``z`` maximizing a margin ``t`` in [0, epsilon] over
    ``problem``'s condition rows, ``A_k.z + t <= epsilon`` (so epsilon is no matrix
    entry), in its box and coupling rows; the MILP's point ``z`` if HiGHS finds no
    optimum.  That point meets the kept rows only within HiGHS's feasibility
    tolerance, and HiGHS reads an epsilon of 1e20 or more as no bound at all."""
    from scipy.optimize import linprog

    _, A, coupling, lo, hi = problem
    result = linprog(
        np.append(np.zeros(len(lo)), -1.0),
        A_ub=np.block([[A, np.ones((len(A), 1))], [coupling, np.zeros((len(coupling), 1))]]),
        b_ub=np.concatenate((np.full(len(A), epsilon), np.zeros(len(coupling)))),
        bounds=np.column_stack((np.append(lo, 0.0), np.append(hi, epsilon))),
        method="highs",
    )
    return result.x[:-1] if result.status == 0 else z


def calibrate_exact(data: Sequence[DataPoint], opts: CalibrationOptions) -> CalibrationResult:
    """Minimize the violation count exactly, in two stages.

    Any fit violating ``n`` conditions gives a MILP point with ``sum(e) = n``,
    so HiGHS's proven bound on ``sum(e)`` bounds the count below, also when it
    stops at ``MILP_NODE_LIMIT`` nodes with its best fit so far.  The LP places
    the fit on the rows the MILP kept, or leaves the MILP's point when it has
    no optimum; the fit's recount (:func:`count_violations`) is certified
    ``exact`` only if it meets the bound.
    """
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    problem = _exact_problem(data, opts)
    with _c_stdout_silenced():
        z, kept, bound = _fewest_violations(problem, opts.epsilon)
        z = _max_margin_point(problem._replace(conditions=problem.conditions[kept]), opts.epsilon, z)
    coefficients = problem.space.coefficients(_recover_parameters(z, problem.space))
    return _result(coefficients, data, opts.epsilon, bound)


# ---------------------------------------------------------------------------
# Heuristic solver: multi-start randomized search with coordinate refinement


#: Residual products :func:`_objectives` forms at once: it scores its rows in
#: blocks of at most this many, so its memory does not grow with the number
#: of rows times the number of points.
_BLOCK_PRODUCTS = 2**14


def _products(theta: np.ndarray, conditions: np.ndarray, space: _VariableSpace) -> np.ndarray:
    """Residual products of each row of ``theta``, ``(M, 4K)``: its linearized
    values dotted with the rows of :func:`_condition_matrix`, by an ``einsum`` on
    their contiguous transpose that rounds each row alone (BLAS rounds by M)."""
    return np.einsum("mj,jk->mk", space.linearize(theta), np.ascontiguousarray(conditions.T))


def _objectives(theta: np.ndarray, conditions: np.ndarray, space: _VariableSpace, epsilon: float):
    """Lexicographic search objective of each row of ``theta``, ``(M, 3)``.

    Primary: violation count.  Secondary: summed positive parts of the
    violated products, rows of the MILP's condition matrix (:func:`_products`).
    Tertiary: uniqueness deficit, so that among otherwise equivalent fits the
    solver prefers one certified unique.  No row depends on another.
    """
    rows = max(1, _BLOCK_PRODUCTS // len(conditions))
    out = np.empty((len(theta), 3))
    for first in range(0, len(theta), rows):
        products = _products(theta[first:first + rows], conditions, space)
        flags = products > epsilon
        out[first:first + rows, 0] = flags.sum(axis=1)
        out[first:first + rows, 1] = np.where(flags, products, 0.0).sum(axis=1)
    c = _Columns(*(theta[:, j] for j in space.tie))
    out[:, 2] = np.maximum(0.0, -np.minimum(*uniqueness_margins(c)))
    return out


def _least_squares_start(a: np.ndarray, space: _VariableSpace) -> np.ndarray | None:
    """Deterministic start: fit the interior cost-equality rows in the
    linearized space and scale the ray onto the rate floor (the conditions are
    scale-invariant, so only its direction matters), then recover the parameters
    inside the box.  None with no interior link or a non-positive fitted rate."""
    tiny = 1e-9
    # Point-major rows (link 1, then link 2) of the links whose two classes
    # are both populated.
    xf1, xb1, xf2, xb2 = a > tiny
    interior = np.column_stack((xf1 & xb1, xf2 & xb2))
    if not interior.any():
        return None
    matrix = np.stack(_linear_rows(cost_gaps, a, space), axis=1)[interior]
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
    if np.any(theta[rates] <= 0.0):
        return None
    theta *= np.max(space.lo[rates] / theta[rates])
    return _recover_parameters(theta, space)


# The schedule reaches well below the counting margin's width in
# coefficient space (products move by roughly step * share per step), so a
# row can actually land inside a zero-violation band instead of straddling it.
_STEP_FRACTIONS = (
    0.25, 0.08, 0.025, 0.008, 0.0025,
    8e-4, 2.5e-4, 8e-5, 2.5e-5, 8e-6, 2.5e-6, 8e-7,
)

#: Sweeps a restart may run at one step fraction before the step shrinks.
_MAX_SWEEPS = 40


def _lockstep_refine(
    starts: np.ndarray, conditions: np.ndarray, space: _VariableSpace, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every start refined at once by a steepest compass search, and its
    objective.

    At each of ``_STEP_FRACTIONS`` of the box's span in turn, up to
    ``_MAX_SWEEPS`` sweeps run.  In a sweep each live row scores its moves,
    one step up and one down each parameter (clipped to the box), and takes
    the lexicographically best if it beats the row's objective, the first in
    move order on ties; a row that takes none sits out until the next step
    fraction.  One :func:`_objectives` call scores a sweep's moves of every
    row.  The search ends after the first sweep in which a row reaches the
    zero objective.
    """
    lo, hi = space.lo, space.hi
    moves = np.arange(2 * lo.shape[0])
    # Move j steps parameter j // 2 up (j even) or down.
    directions = np.zeros((len(moves), lo.shape[0]))
    directions[moves, moves // 2] = 1.0 - 2 * (moves % 2)
    theta = starts.copy()
    value = _objectives(theta, conditions, space, epsilon)
    if not value.any(axis=1).all():
        return theta, value
    for fraction in _STEP_FRACTIONS:
        step = directions * (fraction * (hi - lo))
        live = np.arange(len(theta))
        for _ in range(_MAX_SWEEPS):
            trials = np.clip(theta[live, None] + step, lo, hi)
            scores = _objectives(trials.reshape(-1, lo.shape[0]), conditions, space, epsilon)
            # Each row's own point stands first, so a stable sort keeps it
            # unless a move beats it, and keeps the first of tied moves.
            candidates = np.concatenate((value[live, None], scores.reshape(len(live), -1, 3)), 1)
            best = np.lexsort(candidates.T[::-1], axis=0)[0] - 1
            moved = best >= 0
            live, best = live[moved], best[moved]
            theta[live] = trials[moved, best]
            value[live] = candidates[moved, best + 1]
            if not value[live].any(axis=1).all():
                return theta, value
            if not len(live):
                break
    return theta, value


def calibrate_search(
    data: Sequence[DataPoint], opts: CalibrationOptions
) -> CalibrationResult:
    """Heuristic violation-count minimization over the bounded box.

    Runs ``opts.restarts`` starts (one deterministic least-squares seed plus
    random box samples) through a steepest coordinate (compass) search, all
    at once (:func:`_lockstep_refine`).  Returns the lowest-index restart at
    the zero objective if the search reached it, and otherwise the least
    (objective, coefficients), the lowest index on ties; deterministic for a
    fixed seed and never worse than the best raw start point.
    """
    if len(data) == 0:
        raise ValueError("data must be non-empty")
    space = _variable_space(opts)
    arrays = share_matrix(data)
    lo, hi = space.lo, space.hi
    rng = np.random.default_rng(opts.seed)

    ls = _least_squares_start(arrays, space)
    first = 0.5 * (lo + hi) if ls is None else ls
    starts = np.vstack((first, lo + rng.random((opts.restarts - 1, lo.shape[0])) * (hi - lo)))
    conditions = _condition_matrix(arrays, space)
    thetas, values = _lockstep_refine(starts, conditions, space, opts.epsilon)

    # The first restart at the zero objective wins, since the search stopped
    # there; otherwise the least (objective, coefficients), the first on ties.
    zero = ~values.any(axis=1)
    keys = np.column_stack((values, thetas[:, space.tie]))
    best = zero.argmax() if zero.any() else np.lexsort(keys.T[::-1])[0]
    return _result(space.coefficients(thetas[best]), data, opts.epsilon)
