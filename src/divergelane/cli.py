"""Command-line interface: solve, sweep, generate, calibrate, check, verify.

All output is plain CSV or ``key = value`` text, deterministic for fixed
flags and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

import numpy as np

from .calibration import (
    CalibrationOptions,
    DataPoint,
    calibrate_exact,
    calibrate_search,
)
from .datagen import SimulationConfig, generate_dataset
from .equilibrium import SolverOptions, solve_equilibria
from .fileio import (
    ParseError,
    format_coefficients,
    load_coefficients,
    load_dataset,
    write_coefficients,
    write_dataset,
)
from .model import (
    DemandConfig,
    FlowDistribution,
    max_residual,
    uniqueness_margins,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CONDITION_FAILED = 4

#: Most points a ``sweep --range``/``--step`` or ``generate --sweep`` range
#: may expand to.
MAX_RANGE_POINTS = 10**6

_EPILOG = """\
exit codes:
  0  success
  1  bad input (parse or validation error)
  2  no split certified as an equilibrium at the tolerance
  4  uniqueness condition failed on some link
"""


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _range_values(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"range bounds and step must be finite, got {start!r}:{stop!r}:{step!r}")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step!r}")
    if stop < start:
        raise ValueError(f"range bounds reversed: {start!r} > {stop!r}")
    last = (stop - start) / step + 1e-9
    if not last < MAX_RANGE_POINTS:
        raise ValueError(
            f"range {start!r}:{stop!r} with step {step!r} has more than "
            f"{MAX_RANGE_POINTS} points"
        )
    # start + i*step can round one ulp past stop.
    return [min(start + i * step, stop) for i in range(int(math.floor(last)) + 1)]


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected START:STOP, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_sweep(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected START:STOP:STEP, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _solve_demands(
    coeffs, demands: list[DemandConfig], tol: float
) -> tuple[list[FlowDistribution], list[float]]:
    """Closed-form equilibrium flow and its largest residual per demand."""
    xb1, xb2, residual, _ = solve_equilibria(coeffs, np.array([d.q1 for d in demands]), tol)
    flows = [
        FlowDistribution.from_bifurcating_shares(d, b1, b2)
        for d, b1, b2 in zip(demands, xb1.tolist(), xb2.tolist())
    ]
    return flows, residual.tolist()


def _cmd_solve(args: argparse.Namespace) -> int:
    coeffs = load_coefficients(args.coeffs)
    demand = DemandConfig(args.q1, 1.0 - args.q1)
    tol = SolverOptions(convergence_tol=args.tol).convergence_tol
    (flow,), (residual,) = _solve_demands(coeffs, [demand], tol)
    certified = residual <= tol
    print("q1,q2,xf1,xb1,xf2,xb2,converged,max_residual")
    print(
        f"{demand.q1!r},{demand.q2!r},{flow.xf1!r},{flow.xb1!r},{flow.xf2!r},{flow.xb2!r},"
        f"{_bool_text(certified)},{residual!r}"
    )
    return EXIT_OK if certified else EXIT_NO_CONVERGENCE


def _cmd_sweep(args: argparse.Namespace) -> int:
    coeffs = load_coefficients(args.coeffs)
    start, stop = _parse_range(args.range)
    demands = [DemandConfig(q1, 1.0 - q1) for q1 in _range_values(start, stop, args.step)]
    tol = SolverOptions().convergence_tol
    flows, residuals = _solve_demands(coeffs, demands, tol)
    points = [
        DataPoint(demand=demand, flow=flow, total_demand_vph=args.D)
        for demand, flow in zip(demands, flows)
    ]
    write_dataset(args.out, points)
    return EXIT_OK if max(residuals) <= tol else EXIT_NO_CONVERGENCE


def _cmd_generate(args: argparse.Namespace) -> int:
    coeffs = load_coefficients(args.coeffs)
    start, stop, step = _parse_sweep(args.sweep)
    demands = tuple(_range_values(start, stop, step))
    cfg = SimulationConfig(
        n_vehicles=args.n,
        sigma=args.sigma,
        seed=args.seed,
        total_demand_vph=args.D,
        demand_sweep=demands,
    )
    write_dataset(args.out, generate_dataset(coeffs, cfg))
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    data = load_dataset(args.data)
    if not data:
        raise ValueError(f"dataset {args.data!r} contains no rows")
    opts = CalibrationOptions(
        epsilon=args.tol,
        symmetry=args.symmetry,
        seed=args.seed,
    )
    if args.solver == "exact":
        result = calibrate_exact(data, opts)
    else:
        result = calibrate_search(data, opts)
    if args.out:
        write_coefficients(args.out, result.coefficients, symmetry=args.symmetry)
    else:
        print(format_coefficients(result.coefficients, symmetry=args.symmetry), end="")
    print(f"certificate = {result.certificate}")
    print(f"violations = {result.violations}")
    print(f"uniqueness_link1 = {_bool_text(result.uniqueness[0])}")
    print(f"uniqueness_link2 = {_bool_text(result.uniqueness[1])}")
    print("flags:")
    print("k,ef1,eb1,ef2,eb2")
    for k, flags in enumerate(result.indicator_assignment, start=1):
        print(f"{k},{int(flags[0])},{int(flags[1])},{int(flags[2])},{int(flags[3])}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    coeffs = load_coefficients(args.coeffs)
    margins = uniqueness_margins(coeffs)
    print("link,margin,pass")
    for link, margin in zip((1, 2), margins):
        print(f"{link},{margin!r},{_bool_text(margin >= 0.0)}")
    return EXIT_OK if all(m >= 0.0 for m in margins) else EXIT_CONDITION_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    coeffs = load_coefficients(args.coeffs)
    data = load_dataset(args.data)
    if not data:
        raise ValueError(f"dataset {args.data!r} contains no rows")
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {args.tol!r}")
    # load_dataset has checked feasibility, so the residuals decide.
    xf1, xb1, xf2, xb2 = np.array(
        [(p.flow.xf1, p.flow.xb1, p.flow.xf2, p.flow.xb2) for p in data]
    ).T
    residuals = max_residual(coeffs, xf1, xb1, xf2, xb2).tolist()
    rows = ["k,max_residual,pass"]
    for k, residual in enumerate(residuals, start=1):
        rows.append(f"{k},{residual!r},{_bool_text(residual <= args.tol)}")
    print("\n".join(rows))
    return EXIT_OK if max(residuals) <= args.tol else EXIT_CONDITION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divergelane",
        description="Equilibrium lane-choice model for a diverge with a bifurcating lane.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one demand split and print the flow row")
    solve.add_argument("--coeffs", required=True, help="coefficients file")
    solve.add_argument("--q1", type=float, required=True, help="normalized exit-1 demand")
    solve.add_argument("--tol", type=float, default=1e-12, help="certification tolerance")
    solve.set_defaults(handler=_cmd_solve)

    sweep = sub.add_parser("sweep", help="solve a q1 range and write a dataset CSV")
    sweep.add_argument("--coeffs", required=True)
    sweep.add_argument("--range", required=True, help="q1 range as START:STOP")
    sweep.add_argument("--step", type=float, required=True)
    sweep.add_argument("--D", type=float, default=0.0, help="total demand metadata (vph)")
    sweep.add_argument("--out", required=True, help="output dataset path")
    sweep.set_defaults(handler=_cmd_sweep)

    generate = sub.add_parser(
        "generate", help="simulate noisy steady-state data over a demand sweep"
    )
    generate.add_argument("--coeffs", required=True)
    generate.add_argument("--D", type=float, default=3000.0, help="total demand (vph)")
    generate.add_argument(
        "--sweep", default="1150:1850:50", help="exit-1 demand sweep as START:STOP:STEP (vph)"
    )
    generate.add_argument("--sigma", type=float, default=0.5, help="driver imperfection in [0, 1]")
    generate.add_argument("--n", type=int, default=5000, help="number of simulated drivers")
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    calibrate = sub.add_parser("calibrate", help="recover coefficients from a dataset")
    calibrate.add_argument("--data", required=True, help="dataset CSV")
    calibrate.add_argument("--symmetry", action="store_true", help="tie the two links' coefficients")
    calibrate.add_argument("--solver", choices=("exact", "heuristic"), default="heuristic")
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="violation margin; scale it to the data noise (1e-2 for sigma=0.5 data)",
    )
    calibrate.add_argument("--out", help="write recovered coefficients here instead of stdout")
    calibrate.set_defaults(handler=_cmd_calibrate)

    check = sub.add_parser("check", help="report the per-link uniqueness condition")
    check.add_argument("--coeffs", required=True)
    check.set_defaults(handler=_cmd_check)

    verify = sub.add_parser("verify", help="verify dataset rows against coefficients")
    verify.add_argument("--coeffs", required=True)
    verify.add_argument("--data", required=True)
    verify.add_argument("--tol", type=float, default=1e-9, help="equilibrium tolerance")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
