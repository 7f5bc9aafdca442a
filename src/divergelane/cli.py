"""Command-line interface: solve, sweep, generate, calibrate, check, verify.

All output is plain CSV or ``key = value`` text, deterministic for fixed
flags and seed.  The ``calibration``, ``datagen`` and ``equilibrium`` layers
are imported by the handlers that call them, so a command loads only those
it runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, NoReturn, Sequence

import numpy as np

from .fileio import (
    format_coefficients,
    load_coefficients,
    load_dataset,
    write_coefficients,
    write_dataset,
    write_dataset_columns,
)
from .model import (
    EQUILIBRIUM_TOL, DemandConfig, check_total_demand, check_uniqueness_condition, max_residual,
    share_matrix, uniqueness_margins,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_CONDITION_FAILED = 4

#: Most points a ``sweep --range``/``--step`` or ``generate --sweep`` range
#: may expand to.
MAX_RANGE_POINTS = 10**6

#: Largest residual product at which ``sweep``, and ``solve`` by default,
#: certify a split as an equilibrium.
CERTIFY_TOL = 1e-12

_EPILOG = """\
exit codes:
  0  success
  1  bad input (usage, parse or validation error)
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


def _given(**flags: Any) -> dict[str, Any]:
    """The flags the command line gave, so the config dataclass states every
    default.  A flag left out is ``None``; a zero is a value given."""
    return {name: value for name, value in flags.items() if value is not None}


def _parse_fields(text: str, form: str) -> list[float]:
    """The numbers of a colon-separated ``text`` laid out as ``form``."""
    parts = text.split(":")
    if len(parts) != len(form.split(":")):
        raise ValueError(f"expected {form}, got {text!r}")
    return [float(part) for part in parts]


def _solve_demands(
    coeffs, q1: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form equilibrium bifurcating shares ``(xb1, xb2)`` and their
    largest residual, one per exit-1 demand in ``q1``.

    Warns once on stderr when some demand has more than one equilibrium.
    """
    from .equilibrium import solve_equilibria

    xb1, xb2, residual, count = solve_equilibria(coeffs, q1, tol)
    multiple = np.flatnonzero(count > 1)
    if multiple.size:
        print(
            f"warning: {multiple.size} of {q1.size} rows have more than one "
            f"equilibrium (first at q1={q1[multiple[0]].item()!r}); each such row "
            "shows its least-residual one",
            file=sys.stderr,
        )
    return xb1, xb2, residual


def _cmd_solve(args: argparse.Namespace) -> int:
    coeffs = load_coefficients(args.coeffs)
    demand = DemandConfig(args.q1, 1.0 - args.q1)
    solved = _solve_demands(coeffs, np.array([demand.q1]), args.tol)
    xb1, xb2, residual = (a.item() for a in solved)
    certified = residual <= args.tol
    print("q1,q2,xf1,xb1,xf2,xb2,converged,max_residual")
    print(
        f"{demand.q1!r},{demand.q2!r},{demand.q1 - xb1!r},{xb1!r},{demand.q2 - xb2!r},{xb2!r},"
        f"{_bool_text(certified)},{residual!r}"
    )
    return EXIT_OK if certified else EXIT_NO_CONVERGENCE


def _cmd_sweep(args: argparse.Namespace) -> int:
    coeffs = load_coefficients(args.coeffs)
    start, stop = _parse_fields(args.range, "START:STOP")
    q1 = np.array(_range_values(start, stop, args.step))
    outside = np.flatnonzero((q1 < 0.0) | (q1 > 1.0))
    if outside.size:
        # DemandConfig states the error of the first share outside [0, 1].
        first = q1[outside[0]].item()
        DemandConfig(first, 1.0 - first)
    check_total_demand(args.D)
    xb1, xb2, residual = _solve_demands(coeffs, q1, CERTIFY_TOL)
    # The solver clips each share to [0, q_i], so every row is a valid
    # DataPoint without building one.
    q2 = 1.0 - q1
    write_dataset_columns(
        args.out, q1, q2, q1 - xb1, xb1, q2 - xb2, xb2, np.full(q1.size, args.D)
    )
    return EXIT_OK if residual.max() <= CERTIFY_TOL else EXIT_NO_CONVERGENCE


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datagen import SimulationConfig, generate_dataset

    coeffs = load_coefficients(args.coeffs)
    demands = None
    if args.sweep is not None:
        start, stop, step = _parse_fields(args.sweep, "START:STOP:STEP")
        demands = tuple(_range_values(start, stop, step))
    cfg = SimulationConfig(**_given(
        n_vehicles=args.n, sigma=args.sigma, seed=args.seed, total_demand_vph=args.D,
        demand_sweep=demands,
    ))
    write_dataset(args.out, generate_dataset(coeffs, cfg))
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibration import CalibrationOptions, calibrate_exact, calibrate_search

    data = load_dataset(args.data)
    if not data:
        raise ValueError(f"dataset {args.data!r} contains no rows")
    opts = CalibrationOptions(symmetry=args.symmetry, **_given(epsilon=args.tol, seed=args.seed))
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
    passes = check_uniqueness_condition(coeffs)
    print("link,margin,pass")
    for link, margin, holds in zip((1, 2), uniqueness_margins(coeffs), passes):
        print(f"{link},{margin!r},{_bool_text(holds)}")
    return EXIT_OK if all(passes) else EXIT_CONDITION_FAILED


def _cmd_verify(args: argparse.Namespace) -> int:
    coeffs = load_coefficients(args.coeffs)
    data = load_dataset(args.data)
    if not data:
        raise ValueError(f"dataset {args.data!r} contains no rows")
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {args.tol!r}")
    # load_dataset has checked feasibility, so the residuals decide.
    residuals = max_residual(coeffs, *share_matrix(data)).tolist()
    rows = ["k,max_residual,pass"]
    for k, residual in enumerate(residuals, start=1):
        rows.append(f"{k},{residual!r},{_bool_text(residual <= args.tol)}")
    print("\n".join(rows))
    return EXIT_OK if max(residuals) <= args.tol else EXIT_CONDITION_FAILED


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, as bad input.

    argparse exits 2 on a malformed command line, the code this CLI keeps
    for "no split certified"; the printed usage and message are argparse's.
    """

    def exit(self, status: int = 0, message: str | None = None) -> NoReturn:
        super().exit(EXIT_INPUT if status == 2 else status, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divergelane",
        description="Equilibrium lane-choice model for a diverge with a bifurcating lane.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one demand split and print the flow row")
    solve.add_argument("--coeffs", required=True, help="coefficients file")
    solve.add_argument("--q1", type=float, required=True, help="normalized exit-1 demand")
    solve.add_argument("--tol", type=float, default=CERTIFY_TOL, help="certification tolerance")
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
    generate.add_argument("--D", type=float, help="total demand (vph)")
    generate.add_argument("--sweep", help="exit-1 demand sweep as START:STOP:STEP (vph)")
    generate.add_argument("--sigma", type=float, help="driver imperfection in [0, 1]")
    generate.add_argument("--n", type=int, help="number of simulated drivers")
    generate.add_argument("--seed", type=int)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    calibrate = sub.add_parser("calibrate", help="recover coefficients from a dataset")
    calibrate.add_argument("--data", required=True, help="dataset CSV")
    calibrate.add_argument(
        "--symmetry", action="store_true", help="tie the two links' coefficients"
    )
    calibrate.add_argument("--solver", choices=("exact", "heuristic"), default="heuristic")
    calibrate.add_argument("--seed", type=int)
    calibrate.add_argument(
        "--tol", type=float,
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
    verify.add_argument("--tol", type=float, default=EQUILIBRIUM_TOL, help="equilibrium tolerance")
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
