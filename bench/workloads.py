"""Benchmark workloads: seeded inputs, the CLI commands of one pass, and
the checks on their outputs.

Each workload has a ``build`` step, which writes its inputs (from the seed,
except for ``calibrate``; this is what ``setup_s`` times), and a ``plan``
step, which lists the CLI operations of one pass writing into a given
output directory.  Every operation must exit 0 and carries a check of its
output; the checks use the library only to read files and to certify
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from divergelane import (
    CostCoefficients,
    DataPoint,
    DemandConfig,
    DivergeInstance,
    FlowDistribution,
    count_violations,
    is_wardrop_equilibrium,
    load_coefficients,
    load_dataset,
    solve_fixed_point,
    uniqueness_margins,
    write_coefficients,
    write_dataset,
)

#: Reference symmetric coefficients of the paper's calibrated diverge.
CAL_VAL = CostCoefficients(1.45, 1.45, 1.45, 0.87, 0.87, 0.69, 0.69, 1.0)

#: Vehicles behind every generated share: calibration inputs are snapped to
#: multiples of 1/GRID, so a last-bit change in the solver cannot move them.
GRID = 5000

TOTAL_VPH = 3000.0


@dataclass
class Op:
    """One CLI invocation of a pass; every one must exit 0.

    ``outputs`` are the files it writes, compared byte for byte across the
    passes of a run; ``check`` receives the captured stdout and returns the
    problems it found (empty when the output is correct).
    """

    argv: list[str]
    check: Callable[[str], list[str]]
    outputs: list[Path] = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Inputs:
    files: list[Path]
    params: dict


def _demands(start: float, stop: float, step: float) -> list[float]:
    """``START:STOP`` grid with ``STEP``, inclusive of any end the step reaches."""
    count = int(math.floor((stop - start) / step + 1e-9))
    return [start + i * step for i in range(count + 1)]


# ---------------------------------------------------------------------------
# Output checks


def _stdout_rows(stdout: str, header: str) -> list[list[str]] | None:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def check_verified(stdout: str, rows: int) -> list[str]:
    """``verify`` printed one passing row per data point."""
    table = _stdout_rows(stdout, "k,max_residual,pass")
    if table is None:
        return ["verify: missing header"]
    if len(table) != rows:
        return [f"verify: {len(table)} rows, expected {rows}"]
    failed = [r[0] for r in table if len(r) != 3 or r[2] != "true"]
    return [f"verify: rows {failed[:5]} do not pass"] if failed else []


def check_margins(stdout: str, coeffs_path: Path) -> list[str]:
    """``check`` printed both margins, recomputed from the coefficients file."""
    table = _stdout_rows(stdout, "link,margin,pass")
    expected = uniqueness_margins(load_coefficients(coeffs_path))
    if table is None or len(table) != 2:
        return ["check: malformed output"]
    problems = []
    for (link, margin, verdict), value in zip(table, expected):
        if float(margin) != value or verdict != ("true" if value >= 0.0 else "false"):
            problems.append(f"check: link {link} prints {margin},{verdict}, expected {value!r}")
    return problems


def check_calibrated(
    stdout: str, coeffs_path: Path, data_path: Path, tol: float, certificate: str
) -> list[str]:
    """The printed violation count equals a recount from the written file."""
    report = dict(
        line.split(" = ", 1) for line in stdout.splitlines() if " = " in line
    )
    if report.get("certificate") != certificate:
        return [f"calibrate: certificate {report.get('certificate')!r}, expected {certificate!r}"]
    recount = count_violations(
        load_coefficients(coeffs_path), load_dataset(data_path), tol
    ).count
    if report.get("violations") != str(recount):
        return [f"calibrate: prints violations {report.get('violations')}, recount {recount}"]
    return []


def check_dataset(path: Path, q1s: list[float], tol: float) -> list[str]:
    """One feasible row per demand, in order, within ``tol`` of its q1."""
    data = load_dataset(path)
    if len(data) != len(q1s):
        return [f"{path.name}: {len(data)} rows, expected {len(q1s)}"]
    off = [k for k, (p, q1) in enumerate(zip(data, q1s), 1) if abs(p.demand.q1 - q1) > tol]
    return [f"{path.name}: rows {off[:5]} off the demand grid"] if off else []


def check_sweep(path: Path, coeffs: CostCoefficients, q1s: list[float]) -> list[str]:
    """Every predicted row is an equilibrium at 1e-9 (any equilibrium passes)."""
    problems = check_dataset(path, q1s, 1e-9)
    if problems:
        return problems
    bad = [
        k
        for k, p in enumerate(load_dataset(path), 1)
        if not is_wardrop_equilibrium(DivergeInstance(p.demand, coeffs), p.flow, 1e-9)
    ]
    return [f"{path.name}: rows {bad[:5]} are not equilibria"] if bad else []


# ---------------------------------------------------------------------------
# protocol: the paper pipeline generate -> calibrate -> check -> verify


def build_protocol(work: Path, seed: int, smoke: bool) -> Inputs:
    coeffs = work / "cal_val.coeffs"
    write_coefficients(coeffs, CAL_VAL, symmetry=True)
    sweep = (1150.0, 1850.0, 350.0 if smoke else 50.0)
    params = {"coeffs": coeffs, "seed": seed, "n": 200 if smoke else 1000, "sweep": sweep}
    return Inputs([coeffs], params)


def plan_protocol(inputs: Inputs, out: Path) -> list[Op]:
    p = inputs.params
    data, fit = out / "observed.csv", out / "recovered.coeffs"
    q1s = [d / TOTAL_VPH for d in _demands(*p["sweep"])]
    sweep = ":".join(f"{v:g}" for v in p["sweep"])
    return [
        Op(
            ["generate", "--coeffs", str(p["coeffs"]), "--D", "3000", "--sweep", sweep,
             "--sigma", "0.5", "--n", str(p["n"]), "--seed", str(p["seed"]), "--out", str(data)],
            lambda s: check_dataset(data, q1s, 1.0 / p["n"]),
            [data],
        ),
        Op(
            ["calibrate", "--data", str(data), "--symmetry", "--solver", "heuristic",
             "--tol", "1e-2", "--out", str(fit)],
            lambda s: check_calibrated(s, fit, data, 1e-2, "heuristic"),
            [fit],
        ),
        Op(["check", "--coeffs", str(fit)], lambda s: check_margins(s, fit)),
        Op(
            ["verify", "--coeffs", str(fit), "--data", str(data), "--tol", "1e-2"],
            lambda s: check_verified(s, len(q1s)),
        ),
    ]


# ---------------------------------------------------------------------------
# sweep: model prediction over a fine q1 grid for many coefficient sets


def random_coefficients(rng: np.random.Generator) -> CostCoefficients:
    """Coefficients from the property-test ranges: rates in [1, 5], factors
    in [0.1, 1], heterogeneity in [0.1, 3].  About a third of the draws fail
    the uniqueness margin, so boundary regimes and non-unique instances are
    part of the workload."""
    cf1, cf2, cb = rng.uniform(1.0, 5.0, 3)
    lam1, lam2, mu1, mu2 = rng.uniform(0.1, 1.0, 4)
    nu = rng.uniform(0.1, 3.0)
    return CostCoefficients(*(float(v) for v in (cf1, cf2, cb, lam1, lam2, mu1, mu2, nu)))


def build_sweep(work: Path, seed: int, smoke: bool) -> Inputs:
    rng = np.random.default_rng(seed)
    sets = [CAL_VAL] + [random_coefficients(rng) for _ in range(2 if smoke else 31)]
    files = []
    for i, c in enumerate(sets):
        files.append(work / f"set_{i:02d}.coeffs")
        write_coefficients(files[-1], c)
    params = {
        "sets": list(zip(files, sets)),
        "step": 0.12 if smoke else 0.001,
        "nonunique": sum(min(uniqueness_margins(c)) < 0.0 for c in sets),
    }
    return Inputs(files, params)


def plan_sweep(inputs: Inputs, out: Path) -> list[Op]:
    step = inputs.params["step"]
    q1s = _demands(0.02, 0.98, step)
    ops = []
    for i, (path, coeffs) in enumerate(inputs.params["sets"]):
        pred = out / f"pred_{i:02d}.csv"
        ops.append(
            Op(
                ["sweep", "--coeffs", str(path), "--range", "0.02:0.98", "--step", repr(step),
                 "--D", "3000", "--out", str(pred)],
                lambda s, pred=pred, coeffs=coeffs: check_sweep(pred, coeffs, q1s),
                [pred],
            )
        )
        ops.append(
            Op(
                ["verify", "--coeffs", str(path), "--data", str(pred), "--tol", "1e-9"],
                lambda s: check_verified(s, len(q1s)),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# calibrate: four calibration modes on noisy data made here, not by the
# simulator, so simulator changes cannot move the inputs.
#
# These inputs do not depend on the run seed.  The search's work is
# heavy-tailed in its input: over ten noise realizations, and over ten search
# seeds on one dataset, the time of a pass spread by 25-43 % between
# quartiles, beyond any regression bound.  With fixed inputs the work
# repeats exactly and runs differ only by machine noise.

#: Standard deviation of the share noise; at ``--tol 1e-3`` no zero-violation
#: fit exists, so the search never stops early and runs all its restarts.
NOISE_SD = 0.01
NOISE_SEED = 2019


def noisy_dataset(rng: np.random.Generator, q1s: list[float]) -> list[DataPoint]:
    """Reference equilibria plus Gaussian share noise, snapped to 1/GRID."""
    points = []
    for q1 in q1s:
        n1 = int(round(GRID * q1))
        n2 = GRID - n1
        flow = solve_fixed_point(DivergeInstance(DemandConfig(q1, 1.0 - q1), CAL_VAL)).flow
        b1 = min(max(int(round((flow.xb1 + rng.normal(0.0, NOISE_SD)) * GRID)), 0), n1)
        b2 = min(max(int(round((flow.xb2 + rng.normal(0.0, NOISE_SD)) * GRID)), 0), n2)
        # Plain Python floats: numpy scalars would be written as np.float64(...)
        # reprs, which the dataset parser rejects.
        points.append(
            DataPoint(
                demand=DemandConfig(n1 / GRID, n2 / GRID),
                flow=FlowDistribution((n1 - b1) / GRID, b1 / GRID, (n2 - b2) / GRID, b2 / GRID),
                total_demand_vph=TOTAL_VPH,
            )
        )
    return points


def build_calibrate(work: Path, seed: int, smoke: bool) -> Inputs:
    rng = np.random.default_rng(NOISE_SEED)
    step = 350.0 if smoke else 50.0
    data = noisy_dataset(rng, [d / TOTAL_VPH for d in _demands(1150.0, 1850.0, step)])
    full, subset = work / "noisy.csv", work / "noisy_subset.csv"
    write_dataset(full, data)
    # Every third point: 5 points, 20 binaries, inside the exact solver's guard.
    write_dataset(subset, data[::3])
    return Inputs([full, subset], {"full": full, "subset": subset})


#: (dataset, symmetric, solver) of the four calibrations in a pass.
CALIBRATIONS = (
    ("full", True, "heuristic"),
    ("full", False, "heuristic"),
    ("subset", True, "exact"),
    ("subset", False, "exact"),
)


def plan_calibrate(inputs: Inputs, out: Path) -> list[Op]:
    ops = []
    for which, symmetric, solver in CALIBRATIONS:
        data = inputs.params[which]
        fit = out / f"{which}_{'sym' if symmetric else 'asym'}_{solver}.coeffs"
        argv = ["calibrate", "--data", str(data), "--solver", solver, "--tol", "1e-3",
                "--out", str(fit)]
        if symmetric:
            argv.append("--symmetry")
        ops.append(
            Op(
                argv,
                lambda s, fit=fit, data=data, solver=solver: check_calibrated(
                    s, fit, data, 1e-3, solver
                ),
                [fit],
            )
        )
    return ops


WORKLOADS = {
    "protocol": (build_protocol, plan_protocol),
    "sweep": (build_sweep, plan_sweep),
    "calibrate": (build_calibrate, plan_calibrate),
}


def violations_reported(op: Op, stdout: str) -> int:
    """Violation count printed by a ``calibrate`` operation (0 otherwise)."""
    if op.command != "calibrate":
        return 0
    for line in stdout.splitlines():
        if line.startswith("violations = "):
            return int(line.split(" = ", 1)[1])
    return 0

