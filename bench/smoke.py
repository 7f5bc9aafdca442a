#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload once at tiny sizes.

Run from the repository root:

    python3 bench/smoke.py

For each workload, with ``--trace 0`` and ``--trace 1``, the run must exit
0 and end with a result line that has the contract's keys, every metric
``BENCHMARK.json`` names with its unit, and no failed operation.  Then the
output checks must reject wrong outputs, and a directory that holds only
``BENCHMARK.json`` and ``bench/`` must make the benchmark exit non-zero
without printing a result.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = BENCH_DIR / ".work" / "smoke"


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result_line(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        fail(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"{workload}: metric {m['name']} = {got}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        record = BENCH_DIR / "results" / f"{workload}-seed3-trace{trace}-smoke.json"
        fail(f"{workload} trace={trace}: {json.loads(record.read_text())['problems'][:5]}")
    print(f"ok   {workload} trace={trace}: {result['attempted']} operations checked")


def check_checks() -> None:
    """The output checks must flag wrong outputs, not only pass right ones."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as w
    from divergelane import write_coefficients

    SCRATCH.mkdir(parents=True)
    inputs = w.build_calibrate(SCRATCH, 3, smoke=True)
    data = inputs.params["full"]
    coeffs = SCRATCH / "cal_val.coeffs"
    write_coefficients(coeffs, w.CAL_VAL)
    noisy_q1s = [p.demand.q1 for p in w.load_dataset(data)]
    cases = {
        "failing verify row": w.check_verified("k,max_residual,pass\n1,0.5,false\n", 1),
        "missing verify row": w.check_verified("k,max_residual,pass\n1,0.0,true\n", 2),
        "wrong margin": w.check_margins("link,margin,pass\n1,9.0,true\n2,9.0,true\n", coeffs),
        "wrong violation count": w.check_calibrated(
            "certificate = heuristic\nviolations = 999\n", coeffs, data, 1e-3, "heuristic"
        ),
        "wrong certificate": w.check_calibrated(
            "certificate = exact\nviolations = 0\n", coeffs, data, 1e-3, "heuristic"
        ),
        "row off the demand grid": w.check_dataset(data, [q + 0.01 for q in noisy_q1s], 1e-9),
        "non-equilibrium sweep row": w.check_sweep(data, w.CAL_VAL, noisy_q1s),
    }
    for name, problems in cases.items():
        if not problems:
            fail(f"checks accept a {name}")
    print(f"ok   output checks reject {len(cases)} kinds of wrong output")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must refuse to run."""
    bare = SCRATCH / "bare"
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run_bench(bare, "sweep", 0)
    if proc.returncode == 0 or any(line.startswith("{") for line in proc.stdout.splitlines()):
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   bare directory exits {proc.returncode} without a result")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                check_result_line(workload, trace)
        check_checks()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
