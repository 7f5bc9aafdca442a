#!/usr/bin/env python3
"""divergelane benchmark: times the CLI commands users run, end to end.

Usage (from the repository root):

    python3 bench/run.py --workload protocol --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

A run builds its inputs from the seed, then repeats the workload's pass
(a fixed list of ``divergelane`` commands, called in-process through
``divergelane.cli.main``) until ``--seconds`` of measurement are used, and
at least twice.  Every command's exit code and
output are checked, and outputs must be byte-identical across passes.

Times are reported in quiet-host seconds (see ``hostclock.py``): each
operation's wall and CPU time, scaled by the host's speed sampled while it
ran, so that the shared machine's slow phases do not move the figures.  The
raw times are kept in the result record.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  A fuller record,
with the environment, goes to ``bench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: one process, one compute thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

#: Set-up (imports plus input building) is repeated this often; its median
#: is ``setup_s``.
SETUP_REPEATS = 5
#: Fewest passes per run, so outputs can be compared across passes.
MIN_PASSES = 2

#: Run in a fresh interpreter with ``bench/`` and ``src/`` on the path: the
#: quiet-host time of importing the CLI.
IMPORT_PROBE = (
    "import importlib, hostclock; clock = hostclock.HostClock(); clock.start(); "
    "_, t = clock.measure(lambda: importlib.import_module('divergelane.cli')); "
    "clock.stop(); print(t['quiet_wall_s'])"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="protocol, sweep, calibrate or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (see smoke.py)")
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Environment and statistics


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "note": "shared machine without CPU pinning; timings carry its noise",
    }


def tail(samples: list[float]) -> dict | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        rank = math.ceil(n * p / 100.0)
        if rank >= 1 and n - rank >= 10:
            return {"p": p, "value": ordered[rank - 1]}
    return None


def summary(samples: list[float]) -> dict:
    return {"n": len(samples), "median": statistics.median(samples), "tail": tail(samples)}


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def digest_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Running passes


def call(argv: list[str]) -> dict:
    """Run one CLI command in-process, capturing its output."""
    from divergelane import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a dead run
            code = f"{type(exc).__name__}: {exc}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pass(ops, clock, tracer=None) -> dict:
    """Time one pass, operation by operation, on the started ``clock``;
    ``tracer`` (installed by the caller) gets a ``cli.<command>`` span
    around each operation."""
    results = []
    for op in ops:

        def timed(op=op) -> dict:
            span = tracer.open(f"cli.{op.command}") if tracer else None
            try:
                return call(op.argv)
            finally:
                if span is not None:
                    tracer.close(span)

        result, times = clock.measure(timed, cpu_seconds)
        result.update(times)
        results.append(result)
    wall = sum(r["wall_s"] for r in results)
    cpu = sum(r["cpu_s"] for r in results)
    for op, result in zip(ops, results):
        result["digest"] = hashlib.sha256(
            result["stdout"].encode() + digest_files([p for p in op.outputs if p.is_file()]).encode()
        ).hexdigest()
    return {"wall_s": wall, "cpu_s": cpu, "results": results, "traced": tracer is not None}


def check_ops(ops, results) -> list[list[str]]:
    """Problems per operation: exit code first, then the output check."""
    problems = []
    for op, result in zip(ops, results):
        if result["code"] != 0:
            stderr = result["stderr"].strip()[-200:]
            problems.append([f"{op.command}: exit {result['code']!r}, expected 0: {stderr}"])
            continue
        try:
            problems.append(op.check(result["stdout"]))
        except Exception as exc:  # unreadable output is a failed check
            problems.append([f"{op.command}: check raised {type(exc).__name__}: {exc}"])
    return problems


def count_failures(ops, passes: list[dict], reference: list[list[str]]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes.

    Pass 0's outputs are checked in full; a later pass's operation fails if
    pass 0's did, if its exit code differs, or if its output bytes differ.
    """
    attempted = failed = 0
    notes: list[str] = []
    first = passes[0]["results"]
    for index, run in enumerate(passes):
        for op, result, ref, problems in zip(ops, run["results"], first, reference):
            attempted += 1
            issues = list(problems)
            if result["code"] != 0 and index:
                issues.append(f"{op.command}: exit {result['code']!r} in pass {index}")
            if result["digest"] != ref["digest"]:
                issues.append(f"{op.command}: output of pass {index} differs from pass 0")
            if issues:
                failed += 1
                notes.extend(issues)
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# One workload run


def measure_setup(build, work: Path, seed: int, smoke: bool):
    """Repeat imports (in a fresh interpreter) and input building, both
    timed in quiet-host seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH_DIR), str(SRC)]))
    clock = hostclock.HostClock()
    totals, imports, builds, digests = [], [], [], set()
    inputs = None
    for k in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        imports.append(float(probe.stdout.strip()))
        target = work / f"inputs_{k}"
        target.mkdir(parents=True)
        clock.start()
        try:
            inputs, times = clock.measure(lambda: build(target, seed, smoke))
        finally:
            clock.stop()
        builds.append(times["quiet_wall_s"])
        totals.append(imports[-1] + builds[-1])
        digests.add(digest_files(inputs.files))
    return inputs, {
        "setup_s": statistics.median(totals),
        "import_s": imports,
        "build_s": builds,
        "inputs_repeat": len(digests) == 1,
    }


def run_workload(args: argparse.Namespace, spec: dict) -> dict:
    import spans
    from workloads import WORKLOADS, violations_reported

    build, plan = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, setup = measure_setup(build, work, args.seed, args.smoke)
        passes: list[dict] = []
        per_layer: list[dict] = []
        hooks_missing: list[str] = []
        ops0 = None
        clock = hostclock.HostClock()
        start = time.perf_counter()
        while True:
            out = work / f"pass_{len(passes)}"
            out.mkdir()
            ops = plan(inputs, out)
            traced = bool(args.trace) and len(passes) % 2 == 1
            # A traced pass reports raw span times, so the clock samples
            # only around its operations, not inside their spans.
            tracer = spans.Tracer() if traced else None
            if tracer:
                tracer.install()
            else:
                clock.start()
            t0 = time.perf_counter()
            try:
                record = run_pass(ops, clock, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
                else:
                    clock.stop()
            record["elapsed_s"] = time.perf_counter() - t0
            record["quiet_wall_s"] = sum(r["quiet_wall_s"] for r in record["results"])
            if tracer:
                per_layer.append(spans.pass_metrics(
                    tracer.spans, record["wall_s"], record["quiet_wall_s"] / record["wall_s"]
                ))
                hooks_missing = tracer.missing
            passes.append(record)
            if ops0 is None:
                ops0 = ops
            else:
                shutil.rmtree(out)
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
                break

        reference = check_ops(ops0, passes[0]["results"])
        attempted, failed, notes = count_failures(ops0, passes, reference)
        # Building the inputs is checked like an operation: its repeats must
        # write the same bytes.
        attempted += 1
        if not setup["inputs_repeat"]:
            failed += 1
            notes.append("set-up built different inputs on its repeats")

        plain = [p for p in passes if not p["traced"]]
        walls = [p["wall_s"] for p in plain]
        # A pass's typical time, taken operation by operation in quiet-host
        # seconds; the raw medians are kept in the record.
        typical_pass = {
            key: sum(statistics.median(p["results"][i][key] for p in plain) for i in range(len(ops0)))
            for key in ("quiet_wall_s", "quiet_cpu_s", "wall_s", "cpu_s")
        }
        violations = sum(
            violations_reported(op, r["stdout"]) for op, r in zip(ops0, passes[0]["results"])
        )
        commands: dict[str, list[float]] = {}
        for p in plain:
            for op, r in zip(ops0, p["results"]):
                commands.setdefault(op.command, []).append(r["wall_s"])

        if args.trace:
            traced_walls = [p["quiet_wall_s"] for p in passes if p["traced"]]
            metrics = spans.median_metrics(per_layer)
            metrics["calibration.violations"] = violations
            metrics["trace.wall_s"] = statistics.median(traced_walls)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
                p["quiet_wall_s"] for p in plain
            )
            wanted = spec["per_layer"]
        else:
            metrics = {
                "wall_s": typical_pass["quiet_wall_s"],
                "cpu_s": typical_pass["quiet_cpu_s"],
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": setup["setup_s"],
            }
            wanted = spec["end_to_end"]
        names = [m["name"] for m in wanted]
        if sorted(metrics) != sorted(names):
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")

        return {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "environment": environment(args.seed),
            "setup": setup,
            "inputs": {
                "files": [p.name for p in inputs.files],
                "sha256": digest_files(inputs.files),
                "params": inputs.params,
            },
            "passes": [
                {key: p[key] for key in ("wall_s", "cpu_s", "quiet_wall_s", "elapsed_s", "traced")}
                | {"speed": statistics.fmean(r["speed"] for r in p["results"])}
                for p in passes
            ],
            "typical_pass": typical_pass,
            "pass_wall_s": summary(walls),
            "commands": {name: summary(times) for name, times in commands.items()},
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "problems": notes[:50],
            "violations_reported": violations,
            "hooks_missing": hooks_missing,
            "metrics": {name: {"value": float(metrics[name]), "unit": m["unit"], "better": m["better"]}
                        for name, m in zip(names, wanted)},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_table(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['passes'])} attempted={record['attempted']} "
          f"failed={record['failed']} error_rate={record['error_rate']:.4g}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:8s} ({m['better']} is better)")


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Run every workload in its own process and print one table."""
    code = 0
    for workload in (w["name"] for w in spec["workloads"]):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--smoke"] if args.smoke else []),
            capture_output=True, text=True, timeout=900,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"# {workload}: failed with exit {child.returncode}\n{child.stderr}")
            code = 1
            continue
        print("\n".join(lines[:-1]))
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "divergelane" / "__init__.py").is_file():
        print(f"error: no divergelane sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    record = run_workload(args, spec)
    RESULTS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    # default=str writes paths and coefficient sets as their text form.
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=2, default=str) + "\n")
    print_table(record)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
