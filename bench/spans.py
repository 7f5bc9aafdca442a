"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps library functions at the module attribute where their
callers look them up (``divergelane.cli.solve_fixed_point`` rather than
``divergelane.equilibrium.solve_fixed_point``), so the program itself is
not changed.  Each call becomes a span with an id, its parent span, start
and end; per-layer metrics are computed from the spans once a pass ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("datagen", "equilibrium", "model", "calibration", "fileio", "cli")
COMMANDS = ("generate", "calibrate", "check", "verify", "sweep")


def _solve_info(args: tuple, result: Any) -> dict:
    return {"iterations": result.iterations, "converged": result.converged}


def _path_bytes(args: tuple, result: Any) -> dict:
    return {"bytes": os.path.getsize(args[0])}


#: (module, attribute, span name, annotation taken after the call).
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("divergelane.cli", "generate_dataset", "datagen.generate", None),
    ("divergelane.datagen", "simulate_steady_state", "datagen.point", None),
    ("divergelane.cli", "solve_fixed_point", "equilibrium.solve", _solve_info),
    ("divergelane.cli", "is_wardrop_equilibrium", "model.verify", None),
    ("divergelane.cli", "wardrop_residuals", "model.residuals", None),
    ("divergelane.cli", "uniqueness_margins", "model.margins", None),
    ("divergelane.cli", "calibrate_search", "calibration.search", None),
    ("divergelane.cli", "calibrate_exact", "calibration.exact", None),
    ("divergelane.calibration", "linprog", "calibration.lp", None),
    ("divergelane.calibration", "count_violations", "calibration.count_violations", None),
    ("divergelane.cli", "load_coefficients", "fileio.load", _path_bytes),
    ("divergelane.cli", "load_dataset", "fileio.load", _path_bytes),
    ("divergelane.cli", "write_coefficients", "fileio.write", _path_bytes),
    ("divergelane.cli", "write_dataset", "fileio.write", _path_bytes),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one pass; ``install`` patches the hooks and
    ``uninstall`` restores the original attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original: Callable, name: str, annotate: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                span.info = annotate(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, annotate in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # A refactor moved the function; its layer then reads 0 and
                # the result file names the hook.
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, annotate))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def pass_metrics(spans: list[Span], pass_s: float, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass lasting ``pass_s`` seconds.

    Times (the metrics with a ``_s`` or ``_us`` part) are multiplied by
    ``scale``, the pass's quiet-host time over its raw time.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    self_time = {span.id: span.duration - child_time.get(span.id, 0.0) for span in spans}

    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    layer_self = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer_self[span.name.split(".", 1)[0]] += self_time[span.id]
    solves = named("equilibrium.solve")
    loads = named("fileio.load")
    writes = named("fileio.write")
    covered = sum(s.duration for s in spans if s.parent is None)

    metrics = {
        "datagen.generate_s": total("datagen.generate"),
        "datagen.point_s.p50": _percentile([s.duration for s in named("datagen.point")], 50),
        "datagen.points": len(named("datagen.point")),
        "equilibrium.solve_calls": len(solves),
        "equilibrium.solve_s": total("equilibrium.solve"),
        "equilibrium.solve_us.p50": 1e6 * _percentile([s.duration for s in solves], 50),
        "equilibrium.solve_us.p99": 1e6 * _percentile([s.duration for s in solves], 99),
        "equilibrium.iterations": sum(s.info["iterations"] for s in solves),
        "equilibrium.nonconverged": sum(not s.info["converged"] for s in solves),
        "model.verify_calls": len(named("model.verify")),
        "model.verify_s": layer_self["model"],
        "calibration.search_s": total("calibration.search"),
        "calibration.exact_s": total("calibration.exact"),
        "calibration.lp_solves": len(named("calibration.lp")),
        "calibration.lp_s": total("calibration.lp"),
        "calibration.count_violations_calls": len(named("calibration.count_violations")),
        "fileio.load_s": total("fileio.load"),
        "fileio.write_s": total("fileio.write"),
        "fileio.bytes_read": sum(s.info["bytes"] for s in loads),
        "fileio.bytes_written": sum(s.info["bytes"] for s in writes),
    }
    for command in COMMANDS:
        metrics[f"cli.self_s.{command}"] = sum(
            self_time[s.id] for s in named(f"cli.{command}")
        )
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_self[layer] / pass_s
    metrics["trace.coverage"] = covered / pass_s
    for key in metrics:
        if any(part.endswith(("_s", "_us")) for part in key.split(".")):
            metrics[key] *= scale
    return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
