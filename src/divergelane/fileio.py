"""Text file formats: coefficient files and dataset CSVs.

Coefficient files are ``key = value`` lines (``#`` comments and blank lines
allowed) for the eight coefficients, plus an optional ``symmetry = true``
flag that fills in or checks the mirrored entries; no key may repeat.
Datasets are plain CSV with the fixed header
``k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph``.  One column formatter,
:func:`format_dataset_columns`, writes every dataset: it takes the seven
value columns as sequences or arrays and writes each value as ``repr`` of
a Python float, so parse(serialize(x)) == x exactly.  :func:`format_dataset`
feeds it the columns of a list of rows.  Keys, mirrors, row type, share
order and validation are the model's schema.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .model import (
    COEFFICIENT_NAMES,
    SYMMETRIC_TIE,
    CostCoefficients,
    DataPoint,
    DemandConfig,
    FlowDistribution,
    share_matrix,
)

DATASET_HEADER = "k,q1,q2,xf1,xb1,xf2,xb2,total_demand_vph"


class ParseError(ValueError):
    """Input file is malformed; carries a line number for diagnostics."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_coefficients(text: str) -> CostCoefficients:
    """Parse a coefficients document, applying the symmetry flag if set."""
    values: dict[str, float] = {}
    value_lines: dict[str, int] = {}
    symmetry: bool | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key == "symmetry":
            if symmetry is not None:
                raise ParseError(f"duplicate key {key!r}", lineno)
            if value_text.lower() not in ("true", "false"):
                raise ParseError(f"symmetry must be true or false, got {value_text!r}", lineno)
            symmetry = value_text.lower() == "true"
            continue
        if key not in COEFFICIENT_NAMES:
            raise ParseError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = float(value_text)
        except ValueError:
            raise ParseError(f"invalid number {value_text!r} for {key!r}", lineno) from None
        value_lines[key] = lineno
    if symmetry:
        # Without a key, a mirrored coefficient copies the first coefficient
        # tied to it; with one, it must match that coefficient.
        for key, tie in zip(COEFFICIENT_NAMES, SYMMETRIC_TIE):
            source = COEFFICIENT_NAMES[SYMMETRIC_TIE.index(tie)]
            if source == key or source not in values:
                continue
            if key in values:
                if values[key] != values[source]:
                    raise ParseError(
                        f"symmetry requires {key} = {source}, got {values[key]!r} != {values[source]!r}",
                        value_lines[key],
                    )
            else:
                values[key] = values[source]
    missing = [key for key in COEFFICIENT_NAMES if key not in values]
    if missing:
        raise ParseError(f"missing key {missing[0]!r}")
    try:
        return CostCoefficients(**values)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_coefficients(path: str | Path) -> CostCoefficients:
    return parse_coefficients(Path(path).read_text())


def format_coefficients(c: CostCoefficients, symmetry: bool = False) -> str:
    lines = [f"{key} = {float(getattr(c, key))!r}" for key in COEFFICIENT_NAMES]
    if symmetry:
        lines.append("symmetry = true")
    return "\n".join(lines) + "\n"


def write_coefficients(path: str | Path, c: CostCoefficients, symmetry: bool = False) -> None:
    Path(path).write_text(format_coefficients(c, symmetry))


def parse_dataset(text: str) -> list[DataPoint]:
    """Parse a dataset CSV into validated data points; each row's ``k`` must
    be its 1-based position among the data rows, as :func:`format_dataset`
    numbers them."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != DATASET_HEADER:
        raise ParseError(f"expected header {DATASET_HEADER!r}", 1)
    points: list[DataPoint] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 8:
            raise ParseError(f"expected 8 comma-separated fields, got {len(fields)}", lineno)
        try:
            k = int(fields[0])
        except ValueError:
            k = None
        if k != len(points) + 1:
            raise ParseError(f"expected k = {len(points) + 1}, got {fields[0]!r}", lineno)
        try:
            q1, q2, xf1, xb1, xf2, xb2, vph = (float(f) for f in fields[1:])
        except ValueError:
            raise ParseError(f"invalid number in row {fields[0]!r}", lineno) from None
        try:
            point = DataPoint(
                demand=DemandConfig(q1, q2),
                flow=FlowDistribution(xf1, xb1, xf2, xb2),
                total_demand_vph=vph,
            )
        except ValueError as exc:
            raise ParseError(f"row k={fields[0]}: {exc}", lineno) from exc
        points.append(point)
    return points


def load_dataset(path: str | Path) -> list[DataPoint]:
    return parse_dataset(Path(path).read_text())


def format_dataset_columns(q1, q2, xf1, xb1, xf2, xb2, total_demand_vph) -> str:
    """The dataset CSV of seven equal-length value columns (sequences or
    arrays of numbers), its rows numbered from ``k = 1``.  The columns are
    written as given; :class:`DataPoint` is what validates a row."""
    columns = [
        np.asarray(column, dtype=float).tolist()
        for column in (q1, q2, xf1, xb1, xf2, xb2, total_demand_vph)
    ]
    if len({len(column) for column in columns}) > 1:
        raise ValueError(f"dataset columns differ in length: {[len(c) for c in columns]}")
    rows = zip(*(map(repr, column) for column in columns))
    lines = [DATASET_HEADER]
    lines.extend(f"{k},{','.join(row)}" for k, row in enumerate(rows, start=1))
    return "\n".join(lines) + "\n"


def write_dataset_columns(path: str | Path, *columns) -> None:
    """Write :func:`format_dataset_columns` of ``columns`` to ``path``."""
    Path(path).write_text(format_dataset_columns(*columns))


def format_dataset(points: Sequence[DataPoint]) -> str:
    return format_dataset_columns(
        [p.demand.q1 for p in points],
        [p.demand.q2 for p in points],
        *share_matrix(points),
        [p.total_demand_vph for p in points],
    )


def write_dataset(path: str | Path, points: Sequence[DataPoint]) -> None:
    Path(path).write_text(format_dataset(points))
