"""Plain-text table rendering and the JSON writer shared by the benchmarks
and the CLI.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the formatting consistent (fixed-width ASCII tables, floats
rendered with a configurable precision) so diffs between runs stay readable.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

__all__ = ["format_table", "format_mapping", "format_cdf", "write_json"]


def write_json(path: str | Path, payload: Any) -> None:
    """Write *payload* the way every ``BENCH_*.json`` record and ``--json`` /
    ``--stats-out`` file is written: indented, keys sorted, newline-terminated."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _render_cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render *rows* as a fixed-width ASCII table."""
    rendered_rows = [[_render_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line([str(h) for h in headers]))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(render_line(row))
    return "\n".join(lines)


def format_mapping(mapping: Mapping[str, object], title: str | None = None, precision: int = 4) -> str:
    """Render a flat mapping as an aligned key/value listing."""
    if not mapping:
        return title or ""
    width = max(len(str(key)) for key in mapping)
    lines = [title] if title else []
    for key, value in mapping.items():
        lines.append(f"{str(key).ljust(width)} : {_render_cell(value, precision)}")
    return "\n".join(lines)


def format_cdf(
    series: Sequence[tuple[float, float]],
    label: str,
    points: Sequence[float] = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0),
) -> str:
    """Summarise a CDF series by its quantile crossings (compact enough for a
    benchmark log while still describing the curve's shape)."""
    if not series:
        return f"{label}: (empty)"
    lines = [f"{label}:"]
    index = 0
    for target in points:
        while index < len(series) and series[index][1] < target:
            index += 1
        if index >= len(series):
            value, prob = series[-1]
        else:
            value, prob = series[index]
        lines.append(f"  P(x <= {value:g}) >= {target:.2f}  (actual {prob:.3f})")
    return "\n".join(lines)
