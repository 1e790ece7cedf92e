"""Plain-text rendering of experiment series (the bench harness output)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

#: ``(MetricSummary attribute, figure label)`` for every reported metric,
#: in report order — the single definition shared by
#: ``ExperimentResult.text`` and the CSV writer, so the two outputs can
#: never drift apart.
METRIC_COLUMNS = (
    ("bandwidth_mbps", "bandwidth (MB/s)"),
    ("latency_mean_s", "mean latency (s)"),
    ("latency_std_s", "latency std dev (s)"),
    ("io_overhead", "I/O overhead"),
)

#: The subset ``text()`` plots — the paper's three figure metrics (mean
#: latency is tabulated in CSV output but has no figure of its own).
TEXT_METRICS = tuple(
    (name, label) for name, label in METRIC_COLUMNS if name != "latency_mean_s"
)


def format_series(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Mapping[str, Sequence[float]],
    unit: str = "",
    fmt: str = "{:10.2f}",
) -> str:
    """Render one figure's data: x values as columns, one row per scheme."""
    lines = [title, "-" * len(title)]
    header = f"{x_label:>14} | " + " | ".join(f"{x!s:>10}" for x in xs)
    lines.append(header)
    lines.append("-" * len(header))
    for name, ys in series.items():
        cells = " | ".join(
            fmt.format(y) if y == y and y != float("inf") else f"{'—':>10}" for y in ys
        )
        label = f"{name} ({unit})" if unit else name
        lines.append(f"{label:>14} | {cells}")
    return "\n".join(lines)


def format_bars(
    title: str,
    series: Mapping[str, Sequence[float]],
    xs: Sequence,
    width: int = 40,
) -> str:
    """Render each series' values as proportional ASCII bars.

    One block per series, one bar per x value — a terminal-friendly stand-in
    for the paper's figures.
    """
    finite = [
        y
        for ys in series.values()
        for y in ys
        if y == y and y not in (float("inf"), float("-inf"))
    ]
    peak = max(finite, default=0.0)
    lines = [title, "-" * len(title)]
    for name, ys in series.items():
        lines.append(f"{name}:")
        for x, y in zip(xs, ys):
            if y != y or y in (float("inf"), float("-inf")):
                bar, label = "", "—"
            else:
                bar = "█" * max(0, round(width * y / peak)) if peak > 0 else ""
                label = f"{y:.1f}"
            lines.append(f"  {x!s:>8} |{bar:<{width}} {label}")
    return "\n".join(lines)


def format_table(title: str, rows: Sequence[Mapping]) -> str:
    """Render a list of uniform dict rows as an aligned table."""
    if not rows:
        return title
    keys = list(rows[0].keys())
    lines = [title, "-" * len(title)]
    lines.append(" | ".join(f"{k:>12}" for k in keys))
    for row in rows:
        lines.append(" | ".join(f"{row.get(k, ''):>12}" for k in keys))
    return "\n".join(lines)


@dataclass
class Table:
    """A titled list of uniform dict rows: one experiment's whole result."""

    title: str
    rows: list

    def text(self) -> str:
        return format_table(self.title, self.rows)
