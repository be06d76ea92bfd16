"""Reporting helpers for the experiment harness: plain ASCII tables.

The paper has no tables of its own, so each experiment prints a small ASCII
table whose rows are the measurements and whose caption restates the paper
claim the experiment illustrates.  These helpers are deliberately dependency
free (no tabulate/rich) so the output is stable across environments; the
CLI, ``repro top`` and EXPLAIN render through the same :func:`format_table`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "format_table",
    "format_report",
    "format_ratio",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a list of rows as an aligned ASCII table."""
    materialized = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, value in enumerate(row):
            if index >= len(widths):
                widths.append(len(value))
            else:
                widths[index] = max(widths[index], len(value))

    def line(values: Sequence[str]) -> str:
        padded = [value.ljust(widths[index]) for index, value in enumerate(values)]
        return "| " + " | ".join(padded) + " |"

    separator = "+-" + "-+-".join("-" * width for width in widths) + "-+"
    parts = [separator, line(list(headers)), separator]
    for row in materialized:
        parts.append(line(row))
    parts.append(separator)
    return "\n".join(parts)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_report(title: str, claim: str, headers: Sequence[str], rows: Iterable[Sequence[object]],
                  notes: Sequence[str] = ()) -> str:
    """A full experiment report: title, the paper's claim, the table, optional notes."""
    parts = [f"== {title} ==", f"paper claim: {claim}", format_table(headers, rows)]
    for note in notes:
        parts.append(f"note: {note}")
    return "\n".join(parts)


def format_ratio(numerator: float, denominator: float) -> str:
    """A human-readable speedup/size ratio, guarding against division by zero."""
    if denominator <= 0:
        return "n/a"
    return f"{numerator / denominator:.1f}x"
