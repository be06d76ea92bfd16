"""Reporting helpers for the experiment harness: ASCII tables + BENCH JSON.

The paper has no tables of its own, so each experiment prints a small ASCII
table whose rows are the measurements and whose caption restates the paper
claim the experiment illustrates.  These helpers are deliberately dependency
free (no tabulate/rich) so the benchmark output is stable across
environments.

Besides the human-readable reports, every benchmark writes a
**perf-trajectory artifact**: a :class:`BenchReport` serialized as
``BENCH_<NAME>.json`` (schema :data:`BENCH_SCHEMA`), holding medians,
percentiles, speedup ratios and an environment stanza.  One artifact per
benchmark is committed per PR, so the performance history of the repository
is a diffable series of files; ``repro bench-diff`` compares two of them and
flags regressions, and CI validates freshly emitted artifacts against the
schema with :func:`validate_bench_payload`.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from statistics import mean, median
from typing import Iterable, Mapping, Sequence

__all__ = [
    "BENCH_SCHEMA",
    "BenchReport",
    "diff_bench_reports",
    "format_table",
    "format_report",
    "format_ratio",
    "latency_summary",
    "load_bench_report",
    "validate_bench_payload",
]

#: Schema tag every BENCH_*.json artifact carries; bump on breaking reshapes.
BENCH_SCHEMA = "repro-bench-report/v1"

#: Environment variable redirecting where ``BenchReport.write`` puts files.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: Default artifact directory, relative to the working directory.
DEFAULT_BENCH_DIR = os.path.join("benchmarks", "reports")


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


def summarize_counts(counts: Mapping[str, int]) -> str:
    """Render a `{label: count}` mapping on one line."""
    return ", ".join(f"{label}={count}" for label, count in sorted(counts.items()))


# Perf-trajectory artifacts ------------------------------------------------------


def _percentile(ordered: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(quantile * (len(ordered) - 1)))))
    return ordered[rank]


def latency_summary(seconds: Sequence[float]) -> dict[str, float | int]:
    """count/mean/min/max/p50/p95/p99 of one latency sample, in seconds."""
    ordered = sorted(float(value) for value in seconds)
    if not ordered:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "count": len(ordered),
        "mean": mean(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": median(ordered),
        "p95": _percentile(ordered, 0.95),
        "p99": _percentile(ordered, 0.99),
    }


class BenchReport:
    """One benchmark's machine-readable result, written as ``BENCH_<NAME>.json``.

    Benchmarks record two kinds of results: **metrics** (a single number —
    a median speedup, a throughput — with its direction of goodness and the
    threshold the benchmark asserts, so a diff can tell a regression from an
    improvement without re-reading the benchmark) and **latency samples**
    (summarized into count/mean/min/max and p50/p95/p99).  The environment
    stanza pins what machine and mode produced the numbers; trajectory
    comparisons across different machines are indicative, not exact.
    """

    def __init__(self, name: str, title: str, mode: str = "full") -> None:
        if not name or any(ch not in "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-" for ch in name.upper()):
            raise ValueError(f"bench report names must be simple identifiers, got {name!r}")
        self.name = name.upper()
        self.title = title
        self.mode = mode
        self._metrics: dict[str, dict[str, object]] = {}
        self._latencies: dict[str, dict[str, float | int]] = {}
        self._notes: list[str] = []
        self._environment: dict[str, object] = {}

    def metric(
        self,
        name: str,
        value: float,
        unit: str = "",
        higher_is_better: bool = True,
        required: float | None = None,
    ) -> None:
        """Record one scalar result (a speedup ratio, a throughput, a count)."""
        self._metrics[name] = {
            "value": float(value),
            "unit": unit,
            "higher_is_better": bool(higher_is_better),
            "required": None if required is None else float(required),
        }

    def latency(self, name: str, seconds: Sequence[float]) -> None:
        """Record one latency sample, summarized into percentiles."""
        self._latencies[name] = latency_summary(seconds)

    def note(self, text: str) -> None:
        self._notes.append(str(text))

    def environment(self, **entries: object) -> None:
        """Pin extra environment facts next to the machine/mode stanza.

        Benchmarks use this to record configuration that explains the
        numbers — e.g. E20 embeds the batch-size sweep that justified the
        executor's ``DEFAULT_BATCH_SIZE``.  Values must be
        JSON-compatible; later calls overwrite earlier keys.
        """
        self._environment.update(entries)

    def payload(self) -> dict:
        """The JSON-compatible artifact body (schema :data:`BENCH_SCHEMA`)."""
        return {
            "schema": BENCH_SCHEMA,
            "name": self.name,
            "title": self.title,
            "mode": self.mode,
            "created_unix": time.time(),
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "platform": sys.platform,
                "machine": platform.machine(),
                "cpu_count": os.cpu_count() or 0,
                **self._environment,
            },
            "metrics": dict(self._metrics),
            "latencies": dict(self._latencies),
            "notes": list(self._notes),
        }

    def write(self, directory: str | None = None) -> str:
        """Serialize to ``<dir>/BENCH_<NAME>.json``; returns the path written.

        The directory defaults to ``$REPRO_BENCH_DIR`` or
        ``benchmarks/reports`` and is created if missing.
        """
        target = directory or os.environ.get(BENCH_DIR_ENV) or DEFAULT_BENCH_DIR
        os.makedirs(target, exist_ok=True)
        path = os.path.join(target, f"BENCH_{self.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def validate_bench_payload(payload: object) -> list[str]:
    """Schema-check one artifact body; returns the list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        return ["artifact body must be a JSON object"]
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA!r}, got {payload.get('schema')!r}")
    for key in ("name", "title", "mode"):
        if not isinstance(payload.get(key), str) or not payload.get(key):
            problems.append(f"{key!r} must be a nonempty string")
    if not isinstance(payload.get("created_unix"), (int, float)):
        problems.append("'created_unix' must be a number")
    environment = payload.get("environment")
    if not isinstance(environment, Mapping):
        problems.append("'environment' must be an object")
    else:
        for key in ("python", "platform", "cpu_count"):
            if key not in environment:
                problems.append(f"environment is missing {key!r}")
    metrics = payload.get("metrics")
    if not isinstance(metrics, Mapping):
        problems.append("'metrics' must be an object")
    else:
        for name, entry in metrics.items():
            if not isinstance(entry, Mapping):
                problems.append(f"metric {name!r} must be an object")
                continue
            if not isinstance(entry.get("value"), (int, float)):
                problems.append(f"metric {name!r} needs a numeric 'value'")
            if not isinstance(entry.get("higher_is_better"), bool):
                problems.append(f"metric {name!r} needs a boolean 'higher_is_better'")
            required = entry.get("required")
            if required is not None and not isinstance(required, (int, float)):
                problems.append(f"metric {name!r}: 'required' must be a number or null")
    latencies = payload.get("latencies")
    if latencies is not None and not isinstance(latencies, Mapping):
        problems.append("'latencies' must be an object when present")
    elif isinstance(latencies, Mapping):
        for name, entry in latencies.items():
            if not isinstance(entry, Mapping):
                problems.append(f"latency {name!r} must be an object")
                continue
            for key in ("count", "p50", "p95", "p99"):
                if not isinstance(entry.get(key), (int, float)):
                    problems.append(f"latency {name!r} needs numeric {key!r}")
    if isinstance(metrics, Mapping) and isinstance(latencies, Mapping) and not metrics and not latencies:
        problems.append("artifact records no metrics and no latencies")
    return problems


def load_bench_report(path: str) -> dict:
    """Read and validate one BENCH_*.json artifact; raises ``ValueError`` if bad."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"cannot read bench report {path!r}: {error}") from None
    problems = validate_bench_payload(payload)
    if problems:
        raise ValueError(f"invalid bench report {path!r}: " + "; ".join(problems))
    return payload


def diff_bench_reports(old: Mapping, new: Mapping, tolerance: float = 0.10) -> list[dict]:
    """Compare two artifacts metric by metric; flag regressions beyond *tolerance*.

    A metric regresses when it moved against its ``higher_is_better``
    direction by more than ``tolerance`` (relative).  Latency percentiles
    are compared with lower-is-better semantics.  Metrics present in only
    one artifact appear with ``"status": "added"`` / ``"removed"`` so a
    silently dropped benchmark shows up in review.
    """
    rows: list[dict] = []

    def judge(name: str, old_value: float, new_value: float, higher_is_better: bool) -> None:
        if old_value <= 0:
            ratio = float("inf") if new_value > 0 else 1.0
        else:
            ratio = new_value / old_value
        if higher_is_better:
            regressed = ratio < (1.0 - tolerance)
        else:
            regressed = ratio > (1.0 + tolerance)
        rows.append(
            {
                "metric": name,
                "old": old_value,
                "new": new_value,
                "ratio": ratio,
                "higher_is_better": higher_is_better,
                "status": "regression" if regressed else "ok",
            }
        )

    old_metrics = old.get("metrics") if isinstance(old.get("metrics"), Mapping) else {}
    new_metrics = new.get("metrics") if isinstance(new.get("metrics"), Mapping) else {}
    for name in sorted(set(old_metrics) | set(new_metrics)):
        old_entry, new_entry = old_metrics.get(name), new_metrics.get(name)
        if old_entry is None:
            rows.append({"metric": name, "old": None, "new": new_entry.get("value"), "status": "added"})
        elif new_entry is None:
            rows.append({"metric": name, "old": old_entry.get("value"), "new": None, "status": "removed"})
        else:
            judge(
                name,
                float(old_entry.get("value", 0.0)),
                float(new_entry.get("value", 0.0)),
                bool(new_entry.get("higher_is_better", True)),
            )
    old_latencies = old.get("latencies") if isinstance(old.get("latencies"), Mapping) else {}
    new_latencies = new.get("latencies") if isinstance(new.get("latencies"), Mapping) else {}
    for name in sorted(set(old_latencies) & set(new_latencies)):
        for quantile in ("p50", "p95", "p99"):
            old_value = old_latencies[name].get(quantile)
            new_value = new_latencies[name].get(quantile)
            if isinstance(old_value, (int, float)) and isinstance(new_value, (int, float)):
                judge(f"{name}.{quantile}", float(old_value), float(new_value), higher_is_better=False)
    return rows
