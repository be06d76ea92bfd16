"""Experiment harness: timing, result collection and report generation.

An :class:`Experiment` is an id, the paper claim it illustrates and a list
of measured rows; :meth:`Experiment.report` renders it as the ASCII report
of :mod:`repro.harness.reporting`.  :func:`timed` and :func:`best_of` are
the timing helpers that fill such rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

from repro.harness.reporting import format_report

__all__ = [
    "timed",
    "best_of",
    "median",
    "Measurement",
    "Experiment",
    "run_experiment",
]


def timed(function: Callable[[], object]) -> tuple[object, float]:
    """Run *function* once and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function()
    elapsed = time.perf_counter() - start
    return result, elapsed


def best_of(function: Callable[[], object], repeats: int = 3) -> tuple[object, float]:
    """Run *function* *repeats* times; return its result and the best time.

    Minimum-of-N is the standard way to strip scheduler noise from short
    single-process measurements (time both sides of a comparison with it,
    so neither side benefits from the noise filtering).
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    result, best = timed(function)
    for __ in range(repeats - 1):
        __result, elapsed = timed(function)
        best = min(best, elapsed)
    return result, best


# ``median`` is re-exported from the standard library (statistics.median)
# so a comparison can import it from here next to best_of.


@dataclass(frozen=True)
class Measurement:
    """One row of an experiment's result table."""

    values: tuple[object, ...]


@dataclass
class Experiment:
    """A named experiment: metadata plus collected measurements."""

    experiment_id: str
    title: str
    claim: str
    headers: tuple[str, ...]
    rows: list[Measurement] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"experiment {self.experiment_id}: row has {len(values)} values, expected {len(self.headers)}"
            )
        self.rows.append(Measurement(tuple(values)))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def report(self) -> str:
        return format_report(
            f"{self.experiment_id}: {self.title}",
            self.claim,
            self.headers,
            [measurement.values for measurement in self.rows],
            self.notes,
        )


def run_experiment(
    experiment: Experiment,
    populate: Callable[[Experiment], None],
    echo: bool = True,
) -> Experiment:
    """Populate an experiment's rows via *populate* and (optionally) print the report."""
    populate(experiment)
    if echo:
        print(experiment.report())
    return experiment

