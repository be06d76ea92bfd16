"""Experiment harness: timing helpers and plain-text reporting."""

from repro.harness.experiments import Experiment, Measurement, run_experiment, timed
from repro.harness.reporting import format_ratio, format_report, format_table

__all__ = [
    "Experiment",
    "Measurement",
    "run_experiment",
    "timed",
    "format_table",
    "format_report",
    "format_ratio",
]
