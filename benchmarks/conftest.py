"""Shared helpers for the experiment benchmarks.

Every ``bench_eNN_*.py`` module reproduces one experiment, named in its
docstring (the paper has no tables or figures of its own, so each
experiment illustrates one theorem).  The modules use the ``benchmark``
fixture of pytest-benchmark for the timed rows and record the qualitative
"shape" of the paper's claim (who wins, by roughly how much) in
``benchmark.extra_info`` and in plain assertions, so a benchmark run doubles
as a correctness check of the claim's direction.
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "experiment(id): marks a benchmark as part of experiment <id>")


@pytest.fixture(scope="session")
def experiment_log():
    """A session-wide list collecting (experiment id, row dict) tuples.

    Modules append their measured rows here; the summary hook prints them at
    the end of the run so the textual report survives even under
    ``--benchmark-only``.
    """
    return []


@pytest.fixture(scope="session", autouse=True)
def _print_experiment_log(request, experiment_log):
    yield
    if not experiment_log:
        return
    from repro.harness.reporting import format_table

    by_experiment: dict[str, list[dict]] = {}
    for experiment_id, row in experiment_log:
        by_experiment.setdefault(experiment_id, []).append(row)
    lines = ["", "=" * 70, "Experiment summary (paper-claim reproduction rows)", "=" * 70]
    for experiment_id in sorted(by_experiment):
        rows = by_experiment[experiment_id]
        headers = sorted({key for row in rows for key in row})
        lines.append(f"\n-- {experiment_id} --")
        lines.append(format_table(headers, [[row.get(h, "") for h in headers] for row in rows]))
    print("\n".join(lines))
