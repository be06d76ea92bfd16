"""Smoke test of the E21 driver: output schema, metric names, zero failures.

Not collected by the tier-1 run (``testpaths = ["tests"]``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e21/test_e21_smoke.py -q

It boots real servers (a 2-shard cluster among them) with 1 s windows, so it
takes about two minutes.  The numbers it produces are not measurements.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
DRIVER = [sys.executable, *SPEC["command"][1:]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _names(section: str) -> list[str]:
    return [metric["name"] for metric in SPEC[section]]


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e21"]
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(_NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(_UNIT.match(metric["unit"]) for metric in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workload_names_and_reasons_match_the_generators():
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)
    database = workloads.build_database()
    for declared in SPEC["workloads"]:
        built = workloads.build_workload(declared["name"], database, 7, 1.0)
        assert declared["why"] == built.why, "BENCHMARK.json and the generator's docstring disagree"
        assert len(built.why) <= 200 and "\n" not in built.why
        # The no-repeat guarantee at the source, also after the list was extended:
        # apart from the hot set, no text twice.
        built.extend()
        hot = {op.text for op in built.prime}
        misses = [op.text for op in built.ops if op.text not in hot]
        assert len(misses) == len(set(misses))


def test_same_seed_gives_the_same_requests():
    import workloads

    database = workloads.build_database()
    for name in WORKLOADS:
        first = workloads.build_workload(name, database, 7, 1.0)
        again = workloads.build_workload(name, workloads.build_database(), 7, 1.0)
        other = workloads.build_workload(name, database, 8, 1.0)
        assert [op.text for op in first.ops] == [op.text for op in again.ops]
        assert [op.text for op in first.ops] != [op.text for op in other.ops]
    # The two point workloads send one logical stream, however far it is extended.
    adhoc = workloads.build_workload("adhoc_point", database, 7, 1.0)
    prepared = workloads.build_workload("prepared_point", database, 7, 1.0)
    adhoc.extend()
    assert [op.text for op in adhoc.ops[: len(prepared.ops)]] == [op.text for op in prepared.ops[: len(adhoc.ops)]]


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory) -> tuple[Path, dict]:
    """``run --quick``: every workload once end to end and once traced, 1 s windows."""
    out = tmp_path_factory.mktemp("e21")
    done = subprocess.run(
        [*DRIVER, "run", "--seed", "7", "--out", str(out), "--quick"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return out, json.loads((out / "results.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_of_every_workload(quick_run, workload):
    out, results = quick_run
    assert results["quick"] is True and results["seconds"] == 1.0
    end_to_end, traced = (
        next(run for run in results["runs"] if run["workload"] == workload and run["trace"] == trace) for trace in (0, 1)
    )
    for run, section in ((end_to_end, "end_to_end"), (traced, "per_layer")):
        assert run["correct"] is True and run["failed"] == 0 and run["attempted"] >= 1
        assert set(_names(section)) <= set(run["values"])
        assert run["environment"]["nproc"] >= 1 and "repro.cli serve" in run["environment"]["server_command"]
    assert all(end_to_end["values"][name] > 0 for name in _names("end_to_end")), "an end-to-end metric may never be 0"
    assert end_to_end["details"]["wrong_answers"] == 0 and len(end_to_end["details"]["answers_digest"]) == 64
    values = traced["values"]
    assert values["client.wrong_answers"] == 0 and values["client.failed_share"] == 0
    # The workloads separate the layers (the direction, not the measured size).
    assert (values["cluster.router.hop_us"] > 0) == (workload == "cluster_scatter")
    assert (values["approx.alpha_literal_rows"] > 0) == (workload == "negation_approx")
    if workload == "prepared_point":
        assert values["logic.parse_us"] == 0 and values["physical.compile_us"] == 0
    trace = json.loads((out / f"trace_{workload}.json").read_text())
    assert trace["columns"] == ["name", "start", "end", "parent", "request_id"] and trace["spans"]
    assert (out / f"requests_{workload}.jsonl").stat().st_size > 0


def test_compare_of_a_run_with_itself_finds_no_regression(quick_run):
    out, __ = quick_run
    done = subprocess.run([*DRIVER, "compare", str(out), str(out)], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "0 regression(s)" in done.stdout


@pytest.mark.parametrize("trace", (0, 1))
def test_the_drivers_command_line(trace):
    """The benchmark's command as the driver runs it: the last line is the result."""
    command = [*DRIVER, "--workload", WORKLOADS[0], "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    assert all(result["metrics"][metric["name"]]["unit"] == metric["unit"] for metric in declared)


def test_nothing_to_measure_means_failure(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's files: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e21", ignore=shutil.ignore_patterns("__pycache__"))
    command = [*DRIVER, "--workload", WORKLOADS[0], "--seed", "7", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
