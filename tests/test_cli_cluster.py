"""Tests for the cluster-facing CLI: ``cluster ...`` and the new serve flags."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster.store import SnapshotStore
from repro.errors import ServiceError
from repro.physical.csvio import save_cw_database
from repro.service.client import ServiceClient
from repro.service.protocol import QueryRequest
from repro.workloads.generators import employee_database
from repro.workloads.traffic import save_traffic_log


@pytest.fixture
def employee():
    return employee_database(40, seed=21)


@pytest.fixture
def stored_employee(employee, tmp_path):
    directory = tmp_path / "employees"
    save_cw_database(employee, directory)
    return directory


class TestClusterPartition:
    def test_partition_writes_shards_and_manifest(self, stored_employee, tmp_path, capsys, employee):
        store_dir = tmp_path / "store"
        code = main(
            ["cluster", "partition", str(stored_employee), "--store", str(store_dir), "--shards", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "partitioned 'employees'" in out
        assert "3 shard(s)" in out
        store = SnapshotStore(store_dir)
        assert set(store.names()) == {
            "employees::shard0",
            "employees::shard1",
            "employees::shard2",
            "employees::full",
        }
        assert store.record("employees::full").fingerprint == employee.fingerprint()

    def test_partition_honours_name_and_threshold(self, stored_employee, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(
            [
                "cluster", "partition", str(stored_employee),
                "--store", str(store_dir),
                "--shards", "2",
                "--name", "prod",
                "--replication-threshold", "0",
            ]
        )
        assert code == 0
        assert "0 relation(s) replicated, 3 split" in capsys.readouterr().out
        assert "prod::shard0" in SnapshotStore(store_dir).names()

    def test_snapshots_lists_the_store(self, stored_employee, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(["cluster", "partition", str(stored_employee), "--store", str(store_dir), "--shards", "2"])
        capsys.readouterr()
        assert main(["cluster", "snapshots", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "employees::shard0" in out
        assert "full" in out

    def test_snapshots_on_an_empty_store_says_so(self, tmp_path, capsys):
        assert main(["cluster", "snapshots", "--store", str(tmp_path / "empty")]) == 0
        assert "no snapshots" in capsys.readouterr().out


class TestServeClusterFlags:
    def test_sharded_serve_boots_a_cluster_and_answers(
        self, stored_employee, tmp_path, monkeypatch, capsys, employee
    ):
        served = {}

        def fake_serve(service, host, port):
            served["names"] = service.database_names()
            served["response"] = service.execute(QueryRequest("employees", "(x, y) . EMP_DEPT(x, y)"))

        monkeypatch.setattr("repro.cli.serve_forever", fake_serve)
        store_dir = tmp_path / "store"
        code = main(
            [
                "serve", str(stored_employee),
                "--shards", "2",
                "--replicas", "2",
                "--store", str(store_dir),
                "--port", "0",
            ]
        )
        assert code == 0
        assert served["names"] == ("employees",)
        expected = {tuple(row) for row in employee.facts_for("EMP_DEPT")}
        assert set(served["response"].answer_set("approximate")) == expected
        assert "cluster: 2 workers" in capsys.readouterr().out
        # The store was really used (shards persisted for warm reboots).
        assert "employees::shard0" in SnapshotStore(store_dir).names()

    def test_warm_flag_replays_a_recorded_log(self, stored_employee, tmp_path, monkeypatch, capsys):
        def fake_serve(service, host, port):
            pass

        monkeypatch.setattr("repro.cli.serve_forever", fake_serve)
        log = save_traffic_log(
            [
                QueryRequest("employees", "(x, y) . EMP_DEPT(x, y)"),
                QueryRequest("employees", "(x, y) . EMP_DEPT(x, y)"),
                QueryRequest("nowhere", "(x) . P(x)"),
            ],
            tmp_path / "traffic.jsonl",
        )
        code = main(["serve", str(stored_employee), "--warm", str(log), "--port", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "warm-up: replayed 3 requests" in out
        assert "1 warmed, 1 already cached, 1 failed" in out

    def test_warm_works_in_cluster_mode_too(self, stored_employee, tmp_path, monkeypatch, capsys):
        def fake_serve(service, host, port):
            pass

        monkeypatch.setattr("repro.cli.serve_forever", fake_serve)
        log = save_traffic_log(
            [QueryRequest("employees", "(x, y) . EMP_DEPT(x, y)")], tmp_path / "traffic.jsonl"
        )
        code = main(
            [
                "serve", str(stored_employee),
                "--shards", "2",
                "--store", str(tmp_path / "store"),
                "--warm", str(log),
                "--port", "0",
            ]
        )
        assert code == 0
        assert "warm-up: replayed 1 requests" in capsys.readouterr().out

    def test_bad_shards_value_is_a_clean_error(self, stored_employee, capsys):
        assert main(["serve", str(stored_employee), "--shards", "0", "--port", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_replicas_out_of_range_is_a_clean_error(self, stored_employee, capsys):
        code = main(["serve", str(stored_employee), "--shards", "2", "--replicas", "0", "--port", "0"])
        assert code == 2
        assert "--replicas" in capsys.readouterr().err
        code = main(["serve", str(stored_employee), "--shards", "2", "--replicas", "5", "--port", "0"])
        assert code == 2
        assert "--replicas" in capsys.readouterr().err

    def test_cluster_flags_without_shards_are_a_clean_error(self, stored_employee, tmp_path, capsys):
        # --store/--replicas must not be silently ignored in single-process mode.
        code = main(["serve", str(stored_employee), "--store", str(tmp_path / "s"), "--port", "0"])
        assert code == 2
        assert "cluster mode" in capsys.readouterr().err
        code = main(["serve", str(stored_employee), "--replicas", "2", "--port", "0"])
        assert code == 2
        assert "cluster mode" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestWarmResilience:
    def test_missing_warm_log_warns_and_serves_cold(self, stored_employee, monkeypatch, capsys):
        served = {}

        def fake_serve(service, host, port):
            served["names"] = service.database_names()

        monkeypatch.setattr("repro.cli.serve_forever", fake_serve)
        code = main(["serve", str(stored_employee), "--warm", "/nonexistent/traffic.jsonl", "--port", "0"])
        assert code == 0
        assert served["names"] == ("employees",)
        assert "warning: skipping warm-up" in capsys.readouterr().err

    def test_corrupt_warm_log_warns_and_serves_cold(
        self, stored_employee, tmp_path, monkeypatch, capsys
    ):
        served = {}

        def fake_serve(service, host, port):
            served["names"] = service.database_names()

        monkeypatch.setattr("repro.cli.serve_forever", fake_serve)
        log = tmp_path / "traffic.jsonl"
        log.write_text('{"this is": "not a protocol message"}\n')
        code = main(["serve", str(stored_employee), "--warm", str(log), "--port", "0"])
        assert code == 0
        assert served["names"] == ("employees",)
        assert "warning: skipping warm-up" in capsys.readouterr().err


class TestClusterGc:
    def test_gc_deletes_unreferenced_objects(self, stored_employee, tmp_path, capsys, employee):
        store_dir = tmp_path / "store"
        # Threshold 0 splits every relation, so each shard is distinct content
        # and deleting a shard name really orphans its object.
        main(
            [
                "cluster", "partition", str(stored_employee),
                "--store", str(store_dir),
                "--shards", "2",
                "--replication-threshold", "0",
            ]
        )
        store = SnapshotStore(store_dir)
        store.delete("employees::shard0")
        orphan = store.record("employees::shard1")  # keep: still referenced
        capsys.readouterr()
        assert main(["cluster", "gc", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "collected 1 object(s)" in out
        assert store.load("employees::shard1").fingerprint == orphan.fingerprint
        assert store.load("employees::full").database.fingerprint() == employee.fingerprint()

    def test_gc_with_nothing_to_collect_says_so(self, stored_employee, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(["cluster", "partition", str(stored_employee), "--store", str(store_dir), "--shards", "2"])
        capsys.readouterr()
        assert main(["cluster", "gc", "--store", str(store_dir)]) == 0
        assert "nothing to collect" in capsys.readouterr().out


def _alive(pid: int) -> bool:
    """Whether *pid* runs (a zombie awaiting its reaper counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid: int) -> list[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                children.append(int(entry.name))
    return children


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc to find worker pids")
class TestServeSignals:
    def test_sigterm_stops_the_workers_and_removes_the_temporary_store(self, tmp_path):
        import repro

        database = tmp_path / "emp20"
        save_cw_database(employee_database(20, seed=21), database)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        environment = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        environment["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        environment["TMPDIR"] = str(tmp_path)
        command = [sys.executable, "-m", "repro.cli", "serve", str(database), "--shards", "2", "--port", str(port)]
        with open(tmp_path / "serve.log", "w") as log:
            process = subprocess.Popen(
                command, env=environment, stdout=log, stderr=log, start_new_session=True
            )
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=2.0)
            deadline = time.monotonic() + 60
            while True:
                try:
                    client.health()
                    break
                except ServiceError:
                    assert process.poll() is None, (tmp_path / "serve.log").read_text()
                    assert time.monotonic() < deadline, "serve --shards 2 did not come up"
                    time.sleep(0.05)
            client.close()
            workers = _children(process.pid)
            assert len(workers) == 2
            assert list(tmp_path.glob("repro-cluster-store-*"))

            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
            assert not list(tmp_path.glob("repro-cluster-store-*"))
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()
