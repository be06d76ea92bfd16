"""The persistent snapshot store: round trips, atomicity, statistics."""

from __future__ import annotations

import json

import pytest

from repro.cluster.store import SnapshotStore
from repro.errors import SnapshotStoreError
from repro.logical.ph import ph2
from repro.physical.statistics import preload_statistics, statistics_for, statistics_payload
from repro.service.engine import QueryService
from repro.workloads.generators import employee_database


@pytest.fixture
def store(tmp_path):
    return SnapshotStore(tmp_path / "store")


@pytest.fixture
def employee():
    return employee_database(40, seed=2)


class TestRoundTrip:
    def test_put_then_load_reproduces_content(self, store, employee):
        record = store.put("emp", employee)
        assert record.fingerprint == employee.fingerprint()
        snapshot = store.load("emp")
        assert snapshot.database.fingerprint() == employee.fingerprint()
        assert snapshot.database.facts == employee.facts
        assert snapshot.database == employee

    def test_names_and_records(self, store, employee, ripper_cw):
        store.put("emp", employee, metadata={"kind": "full"})
        store.put("ripper", ripper_cw)
        assert store.names() == ("emp", "ripper")
        assert store.record("emp").metadata == {"kind": "full"}
        with pytest.raises(SnapshotStoreError):
            store.record("nope")

    def test_delete_removes_the_name_only(self, store, employee):
        store.put("emp", employee)
        store.put("alias", employee)
        store.delete("emp")
        assert store.names() == ("alias",)
        # The shared object is still loadable through the surviving name.
        assert store.load("alias").database.fingerprint() == employee.fingerprint()
        with pytest.raises(SnapshotStoreError):
            store.delete("emp")


class TestContentAddressing:
    def test_identical_content_is_stored_once(self, store, employee):
        store.put("a", employee)
        objects = store.root / "objects"
        before = {path.name for path in objects.iterdir()}
        store.put("b", employee)
        after = {path.name for path in objects.iterdir()}
        assert before == after == {employee.fingerprint()}

    def test_repointing_a_name_changes_the_fingerprint(self, store, employee):
        store.put("emp", employee)
        grown = employee.with_fact("EMP_SAL", ("emp0", "high"))
        store.put("emp", grown)
        assert store.record("emp").fingerprint == grown.fingerprint()
        assert store.load("emp").database.fingerprint() == grown.fingerprint()

    def test_no_scratch_left_behind(self, store, employee):
        store.put("emp", employee)
        scratch = store.root / "scratch"
        assert not scratch.exists() or not any(scratch.iterdir())


class TestCorruptionDetection:
    def test_tampered_object_fails_the_content_check(self, store, employee):
        store.put("emp", employee)
        object_dir = store.root / "objects" / employee.fingerprint()
        # Forge content that still *parses* (known constants) but differs:
        # only the fingerprint verification can catch it.
        (object_dir / "EMP_SAL.csv").write_text("emp0,low\n")
        with pytest.raises(SnapshotStoreError, match="content check"):
            store.load("emp")

    def test_unreadable_object_fails_the_content_check(self, store, employee):
        store.put("emp", employee)
        object_dir = store.root / "objects" / employee.fingerprint()
        (object_dir / "EMP_SAL.csv").write_text("emp0,no_such_constant\n")
        with pytest.raises(SnapshotStoreError, match="does not load"):
            store.load("emp")

    def test_missing_object_is_a_clear_error(self, store, employee):
        store.put("emp", employee)
        import shutil

        shutil.rmtree(store.root / "objects" / employee.fingerprint())
        with pytest.raises(SnapshotStoreError, match="missing object"):
            store.load("emp")

    def test_a_version_1_store_is_refused_not_misread(self, store, employee):
        # Version 1 objects were fingerprinted over the uniqueness pairs;
        # their names must not silently resolve to different content.
        store.put("emp", employee)
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["v"] == 2
        manifest["v"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotStoreError, match="unsupported manifest version 1"):
            SnapshotStore(store.root).load("emp")

    def test_unsupported_manifest_version_is_rejected(self, store, employee, tmp_path):
        store.put("emp", employee)
        manifest_path = store.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["v"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotStoreError, match="version"):
            SnapshotStore(store.root).names()


class TestStatisticsPersistence:
    def test_statistics_round_trip_matches_a_cold_scan(self, store, employee):
        store.put("emp", employee)
        snapshot = store.load("emp")
        assert snapshot.statistics is not None
        assert snapshot.statistics == statistics_payload(ph2(employee))

    def test_preload_seeds_without_rescanning(self, store, employee):
        store.put("emp", employee)
        snapshot = store.load("emp")
        storage = ph2(snapshot.database)
        statistics = preload_statistics(storage, snapshot.statistics)
        # Seeded summaries are served from the cache, not recomputed...
        assert set(statistics._relations) == set(storage.vocabulary.predicates)
        # ...and they agree exactly with what a cold scan would measure.
        cold = statistics_for(ph2(employee))
        for name in storage.vocabulary.predicates:
            assert statistics.relation(name) == cold.relation(name)

    def test_preload_on_a_fresh_instance_skips_the_active_domain_scan(self, store, employee):
        store.put("emp", employee)
        snapshot = store.load("emp")
        storage = ph2(snapshot.database)
        assert "_statistics" not in storage.__dict__
        statistics = preload_statistics(storage, snapshot.statistics)
        # The size came from the payload, not from iterating every tuple...
        assert statistics.active_domain_size == snapshot.statistics["active_domain_size"]
        # ...and it matches what the scan would have measured.
        assert statistics.active_domain_size == len(ph2(employee).active_domain())

    def test_preload_ignores_stale_or_malformed_entries(self, employee):
        storage = ph2(employee)
        statistics = preload_statistics(
            storage,
            {
                "relations": {
                    "NO_SUCH": {"arity": 2, "rows": 5, "distinct": [1, 2]},
                    "EMP_SAL": {"arity": 7, "rows": 5, "distinct": [1] * 7},  # wrong arity
                    "EMP_DEPT": {"arity": 2},  # missing fields
                }
            },
        )
        assert "NO_SUCH" not in statistics._relations
        assert "EMP_SAL" not in statistics._relations
        assert "EMP_DEPT" not in statistics._relations
        # Lazy recount still works and is correct.
        assert statistics.row_count("EMP_DEPT") == len(employee.facts_for("EMP_DEPT"))

    def test_register_from_store_boots_with_seeded_statistics(self, store, employee):
        store.put("emp", employee)
        service = QueryService()
        entry = service.register_from_store(store, "emp")
        seeded = statistics_for(entry.storage)
        assert set(seeded._relations) == set(entry.storage.vocabulary.predicates)
        # The seeded service answers exactly like a cold one.
        cold = QueryService()
        cold.register("emp", employee)
        text = "(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)"
        assert (
            service.query("emp", text).answers == cold.query("emp", text).answers
        )

    def test_put_without_statistics_still_loads(self, store, employee):
        store.put("emp", employee, with_statistics=False)
        snapshot = store.load("emp")
        assert snapshot.statistics is None

    def test_put_backfills_statistics_onto_an_existing_object(self, store, employee):
        store.put("emp", employee, with_statistics=False)
        assert store.load("emp").statistics is None
        # Same content, but this caller wants statistics: the existing
        # object must gain them rather than silently staying cold.
        store.put("alias", employee)
        assert store.load("alias").statistics == statistics_payload(ph2(employee))
        assert store.load("emp").statistics is not None  # shared object


class TestGarbageCollection:
    def test_gc_deletes_only_unreferenced_objects(self, store, employee, ripper_cw):
        store.put("emp", employee)
        store.put("ripper", ripper_cw)
        store.delete("ripper")
        deleted = store.gc()
        assert deleted == (ripper_cw.fingerprint(),)
        assert not (store.root / "objects" / ripper_cw.fingerprint()).exists()
        # The referenced object survives and still loads.
        assert store.load("emp").database.fingerprint() == employee.fingerprint()

    def test_gc_on_a_fully_referenced_store_is_a_no_op(self, store, employee):
        store.put("emp", employee)
        store.put("alias", employee)
        assert store.gc() == ()
        assert store.load("emp").database.fingerprint() == employee.fingerprint()

    def test_gc_collects_objects_orphaned_by_repointing(self, store, employee):
        other = employee_database(12, seed=9)
        store.put("emp", employee)
        store.put("emp", other)  # re-point: the old object is now unreferenced
        assert store.gc() == (employee.fingerprint(),)
        assert store.load("emp").database.fingerprint() == other.fingerprint()

    def test_gc_sweeps_crashed_scratch_leftovers(self, store, employee):
        store.put("emp", employee)
        leftover = store.root / "scratch" / "deadbeef.123.abc"
        leftover.mkdir(parents=True)
        (leftover / "junk.csv").write_text("x")
        store.gc()
        assert not leftover.exists()

    def test_gc_on_an_empty_store(self, store):
        assert store.gc() == ()

    def test_gc_sweeps_stranded_statistics_staging_files(self, store, employee):
        record = store.put("emp", employee)
        object_dir = store.root / "objects" / record.fingerprint
        stranded = object_dir / "statistics.json.999.deadbeef.tmp"
        stranded.write_text("{}")
        assert store.gc() == ()  # the object itself is referenced and kept
        assert not stranded.exists()
        assert store.load("emp").statistics is not None


class TestOlderStatisticsFiles:
    """Stores written by workers that persisted observed cardinalities."""

    #: A ``statistics.json`` exactly as such a worker left it: the static
    #: summary plus an ``"observed"`` section keyed by plan fingerprints.
    LEGACY = {
        "domain_size": 3,
        "active_domain_size": 3,
        "relations": {"EMP_DEPT": {"arity": 2, "rows": 40, "distinct": [40, 4], "estimated": False}},
        "observed": {"9f2c1e": 7, "a41b07": 1200},
    }

    def _legacy_store(self, store, employee):
        record = store.put("emp", employee)
        payload = dict(self.LEGACY, domain_size=len(ph2(employee).domain))
        payload["active_domain_size"] = len(ph2(employee).active_domain())
        payload["relations"] = {
            "EMP_DEPT": statistics_payload(ph2(employee))["relations"]["EMP_DEPT"]
        }
        path = store.root / "objects" / record.fingerprint / "statistics.json"
        path.write_text(json.dumps(payload, sort_keys=True))
        return payload

    def test_a_statistics_file_with_an_observed_section_still_loads(self, store, employee):
        payload = self._legacy_store(store, employee)
        assert store.load("emp").statistics == payload

    def test_the_observed_section_is_ignored_at_boot(self, store, employee):
        self._legacy_store(store, employee)
        service = QueryService()
        entry = service.register_from_store(store, "emp")
        seeded = statistics_for(entry.storage)
        assert set(seeded._relations) == {"EMP_DEPT"}
        assert seeded.as_dict() == statistics_for(ph2(employee)).as_dict() | {
            "relations": {"EMP_DEPT": seeded.as_dict()["relations"]["EMP_DEPT"]}
        }
        assert not hasattr(seeded, "observed")
        cold = QueryService()
        cold.register("emp", employee)
        text = "(x1, x2) . exists y. EMP_DEPT(x1, y) & DEPT_MGR(y, x2)"
        assert service.query("emp", text).answers == cold.query("emp", text).answers
