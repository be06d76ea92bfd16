"""A persistent, content-addressed snapshot store for CW logical databases.

Snapshots are immutable (the :class:`~repro.logical.database.CWDatabase`
contract), so the store is content-addressed: the object directory for a
snapshot is keyed by its :meth:`~repro.logical.database.CWDatabase.fingerprint`
and written at most once.  Names are an indirection layer on top — a
versioned ``manifest.json`` maps snapshot names to fingerprints — which is
what lets a cluster re-point ``orders::shard2`` at new content atomically
while the old object sticks around for readers mid-flight.

Layout::

    <root>/
      manifest.json              # {"v": 2, "snapshots": {name: {...}}}
      objects/<fingerprint>/     # CSV layout of save_cw_database()
        schema.json
        <predicate>.csv ...
        unknown.csv, ne_prime.csv  # the U / NE' encoding of the axioms
        statistics.json          # optimizer statistics of the Ph2 storage

Version 2 fingerprints cover the ``U``/``NE'`` encoding (version 1 covered
the quadratic pair set), so a version 1 store is refused, not misread.

Writes are atomic at every level: objects are staged in a scratch directory
and published with ``os.replace`` (readers never observe a half-written
object), and the manifest is rewritten the same way.  ``statistics.json``
persists the per-relation cardinality summary of the snapshot's ``Ph2``
storage (:mod:`repro.physical.statistics`), so a freshly booted worker plans
with real cardinalities instead of cold defaults — and without rescanning
every relation at startup.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.errors import ReproError, SnapshotStoreError
from repro.logical.database import CWDatabase
from repro.logical.ph import ph2
from repro.physical.csvio import load_cw_database, save_cw_database
from repro.physical.statistics import statistics_payload

__all__ = ["MANIFEST_VERSION", "SnapshotRecord", "LoadedSnapshot", "SnapshotStore"]

MANIFEST_VERSION = 2

_MANIFEST_FILE = "manifest.json"
_OBJECTS_DIR = "objects"
_SCRATCH_DIR = "scratch"
_STATISTICS_FILE = "statistics.json"


@dataclass(frozen=True)
class SnapshotRecord:
    """One manifest entry: a name bound to a content fingerprint."""

    name: str
    fingerprint: str
    metadata: Mapping[str, object]


@dataclass(frozen=True)
class LoadedSnapshot:
    """A snapshot read back from the store, statistics included."""

    name: str
    fingerprint: str
    database: CWDatabase
    statistics: Mapping[str, object] | None


class SnapshotStore:
    """Content-addressed snapshots with a versioned name manifest.

    The store is safe for any number of concurrent *readers* against one
    *writer* (atomic replaces); concurrent writers are not coordinated —
    the cluster has exactly one (the deployer), which is the intended use.
    """

    def __init__(self, directory: str | Path) -> None:
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _OBJECTS_DIR).mkdir(exist_ok=True)

    # Writing ------------------------------------------------------------------

    def put(
        self,
        name: str,
        database: CWDatabase,
        metadata: Mapping[str, object] | None = None,
        with_statistics: bool = True,
    ) -> SnapshotRecord:
        """Persist *database* under *name*; returns the manifest record.

        The object write is skipped entirely when content with the same
        fingerprint is already stored (the common case when re-deploying an
        unchanged database), making re-registration cheap.  With
        ``with_statistics`` the ``Ph2`` storage is derived once and its full
        cardinality summary saved next to the data.
        """
        if not name:
            raise SnapshotStoreError("a snapshot needs a nonempty name")
        fingerprint = database.fingerprint()
        object_dir = self._object_dir(fingerprint)
        if not object_dir.exists():
            scratch = self.root / _SCRATCH_DIR / f"{fingerprint}.{os.getpid()}.{uuid.uuid4().hex[:8]}"
            scratch.parent.mkdir(exist_ok=True)
            try:
                save_cw_database(database, scratch)
                if with_statistics:
                    payload = statistics_payload(ph2(database))
                    (scratch / _STATISTICS_FILE).write_text(json.dumps(payload, sort_keys=True))
                try:
                    os.replace(scratch, object_dir)
                except OSError:
                    # A concurrent writer published the same content first;
                    # content-addressing makes that benign.
                    if not object_dir.exists():
                        raise
            finally:
                if scratch.exists():
                    shutil.rmtree(scratch, ignore_errors=True)
        elif with_statistics and not (object_dir / _STATISTICS_FILE).exists():
            # The content was first stored without statistics; honour this
            # call's request by backfilling them (derived data, so adding the
            # file never violates content addressing).
            payload = statistics_payload(ph2(database))
            staging = object_dir / f"{_STATISTICS_FILE}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
            staging.write_text(json.dumps(payload, sort_keys=True))
            os.replace(staging, object_dir / _STATISTICS_FILE)
        manifest = self._read_manifest()
        manifest["snapshots"][name] = {
            "fingerprint": fingerprint,
            "metadata": dict(metadata or {}),
        }
        self._write_manifest(manifest)
        return SnapshotRecord(name=name, fingerprint=fingerprint, metadata=dict(metadata or {}))

    def delete(self, name: str) -> None:
        """Drop a name from the manifest (objects stay: content is shared)."""
        manifest = self._read_manifest()
        if name not in manifest["snapshots"]:
            raise SnapshotStoreError(f"unknown snapshot {name!r}")
        del manifest["snapshots"][name]
        self._write_manifest(manifest)

    def gc(self) -> tuple[str, ...]:
        """Delete every object no manifest entry references; returns their fingerprints.

        Content addressing means :meth:`delete` and re-:meth:`put` leave old
        objects behind on purpose (readers mid-flight, cheap re-registration)
        — a long-running cluster that cycles snapshots therefore leaks disk
        until someone collects.  Like every write, gc assumes the store's
        single-writer contract; scratch leftovers from crashed writers are
        swept too.
        """
        referenced = {
            entry["fingerprint"] for entry in self._read_manifest()["snapshots"].values()
        }
        deleted = []
        objects_dir = self.root / _OBJECTS_DIR
        for object_dir in sorted(objects_dir.iterdir()):
            if not object_dir.is_dir():
                continue
            if object_dir.name not in referenced:
                shutil.rmtree(object_dir, ignore_errors=True)
                deleted.append(object_dir.name)
                continue
            # A statistics backfill stages next to the object; a crash
            # between write and publish strands the staging file inside a
            # referenced (hence never-deleted) directory.
            for staging in object_dir.glob(f"{_STATISTICS_FILE}.*.tmp"):
                staging.unlink(missing_ok=True)
        scratch_dir = self.root / _SCRATCH_DIR
        if scratch_dir.exists():
            for leftover in scratch_dir.iterdir():
                shutil.rmtree(leftover, ignore_errors=True)
        return tuple(deleted)

    # Reading ------------------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._read_manifest()["snapshots"]))

    def record(self, name: str) -> SnapshotRecord:
        entry = self._read_manifest()["snapshots"].get(name)
        if entry is None:
            known = ", ".join(self.names()) or "none stored"
            raise SnapshotStoreError(f"unknown snapshot {name!r} (known: {known})")
        return SnapshotRecord(
            name=name,
            fingerprint=entry["fingerprint"],
            metadata=dict(entry.get("metadata", {})),
        )

    def load(self, name: str) -> LoadedSnapshot:
        """Read a snapshot back: database plus (if saved) its statistics.

        The loaded content is verified against the manifest fingerprint, so
        on-disk corruption surfaces as a clear error instead of silently
        serving wrong answers.
        """
        record = self.record(name)
        object_dir = self._object_dir(record.fingerprint)
        if not object_dir.exists():
            raise SnapshotStoreError(
                f"snapshot {name!r} points at missing object {record.fingerprint[:12]}..."
            )
        try:
            database = load_cw_database(object_dir)
        except ReproError as error:
            raise SnapshotStoreError(
                f"snapshot {name!r} failed its content check: stored object does not load: {error}"
            ) from None
        if database.fingerprint() != record.fingerprint:
            raise SnapshotStoreError(
                f"snapshot {name!r} failed its content check: stored object does not match "
                f"fingerprint {record.fingerprint[:12]}..."
            )
        statistics = None
        statistics_path = object_dir / _STATISTICS_FILE
        if statistics_path.exists():
            try:
                loaded = json.loads(statistics_path.read_text())
            except json.JSONDecodeError as error:
                raise SnapshotStoreError(f"snapshot {name!r} has corrupt statistics: {error}") from None
            if isinstance(loaded, dict):
                statistics = loaded
        return LoadedSnapshot(
            name=name,
            fingerprint=record.fingerprint,
            database=database,
            statistics=statistics,
        )

    # Plumbing -----------------------------------------------------------------

    def _object_dir(self, fingerprint: str) -> Path:
        return self.root / _OBJECTS_DIR / fingerprint

    def _read_manifest(self) -> dict:
        path = self.root / _MANIFEST_FILE
        if not path.exists():
            return {"v": MANIFEST_VERSION, "snapshots": {}}
        try:
            manifest = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise SnapshotStoreError(f"corrupt manifest at {path}: {error}") from None
        if not isinstance(manifest, dict) or "snapshots" not in manifest:
            raise SnapshotStoreError(f"malformed manifest at {path}")
        version = manifest.get("v")
        if version != MANIFEST_VERSION:
            raise SnapshotStoreError(
                f"unsupported manifest version {version!r} (this library speaks {MANIFEST_VERSION})"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        path = self.root / _MANIFEST_FILE
        staging = path.with_name(f"{_MANIFEST_FILE}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        staging.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        os.replace(staging, path)
