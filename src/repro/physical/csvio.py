"""CSV import/export for physical and logical databases.

The on-disk layout keeps a database human-editable:

* ``schema.json`` — constants and predicate arities;
* ``<predicate>.csv`` — one file per predicate, one tuple per row;
* for logical databases additionally ``unequal.csv`` — one uniqueness axiom
  (pair of distinct constants) per row.

Values are stored as strings; physical databases loaded from disk therefore
have string domains, which matches the ``Ph1``/``Ph2`` databases the library
constructs from logical databases.  A loaded database holds **one** ``str``
object per value: every CSV cell is mapped through the schema's constant (or
domain) list, because ``csv.reader`` hands out a fresh string per cell and a
logical database names each constant in up to ``|C|`` rows of ``unequal.csv``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.errors import DatabaseError
from repro.logic.vocabulary import Vocabulary
from repro.physical.database import PhysicalDatabase

__all__ = [
    "save_physical_database",
    "load_physical_database",
    "save_cw_database",
    "load_cw_database",
]

_SCHEMA_FILE = "schema.json"
_UNEQUAL_FILE = "unequal.csv"


def save_physical_database(database: PhysicalDatabase, directory: str | Path) -> Path:
    """Write *database* to *directory*; returns the directory path."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    schema = {
        "constants": {symbol: str(value) for symbol, value in database.constants.items()},
        "predicates": dict(database.vocabulary.predicates),
        "domain": sorted(str(value) for value in database.domain),
    }
    (path / _SCHEMA_FILE).write_text(json.dumps(schema, indent=2, sort_keys=True))
    for predicate in database.vocabulary.predicates:
        with (path / f"{predicate}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            for row in sorted(database.relation(predicate), key=repr):
                writer.writerow([str(value) for value in row])
    return path


def load_physical_database(directory: str | Path) -> PhysicalDatabase:
    """Load a physical database previously written by :func:`save_physical_database`."""
    path = Path(directory)
    schema_path = path / _SCHEMA_FILE
    if not schema_path.exists():
        raise DatabaseError(f"no {_SCHEMA_FILE} in {path}")
    schema = json.loads(schema_path.read_text())
    vocabulary = Vocabulary(tuple(schema["constants"]), {k: int(v) for k, v in schema["predicates"].items()})
    values = {value: value for value in schema["domain"]}
    relations = {}
    for predicate in vocabulary.predicates:
        rows = _read_rows(path / f"{predicate}.csv", values)
        relations[predicate] = rows
    return PhysicalDatabase(
        vocabulary,
        frozenset(schema["domain"]),
        {symbol: values.get(value, value) for symbol, value in schema["constants"].items()},
        relations,
    )


def save_cw_database(database, directory: str | Path) -> Path:
    """Write a :class:`~repro.logical.database.CWDatabase` to *directory*."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    schema = {
        "constants": list(database.vocabulary.constants),
        "predicates": dict(database.vocabulary.predicates),
    }
    (path / _SCHEMA_FILE).write_text(json.dumps(schema, indent=2, sort_keys=True))
    for predicate in database.vocabulary.predicates:
        with (path / f"{predicate}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle)
            for row in sorted(database.facts_for(predicate)):
                writer.writerow(list(row))
    with (path / _UNEQUAL_FILE).open("w", newline="") as handle:
        writer = csv.writer(handle)
        for left, right in sorted(database.unequal_pairs()):
            writer.writerow([left, right])
    return path


def load_cw_database(directory: str | Path):
    """Load a CW logical database previously written by :func:`save_cw_database`."""
    from repro.logical.database import CWDatabase

    path = Path(directory)
    schema_path = path / _SCHEMA_FILE
    if not schema_path.exists():
        raise DatabaseError(f"no {_SCHEMA_FILE} in {path}")
    schema = json.loads(schema_path.read_text())
    predicates = {k: int(v) for k, v in schema["predicates"].items()}
    values = {constant: constant for constant in schema["constants"]}
    facts = {}
    for predicate in predicates:
        facts[predicate] = set(_read_rows(path / f"{predicate}.csv", values))
    unequal = set(_read_rows(path / _UNEQUAL_FILE, values))
    return CWDatabase(
        constants=tuple(schema["constants"]),
        predicates=predicates,
        facts=facts,
        unequal=unequal,
    )


def _read_rows(file_path: Path, values: dict[str, str]) -> list[tuple[str, ...]]:
    """The rows of one CSV file, each cell replaced by its entry in *values*.

    A cell *values* does not know stays as read, so the database constructor
    rejects it exactly as it would have.
    """
    if not file_path.exists():
        return []
    with file_path.open(newline="") as handle:
        return [tuple(map(values.get, row, row)) for row in csv.reader(handle) if row]
