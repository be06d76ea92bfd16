"""Packed answer rows: what the answer cache and the cursor store keep.

``PackedRows`` holds an answer as one flat tuple of cells.  Packing must
lose nothing (any arity, Boolean answers included), pages sliced from it
must reassemble the answer, and a cached response must carry the same
answers as the miss that filled the cache.

The cache's memory is gated in bytes, not time: on a server answering large,
distinct queries the answer cache is most of the heap.  Packed, a cached
binary or ternary row of the E21 database costs about 21 bytes; as row
tuples it cost about 69.  tracemalloc counts the bytes, so the gate does not
depend on the machine.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.parser import parse_query
from repro.logic.template import bind_query
from repro.service.cursors import CursorStore
from repro.service.engine import QueryService
from repro.service.protocol import PackedRows, QueryRequest, QueryResponse, canonical_rows
from repro.workloads.generators import employee_database

ROOT = Path(__file__).resolve().parents[2]

#: The shapes of E21's ``bulk_stream`` workload (300-1500-row answers).
BULK_SHAPES = ("co_occurrence", "co_salary", "chain4", "equality_link", "scan_dept")
#: Bytes a cached answer row may cost, parse-cache entries of its request included.
MAX_BYTES_PER_CACHED_ROW = 32


def _e21_shapes():
    spec = importlib.util.spec_from_file_location("e21_workloads", ROOT / "benchmarks" / "e21" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module.SHAPES


SHAPES = _e21_shapes()


def _bulk_request(database, shape: str, guard: str = "emp1") -> QueryRequest:
    """*shape* bound to guards that hold, *guard* naming the salary guard's employee."""
    salaries = dict(database.facts_for("EMP_SAL"))
    departments = dict(database.facts_for("EMP_DEPT"))
    binding = {"g": guard, "gb": salaries[guard], "h": "emp2", "hd": departments["emp2"]}
    return QueryRequest("emp", str(bind_query(parse_query(SHAPES[shape].template), binding)))


@st.composite
def answers(draw):
    """Canonical rows of one arity (0-3); arity 0 is a Boolean answer."""
    arity = draw(st.integers(min_value=0, max_value=3))
    if arity == 0:
        return draw(st.sampled_from(((), ((),))))
    cell = st.sampled_from([f"c{i}" for i in range(12)])
    rows = draw(st.sets(st.tuples(*[cell] * arity), max_size=600))
    return canonical_rows(rows)


class TestPacking:
    @settings(max_examples=80, deadline=None)
    @given(rows=answers())
    def test_unpacking_gives_the_rows_back(self, rows):
        packed = PackedRows.pack(rows)
        assert packed.count == len(rows)
        assert packed.rows() == rows

    @settings(max_examples=80, deadline=None)
    @given(rows=answers(), page_size=st.sampled_from((1, 7, 256)))
    def test_pages_concatenate_to_the_answer(self, rows, page_size):
        packed = PackedRows.pack(rows)
        pages = [packed.rows(start, start + page_size) for start in range(0, len(rows), page_size)]
        assert tuple(row for page in pages for row in page) == rows

    @settings(max_examples=40, deadline=None)
    @given(rows=answers(), page_size=st.sampled_from((1, 7, 256)))
    def test_cursor_pages_concatenate_to_the_answer(self, rows, page_size):
        response = QueryResponse("db", "f" * 64, "q", "approx", "algebra", 0, {"approximate": rows})
        store = CursorStore()
        cursor = store.open(response, "approximate", page_size)
        pages = [store.fetch(cursor.cursor_id, page) for page in range(cursor.pages)]
        assert tuple(row for page in pages for row in page.rows) == rows
        assert [page.last for page in pages] == [False] * (cursor.pages - 1) + [True]
        assert cursor.total_rows == len(rows)

    @pytest.mark.parametrize("rows", [(), ((),)], ids=["false", "true"])
    def test_boolean_answers_round_trip(self, rows):
        packed = PackedRows.pack(rows)
        assert (packed.cells, packed.arity, packed.count) == ((), 0, len(rows))
        assert packed.rows() == rows
        assert packed.rows(0, 256) == rows


@pytest.fixture(scope="module")
def database():
    return employee_database(300, seed=21)


class TestCachedAnswers:
    @pytest.mark.parametrize("shape", BULK_SHAPES)
    def test_a_hit_answers_what_the_miss_answered(self, database, shape):
        service = QueryService()
        service.register("emp", database)
        miss = service.execute(_bulk_request(database, shape))
        hit = service.execute(_bulk_request(database, shape))
        assert (miss.cached, hit.cached) == (False, True)
        assert len(miss.answers["approximate"]) >= 300
        assert hit.answers == miss.answers

    @pytest.mark.parametrize(
        ("query", "expected"),
        [("() . EMP_DEPT('emp1', 'emp2')", ()), ("() . exists d. EMP_DEPT('emp1', d)", ((),))],
        ids=["false", "true"],
    )
    def test_boolean_answers_survive_the_cache(self, database, query, expected):
        service = QueryService()
        service.register("emp", database)
        miss = service.execute(QueryRequest("emp", query))
        hit = service.execute(QueryRequest("emp", query))
        assert hit.cached
        assert miss.answers["approximate"] == hit.answers["approximate"] == expected


def test_a_cached_answer_row_costs_at_most_32_bytes(database):
    """100 distinct ``co_occurrence`` / ``co_salary`` misses, measured in the cache."""
    employees = sorted(dict(database.facts_for("EMP_SAL")))
    requests = [
        _bulk_request(database, ("co_occurrence", "co_salary")[i % 2], employees[i // 2]) for i in range(102)
    ]
    service = QueryService()
    service.register("emp", database)
    for request in requests[100:]:
        service.execute(request)  # plans the two shapes outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = 0
        for request in requests[:100]:
            response = service.execute(request)
            assert not response.cached
            rows += len(response.answers["approximate"])
        del response
        gc.collect()
        cached_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert service.stats().answer_cache["size"] == 102
    assert rows >= 100 * 100
    assert cached_bytes / rows <= MAX_BYTES_PER_CACHED_ROW, f"{cached_bytes / rows:.1f} bytes per cached row"
