"""The structured event log: schema, rate limiting, sink."""

from __future__ import annotations

import json
import threading

import pytest

from repro.observability import tracing
from repro.observability.events import (
    EVENT_SCHEMA,
    EVENT_SINK_ENV,
    EventLog,
    default_log,
    emit,
    reset_default_log,
    validate_event,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


class TestEmission:
    def test_records_are_schema_valid(self):
        log = EventLog()
        record = log.emit("breaker.tripped", level="error", worker=3)
        validate_event(record)
        assert record["kind"] == "breaker.tripped"
        assert record["level"] == "error"
        assert record["attributes"] == {"worker": 3}
        assert record["trace_id"] is None

    def test_sequence_numbers_increase(self):
        log = EventLog()
        first = log.emit("a")
        second = log.emit("b")
        assert second["seq"] == first["seq"] + 1

    def test_events_stamp_the_active_trace_and_span(self):
        log = EventLog()
        with tracing.trace("request") as trace:
            with tracing.span("inner"):
                record = log.emit("admission.shed")
        assert record["trace_id"] == trace.trace_id
        assert record["span_id"] is not None
        validate_event(record)

    def test_unknown_level_degrades_to_info(self):
        record = EventLog().emit("x", level="catastrophic")
        assert record["level"] == "info"
        validate_event(record)

    def test_non_json_attribute_values_are_coerced(self):
        record = EventLog().emit("x", thing=object(), items=(1, {"k": 2}))
        validate_event(record)
        assert isinstance(record["attributes"]["thing"], str)
        assert record["attributes"]["items"] == [1, {"k": 2}]

    def test_ring_is_bounded_oldest_first(self):
        log = EventLog(capacity=3)
        for index in range(6):
            log.emit(f"kind{index}")
        kinds = [record["kind"] for record in log.tail()]
        assert kinds == ["kind3", "kind4", "kind5"]
        assert len(log) == 3

    def test_tail_filters_by_trace_id(self):
        log = EventLog()
        log.emit("outside")
        with tracing.trace("request") as trace:
            log.emit("inside")
        inside = log.tail(trace_id=trace.trace_id)
        assert [record["kind"] for record in inside] == ["inside"]


class TestRateLimiting:
    def test_burst_beyond_the_limit_is_dropped_and_summarized(self):
        clock = FakeClock()
        log = EventLog(rate_limit_per_second=5, clock=clock)
        for index in range(20):
            log.emit(f"burst{index}")
        assert len(log) == 5  # the window admitted exactly the limit
        stats = log.stats()
        assert stats["dropped"] == 15
        # The next window opens with a single summary of what was lost.
        clock.now += 1.5
        log.emit("after")
        kinds = [record["kind"] for record in log.tail()]
        assert "events.dropped" in kinds
        summary = next(r for r in log.tail() if r["kind"] == "events.dropped")
        validate_event(summary)
        assert summary["attributes"]["dropped"] == 15
        assert summary["level"] == "warning"

    def test_steady_rate_under_the_limit_drops_nothing(self):
        clock = FakeClock()
        log = EventLog(rate_limit_per_second=10, clock=clock)
        for __ in range(30):
            log.emit("steady")
            clock.now += 0.2  # 5/s against a 10/s cap
        assert log.stats()["dropped"] == 0

    def test_concurrent_bursts_respect_the_limit(self):
        clock = FakeClock()
        log = EventLog(rate_limit_per_second=50, clock=clock)
        start = threading.Barrier(4)

        def hammer():
            start.wait()
            for __ in range(100):
                log.emit("storm")

        threads = [threading.Thread(target=hammer) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = log.stats()
        assert stats["emitted"] == 50
        assert stats["dropped"] == 350
        for record in log.tail():
            validate_event(record)


class TestDefaultLog:
    def test_retired_env_switch_changes_nothing(self, monkeypatch):
        # REPRO_NO_EVENTS was retired: emission is unconditional.
        monkeypatch.setenv("REPRO_NO_EVENTS", "1")
        log = EventLog()
        assert log.emit("anything") is not None
        assert len(log) == 1

    def test_module_emit_uses_the_default_log(self):
        reset_default_log()
        try:
            record = emit("module.level", detail="yes")
            assert record in default_log().tail()
        finally:
            reset_default_log()

    def test_sink_writes_ndjson(self, tmp_path, monkeypatch):
        sink = tmp_path / "events.ndjson"
        monkeypatch.setenv(EVENT_SINK_ENV, str(sink))
        reset_default_log()
        try:
            emit("durable.one", n=1)
            emit("durable.two", n=2)
            lines = [json.loads(line) for line in sink.read_text().splitlines()]
            assert [line["kind"] for line in lines] == ["durable.one", "durable.two"]
            for line in lines:
                validate_event(line)
        finally:
            reset_default_log()


class TestValidation:
    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            validate_event("not an event")

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing"):
            validate_event({"schema": EVENT_SCHEMA})

    def test_rejects_wrong_schema_and_bad_values(self):
        record = EventLog().emit("ok")
        for field, value, what in (
            ("schema", "repro-event/v0", "schema"),
            ("seq", 0, "seq"),
            ("kind", "", "kind"),
            ("level", "loud", "level"),
            ("trace_id", 7, "trace_id"),
            ("attributes", [1], "attributes"),
        ):
            broken = dict(record)
            broken[field] = value
            with pytest.raises(ValueError, match=what):
                validate_event(broken)
