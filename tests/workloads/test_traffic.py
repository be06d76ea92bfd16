"""Tests for the service traffic generator."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ProtocolError
from repro.logic.parser import parse_query
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest, parse_wire
from repro.workloads.traffic import (
    SWEEP_TEMPLATE,
    TrafficProfile,
    batch_bursts,
    default_scenarios,
    load_traffic_log,
    load_traffic_log_tolerant,
    register_scenarios,
    save_traffic_log,
    scenario_pool,
    traffic_stream,
)


class TestPool:
    def test_default_scenarios_have_parsable_queries(self):
        pool = scenario_pool(default_scenarios())
        assert len(pool) >= 6
        for __, text in pool:
            parse_query(text)  # must round-trip through the printer

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            scenario_pool(())

    def test_default_scenarios_are_employees_and_ripper(self):
        names = [scenario.name for scenario in default_scenarios()]
        assert names[1] == "jack-the-ripper"
        assert len(set(names)) == 2

    def test_sweep_template_binds_only_the_anchor_employee(self):
        template = parse_query(SWEEP_TEMPLATE)
        assert template.parameters() == ("e",)
        assert template.is_template
        assert [variable.name for variable in template.head] == ["m", "s"]


class TestStream:
    def test_stream_is_reproducible(self):
        a = traffic_stream(50, seed=3)
        b = traffic_stream(50, seed=3)
        assert a == b
        assert a != traffic_stream(50, seed=4)

    def test_stream_items_are_requests(self):
        stream = traffic_stream(20, seed=1)
        assert len(stream) == 20
        assert all(isinstance(request, QueryRequest) for request in stream)

    def test_hot_fraction_drives_skew(self):
        hot = traffic_stream(300, profile=TrafficProfile(hot_keys=1, hot_fraction=1.0, exact_fraction=0.0), seed=2)
        assert len({(r.database, r.query) for r in hot}) == 1
        uniform = traffic_stream(300, profile=TrafficProfile(hot_fraction=0.0, exact_fraction=0.0), seed=2)
        assert len({(r.database, r.query) for r in uniform}) > 5

    def test_exact_fraction_controls_method_mix(self):
        stream = traffic_stream(400, profile=TrafficProfile(exact_fraction=0.5), seed=9)
        exactish = sum(1 for r in stream if r.method in ("exact", "both"))
        assert 100 < exactish < 300
        none_exact = traffic_stream(100, profile=TrafficProfile(exact_fraction=0.0), seed=9)
        assert all(r.method == "approx" for r in none_exact)

    def test_empty_stream(self):
        assert traffic_stream(0, seed=1) == []

    def test_stream_draws_only_from_the_given_scenarios(self):
        (employees, __) = default_scenarios()
        stream = traffic_stream(60, scenarios=[employees], seed=12)
        pool = set(scenario_pool([employees]))
        assert {(r.database, r.query) for r in stream} <= pool

    def test_more_hot_keys_than_pool_entries_uses_the_whole_pool(self):
        profile = TrafficProfile(hot_keys=1000, hot_fraction=1.0, exact_fraction=0.0)
        stream = traffic_stream(400, profile=profile, seed=13)
        assert {(r.database, r.query) for r in stream} == set(scenario_pool(default_scenarios()))

    def test_engine_mix(self):
        stream = traffic_stream(300, profile=TrafficProfile(tarski_fraction=0.5), seed=11)
        assert {r.engine for r in stream} == {"tarski", "algebra"}


class TestBursts:
    def test_bursts_partition_the_stream(self):
        stream = traffic_stream(25, seed=6)
        bursts = batch_bursts(stream, 10)
        assert [len(b) for b in bursts] == [10, 10, 5]
        assert [r for burst in bursts for r in burst] == stream

    def test_burst_size_must_be_positive(self):
        with pytest.raises(ValueError, match="burst_size"):
            batch_bursts([], 0)


class TestRegistration:
    def test_register_scenarios_names_match_traffic(self):
        service = QueryService()
        names = register_scenarios(service)
        assert set(names) == set(service.database_names())
        # Every generated request targets a registered database.
        stream = traffic_stream(30, seed=8)
        assert {request.database for request in stream} <= set(names)

    def test_register_only_the_given_scenarios(self):
        service = QueryService()
        (__, ripper) = default_scenarios()
        assert register_scenarios(service, [ripper]) == ("jack-the-ripper",)
        assert set(service.database_names()) == {"jack-the-ripper"}

    def test_skewed_stream_is_mostly_served_from_the_answer_cache(self):
        # 200 skewed requests over a pool of a few dozen distinct keys: once
        # warm, the steady state is overwhelmingly cache hits.
        service = QueryService()
        register_scenarios(service)
        profile = TrafficProfile(hot_keys=2, hot_fraction=0.8, exact_fraction=0.05)
        for request in traffic_stream(200, profile=profile, seed=7):
            service.execute(request)
        assert service.stats().answer_cache["hit_rate"] > 0.5


class TestTrafficLog:
    def test_save_and_load_round_trip(self, tmp_path):
        stream = traffic_stream(25, seed=4)
        path = save_traffic_log(stream, tmp_path / "traffic.jsonl")
        assert load_traffic_log(path) == stream

    def test_log_is_one_sorted_key_v2_envelope_per_line(self, tmp_path):
        stream = traffic_stream(4, seed=4)
        path = save_traffic_log(stream, str(tmp_path / "traffic.jsonl"))
        assert isinstance(path, Path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        for line, request in zip(lines, stream):
            message = json.loads(line)
            assert message["type"] == "query_request" and message["v"] == 2
            assert list(message) == sorted(message)
            assert parse_wire(line) == request

    def test_blank_lines_are_skipped(self, tmp_path):
        stream = traffic_stream(3, seed=4)
        path = save_traffic_log(stream, tmp_path / "traffic.jsonl")
        path.write_text(path.read_text() + "\n\n")
        assert load_traffic_log(path) == stream

    def test_corrupt_line_fails_with_its_line_number(self, tmp_path):
        path = save_traffic_log(traffic_stream(2, seed=4), tmp_path / "traffic.jsonl")
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(ProtocolError, match=":3:"):
            load_traffic_log(path)

    def test_missing_file_is_a_library_error_not_a_traceback(self, tmp_path):
        with pytest.raises(ProtocolError, match="cannot read traffic log"):
            load_traffic_log(tmp_path / "missing.jsonl")

    def test_wrong_message_type_is_rejected(self, tmp_path):
        path = tmp_path / "traffic.jsonl"
        path.write_text('{"type": "health", "v": 2, "status": "ok", "library_version": "1.0"}\n')
        with pytest.raises(ProtocolError, match="query_request"):
            load_traffic_log(path)

    def test_warm_replays_a_recorded_log(self, tmp_path):
        service = QueryService()
        register_scenarios(service)
        stream = traffic_stream(20, profile=TrafficProfile(exact_fraction=0.0), seed=5)
        path = save_traffic_log(stream, tmp_path / "traffic.jsonl")
        report = service.warm(load_traffic_log(path))
        assert report.total == 20
        assert report.failed == 0
        assert report.warmed + report.already_cached == 20
        # The caches are hot now: replaying again is all hits.
        again = service.warm(load_traffic_log(path))
        assert again.already_cached == 20


class TestTolerantTrafficLog:
    def test_clean_log_skips_nothing(self, tmp_path):
        stream = traffic_stream(5, seed=4)
        path = save_traffic_log(stream, tmp_path / "traffic.jsonl")
        requests, skipped = load_traffic_log_tolerant(path)
        assert requests == list(stream)
        assert skipped == []

    def test_malformed_lines_are_skipped_with_line_and_reason(self, tmp_path):
        """Satellite: one corrupt line must not cost the whole warm-up."""
        path = save_traffic_log(traffic_stream(3, seed=4), tmp_path / "traffic.jsonl")
        lines = path.read_text().splitlines()
        lines.insert(1, "not json")  # line 2
        lines.append('{"type": "health", "v": 2, "status": "ok", "library_version": "1.0"}')
        path.write_text("\n".join(lines) + "\n")
        requests, skipped = load_traffic_log_tolerant(path)
        assert len(requests) == 3  # the good entries all survive
        assert [line for line, __ in skipped] == [2, 5]
        assert "JSON" in skipped[0][1]
        assert "query_request" in skipped[1][1]

    def test_each_skip_emits_a_structured_event(self, tmp_path):
        from repro.observability.events import reset_default_log, default_log

        path = tmp_path / "traffic.jsonl"
        path.write_text("not json\n")
        reset_default_log()
        try:
            load_traffic_log_tolerant(path)
            records = [r for r in default_log().tail() if r["kind"] == "warmup.skipped_entry"]
            (record,) = records
            assert record["level"] == "warning"
            assert record["attributes"]["line"] == 1
            assert record["attributes"]["path"] == str(path)
            assert record["attributes"]["reason"]
        finally:
            reset_default_log()

    def test_unreadable_file_still_raises(self, tmp_path):
        with pytest.raises(ProtocolError, match="cannot read traffic log"):
            load_traffic_log_tolerant(tmp_path / "missing.jsonl")
