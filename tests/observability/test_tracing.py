"""Unit tests for span-based tracing: nesting, handoff, wire round trips."""

from __future__ import annotations

import threading

from repro.observability import tracing
from repro.observability.context import carry, scope
from repro.observability.tracing import Span, Trace


class TestDisabledPath:
    def test_span_is_a_noop_without_an_active_trace(self):
        assert tracing.current_trace() is None
        with tracing.span("nothing", key="value") as record:
            assert record is None
        assert tracing.current_trace() is None
        assert tracing.current_span_id() is None


class TestNesting:
    def test_nested_spans_form_a_parent_chain(self):
        with tracing.trace("root", who="edge") as active:
            with tracing.span("child") as child:
                with tracing.span("grandchild") as grandchild:
                    assert tracing.current_span_id() == grandchild.span_id
                assert tracing.current_span_id() == child.span_id
        spans = {span.name: span for span in active.spans}
        assert set(spans) == {"root", "child", "grandchild"}
        assert spans["root"].parent_id is None
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["grandchild"].parent_id == spans["child"].span_id
        assert {span.trace_id for span in active.spans} == {active.trace_id}
        assert all(span.duration >= 0.0 for span in active.spans)
        assert spans["root"].attributes == {"who": "edge"}

    def test_trace_deactivates_on_exit(self):
        with tracing.trace("root"):
            assert tracing.current_trace() is not None
        assert tracing.current_trace() is None

    def test_scope_restores_the_previous_trace(self):
        outer = Trace()
        inner = Trace()
        with scope(trace=outer):
            with tracing.span("outer work"):
                with scope(trace=inner, span_id=None):
                    assert tracing.current_trace() is inner
                    with tracing.span("inner work"):
                        pass
                assert tracing.current_trace() is outer
            assert tracing.current_span_id() is None
        assert tracing.current_trace() is None
        assert [span.name for span in inner.spans] == ["inner work"]
        assert [span.name for span in outer.spans] == ["outer work"]

    def test_tree_and_render(self):
        with tracing.trace("root") as active:
            with tracing.span("first"):
                pass
            with tracing.span("second"):
                pass
        roots = active.tree()
        assert len(roots) == 1
        names = [child["span"].name for child in roots[0]["children"]]
        assert names == ["first", "second"]
        rendered = tracing.render_trace(active)
        assert "root" in rendered and "first" in rendered and active.trace_id in rendered


class TestThreadHandoff:
    def test_pool_thread_spans_join_the_carried_trace(self):
        with tracing.trace("edge") as active:

            @carry
            def worker():
                with tracing.span("pooled work"):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        names = {span.name for span in active.spans}
        assert names == {"edge", "pooled work"}
        assert {span.trace_id for span in active.spans} == {active.trace_id}

    def test_carry_nests_pool_spans_under_the_callers_span(self):
        with tracing.trace("edge") as active:
            with tracing.span("fan out") as fan_out:

                @carry
                def worker():
                    with tracing.span("shard task"):
                        pass

                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        task = next(span for span in active.spans if span.name == "shard task")
        assert task.parent_id == fan_out.span_id
        assert len(active.tree()) == 1


class TestWire:
    def test_wire_context_carries_the_current_span(self):
        with tracing.trace("edge") as active:
            with tracing.span("rpc") as rpc:
                context = active.wire_context()
                assert context == {"id": active.trace_id, "span": rpc.span_id}

    def test_adopt_round_trips_the_context(self):
        adopted = tracing.adopt({"id": "cafe", "span": "beef"})
        assert adopted is not None
        assert adopted.trace_id == "cafe"
        assert adopted.parent_span_id == "beef"
        with scope(trace=adopted, span_id=adopted.parent_span_id):
            with tracing.span("server work") as record:
                assert record.trace_id == "cafe"
                assert record.parent_id == "beef"

    def test_adopt_rejects_malformed_contexts(self):
        assert tracing.adopt(None) is None
        assert tracing.adopt("not a mapping") is None
        assert tracing.adopt({"span": "x"}) is None
        assert tracing.adopt({"id": 17}) is None
        assert tracing.adopt({"id": ""}) is None

    def test_absorb_accepts_only_matching_trace_ids(self):
        active = Trace(trace_id="feed")
        good = Span("feed", "s1", None, "remote", 0.0).to_wire()
        foreign = Span("0bad", "s2", None, "foreign", 0.0).to_wire()
        added = active.absorb({"id": "feed", "spans": [good, foreign, {"nope": True}, 42]})
        assert added == 1
        assert [span.name for span in active.spans] == ["remote"]
        assert active.absorb({"id": "0bad", "spans": [good]}) == 0
        assert active.absorb("garbage") == 0
        assert active.absorb({"id": "feed", "spans": "not a list"}) == 0

    def test_span_wire_round_trip(self):
        original = Span("t", "s", "p", "hop", 1.5, duration=0.25, attributes={"url": "x"})
        decoded = Span.from_wire(original.to_wire())
        assert decoded.trace_id == "t"
        assert decoded.span_id == "s"
        assert decoded.parent_id == "p"
        assert decoded.name == "hop"
        assert abs(decoded.duration - 0.25) < 1e-6
        assert decoded.attributes == {"url": "x"}

    def test_span_from_wire_tolerates_junk(self):
        assert Span.from_wire(None) is None
        assert Span.from_wire({"trace_id": "t", "span_id": "s"}) is None
        assert Span.from_wire({"trace_id": 1, "span_id": "s", "name": "n"}) is None
        # Bad optional fields degrade to defaults instead of failing.
        decoded = Span.from_wire(
            {"trace_id": "t", "span_id": "s", "name": "n", "start": "soon", "duration_us": "long", "parent_id": 3}
        )
        assert decoded is not None
        assert decoded.start == 0.0
        assert decoded.duration == 0.0
        assert decoded.parent_id is None
