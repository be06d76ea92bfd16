"""Tests for the QueryService engine: registry, caching, cache-key correctness."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.logical.exact import certain_answers
from repro.logic.parser import parse_query
from repro.service.engine import QueryService
from repro.service.protocol import QueryRequest
from repro.workloads.scenarios import jack_the_ripper_database


@pytest.fixture
def service(ripper_cw):
    service = QueryService()
    service.register("ripper", ripper_cw)
    return service


class TestRegistry:
    def test_register_and_lookup(self, service, ripper_cw):
        entry = service.entry("ripper")
        assert entry.database is ripper_cw
        assert entry.fingerprint == ripper_cw.fingerprint()
        assert service.database_names() == ("ripper",)

    def test_register_precomputes_the_storage(self, service):
        entry = service.entry("ripper")
        assert "_storage" in entry.__dict__  # precomputed at register time
        assert entry.storage is entry.storage  # derived once, then shared

    def test_register_without_precompute_defers_storage(self, ripper_cw):
        service = QueryService()
        entry = service.register("ripper", ripper_cw, precompute=False)
        assert "_storage" not in entry.__dict__
        # Evaluation still works; the storage is derived on first use.
        assert service.query("ripper", "(x) . MURDERER(x)").answer_set("approximate")
        assert "_storage" in entry.__dict__

    def test_duplicate_name_rejected(self, service, ripper_cw):
        with pytest.raises(ServiceError, match="already registered"):
            service.register("ripper", ripper_cw)

    def test_replace_existing_allowed(self, service, tiny_unknown_cw):
        service.register("ripper", tiny_unknown_cw, replace_existing=True)
        assert service.entry("ripper").database is tiny_unknown_cw

    def test_empty_name_rejected(self, ripper_cw):
        with pytest.raises(ServiceError, match="nonempty name"):
            QueryService().register("", ripper_cw)

    def test_unknown_database_is_a_clean_error(self, service):
        with pytest.raises(ServiceError, match="unknown database"):
            service.query("nope", "(x) . MURDERER(x)")

    def test_unregister_drops_snapshot(self, service):
        service.unregister("ripper")
        assert service.database_names() == ()
        with pytest.raises(ServiceError, match="unknown database"):
            service.unregister("ripper")


class TestAnswers:
    def test_approx_matches_direct_evaluation(self, service, ripper_cw):
        response = service.query("ripper", "(x) . LONDONER(x)")
        assert response.answer_set("approximate") == frozenset({("disraeli",), ("dickens",), ("jack",)})
        assert response.arity == 1
        assert not response.cached

    def test_exact_matches_certain_answers(self, service, ripper_cw):
        text = "(x) . ~MURDERER(x)"
        response = service.query("ripper", text, method="exact")
        assert response.answer_set("exact") == certain_answers(ripper_cw, parse_query(text))

    def test_both_reports_completeness(self, service):
        response = service.query("ripper", "(x) . MURDERER(x)", method="both")
        assert response.complete is True
        assert response.missed == 0
        assert response.answer_set("approximate") == response.answer_set("exact")

    def test_both_reports_incompleteness(self, service, tiny_unknown_cw):
        # P(a) with a,b possibly equal: "P(x) | ~P(x)" style gaps appear on
        # negation; exact finds answers the approximation misses.
        service.register("tiny", tiny_unknown_cw)
        response = service.query("tiny", "(x) . P(x) | ~P(x)", method="both")
        assert response.complete is False
        assert response.missed == len(response.answer_set("exact") - response.answer_set("approximate"))

    def test_boolean_query(self, service):
        response = service.query("ripper", "exists x. MURDERER(x)")
        assert response.arity == 0
        assert response.answer_set("approximate") == frozenset({()})


class TestCacheKeys:
    """Distinct methods/engines/encodings must never share a cache entry."""

    def test_repeat_is_served_from_cache(self, service):
        request = QueryRequest("ripper", "(x) . LONDONER(x)")
        first = service.execute(request)
        second = service.execute(request)
        assert not first.cached
        assert second.cached
        assert second.answers == first.answers
        stats = service.stats()
        assert stats.answer_cache["hits"] == 1
        assert stats.answer_cache["misses"] == 1

    @pytest.mark.parametrize(
        "variant",
        [
            dict(method="exact"),
            dict(engine="tarski"),
            dict(engine="auto"),
            dict(method="both"),
        ],
    )
    def test_option_variants_miss_the_cache(self, service, variant):
        base = QueryRequest("ripper", "(x) . LONDONER(x)")
        service.execute(base)
        varied = service.execute(QueryRequest("ripper", "(x) . LONDONER(x)", **variant))
        assert not varied.cached

    def test_different_query_text_misses(self, service):
        service.query("ripper", "(x) . LONDONER(x)")
        assert not service.query("ripper", "(x) . MURDERER(x)").cached

    def test_same_content_under_two_names_shares_entries(self, service):
        # The cache key is the content fingerprint, not the snapshot name.
        service.register("ripper-alias", jack_the_ripper_database())
        service.register("ripper-2", jack_the_ripper_database())
        first = service.query("ripper-alias", "(x) . MURDERER(x)")
        second = service.query("ripper-2", "(x) . MURDERER(x)")
        assert not first.cached
        assert second.cached
        assert second.fingerprint == first.fingerprint
        # Shared entry, but the response is attributed to the requested name.
        assert first.database == "ripper-alias"
        assert second.database == "ripper-2"

    def test_unregister_invalidates_cached_answers(self, service, ripper_cw):
        service.query("ripper", "(x) . MURDERER(x)")
        service.unregister("ripper")
        service.register("ripper", ripper_cw)
        assert not service.query("ripper", "(x) . MURDERER(x)").cached

    def test_replacing_content_cannot_serve_stale_answers(self, service, ripper_cw):
        service.query("ripper", "(x) . MURDERER(x)")
        modified = ripper_cw.with_fact("MURDERER", ("dickens",))
        service.register("ripper", modified, replace_existing=True)
        response = service.query("ripper", "(x) . MURDERER(x)")
        assert not response.cached
        assert ("dickens",) in response.answer_set("approximate")

    def test_disabled_cache_never_hits(self, ripper_cw):
        service = QueryService(answer_cache_capacity=0)
        service.register("ripper", ripper_cw)
        request = QueryRequest("ripper", "(x) . LONDONER(x)")
        assert not service.execute(request).cached
        assert not service.execute(request).cached


class TestClassifyAndInfo:
    def test_classify_uses_parse_cache(self, service):
        text = "(x) . exists y. TEACHES(x, y)"
        service.classify(text)
        service.classify(text)
        stats = service.stats()
        assert stats.parse_cache["hits"] >= 1

    def test_info_matches_database(self, service, ripper_cw):
        info = service.info("ripper")
        assert info.fingerprint == ripper_cw.fingerprint()
        assert info.description == ripper_cw.describe()

    def test_stats_shape(self, service):
        stats = service.stats()
        assert stats.databases == ("ripper",)
        assert stats.uptime_seconds >= 0
        assert set(stats.batch) == {"executed", "deduplicated"}


class TestFingerprints:
    def test_fingerprint_is_stable_and_content_addressed(self, ripper_cw):
        assert ripper_cw.fingerprint() == ripper_cw.fingerprint()
        # Same content constructed twice yields the same fingerprint...
        twin = ripper_cw.with_fact("MURDERER", ("jack",))  # already present
        assert twin.fingerprint() == ripper_cw.fingerprint()
        # ...and different content yields a different one.
        assert ripper_cw.with_fact("MURDERER", ("dickens",)).fingerprint() != ripper_cw.fingerprint()
        assert ripper_cw.with_unequal("disraeli", "jack").fingerprint() != ripper_cw.fingerprint()

    def test_physical_fingerprint_stable(self, teaches_physical):
        assert teaches_physical.fingerprint() == teaches_physical.fingerprint()
        changed = teaches_physical.with_relation("PHILOSOPHER", {("socrates",)})
        assert changed.fingerprint() != teaches_physical.fingerprint()
