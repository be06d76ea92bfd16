"""The request context: one variable, replaced by ``scope``, carried by ``carry``."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.observability.accounting import ResourceAccount
from repro.observability.context import RequestContext, carry, current, scope


def test_scope_replaces_only_the_named_fields_and_restores_on_exit():
    account = ResourceAccount()
    with scope(account=account, span_id="outer"):
        with scope(span_id="inner") as inner:
            assert inner is current()
            assert (current().account, current().span_id) == (account, "inner")
        assert current().span_id == "outer"
    assert current() == RequestContext()


def test_carry_gives_each_pooled_task_its_submitters_context():
    # Two requests share one pool; every task sees its own request's
    # context, and the pool threads are left with an empty one.
    start = threading.Barrier(4)

    def task():
        start.wait(timeout=5)
        return current().span_id

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = []
        for request in ("a", "b"):
            with scope(span_id=request):
                futures += [(request, pool.submit(carry(task))) for __ in range(2)]
        assert [future.result() for __, future in futures] == [request for request, __ in futures]
        assert pool.submit(current).result() == RequestContext()
