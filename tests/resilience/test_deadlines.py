"""Deadline propagation: scopes, thread handoff, wire budgets, adoption."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DeadlineExceededError
from repro.observability.context import carry, scope
from repro.resilience import deadlines
from repro.resilience.deadlines import (
    Deadline,
    adopt,
    check_deadline,
    current_deadline,
    deadline_scope,
)


class TestDeadline:
    def test_fresh_budget_is_not_expired(self):
        deadline = Deadline.after_ms(60_000)
        assert not deadline.expired()
        assert 59_000 < deadline.remaining_ms() <= 60_000
        deadline.check("anything")  # does not raise

    def test_past_deadline_checks_raise_with_overrun(self):
        deadline = Deadline(time.monotonic() - 0.05)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError, match="join build.*over budget"):
            deadline.check("join build")

    def test_wire_budget_floors_at_one_ms(self):
        nearly_spent = Deadline.after_ms(0.2)
        assert nearly_spent.wire_budget_ms() == 1

    def test_wire_budget_refuses_dead_requests(self):
        with pytest.raises(DeadlineExceededError):
            Deadline(time.monotonic() - 1.0).wire_budget_ms()


class TestScopes:
    def test_no_active_deadline_by_default(self):
        assert current_deadline() is None
        check_deadline()  # the zero-cost disabled path

    def test_scope_activates_and_restores(self):
        with deadline_scope(5_000) as active:
            assert current_deadline() is active
            check_deadline()
        assert current_deadline() is None

    def test_none_scope_is_inert(self):
        with deadline_scope(None) as active:
            assert active is None
            assert current_deadline() is None

    def test_expired_scope_raises_at_the_next_check(self):
        with deadline_scope(1):
            time.sleep(0.005)
            with pytest.raises(DeadlineExceededError):
                check_deadline("query evaluation")

    def test_scope_nests_and_unwinds(self):
        outer = Deadline.after_ms(10_000)
        inner = Deadline.after_ms(1_000)
        with scope(deadline=outer):
            with scope(deadline=inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_deadlines_stay_on_their_thread_until_carried(self):
        seen: dict[str, Deadline | None] = {}

        def worker(key: str) -> None:
            seen[key] = current_deadline()

        with deadline_scope(5_000) as active:
            # The router's pool-thread pattern: capture, then restore.
            for target, key in ((worker, "pool"), (carry(worker), "pool_carried")):
                thread = threading.Thread(target=target, args=(key,))
                thread.start()
                thread.join()
        assert seen["pool"] is None  # no implicit inheritance
        assert seen["pool_carried"] is active


class TestAdopt:
    def test_positive_budgets_anchor_locally(self):
        deadline = adopt(2_000)
        assert deadline is not None
        assert 1_000 < deadline.remaining_ms() <= 2_000
        assert adopt(1500.5) is not None

    @pytest.mark.parametrize(
        "value", [None, "2000", True, False, 0, -5, float("nan"), deadlines._MAX_WIRE_BUDGET_MS + 1]
    )
    def test_garbage_means_no_deadline(self, value):
        assert adopt(value) is None
