"""Batched evaluation: deduplicate identical requests, fan out the rest.

Traffic against a query service is heavily skewed — the same hot queries
arrive over and over (see :mod:`repro.workloads.traffic`) — so a batch is
first collapsed to its *unique* requests.  Each unique request is evaluated
at most once, concurrently on a :class:`~concurrent.futures.ThreadPoolExecutor`;
the positional response list is then rebuilt so ``responses[i]`` always
answers ``requests[i]``.

Each item runs under the batch request's deadline, resource account and
trace, carried onto the pool thread: an item past the deadline answers
``deadline_exceeded``, and the batch's bill is the sum of its items'.

Failures stay local: a request that raises a
:class:`~repro.errors.ReproError` (parse error, capacity refusal, unknown
database...) yields an :class:`~repro.service.protocol.ErrorResponse` in its
slot and the rest of the batch completes normally.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Hashable, Sequence

from repro.errors import ReproError
from repro.resilience.deadlines import carry_request_context
from repro.service.protocol import BatchResponse, ErrorResponse, QueryRequest

__all__ = ["BatchEvaluator", "PreparedBatchEvaluator", "evaluate_batch", "DEFAULT_MAX_WORKERS"]

DEFAULT_MAX_WORKERS = 8


class _FanOut:
    """Dedup → concurrent evaluation → positional rebuild, shared by both evaluators.

    With ``executor`` the evaluator fans out on that long-lived pool (and
    never shuts it down); otherwise it spins up a pool per ``run`` call,
    sized by ``max_workers``.  :meth:`Frontend.batch` passes the front-end's
    shared pool so repeated small batches avoid per-call pool startup.
    """

    def __init__(self, service, max_workers: int | None = None, executor: ThreadPoolExecutor | None = None) -> None:
        self.service = service
        self.max_workers = max_workers or DEFAULT_MAX_WORKERS
        self.executor = executor

    def _run(self, items: list, key: Callable[[object], Hashable], evaluate) -> BatchResponse:
        """Evaluate each distinct item once; ``responses[i]`` answers ``items[i]``.

        *key* maps an item to its dedup key; *evaluate* answers one item, and
        a :class:`~repro.errors.ReproError` it raises becomes that slot's
        :class:`ErrorResponse`.  The counters are folded into the service via
        ``record_batch``.
        """
        unique: list = []
        seen: dict[Hashable, int] = {}
        slots: list[int] = []
        for item in items:
            slot = seen.setdefault(key(item), len(unique))
            if slot == len(unique):
                unique.append(item)
            slots.append(slot)

        @carry_request_context
        def guarded(item):
            try:
                return evaluate(item)
            except ReproError as error:
                return ErrorResponse.from_exception(error)

        if self.executor is not None:
            results = list(self.executor.map(guarded, unique))
        else:
            workers = min(self.max_workers, len(unique))
            if workers <= 1:
                results = [guarded(item) for item in unique]
            else:
                with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-batch") as pool:
                    results = list(pool.map(guarded, unique))

        deduplicated = len(items) - len(unique)
        self.service.record_batch(executed=len(unique), deduplicated=deduplicated)
        return BatchResponse(
            responses=tuple(results[slot] for slot in slots),
            total=len(items),
            unique=len(unique),
            deduplicated=deduplicated,
        )


class BatchEvaluator(_FanOut):
    """Evaluate request batches against a :class:`~repro.service.frontend.Frontend`."""

    def run(self, requests: Sequence[QueryRequest]) -> BatchResponse:
        """Evaluate a batch; duplicates are computed once and fanned back out."""
        # Frozen QueryRequest dataclasses are their own dedup keys.
        return self._run(list(requests), lambda request: request, self.service.execute)


def evaluate_batch(service, requests: Sequence[QueryRequest], max_workers: int | None = None) -> BatchResponse:
    """Module-level convenience wrapper around :class:`BatchEvaluator`."""
    return BatchEvaluator(service, max_workers=max_workers).run(requests)


class PreparedBatchEvaluator(_FanOut):
    """The prepared counterpart of :class:`BatchEvaluator`: one statement, many bindings.

    A parameter sweep is the canonical prepared workload (same template,
    thousands of bindings); like ad-hoc batches it is deduplicated first —
    bindings compare equal by content — and fanned out concurrently, with
    per-binding failures isolated to their slot.
    """

    def run(self, statement_id: str, bindings) -> BatchResponse:
        return self._run(
            [dict(binding or {}) for binding in bindings],
            lambda binding: tuple(sorted(binding.items())),
            lambda binding: self.service.execute_prepared(statement_id, binding),
        )
