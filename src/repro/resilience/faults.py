"""Deterministic, seeded fault injection for transports and backends.

A :class:`FaultPlan` is a *script of outages*: each transport operation
asks the plan whether (and how) to misbehave via :meth:`FaultPlan.draw`,
and the plan answers from a global operation counter — so a given seed and
configuration always injects the same faults at the same operations, and a
test that failed under chaos replays bit-for-bit.

Three layers of scripting, highest priority first:

1. ``schedule`` — an exact mapping ``{operation_index: kind}``; "operation
   250 gets a garbled response" stays true no matter what the rates say.
2. ``windows`` — ``(start, stop, kind)`` half-open index ranges; the
   natural way to script a kill window ("worker refuses every connection
   for operations 100–200") or a flapping worker (alternating windows).
3. ``rates`` — per-kind probabilities drawn from a ``random.Random(seed)``
   stream advanced once per operation, for background noise.

The fault taxonomy (``FAULT_KINDS``):

- ``refuse`` — connection refused before anything is sent; the server
  provably never saw the request (``sent_request=False``).
- ``drop`` — the connection dies *after* the request went out; the server
  may have executed it (``sent_request=True`` — the ambiguous case retry
  policies must respect).
- ``delay`` — a latency spike before the response.
- ``trickle`` — a slow-trickle response: a longer stall, modeling a
  response that arrives at a few bytes per second.
- ``garble`` — the response payload arrives malformed/truncated and fails
  to parse (:class:`~repro.errors.ProtocolError`); the server did the
  work, the client just cannot read the answer.

Injection points: :class:`ServiceClient(fault_plan=...)
<repro.service.client.ServiceClient>` injects at the HTTP round trip (or
process-wide via the ``REPRO_FAULTS`` environment spec), and
:class:`FaultingBackend` wraps any router backend — the deterministic
in-process form the chaos tests use.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Mapping, Sequence

from repro.errors import ProtocolError, ServiceError, ServiceUnavailableError

__all__ = ["FAULT_KINDS", "Fault", "FaultPlan", "FaultingBackend"]

FAULT_KINDS = ("refuse", "drop", "delay", "trickle", "garble")

#: Default latency-spike and trickle stall durations (milliseconds).  Small
#: enough that seeded background noise does not balloon test wall-clock,
#: large enough to dominate a local round trip.
DEFAULT_DELAY_MS = 25.0
DEFAULT_TRICKLE_MS = 120.0


@dataclass(frozen=True)
class Fault:
    """One injected fault: what kind, and how long to stall (if timed)."""

    kind: str
    stall_ms: float = 0.0

    @property
    def timed(self) -> bool:
        return self.stall_ms > 0.0


class FaultPlan:
    """A thread-safe, deterministic schedule of faults.

    One plan owns one operation counter; concurrent callers interleave
    nondeterministically, but any *serial* replay (the form the property
    tests use) is exact.  ``limit`` stops all injection after that many
    operations — handy for "chaos for the first N requests, then heal".
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        rates: Mapping[str, float] | None = None,
        delay_ms: float = DEFAULT_DELAY_MS,
        trickle_ms: float = DEFAULT_TRICKLE_MS,
        windows: Sequence[tuple[int, int, str]] = (),
        schedule: Mapping[int, str] | None = None,
        limit: int | None = None,
    ) -> None:
        self.seed = seed
        self.rates = {kind: float(rate) for kind, rate in (rates or {}).items()}
        self.delay_ms = float(delay_ms)
        self.trickle_ms = float(trickle_ms)
        self.windows = tuple((int(start), int(stop), kind) for start, stop, kind in windows)
        self.schedule = dict(schedule or {})
        self.limit = limit
        for kind in list(self.rates) + [kind for _, _, kind in self.windows] + list(self.schedule.values()):
            if kind not in FAULT_KINDS:
                raise ServiceError(f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}")
        self._lock = threading.Lock()
        self._rng = Random(seed)
        self._operations = 0
        self._injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # Drawing -------------------------------------------------------------------

    def draw(self) -> Fault | None:
        """The fault (or ``None``) for the next transport operation."""
        with self._lock:
            index = self._operations
            self._operations += 1
            # One uniform draw per operation keeps the random stream aligned
            # with the operation counter regardless of schedule/window hits,
            # so adding a window never reshuffles the background noise.
            toss = self._rng.random()
            kind = self._decide(index, toss)
            if kind is None:
                return None
            self._injected[kind] += 1
        if kind == "delay":
            return Fault(kind, self.delay_ms)
        if kind == "trickle":
            return Fault(kind, self.trickle_ms)
        return Fault(kind)

    def _decide(self, index: int, toss: float) -> str | None:
        if self.limit is not None and index >= self.limit:
            return None
        exact = self.schedule.get(index)
        if exact is not None:
            return exact
        for start, stop, kind in self.windows:
            if start <= index < stop:
                return kind
        cumulative = 0.0
        for kind in FAULT_KINDS:
            cumulative += self.rates.get(kind, 0.0)
            if toss < cumulative:
                return kind
        return None

    def preview(self, draws: int) -> list[tuple[int, str]]:
        """The deterministic schedule of the first *draws* operations.

        A pure function of the configuration — computed on a fresh random
        stream, never advancing this plan's live counter.  Powers
        ``repro chaos plan``.
        """
        rng = Random(self.seed)
        return [
            (index, kind)
            for index in range(draws)
            for kind in [self._decide(index, rng.random())]
            if kind is not None
        ]

    # Introspection -------------------------------------------------------------

    @property
    def operations(self) -> int:
        with self._lock:
            return self._operations

    def injected(self) -> dict[str, int]:
        """Per-kind counts of faults injected so far (live counters)."""
        with self._lock:
            return {kind: count for kind, count in self._injected.items() if count}

    # Parsing -------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the compact text form used by ``REPRO_FAULTS`` and the CLI.

        Whitespace/comma-separated tokens::

            seed=7 refuse=0.05 drop=0.02 delay=0.1 trickle=0.01 garble=0.01
            delay_ms=40 trickle_ms=200 limit=500
            refuse@100-200        # window: refuse operations [100, 200)
            garble@250            # exact: operation 250 gets a garbled reply

        Example: ``REPRO_FAULTS="seed=3 drop=0.05 delay=0.2"``.
        """
        seed = 0
        rates: dict[str, float] = {}
        delay_ms = DEFAULT_DELAY_MS
        trickle_ms = DEFAULT_TRICKLE_MS
        windows: list[tuple[int, int, str]] = []
        schedule: dict[int, str] = {}
        limit: int | None = None
        for token in spec.replace(",", " ").split():
            try:
                if "@" in token:
                    kind, _, where = token.partition("@")
                    if kind not in FAULT_KINDS:
                        raise ValueError(f"unknown fault kind {kind!r}")
                    if "-" in where:
                        start, _, stop = where.partition("-")
                        windows.append((int(start), int(stop), kind))
                    else:
                        schedule[int(where)] = kind
                    continue
                key, _, value = token.partition("=")
                if not value:
                    raise ValueError("expected key=value")
                if key == "seed":
                    seed = int(value)
                elif key == "limit":
                    limit = int(value)
                elif key == "delay_ms":
                    delay_ms = float(value)
                elif key == "trickle_ms":
                    trickle_ms = float(value)
                elif key in FAULT_KINDS:
                    rates[key] = float(value)
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as error:
                raise ServiceError(
                    f"bad REPRO_FAULTS token {token!r}: {error}"
                ) from None
        return cls(
            seed=seed,
            rates=rates,
            delay_ms=delay_ms,
            trickle_ms=trickle_ms,
            windows=windows,
            schedule=schedule,
            limit=limit,
        )

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        parts.extend(f"{kind}={rate:g}" for kind, rate in sorted(self.rates.items()))
        parts.extend(f"{kind}@{start}-{stop}" for start, stop, kind in self.windows)
        parts.extend(f"{kind}@{index}" for index, kind in sorted(self.schedule.items()))
        if self.limit is not None:
            parts.append(f"limit={self.limit}")
        return " ".join(parts)


class FaultingBackend:
    """Wrap a router backend so its query path misbehaves per a plan.

    The faults are injected around the *underlying* backend's ``execute``,
    reproducing each kind's true semantics: a ``refuse`` never reaches the
    backend (``sent_request=False``), while ``drop`` and ``garble`` let the
    backend do the work and then destroy the reply — exactly the ambiguous
    cases the router's retry policy must survive without changing answers.

    Health probes and metadata calls pass through unfaulted: chaos targets
    the query path, and an unreachable ``ping`` would just fight the
    router's revival logic nondeterministically.
    """

    def __init__(self, backend, plan: FaultPlan, *, sleeper=time.sleep) -> None:
        self._backend = backend
        self.plan = plan
        self._sleep = sleeper

    def execute(self, request):
        fault = self.plan.draw()
        if fault is None:
            return self._backend.execute(request)
        if fault.kind == "refuse":
            raise ServiceUnavailableError(
                f"injected fault: connection refused by {self.describe()}",
                sent_request=False,
            )
        if fault.kind == "drop":
            self._backend.execute(request)
            raise ServiceUnavailableError(
                f"injected fault: connection dropped mid-request by {self.describe()}",
                sent_request=True,
            )
        if fault.kind == "garble":
            self._backend.execute(request)
            raise ProtocolError(
                f"injected fault: truncated response payload from {self.describe()}"
            )
        # delay / trickle: stall, then answer correctly.
        self._sleep(fault.stall_ms / 1000.0)
        return self._backend.execute(request)

    # Pass-throughs --------------------------------------------------------------

    def describe(self) -> str:
        describe = getattr(self._backend, "describe", None)
        if callable(describe):
            return f"faulting({describe()})"
        return f"faulting({self._backend!r})"

    def __getattr__(self, name: str):
        return getattr(self._backend, name)
