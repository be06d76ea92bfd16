"""Traffic generation for the query-serving subsystem.

Real query traffic is not uniform: a few hot queries dominate (skewed
popularity), requests arrive in bursts, and only a small fraction can
afford the exponential exact route.  This module turns the named scenarios
of :mod:`repro.workloads.scenarios` into reproducible request streams with
exactly those shapes, for the service, cache and concurrency tests:

* **hot-key skew** — with probability ``hot_fraction`` a request repeats
  one of the few "hot" (database, query) pairs, otherwise it draws
  uniformly from the whole pool; repeats are what the response cache and
  the batch deduplicator exploit;
* **approx-vs-exact mix** — a fraction of requests takes the exact
  (Theorem 1) route, the rest the Section 5 approximation;
* **batch bursts** — :func:`batch_bursts` chops a stream into the request
  lists a bursty client would POST to ``/batch``;
* **recorded logs** — :func:`save_traffic_log` / :func:`load_traffic_log`
  persist a stream as JSONL of protocol messages, the format ``repro serve
  --warm FILE`` replays through the caches before accepting connections.

All generators take an explicit seed, like the rest of
:mod:`repro.workloads`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import ProtocolError
from repro.observability import events
from repro.service.protocol import QueryRequest, parse_wire, to_wire
from repro.workloads.scenarios import (
    Scenario,
    employee_intro_scenario,
    jack_the_ripper_database,
)
from repro.logic.parser import parse_query
from repro.logic.printer import query_to_text

__all__ = [
    "TrafficProfile",
    "default_scenarios",
    "scenario_pool",
    "traffic_stream",
    "SWEEP_TEMPLATE",
    "batch_bursts",
    "register_scenarios",
    "save_traffic_log",
    "load_traffic_log",
    "load_traffic_log_tolerant",
]


@dataclass(frozen=True)
class TrafficProfile:
    """Knobs of a synthetic traffic mix.

    ``hot_keys`` is how many (database, query) pairs form the skewed head of
    the popularity distribution; ``hot_fraction`` is the probability that a
    request draws from that head.  ``exact_fraction`` requests take the
    exponential exact route (keep it small — that is the paper's point);
    half of those ask for ``method="both"`` so soundness is re-checked in
    flight.
    """

    hot_keys: int = 2
    hot_fraction: float = 0.8
    exact_fraction: float = 0.1


def default_scenarios() -> tuple[Scenario, ...]:
    """The scenarios traffic draws on: employee-intro and Jack the Ripper."""
    ripper = Scenario(
        name="jack-the-ripper",
        description="The uniqueness-axiom example: an unidentified murderer",
        database=jack_the_ripper_database(),
        queries=(
            parse_query("(x) . MURDERER(x)"),
            parse_query("(x) . LIVED_IN_LONDON(x)"),
            parse_query("(x) . ~MURDERER(x)"),
            parse_query("exists x. MURDERER(x) & LIVED_IN_LONDON(x)"),
        ),
    )
    return (employee_intro_scenario(), ripper)


def scenario_pool(scenarios: Iterable[Scenario]) -> list[tuple[str, str]]:
    """The (database name, query text) pairs a traffic stream draws from."""
    pool = []
    for scenario in scenarios:
        for query in scenario.queries:
            pool.append((scenario.name, query_to_text(query)))
    if not pool:
        raise ValueError("traffic needs at least one scenario with at least one query")
    return pool


def traffic_stream(
    n_requests: int,
    scenarios: Sequence[Scenario] | None = None,
    profile: TrafficProfile = TrafficProfile(),
    seed: int | None = None,
) -> list[QueryRequest]:
    """A reproducible stream of *n_requests* mixed query requests."""
    rng = random.Random(seed)
    pool = scenario_pool(default_scenarios() if scenarios is None else scenarios)
    hot = pool[: max(1, min(profile.hot_keys, len(pool)))]

    stream: list[QueryRequest] = []
    for __ in range(n_requests):
        database, query_text = rng.choice(hot) if rng.random() < profile.hot_fraction else rng.choice(pool)
        if rng.random() < profile.exact_fraction:
            method = "exact" if rng.random() < 0.5 else "both"
        else:
            method = "approx"
        stream.append(QueryRequest(database, query_text, method))
    return stream


def batch_bursts(requests: Sequence[QueryRequest], burst_size: int) -> list[list[QueryRequest]]:
    """Chop a stream into the bursts a batching client would send together."""
    if burst_size < 1:
        raise ValueError("burst_size must be at least 1")
    return [list(requests[start:start + burst_size]) for start in range(0, len(requests), burst_size)]


def save_traffic_log(requests: Iterable[QueryRequest], path: str | Path) -> Path:
    """Record a request stream as JSONL (one protocol message per line).

    This is the on-disk format of ``repro serve --warm FILE``: replayable,
    versioned (each line carries the protocol envelope) and greppable.
    """
    path = Path(path)
    with path.open("w") as handle:
        for request in requests:
            handle.write(json.dumps(to_wire(request), sort_keys=True) + "\n")
    return path


def load_traffic_log(path: str | Path) -> list[QueryRequest]:
    """Read back a stream written by :func:`save_traffic_log`.

    Blank lines are skipped; anything that is not a valid ``query_request``
    message raises :class:`~repro.errors.ProtocolError` with its line number,
    so a corrupted log fails loudly instead of silently warming nothing.  A
    missing or unreadable file raises the same library error, so the CLI
    reports it cleanly instead of leaking a traceback.
    """
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ProtocolError(f"cannot read traffic log {path}: {error}") from None
    requests = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            message = parse_wire(line)
        except ProtocolError as error:
            raise ProtocolError(f"{path}:{line_number}: {error}") from None
        if not isinstance(message, QueryRequest):
            raise ProtocolError(
                f"{path}:{line_number}: expected a query_request, got {type(message).__name__}"
            )
        requests.append(message)
    return requests


def load_traffic_log_tolerant(
    path: str | Path,
) -> tuple[list[QueryRequest], list[tuple[int, str]]]:
    """Read a traffic log, skipping malformed lines instead of failing.

    The forgiving sibling of :func:`load_traffic_log` for ``serve --warm``:
    one corrupt line must not cost the whole warm-up.  Every skipped line
    comes back as ``(line_number, reason)`` *and* is emitted as a
    structured ``warmup.skipped_entry`` event, so the skip is forensically
    visible instead of silently shrinking the replay.  A missing or
    unreadable file still raises — there is nothing to degrade to.
    """
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ProtocolError(f"cannot read traffic log {path}: {error}") from None
    requests: list[QueryRequest] = []
    skipped: list[tuple[int, str]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            message = parse_wire(line)
        except ProtocolError as error:
            reason = str(error)
        else:
            if isinstance(message, QueryRequest):
                requests.append(message)
                continue
            reason = f"expected a query_request, got {type(message).__name__}"
        skipped.append((line_number, reason))
        events.emit(
            "warmup.skipped_entry",
            level="warning",
            path=str(path),
            line=line_number,
            reason=reason,
        )
    return requests, skipped


#: The parameter-sweep template: a join-heavy query over the employee schema
#: whose only varying part is the anchor employee ``$e`` — exactly the
#: hot-traffic shape the prepared-statement API amortizes (plan once per
#: template, bind per request).
SWEEP_TEMPLATE = (
    "(m, s) . exists d y. EMP_DEPT($e, d) & EMP_DEPT(y, d) & EMP_SAL(y, s) & DEPT_MGR(d, m)"
)


def register_scenarios(service, scenarios: Iterable[Scenario] | None = None) -> tuple[str, ...]:
    """Register every scenario's database on *service*; returns the names."""
    names = []
    for scenario in default_scenarios() if scenarios is None else scenarios:
        service.register(scenario.name, scenario.database)
        names.append(scenario.name)
    return tuple(names)
