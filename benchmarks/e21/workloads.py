"""Seeded request generators for the five E21 workloads.

One database serves every workload and every seed:
``employee_database(300, seed=21)`` — a fixture, like a data set, because
what a negated query costs depends on how many managers came out as nulls,
and a run-to-run spread that is really a database-to-database spread would
hide regressions.  ``--seed`` drives the *requests*.
A workload is a list of :class:`Op` — one logical request each — built from
a handful of query *shapes*.  A shape is a query template with ``$name``
parameters; the same shape renders to an ad-hoc text (constants inlined) or
is prepared once and executed with bindings, so ``adhoc_point`` and
``prepared_point`` send the *same logical request stream*.

**No repeats.**  The default answer / plan / parse caches hold 4096 / 1024 /
512 entries, so a "miss" that repeats a text measures the cache, not the
engine.  Every miss here is drawn *without replacement* from a space at
least four times the number of requests generated (asserted at build time):
a point shape pairs its key constant with a *true ground guard atom*
(``& EMP_SAL('emp17', 'mid')`` leaves the answer unchanged and makes the text
unique), a cluster scatter pairs two constants inside one bare atom.  No
trick relies on variable naming, so a later cache that canonicalizes
variable names cannot turn these misses into hits.

**Stratified mix.**  Shapes are dealt in shuffled blocks with exact per-block
counts rather than tossed per request, so two seeds (and two segments of
one run) see the same mix and differ only in constants.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.logical.database import CWDatabase
from repro.service.protocol import QueryRequest
from repro.workloads.generators import employee_database
from repro.workloads.traffic import SWEEP_TEMPLATE, save_traffic_log

__all__ = [
    "DATABASE",
    "DATABASE_SEED",
    "SMALL_DATABASE",
    "N_EMPLOYEES",
    "PAGE_SIZE",
    "SHAPES",
    "WORKLOADS",
    "Op",
    "Shape",
    "Workload",
    "build_database",
    "build_small_database",
    "build_workload",
    "render",
    "save_requests",
]

#: Registered name of the one benchmark database.
DATABASE = "emp"
#: The seed of the one database (the requests take the run's ``--seed``).
DATABASE_SEED = 21
#: Registered name of the tiny database the exact route can afford.
SMALL_DATABASE = "emp12"
N_EMPLOYEES = 300
#: Rows per page of a streamed (cursor) answer in ``bulk_stream``.
PAGE_SIZE = 256

#: A miss space must be at least this many times the requests drawn from it.
_SPACE_FACTOR = 4

_GUARD = " & EMP_SAL($g, $gb)"
_GUARDS = " & EMP_SAL($g, $gb) & EMP_DEPT($h, $hd)"


@dataclass(frozen=True)
class Shape:
    """One query template and the oracle that can afford to re-evaluate it.

    ``oracle`` is ``"tarski"`` (the direct Tarskian evaluator, the paper's
    semantics) wherever bounded enumeration finishes in milliseconds, and
    ``"naive"`` (the unoptimized compiled plan on the tuple-at-a-time
    executor) for the join-heavy shapes, where Tarskian enumeration of one
    query over 378 constants takes seconds to hours.
    """

    name: str
    template: str
    oracle: str


def _shapes(*shapes: Shape) -> dict[str, Shape]:
    return {shape.name: shape for shape in shapes}


SHAPES: dict[str, Shape] = _shapes(
    # Point shapes (answers of at most ten rows), each with one guard.
    Shape("lookup_dept", "(x) . EMP_DEPT($k, x)" + _GUARD, "tarski"),
    Shape("lookup_sal", "(x) . EMP_SAL($k, x)" + _GUARD, "tarski"),
    Shape("lookup_mgr", "(x) . DEPT_MGR($k, x)" + _GUARD, "tarski"),
    Shape("join_mgr", "(m) . exists d. EMP_DEPT($k, d) & DEPT_MGR(d, m)" + _GUARD, "tarski"),
    Shape("join_peers", "(y) . exists d. EMP_DEPT($k, d) & EMP_DEPT(y, d)" + _GUARD, "naive"),
    Shape("sweep", SWEEP_TEMPLATE.replace("$e", "$k") + _GUARD, "naive"),
    # Bulk shapes (300-1500 rows), written in connected order so the naive
    # plan joins on shared columns; two guards each (more requests per shape).
    Shape("co_occurrence", "(x, y) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z)" + _GUARDS, "naive"),
    Shape(
        "co_salary",
        "(x, y, s) . exists z. EMP_DEPT(x, z) & EMP_DEPT(y, z) & EMP_SAL(y, s)" + _GUARDS,
        "naive",
    ),
    Shape(
        "chain4",
        "(x0, x4) . exists x1 x2 x3. EMP_DEPT(x0, x1) & EMP_DEPT(x2, x1) & EMP_DEPT(x2, x3)"
        " & EMP_DEPT(x4, x3)" + _GUARDS,
        "naive",
    ),
    Shape("equality_link", "(x, y) . (exists z. EMP_DEPT(x, z)) & x = y" + _GUARDS, "naive"),
    Shape("scan_dept", "(x, y) . EMP_DEPT(x, y)" + _GUARDS, "naive"),
    # Negation shapes: the rewrite turns ~DEPT_MGR into the Lemma-10 alpha atom.
    Shape("neg_members", "(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d, $k)" + _GUARD, "tarski"),
    Shape("neg_managers", "(m) . ~DEPT_MGR($k, m)" + _GUARD, "tarski"),
    # Cluster shapes.  A scatter-union needs a *bare* atom over a split
    # relation, so distinct texts come from pairing two constants in it.
    Shape("scatter_dept", "() . EMP_DEPT($a, $b)", "tarski"),
    Shape("conjunction", "() . EMP_DEPT($a, $b) & DEPT_MGR($c, $d)", "tarski"),
    Shape("full_copy", "(x) . exists y. EMP_DEPT($k, y) & DEPT_MGR(y, x)" + _GUARD, "tarski"),
)

_PARAMETER = re.compile(r"\$(\w+)")


def render(template: str, params: Mapping[str, str]) -> str:
    """The ad-hoc text of *template* under *params* (constants inlined, quoted)."""
    return _PARAMETER.sub(lambda match: "'" + params[match.group(1)] + "'", template)


@dataclass(frozen=True)
class Op:
    """One logical request.

    ``kind`` is how it is sent: ``"query"`` (ad-hoc ``/query``),
    ``"execute"`` (prepared ``/execute``) or ``"stream"`` (prepared, through
    a cursor, timed to the last page).  ``text`` is always the ad-hoc text
    of the request, which is what the oracle evaluates and the traffic log
    records.
    """

    kind: str
    shape: str
    params: Mapping[str, str]
    text: str

    def request(self) -> QueryRequest:
        """The ad-hoc protocol message of this request."""
        return QueryRequest(DATABASE, self.text, "approx", "auto")


@dataclass
class Workload:
    """A generated workload: requests, set-up needs and design numbers."""

    name: str
    why: str
    ops: list[Op]
    #: Deals that many further requests of the same mix (see :meth:`extend`).
    more: Callable[[int], list[Op]]
    #: Requests sent once before anything is measured, which defines the warm
    #: state: every hot (repeating) request, so that each later occurrence is
    #: an answer-cache hit, and one execution per prepared template, so that
    #: its plan is compiled.  The one-per-template requests never recur.
    prime: list[Op] = field(default_factory=list)
    #: Shapes prepared during set-up (those sent as ``execute`` / ``stream``).
    prepared: tuple[str, ...] = ()
    shards: int = 1
    #: Designed answer-cache hit share over the measured window, checked
    #: against ``/stats`` after the run: the no-repeat guarantee, observed.
    answer_hit_share: float = 0.0
    #: Designed routing shares (cluster only), checked against ``/stats``.
    routing: Mapping[str, float] = field(default_factory=dict)
    #: Requests per second of ``--seconds`` replayed by the traced run.
    trace_rate: float = 20.0
    #: Whether the gate also runs the approx-within-exact check on the
    #: 12-employee database (the workload then needs it registered).
    both_check: bool = False

    def extend(self) -> None:
        """Double the request list: the machine is faster than the list was sized for."""
        self.ops.extend(self.more(len(self.ops)))


class _Facts:
    """The constants and true facts of one generated database, sorted."""

    def __init__(self, database: CWDatabase) -> None:
        self.emp_dept = sorted(database.facts_for("EMP_DEPT"))
        self.emp_sal = sorted(database.facts_for("EMP_SAL"))
        self.dept_mgr = sorted(database.facts_for("DEPT_MGR"))
        self.employees = sorted({row[0] for row in self.emp_dept})
        self.departments = sorted({row[0] for row in self.dept_mgr})
        self.null_managers = sorted(
            {row[1] for row in self.dept_mgr if row[1] not in set(self.employees)}
        )
        self.known_departments = sorted(
            row[0] for row in self.dept_mgr if row[1] not in set(self.null_managers)
        )


class _Drawer:
    """Draws requests of one workload without ever repeating a text."""

    def __init__(self, rng: random.Random, facts: _Facts) -> None:
        self.rng = rng
        self.facts = facts
        self.seen: set[str] = set()
        self.drawn: dict[str, int] = {}

    def space(self, shape: str) -> int:
        """How many distinct texts :meth:`params` can produce for *shape*."""
        facts = self.facts
        guards = len(facts.emp_sal)
        if shape in ("lookup_dept", "lookup_sal", "join_mgr", "join_peers", "sweep", "full_copy"):
            return len(facts.employees) * guards
        if shape == "lookup_mgr":
            return len(facts.departments) * guards
        if shape == "neg_members":
            return (len(facts.employees) + len(facts.null_managers)) * guards
        if shape == "neg_managers":
            return len(facts.known_departments) * guards
        if shape == "scatter_dept":
            return len(facts.employees) * len(facts.departments)
        if shape == "conjunction":
            return (len(facts.employees) * len(facts.departments)) ** 2
        return guards * len(facts.emp_dept)  # the bulk shapes: two guards

    def params(self, shape: str) -> dict[str, str]:
        rng, facts = self.rng, self.facts
        choice = rng.choice
        params: dict[str, str] = {}
        template = SHAPES[shape].template
        if "$gb" in template:
            params["g"], params["gb"] = choice(facts.emp_sal)
        if "$hd" in template:
            params["h"], params["hd"] = choice(facts.emp_dept)
        if shape == "lookup_mgr":
            params["k"] = choice(facts.departments)
        elif shape == "neg_members":
            params["k"] = choice(facts.employees + facts.null_managers)
        elif shape == "neg_managers":
            params["k"] = choice(facts.known_departments)
        elif shape == "scatter_dept":
            params["a"], params["b"] = choice(facts.employees), choice(facts.departments)
        elif shape == "conjunction":
            # Random pairs, not true facts: each conjunct routes on its own,
            # and the 60 true DEPT_MGR facts would repeat in the worker caches.
            params["a"], params["b"] = choice(facts.employees), choice(facts.departments)
            params["c"], params["d"] = choice(facts.departments), choice(facts.employees)
        elif "$k" in template:
            params["k"] = choice(facts.employees)
        return params

    def draw(self, shape: str, kind: str = "query") -> Op:
        """A request of *shape* whose text this drawer has not produced before."""
        template = SHAPES[shape].template
        while True:
            params = self.params(shape)
            text = render(template, params)
            if text not in self.seen:
                self.seen.add(text)
                self.drawn[shape] = self.drawn.get(shape, 0) + 1
                return Op(kind, shape, params, text)

    def check_spaces(self) -> None:
        """The no-repeat guarantee: every shape's space is >= 4x what was drawn."""
        for shape, count in self.drawn.items():
            space = self.space(shape)
            if space < _SPACE_FACTOR * count:
                raise AssertionError(
                    f"shape {shape!r}: {count} distinct requests drawn from a space of only "
                    f"{space} texts (need >= {_SPACE_FACTOR}x) - generate fewer requests"
                )


def _dealer(drawer: "_Drawer", block: Sequence, make: Callable[[object], Op]) -> Callable[[int], list[Op]]:
    """A function dealing the next *count* requests in shuffled copies of *block*.

    Every block has the exact mix, and every call re-asserts the no-repeat
    guarantee over all that has been drawn so far.
    """
    pending: list[Op] = []

    def deal(count: int) -> list[Op]:
        while len(pending) < count:
            slots = list(block)
            drawer.rng.shuffle(slots)
            pending.extend(make(slot) for slot in slots)
        dealt = pending[:count]
        del pending[:count]
        drawer.check_spaces()
        return dealt

    return deal


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"e21:{name}:{seed}")


def _first_executions(drawer: _Drawer, block: Sequence) -> tuple[tuple[str, ...], list[Op]]:
    """The shapes *block* sends prepared, and one never-repeated execution of each."""
    prepared = tuple(sorted({shape for shape, kind in block if kind != "query"}))
    return prepared, [drawer.draw(shape, "execute") for shape in prepared]


# The point mix: of 100 requests, 30 repeat one of 32 hot requests; of the 70
# misses, 60 % single-atom lookups, 20 % two-atom joins, 20 % the sweep shape.
_POINT_BLOCK = (
    ["hot"] * 30
    + ["lookup_dept"] * 18 + ["lookup_sal"] * 18 + ["lookup_mgr"] * 6
    + ["join_mgr"] * 7 + ["join_peers"] * 7
    + ["sweep"] * 14
)
_POINT_HOT = 32


def _point(generator: Callable, database: CWDatabase, seed: int, n_ops: int, kind: str) -> Workload:
    """``adhoc_point`` or ``prepared_point``: one logical request stream, sent as *kind*."""
    rng = _rng("point", seed)
    drawer = _Drawer(rng, _Facts(database))
    misses = [slot for slot in _POINT_BLOCK if slot != "hot"]
    shapes = tuple(sorted(set(misses)))
    hot = [drawer.draw(rng.choice(misses), kind) for __ in range(_POINT_HOT)]
    # Drawn for both workloads, so that both deal the same stream from here on.
    first = [drawer.draw(shape, kind) for shape in shapes]
    more = _dealer(
        drawer, _POINT_BLOCK, lambda slot: rng.choice(hot) if slot == "hot" else drawer.draw(slot, kind)
    )
    prepared = kind == "execute"
    return Workload(
        generator.__name__, _why(generator), more(n_ops), more, hot + first if prepared else hot,
        shapes if prepared else (), answer_hit_share=0.30, trace_rate=60.0,
    )


def adhoc_point(database: CWDatabase, seed: int, n_ops: int) -> Workload:
    """Ad-hoc point queries: framing, JSON, parser, compiler/optimizer and dispatch do the work; the executor does almost none.

    v2 ad-hoc ``/query``, ``engine=auto``, ``method=approx``, answers of at
    most ten rows.  30 % of requests repeat one of 32 hot texts (answer-cache
    hits); of the rest 60 % are single-atom lookups, 20 % two-atom joins and
    20 % the four-atom ``SWEEP_TEMPLATE`` shape with its constant inlined.
    The weights put p50 inside the lookup mode and p95 inside the
    join-planning mode.  A parser or optimizer gain must show here.
    """
    return _point(adhoc_point, database, seed, n_ops, "query")


def prepared_point(database: CWDatabase, seed: int, n_ops: int) -> Workload:
    """The adhoc_point request stream sent as execute on prepared templates: parse, optimize and dispatch are bypassed.

    Same seed, same bindings, same engine — used differently.  A parser or
    optimizer gain must show on ``adhoc_point`` and predict no change here; a
    bind / substitute or framing gain shows here.  Every miss rebinds the
    cached template plan, so the engine's plan cache reads ~100 % hits.
    """
    return _point(prepared_point, database, seed, n_ops, "execute")


# Of 10 bulk requests 7 go as one /query body and 3 stream through a cursor.
# The weights keep plan execution plus answer encode / decode above 40 % of the
# request mean (the 1500-row shapes carry it; the 300-row ones are there so
# that p50 and p95 fall in different shapes).
_BULK_BLOCK = (
    [("co_occurrence", "query")] + [("co_salary", "query")] * 2 + [("chain4", "query")] * 2
    + [("equality_link", "query")] + [("scan_dept", "query")]
    + [("co_occurrence", "stream")] + [("chain4", "stream")] + [("co_salary", "stream")]
)


def bulk_stream(database: CWDatabase, seed: int, n_ops: int) -> Workload:
    """Join-heavy 300-1500-row answers, all cache-missing: stresses batch execution, answer encoding, client decode and cursors.

    ``co_occurrence``, four-atom chains, ``equality_link`` and full binary
    scans; 70 % as a single ``/query`` body, 30 % as a prepared ``stream()``
    through a v2 cursor at ``page_size=256``, timed to the last page.  Parse
    and plan are noise here.  Guards ROADMAP items 2 and 5.
    """
    rng = _rng("bulk_stream", seed)
    drawer = _Drawer(rng, _Facts(database))
    prepared, prime = _first_executions(drawer, _BULK_BLOCK)
    more = _dealer(drawer, _BULK_BLOCK, lambda slot: drawer.draw(*slot))
    return Workload("bulk_stream", _why(bulk_stream), more(n_ops), more, prime, prepared, trace_rate=20.0)


_NEGATION_BLOCK = ["neg_members"] * 4 + ["neg_managers"]


def negation_approx(database: CWDatabase, seed: int, n_ops: int) -> Workload:
    """Negated stored atoms over null managers: nearly all time is AlphaAtom.holds inside compile_query, a layer no other workload touches.

    The paper's own case: ``(x) . exists d. EMP_DEPT(x, d) & ~DEPT_MGR(d,
    'empK')`` and the ``~DEPT_MGR('deptJ', m)`` orientation (only over
    departments with a known manager, which keeps one cost mode), every
    text distinct.  The rewrite replaces each negated atom by the Lemma-10
    ``alpha_P`` atom and the compiler evaluates it over the whole active
    domain (378 constants x 60 stored tuples, union-find ``disagree``).
    """
    rng = _rng("negation_approx", seed)
    drawer = _Drawer(rng, _Facts(database))
    more = _dealer(drawer, _NEGATION_BLOCK, drawer.draw)
    return Workload("negation_approx", _why(negation_approx), more(n_ops), more, trace_rate=3.0, both_check=True)


# Of 20 cluster requests: 14 ad-hoc scatter-unions, 2 ground conjunctions,
# 2 full-copy fallbacks, 2 prepared scatter-unions.
_CLUSTER_BLOCK = (
    [("scatter_dept", "query")] * 14
    + [("conjunction", "query")] * 2 + [("full_copy", "query")] * 2
    + [("scatter_dept", "execute")] * 2
)


def cluster_scatter(database: CWDatabase, seed: int, n_ops: int) -> Workload:
    """A 2-shard cluster behind a router: decompose, fan out, merge and a second HTTP leg, which single-process workloads cannot show.

    ``serve --shards 2`` (router + 2 workers).  80 % scatter-unions (one in
    eight of them prepared), 10 % ground conjunctions, 10 % full-copy
    fallbacks, all with distinct constants.  Shaped like
    ``repro.workloads.traffic.cluster_traffic_stream``, which cannot be used
    as is: it draws its scatter keys from 600 texts, far fewer than a run
    sends, so the workers' answer caches would absorb it.  A scatter waits
    for the slower of two workers.
    """
    rng = _rng("cluster_scatter", seed)
    drawer = _Drawer(rng, _Facts(database))
    prepared, prime = _first_executions(drawer, _CLUSTER_BLOCK)
    more = _dealer(drawer, _CLUSTER_BLOCK, lambda slot: drawer.draw(*slot))
    return Workload(
        "cluster_scatter", _why(cluster_scatter), more(n_ops), more, prime, prepared, shards=2,
        routing={"scatter": 0.8, "conjunction": 0.1, "full_copy": 0.1, "single_shard": 0.0},
        trace_rate=30.0,
    )


def _why(generator: Callable) -> str:
    """The one-line reason a workload exists: the first line of its docstring."""
    return (generator.__doc__ or "").strip().splitlines()[0].strip()


#: name -> (generator, requests generated per second of run).  The rate is
#: about twice what one closed-loop client completes on the machine the
#: benchmark was written on; a run that uses its list up extends it
#: (:meth:`Workload.extend`).
WORKLOADS: dict[str, tuple[Callable[[CWDatabase, int, int], Workload], int]] = {
    "adhoc_point": (adhoc_point, 1200),
    "prepared_point": (prepared_point, 2200),
    "bulk_stream": (bulk_stream, 150),
    "negation_approx": (negation_approx, 20),
    "cluster_scatter": (cluster_scatter, 450),
}


def build_database() -> CWDatabase:
    """The one benchmark database (378 constants, 131 k stored ``NE`` rows)."""
    return employee_database(N_EMPLOYEES, seed=DATABASE_SEED)


def build_small_database() -> CWDatabase:
    """The 12-employee database on which the exponential exact route is affordable."""
    return employee_database(12, seed=DATABASE_SEED)


def build_workload(name: str, database: CWDatabase, seed: int, seconds: float) -> Workload:
    """Generate workload *name* for a run that measures *seconds* seconds."""
    generator, rate = WORKLOADS[name]
    return generator(database, seed, int(rate * (seconds + 2.0)) + 200)


def save_requests(workload: Workload, path) -> None:
    """Write the request list in the ``save_traffic_log`` JSONL format.

    Prepared requests are logged as the equivalent ad-hoc message, so
    ``repro serve --warm FILE`` and later issues can replay the exact inputs.
    """
    save_traffic_log((op.request() for op in workload.ops), path)
