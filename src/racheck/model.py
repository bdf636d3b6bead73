"""Core domain types for execution-graph consistency testing.

An observed execution of a multi-threaded program is modelled as a
*partial execution graph*: per-thread sequences of read/write events with
program order (po) implied by listing order.  Consistency testing asks
whether a reads-from relation (rf) and per-location modification orders
(mo) exist that satisfy the axioms of a given memory model.

Everything here is immutable after construction and safe to share across
threads; all operations are pure functions of their inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple

READ = "r"
WRITE = "w"

# Edge labels used in violation certificates.
PO_EDGE = "po"
RF_EDGE = "rf"
RF_INV_EDGE = "rf^-1"
MO_EDGE = "mo"
HB_EDGE = "hb"
OB_EDGE = "ob"

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_IDENT_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")


class ModelError(Exception):
    """Base class for malformed inputs to the core model."""


class DuplicateThreadId(ModelError):
    pass


class UnknownEvent(ModelError):
    pass


class IncomparableWrites(ModelError):
    """Two writes assigned to one read live in different threads, so the
    program-order comparison underlying the rf ordering is undefined."""


class EventId(NamedTuple):
    """Stable address of an event: (thread id, 0-based position in thread)."""

    thread: str
    index: int

    def __str__(self) -> str:
        return f"{self.thread}:{self.index}"


class Event(NamedTuple):
    id: EventId
    op: str  # READ or WRITE
    var: str
    val: int

    @property
    def is_read(self) -> bool:
        return self.op == READ

    @property
    def is_write(self) -> bool:
        return self.op == WRITE

    def __str__(self) -> str:
        return f"{self.id} {self.op}({self.var},{self.val})"


def _check_identifier(kind: str, name: str, valid: set[str]) -> str | None:
    """The identifier check: the error message for an invalid thread id or
    location name, None for a valid one.  `valid` holds the names one build
    has passed so far, so each distinct name is matched once per build;
    the parser tests `name in valid` itself before calling."""
    if isinstance(name, str):
        if name in valid:
            return None
        if _IDENT_RE.match(name):
            valid.add(name)
            return None
    return f"{kind} {name!r} is not a valid identifier"


def _check_value(val: int) -> None:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ModelError(f"value {val!r} is not an integer")
    if not INT64_MIN <= val <= INT64_MAX:
        raise ModelError(f"value {val} outside 64-bit signed range")


class PartialExecutionGraph:
    """Per-thread event sequences; po is derived from listing order.

    po(e1, e2) holds iff both events share a thread and e1 appears first.
    It is never materialized: queries compare indices.  The graph builds
    its `numbering` when it is constructed and reads its sorted-id views
    (`reads`, `writes_by_var`, event lookup) off it.
    """

    def __init__(self, threads: list[tuple[str, list[Event]]]):
        self.thread_ids: list[str] = [tid for tid, _ in threads]
        self.events_of: dict[str, list[Event]] = {tid: evs for tid, evs in threads}
        self.numbering = num = Numbering(self)
        events = num.events
        self.num_events: int = len(events)
        # Writes per location in (thread, index) order; reads in scan order.
        self.writes_by_var: dict[str, list[Event]] = {
            var: [events[w] for w in writes] for var, writes in num.var_writes.items()
        }
        self.reads: list[Event] = [events[r] for r in num.reads]

    def events(self) -> Iterable[Event]:
        for tid in self.thread_ids:
            yield from self.events_of[tid]

    def event(self, eid: EventId) -> Event:
        try:
            return self.numbering.events[self.numbering.index[eid]]
        except KeyError:
            raise UnknownEvent(f"no event {eid}") from None

    def has_event(self, eid: EventId) -> bool:
        return eid in self.numbering.index

    def po(self, a: EventId, b: EventId) -> bool:
        """Strict program order: same thread and a before b."""
        return a.thread == b.thread and a.index < b.index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialExecutionGraph):
            return NotImplemented
        return self.thread_ids == other.thread_ids and self.events_of == other.events_of

    def __repr__(self) -> str:
        return f"PartialExecutionGraph({self.num_events} events, {len(self.thread_ids)} threads)"


RF_TOTALITY = "rf-totality"  # the verdict label of `Numbering.unmatched_read`'s rule


class Numbering:
    """The integer numbering of a graph's events that the engines share.

    Events are numbered in sorted EventId order, so threads come in sorted
    thread-id order and each thread is one contiguous ascending span of
    numbers: `spans[t]` is thread t's (start, end), and event i's
    po-successor is i + 1 while i + 1 < end.  This is the one statement of
    that order.  `reads` lists the read numbers ascending, `var_writes`
    each location's writes ascending, and `write_mask` has their bits set.
    Built with the graph, in one pass over its events; only `ids`
    (`ids[i]` is `events[i].id`), `index` (its inverse, EventId ->
    number), `matches` and `max_writers` are built on first use,
    `matches[(var, val)]` being the writes, ascending, that a read of
    `var` with value `val` may take, and `max_writers` the largest number
    of threads that write one location (the 1-, 2- or 3-writer class).
    `unmatched_read` states rf-totality on it.  Shared by every engine, so
    never mutated.
    """

    def __init__(self, g: PartialExecutionGraph):
        self.events: list[Event] = []
        self.thread_of: list[int] = []
        self.spans: list[tuple[int, int]] = []
        self.reads: list[int] = []
        self.var_writes: dict[str, list[int]] = {}
        reads, var_writes = self.reads, self.var_writes
        for t, tid in enumerate(sorted(g.thread_ids)):
            evs, start = g.events_of[tid], len(self.events)
            for i, ev in enumerate(evs, start):
                if ev.op == WRITE:
                    var_writes.setdefault(ev.var, []).append(i)
                else:
                    reads.append(i)
            self.events += evs
            self.thread_of += [t] * len(evs)
            self.spans.append((start, len(self.events)))
        self.write_mask: dict[str, int] = {
            var: sum(1 << w for w in writes) for var, writes in self.var_writes.items()
        }

    @cached_property
    def ids(self) -> list[EventId]:
        return [ev.id for ev in self.events]

    @cached_property
    def index(self) -> dict[EventId, int]:
        return dict(zip(self.ids, range(len(self.events))))

    @cached_property
    def matches(self) -> dict[tuple[str, int], list[int]]:
        out: dict[tuple[str, int], list[int]] = {}
        for var, writes in self.var_writes.items():
            for w in writes:
                out.setdefault((var, self.events[w].val), []).append(w)
        return out

    @cached_property
    def max_writers(self) -> int:
        thread_of = self.thread_of
        return max((len({thread_of[w] for w in ws}) for ws in self.var_writes.values()), default=0)

    def unmatched_read(self) -> EventId | None:
        """The rf-totality rule, for both engines: the first read in id
        order that no write matches in location and value, or None."""
        matches, events = self.matches, self.events
        return next((events[r].id for r in self.reads if events[r][2:] not in matches), None)


def number_rf(g: PartialExecutionGraph, rf: ReadsFrom) -> list[int]:
    """rf on the graph's numbering: `src[i]` is the number of the write
    that read i takes, -1 for a write and for a read that rf leaves out.
    Raises InvalidRf unless each target is a read of the graph and each
    source a write of its read's location and value."""
    num = g.numbering
    index, ids, events, writer = num.index, num.ids, num.events, rf.mapping.get
    src = [-1] * len(ids)
    numbered = 0
    for r in num.reads:
        if (wid := writer(ids[r])) is None:
            continue
        numbered += 1
        w = src[r] = index.get(wid, -1)
        if w < 0:
            raise InvalidRf(f"rf source {wid} does not exist")
        if events[w].op != WRITE:
            raise InvalidRf(f"rf source {wid} is not a write")
        if events[w][2:] != events[r][2:]:  # (var, val)
            raise InvalidRf(f"rf edge {wid} -> {ids[r]} mismatches on location or value")
    if numbered < len(rf.mapping):  # some target is not a read
        for rid in rf.mapping:
            if (r := index.get(rid, -1)) < 0:
                raise InvalidRf(f"rf target {rid} does not exist")
            if events[r].op != READ:
                raise InvalidRf(f"rf target {rid} is not a read")
    return src


def reads_from(g: PartialExecutionGraph, src: list[int]) -> ReadsFrom:
    """The ReadsFrom of an rf in `number_rf`'s form."""
    num = g.numbering
    ids = num.ids
    return ReadsFrom({ids[r]: ids[src[r]] for r in num.reads if src[r] >= 0})


def number_mo(
    g: PartialExecutionGraph, mo: ModificationOrder
) -> tuple[dict[str, list[int]], list[int]]:
    """mo on the graph's numbering, validated: each location's writes in
    mo order, and `rank[w]`, write w's place in its order (-1: none)."""
    num = g.numbering
    index, rank = num.index, [-1] * len(num.events)
    orders = {var: [index.get(wid, -1) for wid in order] for var, order in mo.per_var.items()}
    for var, order in orders.items():
        if sorted(order) != num.var_writes.get(var, []):  # -1: no such event
            raise ModelError(f"mo for {var!r} is not a permutation of that location's writes")
        for i, w in enumerate(order):
            rank[w] = i
    return orders, rank


def build_graph(threads: list[tuple[str, list[tuple[str, str, int]]]]) -> PartialExecutionGraph:
    """Build a validated graph from (thread id, [(op, var, val), ...]) pairs.

    EventIds are assigned by position.  An empty thread list yields the
    empty graph; duplicate thread ids are rejected.
    """
    seen: set[str] = set()
    valid: set[str] = set()
    built: list[tuple[str, list[Event]]] = []
    for tid, ops in threads:
        if error := _check_identifier("thread id", tid, valid):
            raise ModelError(error)
        if tid in seen:
            raise DuplicateThreadId(f"thread id {tid!r} appears twice")
        seen.add(tid)
        evs: list[Event] = []
        for idx, (op, var, val) in enumerate(ops):
            if op not in (READ, WRITE):
                raise ModelError(f"op {op!r} is not {READ!r} or {WRITE!r}")
            if error := _check_identifier("location", var, valid):
                raise ModelError(error)
            _check_value(val)
            evs.append(Event(EventId(tid, idx), op, var, val))
        built.append((tid, evs))
    return PartialExecutionGraph(built)


def writer_profile(g: PartialExecutionGraph) -> dict[str, set[str]]:
    """For each location, the set of thread ids containing a write to it.

    Callers classify a graph as 1-/2-/3-Writer by the maximum set size.
    """
    profile: dict[str, set[str]] = {}
    for var, writes in g.writes_by_var.items():
        profile[var] = {w.id.thread for w in writes}
    return profile


def max_writers(g: PartialExecutionGraph) -> int:
    """The largest number of threads that write one location."""
    return g.numbering.max_writers


@dataclass(frozen=True)
class ReadsFrom:
    """Total map from every read event to a same-variable, same-value write."""

    mapping: dict[EventId, EventId] = field(default_factory=dict)

    def items(self):
        return sorted(self.mapping.items())

    def validate(self, g: PartialExecutionGraph) -> None:
        """Raise InvalidRf unless this relation satisfies its type invariants."""
        self._check_domain(g)
        number_rf(g, self)

    def _check_domain(self, g: PartialExecutionGraph) -> None:
        """Raise InvalidRf unless this relation maps exactly the reads."""
        given, expected = set(self.mapping), {r.id for r in g.reads}
        if given != expected:
            missing, extra = sorted(expected - given), sorted(given - expected)
            raise InvalidRf(f"rf domain mismatch: missing={missing} extra={extra}")

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.mapping.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{r}<-{w}" for r, w in self.items())
        return f"ReadsFrom({inner})"


class InvalidRf(ModelError):
    pass


@dataclass(frozen=True)
class ModificationOrder:
    """Per-location total order over that location's write events."""

    per_var: dict[str, list[EventId]] = field(default_factory=dict)

    def validate(self, g: PartialExecutionGraph) -> None:
        number_mo(g, self)

    def covers(self, g: PartialExecutionGraph) -> bool:
        return all(var in self.per_var for var in g.writes_by_var)

    def __repr__(self) -> str:
        inner = "; ".join(
            f"{var}: " + " ".join(map(str, order)) for var, order in sorted(self.per_var.items())
        )
        return f"ModificationOrder({inner})"


class MemoryModel(str, Enum):
    SRA = "sra"
    RA = "ra"
    WRA = "wra"
    RELAXED = "rlx"
    RELAXED_ACYCLIC = "rlx-acyclic"
    CC = "cc"
    CM = "cm"
    CCV = "ccv"

    @property
    def canonical(self) -> "MemoryModel":
        """Resolve model aliases: CC behaves as WRA, CCv as SRA."""
        if self is MemoryModel.CC:
            return MemoryModel.WRA
        if self is MemoryModel.CCV:
            return MemoryModel.SRA
        return self


@dataclass(frozen=True)
class Verdict:
    """Outcome of a consistency question.

    Consistent verdicts carry witnesses; inconsistent ones carry the failed
    axiom plus a certificate: (event, edge label) steps that, replayed in
    order, trace the violating cycle or path.  A None certificate marks an
    exhausted search with no single witnessing cycle.
    """

    axiom: str | None = None
    rf: ReadsFrom | None = None
    mo: ModificationOrder | None = None
    certificate: list[tuple[EventId, str]] | None = None

    @classmethod
    def consistent(cls, rf: ReadsFrom, mo: ModificationOrder | None = None) -> "Verdict":
        return cls(axiom=None, rf=rf, mo=mo)

    @classmethod
    def inconsistent(
        cls, axiom: str, certificate: list[tuple[EventId, str]] | None
    ) -> "Verdict":
        return cls(axiom=str(axiom), certificate=certificate)

    @property
    def is_consistent(self) -> bool:
        return self.axiom is None

    def __repr__(self) -> str:
        if self.is_consistent:
            return "Verdict(consistent)"
        return f"Verdict(inconsistent: {self.axiom})"


def rf_leq(rf1: ReadsFrom, rf2: ReadsFrom, g: PartialExecutionGraph) -> bool:
    """The pointwise program-order comparison on reads-from relations.

    True iff for every read, rf2's write is po-at-or-after rf1's write.
    Intended for 1-writer graphs, where all writes to a location share a
    thread; raises IncomparableWrites otherwise.
    """
    for rid in rf1.mapping:
        w1 = rf1.mapping[rid]
        w2 = rf2.mapping[rid]
        if w1.thread != w2.thread:
            raise IncomparableWrites(
                f"writes {w1} and {w2} for read {rid} are in different threads"
            )
        if w1.index > w2.index:
            return False
    return True


def rf_min(rf1: ReadsFrom, rf2: ReadsFrom, g: PartialExecutionGraph) -> ReadsFrom:
    """Pointwise po-minimum of two reads-from relations."""
    merged: dict[EventId, EventId] = {}
    for rid in rf1.mapping:
        w1 = rf1.mapping[rid]
        w2 = rf2.mapping[rid]
        if w1.thread != w2.thread:
            raise IncomparableWrites(
                f"writes {w1} and {w2} for read {rid} are in different threads"
            )
        merged[rid] = w1 if w1.index <= w2.index else w2
    return ReadsFrom(merged)


def normalize_cycle(cycle: list[tuple[EventId, str]]) -> list[tuple[EventId, str]]:
    """Rotate a certificate cycle so the smallest event id comes first."""
    if not cycle:
        return cycle
    start = min(range(len(cycle)), key=lambda i: cycle[i][0])
    return cycle[start:] + cycle[:start]
