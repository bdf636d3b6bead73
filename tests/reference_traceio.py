"""The two-pass trace parser that `racheck.traceio.parse_trace` replaces.

`parse_trace` scans the lines into (op, var, val) tuples, then builds the
graph with `build_graph`, which matches every thread id and location
name against the identifier pattern at each occurrence and re-checks
each value's type and range.  It resolves every rf/mo event id with
`has_event` and `event` after that.  `serialize_trace` formats each
event id with `EventId.__str__`.  The library's parser builds the
events in its line scan and checks each distinct name once.  The
differential tests hold it, and the library's `build_graph`, to the same
documents, numberings and `build_graph` errors as these, and a rejected
trace to this parser's reason on the shortest prefix of its lines that
this parser rejects, at that prefix's last line: the first error in line
order.
"""

from __future__ import annotations

from racheck.model import (
    INT64_MAX,
    INT64_MIN,
    READ,
    WRITE,
    DuplicateThreadId,
    Event,
    EventId,
    ModelError,
    ModificationOrder,
    PartialExecutionGraph,
    ReadsFrom,
    _IDENT_RE,
)
from racheck.traceio import ParseError, TraceDocument, _parse_int, _strip


def _parse_event_id(token: str, lineno: int) -> EventId:
    thread, sep, idx = token.rpartition(":")
    if not sep or not thread:
        raise ParseError(lineno, f"malformed event id {token!r}")
    return EventId(thread, _parse_int(idx, lineno))


def _check_identifier(kind: str, name: str) -> None:
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise ModelError(f"{kind} {name!r} is not a valid identifier")


def _check_value(val: int) -> None:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ModelError(f"value {val!r} is not an integer")
    if not INT64_MIN <= val <= INT64_MAX:
        raise ModelError(f"value {val} outside 64-bit signed range")


def build_graph(threads: list[tuple[str, list[tuple[str, str, int]]]]) -> PartialExecutionGraph:
    """Build a validated graph, matching every name at each occurrence."""
    seen: set[str] = set()
    built: list[tuple[str, list[Event]]] = []
    for tid, ops in threads:
        _check_identifier("thread id", tid)
        if tid in seen:
            raise DuplicateThreadId(f"thread id {tid!r} appears twice")
        seen.add(tid)
        evs: list[Event] = []
        for idx, (op, var, val) in enumerate(ops):
            if op not in (READ, WRITE):
                raise ModelError(f"op {op!r} is not {READ!r} or {WRITE!r}")
            _check_identifier("location", var)
            _check_value(val)
            evs.append(Event(EventId(tid, idx), op, var, val))
        built.append((tid, evs))
    return PartialExecutionGraph(built)


def parse_trace(text: str) -> TraceDocument:
    threads: list[tuple[str, list[tuple[str, str, int]]]] = []
    seen_threads: set[str] = set()
    rf_lines: list[tuple[int, EventId, EventId]] = []
    mo_lines: list[tuple[int, str, list[EventId]]] = []
    current: list[tuple[str, str, int]] | None = None
    annotations_started = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "thread":
            if annotations_started:
                raise ParseError(lineno, "thread block after rf/mo annotations")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: thread <tid>")
            tid = tokens[1]
            if tid in seen_threads:
                raise ParseError(lineno, f"duplicate thread id {tid!r}")
            seen_threads.add(tid)
            current = []
            threads.append((tid, current))
        elif keyword in (READ, WRITE):
            if annotations_started:
                raise ParseError(lineno, "event after rf/mo annotations")
            if current is None:
                raise ParseError(lineno, "event outside a thread block")
            if len(tokens) != 3:
                raise ParseError(lineno, f"expected: {keyword} <var> <int>")
            current.append((keyword, tokens[1], _parse_int(tokens[2], lineno)))
        elif keyword == "rf":
            if len(tokens) != 3:
                raise ParseError(lineno, "expected: rf <writer> <reader>")
            annotations_started = True
            rf_lines.append(
                (lineno, _parse_event_id(tokens[1], lineno), _parse_event_id(tokens[2], lineno))
            )
        elif keyword == "mo":
            if len(tokens) < 3:
                raise ParseError(lineno, "expected: mo <var> <write>+")
            annotations_started = True
            mo_lines.append(
                (lineno, tokens[1], [_parse_event_id(t, lineno) for t in tokens[2:]])
            )
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")

    try:
        graph = build_graph(threads)
    except Exception as exc:  # identifier/value validation
        raise ParseError(0, str(exc)) from None

    rf = None
    if rf_lines:
        mapping: dict[EventId, EventId] = {}
        for lineno, wid, rid in rf_lines:
            for eid in (wid, rid):
                if not graph.has_event(eid):
                    raise ParseError(lineno, f"unknown event {eid}")
            w, r = graph.event(wid), graph.event(rid)
            if not w.is_write:
                raise ParseError(lineno, f"rf source {wid} is not a write")
            if not r.is_read:
                raise ParseError(lineno, f"rf target {rid} is not a read")
            if w.var != r.var or w.val != r.val:
                raise ParseError(lineno, f"rf edge {wid} -> {rid} mismatches location or value")
            if rid in mapping:
                raise ParseError(lineno, f"read {rid} has two writers")
            mapping[rid] = wid
        rf = ReadsFrom(mapping)

    mo = None
    if mo_lines:
        per_var: dict[str, list[EventId]] = {}
        for lineno, var, order in mo_lines:
            if var in per_var:
                raise ParseError(lineno, f"duplicate mo line for {var!r}")
            writes = {w.id for w in graph.writes_by_var.get(var, [])}
            for eid in order:
                if not graph.has_event(eid):
                    raise ParseError(lineno, f"unknown event {eid}")
                if eid not in writes:
                    raise ParseError(lineno, f"{eid} is not a write to {var!r}")
            if len(set(order)) != len(order):
                raise ParseError(lineno, f"mo for {var!r} lists a write twice")
            if set(order) != writes:
                raise ParseError(lineno, f"mo for {var!r} omits a write")
            per_var[var] = order
        mo = ModificationOrder(per_var)

    return TraceDocument(graph, rf, mo)


def serialize_trace(doc: TraceDocument) -> str:
    lines: list[str] = []
    g = doc.graph
    for tid in g.thread_ids:
        lines.append(f"thread {tid}")
        for ev in g.events_of[tid]:
            lines.append(f"{ev.op} {ev.var} {ev.val}")
    if doc.rf is not None:
        for rid, wid in sorted(doc.rf.mapping.items()):
            lines.append(f"rf {wid} {rid}")
    if doc.mo is not None:
        for var in sorted(doc.mo.per_var):
            order = " ".join(str(w) for w in doc.mo.per_var[var])
            lines.append(f"mo {var} {order}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
