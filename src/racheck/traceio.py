"""Bit-exact text formats: execution traces, DIMACS CNF, edge lists.

The trace grammar is line oriented.  '#' starts a comment, blank lines
are skipped::

    thread <tid>                         opens a thread block
    w <var> <int>                        write appended to current thread
    r <var> <int>                        read appended to current thread
    rf <tid>:<idx> <tid>:<idx>           writer -> reader annotation
    mo <var> <tid>:<idx> [<tid>:<idx>]*  full write order for one location

rf/mo lines must follow all thread blocks.  Serialization is canonical:
threads in first-appearance order, rf lines sorted by reader, mo lines
sorted by location; parse and serialize are mutually inverse.

rf and mo are numbered once, in the scan: each rf/mo event id resolves
straight to its event number on the graph's numbering, and the checks
of each line run on those numbers.  `_parse` keeps them, in the forms of
`number_rf` and `number_mo`, so `racheck verify` hands its witnesses to
the axiom checks without validating or numbering them again.

Every parser here raises the first error in line order, from the one
scan that reads the line: a ParseError (line, reason), or NotThreeCnf or
SelfLoop.  Within a trace line, its syntax is checked first (the token
count, the value, every event id), then its thread id or location name,
then its rf/mo resolution: an unknown event, an rf edge that is not
write -> read of one location and value, a read with two writers, a
second mo line for a location, an mo line that is not a permutation of
its location's writes.  Errors found only at the end of the input
(a missing header, an unterminated clause, a wrong clause count, an
empty edge list) come last.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    INT64_MAX,
    INT64_MIN,
    READ,
    WRITE,
    Event,
    EventId,
    ModificationOrder,
    PartialExecutionGraph,
    ReadsFrom,
    _check_identifier,
)
from .reductions import CnfFormula, Literal, NotThreeCnf, SelfLoop, UndirectedGraph


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


@dataclass
class TraceDocument:
    graph: PartialExecutionGraph
    rf: ReadsFrom | None = None
    mo: ModificationOrder | None = None


# Event and EventId are NamedTuples; tuple.__new__ builds them without
# their Python-level constructors, which the scan would call per event.
_tuple = tuple.__new__


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _parse_int(token: str, lineno: int) -> int:
    try:
        val = int(token, 10)
    except ValueError:
        raise ParseError(lineno, f"malformed integer {token!r}") from None
    if not INT64_MIN <= val <= INT64_MAX:
        raise ParseError(lineno, f"value {val} outside 64-bit signed range")
    return val


def _parse_event_id(token: str, lineno: int) -> EventId:
    thread, sep, idx = token.rpartition(":")
    if not sep or not thread:
        raise ParseError(lineno, f"malformed event id {token!r}")
    return _tuple(EventId, (thread, _parse_int(idx, lineno)))


def _resolve(token: str, lineno: int, table: dict[str, int]) -> int:
    """The event number of an rf/mo event-id token that is not canonical
    (`t1:01` and `t1:+1` name `t1:1`), -1 for an unknown event; a malformed
    token raises."""
    thread, index = _parse_event_id(token, lineno)
    return table.get(f"{thread}:{index}", -1)


def parse_trace(text: str) -> TraceDocument:
    """Parse a trace in one scan of its lines, which builds the events.

    The first rf or mo line builds the graph; each rf/mo line is resolved
    to event numbers, and checked, as it is read.  Each distinct name and
    value token is checked once.
    """
    return _parse(text)[0]


def _parse(text: str) -> tuple[TraceDocument, list[int], tuple[dict[str, list[int]], list[int]]]:
    """`parse_trace`'s document with its rf and mo as the scan numbered
    them: `src` in `number_rf`'s form and (orders, rank) in `number_mo`'s.
    Without rf lines src is all -1, and without mo lines orders is empty.

    The first rf or mo line maps each event's canonical token
    `<tid>:<idx>` to its number; a token outside that table goes through
    `_resolve`.  So an event id is parsed only when it is not canonical.
    """
    threads: list[tuple[str, list[Event]]] = []
    seen_threads: set[str] = set()
    valid: set[str] = set()  # names that passed the identifier check
    values: dict[str, int] = {}  # each distinct value token, parsed
    current: list[Event] | None = None
    graph: PartialExecutionGraph | None = None  # built at the first rf or mo line
    mapping: dict[EventId, EventId] = {}
    orders: dict[str, list[int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == READ or keyword == WRITE:
            if graph is not None:
                raise ParseError(lineno, "event after rf/mo annotations")
            if current is None:
                raise ParseError(lineno, "event outside a thread block")
            if len(tokens) != 3:
                raise ParseError(lineno, f"expected: {keyword} <var> <int>")
            val = values.get(tokens[2])
            if val is None:
                val = values[tokens[2]] = _parse_int(tokens[2], lineno)
            var = tokens[1]
            if var not in valid and (error := _check_identifier("location", var, valid)):
                raise ParseError(lineno, error)
            eid = _tuple(EventId, (tid, len(current)))
            current.append(_tuple(Event, (eid, keyword, var, val)))
        elif keyword == "thread":
            if graph is not None:
                raise ParseError(lineno, "thread block after rf/mo annotations")
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: thread <tid>")
            tid = tokens[1]
            if tid in seen_threads:
                raise ParseError(lineno, f"duplicate thread id {tid!r}")
            seen_threads.add(tid)
            if error := _check_identifier("thread id", tid, valid):
                raise ParseError(lineno, error)
            current = []
            threads.append((tid, current))
        elif keyword == "rf" or keyword == "mo":
            if graph is None:
                graph = PartialExecutionGraph(threads)
                num = graph.numbering
                events, ids, write_mask = num.events, num.ids, num.write_mask
                table = {f"{thread}:{index}": i for i, (thread, index) in enumerate(ids)}
                number = table.get
                src = [-1] * len(ids)
            if keyword == "rf":
                if len(tokens) != 3:
                    raise ParseError(lineno, "expected: rf <writer> <reader>")
                _, wtoken, rtoken = tokens
                w = number(wtoken)
                if w is None:
                    w = _resolve(wtoken, lineno, table)
                r = number(rtoken)
                if r is None:
                    r = _resolve(rtoken, lineno, table)
                if w < 0:
                    raise ParseError(lineno, f"unknown event {_parse_event_id(wtoken, lineno)}")
                if r < 0:
                    raise ParseError(lineno, f"unknown event {_parse_event_id(rtoken, lineno)}")
                wid, wop, wvar, wval = events[w]
                rid, rop, rvar, rval = events[r]
                if wop != WRITE:
                    raise ParseError(lineno, f"rf source {wid} is not a write")
                if rop != READ:
                    raise ParseError(lineno, f"rf target {rid} is not a read")
                if wvar != rvar or wval != rval:
                    raise ParseError(lineno, f"rf edge {wid} -> {rid} mismatches location or value")
                if src[r] >= 0:
                    raise ParseError(lineno, f"read {rid} has two writers")
                src[r] = w
                mapping[rid] = wid
            else:
                if len(tokens) < 3:
                    raise ParseError(lineno, "expected: mo <var> <write>+")
                var, tokens = tokens[1], tokens[2:]
                order = [number(token) for token in tokens]
                if None in order:
                    order = [
                        _resolve(token, lineno, table) if w is None else w
                        for token, w in zip(tokens, order)
                    ]
                if var in orders:
                    raise ParseError(lineno, f"duplicate mo line for {var!r}")
                writes, placed = write_mask.get(var, 0), 0
                for token, w in zip(tokens, order):
                    if w < 0:
                        raise ParseError(lineno, f"unknown event {_parse_event_id(token, lineno)}")
                    bit = 1 << w
                    if not writes & bit:
                        raise ParseError(lineno, f"{ids[w]} is not a write to {var!r}")
                    placed |= bit
                if placed.bit_count() != len(order):
                    raise ParseError(lineno, f"mo for {var!r} lists a write twice")
                if placed != writes:
                    raise ParseError(lineno, f"mo for {var!r} omits a write")
                orders[var] = order
        else:
            raise ParseError(lineno, f"unknown directive {keyword!r}")

    if graph is None:
        graph = PartialExecutionGraph(threads)
        src = [-1] * graph.num_events
    rank = [-1] * graph.num_events
    for order in orders.values():
        for i, w in enumerate(order):
            rank[w] = i
    # each rf or mo line adds an entry, so an empty map means no such line
    rf = ReadsFrom(mapping) if mapping else None
    mo = {var: [ids[w] for w in order] for var, order in orders.items()}
    return TraceDocument(graph, rf, ModificationOrder(mo) if mo else None), src, (orders, rank)


def serialize_trace(doc: TraceDocument) -> str:
    lines: list[str] = []
    g = doc.graph
    for tid in g.thread_ids:
        lines.append(f"thread {tid}")
        for ev in g.events_of[tid]:
            lines.append(f"{ev.op} {ev.var} {ev.val}")
    if doc.rf is not None:
        lines += [
            f"rf {wthread}:{windex} {rthread}:{rindex}"
            for (rthread, rindex), (wthread, windex) in sorted(doc.rf.mapping.items())
        ]
    if doc.mo is not None:
        for var in sorted(doc.mo.per_var):
            order = " ".join([f"{thread}:{index}" for thread, index in doc.mo.per_var[var]])
            lines.append(f"mo {var} {order}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> CnfFormula:
    """Standard DIMACS CNF restricted to width-3 clauses."""
    header: tuple[int, int] | None = None
    clauses: list[tuple] = []
    pending: list[Literal] = []
    last_line = 0  # the last clause line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError(lineno, "duplicate header")
            tokens = line.split()
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError(lineno, "expected: p cnf <vars> <clauses>")
            header = num_vars, num_clauses = (
                _parse_int(tokens[2], lineno), _parse_int(tokens[3], lineno)
            )
            if min(header) < 0:
                raise ParseError(lineno, "negative variable or clause count")
            continue
        if header is None:
            raise ParseError(lineno, "clause before header")
        last_line = lineno
        for token in line.split():
            lit = _parse_int(token, lineno)
            if lit == 0:
                if len(pending) != 3:
                    raise NotThreeCnf(f"clause ending at line {lineno} has {len(pending)} literals")
                clauses.append(tuple(pending))
                pending = []
            elif abs(lit) > num_vars:
                raise ParseError(lineno, f"literal {lit} exceeds declared variable count")
            else:
                pending.append((abs(lit), lit > 0))

    if header is None:
        raise ParseError(0, "missing header")
    if pending:
        raise ParseError(last_line, "unterminated clause")
    if len(clauses) != num_clauses:
        raise ParseError(last_line, f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def serialize_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lits = " ".join(str(var if pol else -var) for var, pol in clause)
        lines.append(f"{lits} 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------


def parse_edgelist(text: str) -> UndirectedGraph:
    """First meaningful line is the vertex count, then one 'u v' per line."""
    num_vertices: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        if num_vertices is None:
            if len(tokens) != 1:
                raise ParseError(lineno, "expected a vertex count")
            num_vertices = _parse_int(tokens[0], lineno)
            if num_vertices < 0:
                raise ParseError(lineno, "negative vertex count")
            continue
        if len(tokens) != 2:
            raise ParseError(lineno, "expected: <u> <v>")
        u, v = _parse_int(tokens[0], lineno), _parse_int(tokens[1], lineno)
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u} (line {lineno})")
        if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
            raise ParseError(lineno, f"edge ({u},{v}) out of range")
        pairs.append((u, v))
    if num_vertices is None:
        raise ParseError(0, "empty edge list input")
    return UndirectedGraph.from_edges(num_vertices, pairs)


def serialize_edgelist(graph: UndirectedGraph) -> str:
    lines = [str(graph.num_vertices)]
    lines += [f"{u} {v}" for u, v in sorted(graph.edges)]
    return "\n".join(lines) + "\n"
