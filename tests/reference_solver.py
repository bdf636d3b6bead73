"""The repair loop that `racheck.solver.solve` replaces, step by step.

`initialize_rf` binds every read to its po-earliest matching write,
`next_violation` finds the first read that breaks the coherence pattern,
and `update_rf` raises that read to the po-earliest matching write at or
after the blocking one.  The solver's state names writes by event number;
the scans here compare a write's position among its location's writes,
which `_pos` computes.  Each repair is a strict step up in the pointwise
po order on rf, so the loop's fixpoint is below every coherent rf; the
tests hold `solve` to it.  The loop rescans the whole graph after every
repair, so it stays here as a reference.
"""

from __future__ import annotations

from bisect import bisect_left

from racheck.axioms import Axiom
from racheck.model import EventId, PartialExecutionGraph, ReadsFrom
from racheck.solver import (
    Violation,
    _earliest_match,
    _init_state,
    _require_one_writer,
    _State,
)


class NoLaterWrite(Exception):
    def __init__(self, read_id: EventId):
        super().__init__(f"no matching write late enough for read {read_id}")
        self.read_id = read_id


def _pos(st: _State, w: int) -> int:
    """Write w's position among its location's writes (po order)."""
    return bisect_left(st.var_writes[st.events[w].var], w)


def _po_next(st: _State, e: int) -> int:
    """The event after e in its thread, or -1."""
    nxt = e + 1
    if nxt < len(st.events) and st.thread_of[nxt] == st.thread_of[e]:
        return nxt
    return -1


def _po_prev(st: _State, e: int) -> int:
    """The event before e in its thread, or -1."""
    prev = e - 1
    if prev >= 0 and st.thread_of[prev] == st.thread_of[e]:
        return prev
    return -1


def forward_set(st: _State, start: int) -> bytearray:
    """Events reachable from start over po and current rf edges.

    The start itself is marked only to stop re-expansion; callers only
    query events distinct from it.
    """
    readers: dict[int, list[int]] = {}
    for r, w in st.rf.items():
        readers.setdefault(w, []).append(r)
    seen = bytearray(len(st.events))
    stack = [start]
    seen[start] = 1
    while stack:
        e = stack.pop()
        nxt = _po_next(st, e)
        if nxt >= 0 and not seen[nxt]:
            seen[nxt] = 1
            stack.append(nxt)
        for r in readers.get(e, ()):
            if not seen[r]:
                seen[r] = 1
                stack.append(r)
    return seen


def backward_set(st: _State, start: int) -> set[int]:
    """Events that reach start over po and current rf edges."""
    seen: set[int] = set()
    stack = _preds(st, start)
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        stack.extend(p for p in _preds(st, e) if p not in seen)
    return seen


def _preds(st: _State, e: int) -> list[int]:
    prev = _po_prev(st, e)
    out = [prev] if prev >= 0 else []
    if e in st.rf:
        out.append(st.rf[e])
    return out


def initialize_rf(
    g: PartialExecutionGraph, mode: Axiom = Axiom.WEAK_READ_COHERENCE
) -> ReadsFrom:
    """The pointwise least rf: each read observes the po-earliest matching
    write of its location's writer thread (strictly above the read when
    the read shares that thread, except in relaxed mode)."""
    _require_one_writer(g)
    return _init_state(g, allow_future=mode is Axiom.RELAXED_READ_COHERENCE).rf_relation()


def _scan_weak(st: _State) -> Violation | None:
    """First weak-read-coherence violation in (thread, index) read order.

    A read r bound to write at position k is violated iff the next write
    of its location happens-before r (later writes only strengthen the
    reachability, so checking the immediate successor suffices).  One
    forward search per distinct (location, k) group covers all reads.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for r in st.reads:
        ev = st.events[r]
        k = _pos(st, st.rf[r])
        if k + 1 < len(st.var_writes[ev.var]):
            groups.setdefault((ev.var, k), []).append(r)
    violated: list[int] = []
    for (var, k), members in groups.items():
        src = st.var_writes[var][k + 1]
        seen = forward_set(st, src)
        violated.extend(r for r in members if seen[r])
    if not violated:
        return None
    r = min(violated, key=lambda e: st.events[e].id)
    ev = st.events[r]
    writes = st.var_writes[ev.var]
    back = backward_set(st, r)
    k = _pos(st, st.rf[r])
    best = max(j for j in range(k + 1, len(writes)) if writes[j] in back)
    return Violation(
        read=ev.id,
        write=st.events[writes[k]].id,
        blocker=st.events[writes[best]].id,
    )


def _scan_relaxed(st: _State) -> Violation | None:
    """First relaxed-read-coherence violation in read scan order.

    With mo forced to po, a read r bound at position k is violated iff a
    po-earlier event of its own thread exposes a write of the same
    location at a position above k: either that write itself or an
    earlier read bound to it.  A per-thread prefix scan finds, for each
    location, the best exposed position so far.
    """
    candidates: list[tuple[int, int, int | None]] = []
    for start, end in st.thread_span:
        best: dict[str, tuple[int, int | None]] = {}
        for e in range(start, end):
            ev = st.events[e]
            if ev.is_read:
                k = _pos(st, st.rf[e])
                seen = best.get(ev.var)
                if seen is not None and seen[0] > k:
                    candidates.append((e, seen[0], seen[1]))
                exposed = (k, e)
            else:
                exposed = (_pos(st, e), None)
            cur = best.get(ev.var)
            if cur is None or exposed[0] > cur[0]:
                best[ev.var] = exposed
    if not candidates:
        return None
    e, pos, via = min(candidates, key=lambda c: st.events[c[0]].id)
    ev = st.events[e]
    writes = st.var_writes[ev.var]
    return Violation(
        read=ev.id,
        write=st.events[st.rf[e]].id,
        blocker=st.events[writes[pos]].id,
        via_read=st.events[via].id if via is not None else None,
    )


def _apply_update(
    g: PartialExecutionGraph, st: _State, violation: Violation, allow_future: bool = False
) -> EventId:
    index = g.numbering.index
    r = index[violation.read]
    w = _earliest_match(st, r, index[violation.blocker], allow_future)
    if w < 0:
        raise NoLaterWrite(violation.read)
    st.rf[r] = w
    return st.events[w].id


def _state_from_rf(g: PartialExecutionGraph, rf: ReadsFrom) -> _State:
    st = _State(g)
    index = g.numbering.index
    for rid, wid in rf.mapping.items():
        st.rf[index[rid]] = index[wid]
    return st


def next_violation(
    g: PartialExecutionGraph,
    rf: ReadsFrom,
    mode: Axiom = Axiom.WEAK_READ_COHERENCE,
) -> Violation | None:
    """Deterministic first coherence violation of rf, or None."""
    _require_one_writer(g)
    st = _state_from_rf(g, rf)
    if mode is Axiom.RELAXED_READ_COHERENCE:
        return _scan_relaxed(st)
    return _scan_weak(st)


def update_rf(
    g: PartialExecutionGraph,
    rf: ReadsFrom,
    violation: Violation,
    mode: Axiom = Axiom.WEAK_READ_COHERENCE,
) -> ReadsFrom:
    """Remap the violating read to the po-earliest matching write at or
    after the blocking write; strictly larger at exactly that read."""
    _require_one_writer(g)
    st = _state_from_rf(g, rf)
    _apply_update(g, st, violation, allow_future=mode is Axiom.RELAXED_READ_COHERENCE)
    return st.rf_relation()
