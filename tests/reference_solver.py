"""The repair loop that `racheck.solver.solve` replaces, step by step.

`initialize_rf` binds every read to its po-earliest matching write, in
whatever thread, and raises `NoMatchingWrite` on a read that no write
matches; it scans EventIds and shares no code with the solver's binding.
`next_violation` finds the first read that breaks the coherence pattern,
and `update_rf` raises that read to the po-earliest matching write at or
after the blocking one.  The scans work on the graph's numbering and rf
in `number_rf`'s form (`num`, `rf`), and compare a write's position
among its location's writes, which `_pos` computes.  Each repair is a
strict step up in the pointwise po order on rf, so the loop's fixpoint
is below every coherent rf; the tests hold `solve` to it.  The loop
rescans the whole graph after every repair, so it stays here as a
reference.
"""

from __future__ import annotations

from bisect import bisect_left

from racheck.axioms import Axiom
from racheck.model import (
    EventId,
    Numbering,
    PartialExecutionGraph,
    ReadsFrom,
    number_rf,
    reads_from,
)
from racheck.solver import Violation, _require_one_writer


class NoMatchingWrite(Exception):
    def __init__(self, read_id: EventId):
        super().__init__(f"no matching write for read {read_id}")
        self.read_id = read_id


class NoLaterWrite(Exception):
    def __init__(self, read_id: EventId):
        super().__init__(f"no matching write late enough for read {read_id}")
        self.read_id = read_id


def _pos(num: Numbering, w: int) -> int:
    """Write w's position among its location's writes (po order)."""
    return bisect_left(num.var_writes[num.events[w].var], w)


def _po_next(num: Numbering, e: int) -> int:
    """The event after e in its thread, or -1."""
    nxt = e + 1
    if nxt < len(num.events) and num.thread_of[nxt] == num.thread_of[e]:
        return nxt
    return -1


def _po_prev(num: Numbering, e: int) -> int:
    """The event before e in its thread, or -1."""
    prev = e - 1
    if prev >= 0 and num.thread_of[prev] == num.thread_of[e]:
        return prev
    return -1


def forward_set(num: Numbering, rf: list[int], start: int) -> bytearray:
    """Events reachable from start over po and current rf edges.

    The start itself is marked only to stop re-expansion; callers only
    query events distinct from it.
    """
    readers: dict[int, list[int]] = {}
    for r in num.reads:
        readers.setdefault(rf[r], []).append(r)
    seen = bytearray(len(num.events))
    stack = [start]
    seen[start] = 1
    while stack:
        e = stack.pop()
        nxt = _po_next(num, e)
        if nxt >= 0 and not seen[nxt]:
            seen[nxt] = 1
            stack.append(nxt)
        for r in readers.get(e, ()):
            if not seen[r]:
                seen[r] = 1
                stack.append(r)
    return seen


def backward_set(num: Numbering, rf: list[int], start: int) -> set[int]:
    """Events that reach start over po and current rf edges."""
    seen: set[int] = set()
    stack = _preds(num, rf, start)
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        stack.extend(p for p in _preds(num, rf, e) if p not in seen)
    return seen


def _preds(num: Numbering, rf: list[int], e: int) -> list[int]:
    prev = _po_prev(num, e)
    out = [prev] if prev >= 0 else []
    if rf[e] >= 0:
        out.append(rf[e])
    return out


def initialize_rf(g: PartialExecutionGraph) -> ReadsFrom:
    """The pointwise least rf: each read observes the po-earliest write of
    its location with its value, in whatever thread; the first read in id
    order with none raises NoMatchingWrite."""
    _require_one_writer(g)
    rf: dict[EventId, EventId] = {}
    for r in g.reads:
        w = next((w for w in g.writes_by_var.get(r.var, ()) if w.val == r.val), None)
        if w is None:
            raise NoMatchingWrite(r.id)
        rf[r.id] = w.id
    return ReadsFrom(rf)


def _scan_weak(num: Numbering, rf: list[int]) -> Violation | None:
    """First weak-read-coherence violation in (thread, index) read order.

    A read r bound to write at position k is violated iff the next write
    of its location happens-before r (later writes only strengthen the
    reachability, so checking the immediate successor suffices).  One
    forward search per distinct (location, k) group covers all reads.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for r in num.reads:
        ev = num.events[r]
        k = _pos(num, rf[r])
        if k + 1 < len(num.var_writes[ev.var]):
            groups.setdefault((ev.var, k), []).append(r)
    violated: list[int] = []
    for (var, k), members in groups.items():
        src = num.var_writes[var][k + 1]
        seen = forward_set(num, rf, src)
        violated.extend(r for r in members if seen[r])
    if not violated:
        return None
    r = min(violated, key=lambda e: num.events[e].id)
    ev = num.events[r]
    writes = num.var_writes[ev.var]
    back = backward_set(num, rf, r)
    k = _pos(num, rf[r])
    best = max(j for j in range(k + 1, len(writes)) if writes[j] in back)
    return Violation(
        read=ev.id,
        write=num.events[writes[k]].id,
        blocker=num.events[writes[best]].id,
    )


def _scan_relaxed(num: Numbering, rf: list[int]) -> Violation | None:
    """First relaxed-read-coherence violation in read scan order.

    With mo forced to po, a read r bound at position k is violated iff a
    po-earlier event of its own thread exposes a write of the same
    location at a position above k: either that write itself or an
    earlier read bound to it.  A per-thread prefix scan finds, for each
    location, the best exposed position so far.
    """
    candidates: list[tuple[int, int, int | None]] = []
    for start, end in num.spans:
        best: dict[str, tuple[int, int | None]] = {}
        for e in range(start, end):
            ev = num.events[e]
            if ev.is_read:
                k = _pos(num, rf[e])
                seen = best.get(ev.var)
                if seen is not None and seen[0] > k:
                    candidates.append((e, seen[0], seen[1]))
                exposed = (k, e)
            else:
                exposed = (_pos(num, e), None)
            cur = best.get(ev.var)
            if cur is None or exposed[0] > cur[0]:
                best[ev.var] = exposed
    if not candidates:
        return None
    e, pos, via = min(candidates, key=lambda c: num.events[c[0]].id)
    ev = num.events[e]
    writes = num.var_writes[ev.var]
    return Violation(
        read=ev.id,
        write=num.events[rf[e]].id,
        blocker=num.events[writes[pos]].id,
        via_read=num.events[via].id if via is not None else None,
    )


def _apply_update(num: Numbering, rf: list[int], violation: Violation, allow_future: bool) -> None:
    """Raise the violation's read to the first write of its location and
    value at or after the blocker.  Outside relaxed mode a write of the
    read's own thread qualifies only when it is po-before the read."""
    r, blocker = num.index[violation.read], num.index[violation.blocker]
    ev = num.events[r]
    for w in num.var_writes[ev.var]:
        if w >= blocker and num.events[w].val == ev.val:
            if allow_future or num.thread_of[w] != num.thread_of[r] or w < r:
                rf[r] = w
                return
            break
    raise NoLaterWrite(violation.read)


def next_violation(
    g: PartialExecutionGraph,
    rf: ReadsFrom,
    mode: Axiom = Axiom.WEAK_READ_COHERENCE,
) -> Violation | None:
    """Deterministic first coherence violation of rf, or None."""
    _require_one_writer(g)
    if mode is Axiom.RELAXED_READ_COHERENCE:
        return _scan_relaxed(g.numbering, number_rf(g, rf))
    return _scan_weak(g.numbering, number_rf(g, rf))


def update_rf(
    g: PartialExecutionGraph,
    rf: ReadsFrom,
    violation: Violation,
    mode: Axiom = Axiom.WEAK_READ_COHERENCE,
) -> ReadsFrom:
    """Remap the violating read to the po-earliest matching write at or
    after the blocking write; strictly larger at exactly that read."""
    _require_one_writer(g)
    src = number_rf(g, rf)
    _apply_update(g.numbering, src, violation, allow_future=mode is Axiom.RELAXED_READ_COHERENCE)
    return reads_from(g, src)
