"""Polynomial consistency decision for single-writer graphs.

When every location is written by at most one thread, the modification
order is forced to agree with program order and SRA/RA/WRA checking all
collapse to WRA: find the least reads-from relation satisfying
weak-read-coherence, then test porf-acyclicity.

`solve` does both in one topological pass over po and rf.  Threads
advance from a worklist in sorted-id order, each keeping a vector clock
over threads (Fidge, Mattern); every write stores its thread's clock.  A
read of x looks up in its po-predecessor's clock how far x's writer
thread happens-before it.  The last x-write inside that prefix is a
lower bound on the read's write in every coherent rf, so the read takes
the earliest value-matching write at or above it.  In a single-writer
graph raising a read only grows hb, so the pass reaches the pointwise
least coherent rf.  A read whose write is not processed yet waits for
it; when every unfinished thread waits, the wait chain is a po/rf cycle.

The relaxed coherence pattern needs no hb: one po-order prefix pass per
thread finds the least relaxed-coherent rf, and the acyclic variant then
runs the topological pass with that rf fixed as its causality test.

`tests/reference_solver.py` keeps the repair loop the pass replaces:
start from the po-earliest matching writes and repeatedly raise the
first violating read.  Each repair is a strict step up in the pointwise
po order on rf, so the loop's fixpoint is below every coherent rf; the
tests use it as the reference for `solve`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .axioms import Axiom
from .model import (
    HB_EDGE,
    PO_EDGE,
    RF_EDGE,
    RF_INV_EDGE,
    RF_TOTALITY,
    EventId,
    MemoryModel,
    ModificationOrder,
    Numbering,
    PartialExecutionGraph,
    ReadsFrom,
    Verdict,
    max_writers,
    normalize_cycle,
    reads_from,
)


class NotOneWriter(Exception):
    pass


class Violation(NamedTuple):
    """One read the solver raised, or found it cannot raise: the read, its
    current write, the blocking po-later write, (relaxed mode only) the
    po-earlier read observing the blocker, None marking the blocker itself
    sitting po-before the read, and the write the read took, None when no
    write qualifies."""

    read: EventId
    write: EventId
    blocker: EventId
    via_read: EventId | None = None
    replacement: EventId | None = None


@dataclass
class SolverTrace:
    """What `solve` did to rf: one Violation per read it raised above its
    initial binding (the violation's `write`); the blocker is the lower
    bound that forced the raise, and the replacement the write it took.
    `final_rf` is the rf the solver ended on (None only when some read has
    no matching write at all); a read stuck on a cycle holds the write it
    waits for, so certificates replay against it."""

    iterations: list[Violation] = field(default_factory=list)
    final_rf: ReadsFrom | None = None

    @property
    def update_count(self) -> int:
        return len(self.iterations)


def _require_one_writer(g: PartialExecutionGraph) -> None:
    if max_writers(g) > 1:
        raise NotOneWriter("some location is written by more than one thread")


def derive_mo(g: PartialExecutionGraph) -> ModificationOrder:
    """The forced modification order: per location, its single writer
    thread's writes in program order."""
    _require_one_writer(g)
    num = g.numbering
    ids = num.ids
    return ModificationOrder({var: [ids[w] for w in ws] for var, ws in num.var_writes.items()})


def _blocked_certificate(v: Violation) -> list[tuple[EventId, str]]:
    steps = [(v.read, RF_INV_EDGE), (v.write, PO_EDGE)]
    if v.via_read is not None:
        steps += [(v.blocker, RF_EDGE), (v.via_read, PO_EDGE)]
    elif v.blocker.thread == v.read.thread and v.blocker.index < v.read.index:
        steps += [(v.blocker, PO_EDGE)]
    else:
        steps += [(v.blocker, HB_EDGE)]
    return steps


def _raise_read(
    num: Numbering,
    rf: list[int],
    r: int,
    lo: int,
    via: int,
    trace: SolverTrace,
    relaxed: bool,
) -> Verdict | None:
    """Raise read r to the po-earliest matching write numbered >= lo, the
    lower bound exposed by write lo (-1 for none) through read `via` (-1
    for hb or po).  Returns the coherence verdict when no such write exists.

    Under the porf-mandating models a read in the writer thread may only
    be raised to a write po-before itself: a po-later one closes a po/rf
    cycle, and so does every write above it.  The pure relaxed model has
    no such axiom, so there the whole thread qualifies.
    """
    if lo <= rf[r]:
        return None
    writes = num.matches[num.events[r][2:]]  # (var, val); rf[r] is one of them
    j = bisect_left(writes, lo)
    w = writes[j] if j < len(writes) else -1
    blocked = w < 0 or not relaxed and w >= r and num.thread_of[w] == num.thread_of[r]
    ids = num.ids
    v = Violation(
        ids[r], ids[rf[r]], ids[lo], ids[via] if via >= 0 else None, None if blocked else ids[w]
    )
    if blocked:
        axiom = Axiom.RELAXED_READ_COHERENCE if relaxed else Axiom.WEAK_READ_COHERENCE
        return Verdict.inconsistent(axiom.value, _blocked_certificate(v))
    rf[r] = w
    trace.iterations.append(v)
    return None


def _relaxed_pass(num: Numbering, rf: list[int], trace: SolverTrace) -> Verdict | None:
    """Least relaxed-read-coherent rf, in one po-order pass per thread.

    With mo forced to po, a read must take a write at or above every
    write of its location that a po-earlier event of its own thread
    exposes: a write of the thread itself, or the write an earlier read
    took; numbers order a location's writes as mo does.  Threads do not
    interact, so sorted-id order repeats the step loop's choice of first
    violation exactly.
    """
    for start, end in num.spans:
        best: dict[str, tuple[int, int]] = {}  # location -> (write, exposing read or -1)
        for e in range(start, end):
            ev = num.events[e]
            if ev.is_read:
                lo, via = best.get(ev.var, (-1, -1))
                failure = _raise_read(num, rf, e, lo, via, trace, relaxed=True)
                if failure is not None:
                    return failure
                exposed = (rf[e], e)
            else:
                exposed = (e, -1)
            if exposed[0] > best.get(ev.var, (-1, -1))[0]:
                best[ev.var] = exposed
    return None


def _causal_pass(num: Numbering, rf: list[int], trace: SolverTrace | None) -> Verdict | None:
    """One topological pass over po and rf; None when it completes.

    With a trace (the weak family) each read is first raised to its least
    coherent write; without one rf stays as bound and the pass only tests
    porf-acyclicity.  `clocks[t][u]` counts the events of thread u that
    happen-before thread t's next event; a thread's entry for itself is
    never read.  Writes share their thread's clock list until the thread
    changes it.
    """
    events, thread_of, spans = num.events, num.thread_of, num.spans
    nthreads = len(spans)
    cur = [start for start, _ in spans]
    clocks = [[0] * nthreads for _ in range(nthreads)]
    shared = [False] * nthreads
    write_clock: dict[int, list[int]] = {}
    waiters: dict[int, list[int]] = {}
    work = deque(range(nthreads))
    while work:
        t = work.popleft()
        e, end = cur[t], spans[t][1]
        clock = clocks[t]
        while e < end:
            ev = events[e]
            if ev.is_write:
                write_clock[e] = clock
                shared[t] = True
                work.extend(waiters.pop(e, ()))
                e += 1
                continue
            if trace is not None:
                writes = num.var_writes[ev.var]
                u = thread_of[writes[0]]
                before = e if u == t else spans[u][0] + clock[u]
                j = bisect_left(writes, before)
                lo = writes[j - 1] if j else -1
                failure = _raise_read(num, rf, e, lo, -1, trace, relaxed=False)
                if failure is not None:
                    return failure
            w = rf[e]
            u = thread_of[w]
            if w >= (e if u == t else cur[u]):
                waiters.setdefault(w, []).append(t)
                break
            seen = w - spans[u][0] + 1
            if u != t and clock[u] < seen:
                if shared[t]:
                    clock = clocks[t] = list(clock)
                    shared[t] = False
                for v, n in enumerate(write_clock[w]):
                    if n > clock[v]:
                        clock[v] = n
                clock[u] = seen
            e += 1
        cur[t] = e
    stuck = [t for t, (_, end) in enumerate(spans) if cur[t] < end]
    if not stuck:
        return None
    return Verdict.inconsistent(Axiom.PORF_ACYCLICITY.value, _wait_cycle(num, rf, cur, stuck[0]))


def _wait_cycle(num: Numbering, rf: list[int], cur: list[int], t: int) -> list[tuple[EventId, str]]:
    """The po/rf cycle closed by the threads' waits, from stuck thread t.

    A stuck thread waits at a read for a write of a stuck thread (itself,
    when the read takes a po-later write of its own thread) that sits
    po-after that thread's own stuck read, so following the waits must
    revisit a thread.
    """
    chain: list[int] = []
    at: dict[int, int] = {}
    while t not in at:
        at[t] = len(chain)
        chain.append(t)
        t = num.thread_of[rf[cur[t]]]
    chain = chain[at[t]:]
    steps: list[tuple[EventId, str]] = []
    for i in reversed(range(len(chain))):
        waiting, owner = chain[i], chain[(i + 1) % len(chain)]
        steps.append((num.events[cur[owner]].id, PO_EDGE))
        steps.append((num.events[rf[cur[waiting]]].id, RF_EDGE))
    return normalize_cycle(steps)


def solve(
    g: PartialExecutionGraph,
    m: MemoryModel,
) -> tuple[Verdict, SolverTrace]:
    """Decide consistency of a 1-writer graph under any supported model.

    Returns the verdict plus the trace of raised reads.  A Consistent
    verdict carries the pointwise least coherent rf and the forced mo.
    The relaxed models use the relaxed coherence pattern and skip the
    causality test unless the acyclic variant is asked for.  rf-totality
    fails on the numbering's unmatched read, as in the oracle; every
    other read starts at its po-earliest matching write.
    """
    _require_one_writer(g)
    base = m.canonical
    relaxed = base in (MemoryModel.RELAXED, MemoryModel.RELAXED_ACYCLIC)
    trace = SolverTrace()
    num = g.numbering
    blocked = num.unmatched_read()
    if blocked is not None:
        return Verdict.inconsistent(RF_TOTALITY, [(blocked, RF_INV_EDGE)]), trace

    rf = [-1] * len(num.events)  # `number_rf`'s form
    for r in num.reads:
        rf[r] = num.matches[num.events[r][2:]][0]
    if relaxed:
        failure = _relaxed_pass(num, rf, trace)
        if failure is None and base is MemoryModel.RELAXED_ACYCLIC:
            failure = _causal_pass(num, rf, None)
    else:
        failure = _causal_pass(num, rf, trace)
    trace.final_rf = reads_from(g, rf)
    if failure is not None:
        return failure, trace
    return Verdict.consistent(trace.final_rf, derive_mo(g)), trace
