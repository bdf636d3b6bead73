"""Consistency axioms over complete execution graphs.

Checks the coherence and causality axioms of the release-acquire family
(WRA/RA/SRA), the relaxed variants, and the per-thread observed-order
acyclicity that distinguishes causal memory.  Every failed check yields a
certificate: labelled edges that replay to the violating cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .model import (
    HB_EDGE,
    MO_EDGE,
    OB_EDGE,
    PO_EDGE,
    RF_EDGE,
    RF_INV_EDGE,
    EventId,
    MemoryModel,
    ModificationOrder,
    PartialExecutionGraph,
    ReadsFrom,
    UnknownEvent,
    Verdict,
    normalize_cycle,
)


class MissingMo(Exception):
    pass


class EmptyThread(Exception):
    pass


class Axiom(str, Enum):
    PORF_ACYCLICITY = "porf-acyclicity"
    WRITE_COHERENCE = "write-coherence"
    READ_COHERENCE = "read-coherence"
    STRONG_WRITE_COHERENCE = "strong-write-coherence"
    WEAK_READ_COHERENCE = "weak-read-coherence"
    RELAXED_WRITE_COHERENCE = "relaxed-write-coherence"
    RELAXED_READ_COHERENCE = "relaxed-read-coherence"
    OB_ACYCLICITY = "ob-acyclicity"


# Axioms whose pattern involves the modification order.
MO_AXIOMS = {
    Axiom.WRITE_COHERENCE,
    Axiom.READ_COHERENCE,
    Axiom.STRONG_WRITE_COHERENCE,
    Axiom.RELAXED_WRITE_COHERENCE,
    Axiom.RELAXED_READ_COHERENCE,
}

# Axioms whose pattern reads happens-before.
HB_AXIOMS = {
    Axiom.WRITE_COHERENCE, Axiom.READ_COHERENCE, Axiom.WEAK_READ_COHERENCE, Axiom.OB_ACYCLICITY
}

# Model -> axiom list, in check order: causality first, then coherence,
# then the observed-order check (whose fixed point presumes acyclic hb).
MODEL_AXIOMS: dict[MemoryModel, list[Axiom]] = {
    MemoryModel.WRA: [Axiom.PORF_ACYCLICITY, Axiom.WEAK_READ_COHERENCE],
    MemoryModel.RA: [Axiom.PORF_ACYCLICITY, Axiom.WRITE_COHERENCE, Axiom.READ_COHERENCE],
    MemoryModel.SRA: [
        Axiom.PORF_ACYCLICITY,
        Axiom.STRONG_WRITE_COHERENCE,
        Axiom.READ_COHERENCE,
    ],
    MemoryModel.RELAXED: [Axiom.RELAXED_WRITE_COHERENCE, Axiom.RELAXED_READ_COHERENCE],
    MemoryModel.RELAXED_ACYCLIC: [
        Axiom.PORF_ACYCLICITY,
        Axiom.RELAXED_WRITE_COHERENCE,
        Axiom.RELAXED_READ_COHERENCE,
    ],
    MemoryModel.CM: [
        Axiom.PORF_ACYCLICITY,
        Axiom.WEAK_READ_COHERENCE,
        Axiom.OB_ACYCLICITY,
    ],
}


def axioms_for(m: MemoryModel) -> list[Axiom]:
    return MODEL_AXIOMS[m.canonical]


def model_needs_mo(m: MemoryModel) -> bool:
    return any(ax in MO_AXIOMS for ax in axioms_for(m))


# ---------------------------------------------------------------------------
# Happens-before machinery
# ---------------------------------------------------------------------------


def _adjacency(g: PartialExecutionGraph, rf: ReadsFrom) -> list[list[int]]:
    """po (immediate) and rf successors on the graph's numbering: each
    event's po-successor first, then the reads it feeds in ascending order."""
    num = g.numbering
    succ: list[list[int]] = [[] for _ in num.events]
    for start, end in num.spans:
        for i in range(start + 1, end):
            succ[i - 1].append(i)
    pos = num.index
    for r, w in _rf_edges(g, rf):
        succ[pos[w]].append(pos[r.id])
    return succ


def _rf_edges(g: PartialExecutionGraph, rf: ReadsFrom):
    """(read, write id) for every read that rf maps, in sorted-id order.
    A read that rf leaves out has no rf edge: it adds no hb edge and no
    observed-order triplet, and the coherence checks skip it."""
    mapping = rf.mapping
    for r in g.reads:
        w = mapping.get(r.id)
        if w is not None:
            yield r, w


class _HbIndex:
    """Happens-before (po ∪ rf)+ of one graph and rf, as per-event bitsets.

    Events take the graph's numbering, sorted EventId order, so ascending
    bit order is the order the checks scan and report in.  `reach[i]`
    holds the events reachable from event i by one or more po/rf edges and
    `back[i]` the events that reach i; an event on a po ∪ rf cycle holds
    its own bit.  `cycle` is the first po ∪ rf cycle of the `_components`
    run that ordered the closure, or None.  `_hb_index` builds one; the
    oracle's search wraps the porf-acyclic closure it keeps at a leaf.
    """

    def __init__(self, g: PartialExecutionGraph, reach: list[int], back: list[int], cycle=None):
        self.ids: list[EventId] = g.numbering.ids
        self.pos: dict[EventId, int] = g.numbering.index
        self.reach = reach
        self.back = back
        self.cycle = cycle

    def first(self, eids: list[EventId], mask: int) -> EventId:
        """The first of `eids` whose bit is set in `mask`."""
        pos = self.pos
        return next(e for e in eids if mask >> pos[e] & 1)


def _hb_index(g: PartialExecutionGraph, rf: ReadsFrom, cycle_only: bool = False) -> _HbIndex:
    """rf's hb index: one `_components` run orders both closures and keeps
    its cycle; with `cycle_only` a cyclic rf gets the cycle and no masks."""
    succ = _adjacency(g, rf)
    comps, cycle = _components(succ)
    if cycle_only and cycle is not None:
        return _HbIndex(g, [], [], cycle)
    pred: list[list[int]] = [[] for _ in succ]
    for v, out in enumerate(succ):
        for w in out:
            pred[w].append(v)
    return _HbIndex(g, _propagate(comps, succ), _propagate(comps[::-1], pred), cycle)


def _components(succ: list[list[int]]) -> tuple[list[list[int]], list[int] | None]:
    """Strongly connected components (Tarjan, iterative), each emitted
    after every component it reaches, and the first cycle the search meets.

    The cycle is the certificate contract of the po ∪ rf (∪ mo) checks.
    The search starts roots in ascending order, which on the graph's
    numbering is sorted-id order, and tries each node's successors in
    list order: po, then rf, then mo where the caller adds it.  Until
    the first edge to a node still on the stack, every finished node is
    a component of its own and has left the stack, so the stack is the
    DFS path and the cycle is its tail from that node: the first cycle
    of a plain DFS over the same adjacency.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    cycle: list[int] | None = None
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    if cycle is None:
                        cycle = stack[stack.index(w) :]
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps, cycle


def _propagate(comps: list[list[int]], edges: list[list[int]]) -> list[int]:
    """Per-event masks of the events reached by one or more `edges` steps,
    given the components in an order where every edge target's component
    comes first.  Members of a component share one mask."""
    masks = [0] * len(edges)
    for comp in comps:
        m = 0
        for v in comp:
            for w in edges[v]:
                # A target in the same component is still 0 here; every
                # member of a cyclic component is such a target, so each
                # gets its bit from this line.
                m |= masks[w] | 1 << w
        for v in comp:
            masks[v] = m
    return masks


def _bits(mask: int):
    """Set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _link(reach, coreach, heads: int, tails: int) -> tuple[int, int]:
    """Add every edge from `heads` to `tails` to a transitive closure.

    Returns (sources, targets) as they stood before: the events that reach
    a head or are one, and those a tail reaches or that are one.
    """
    sources, targets = heads, tails
    for h in _bits(heads):
        sources |= coreach[h]
    for t in _bits(tails):
        targets |= reach[t]
    for s in _bits(sources):
        reach[s] |= targets
    for t in _bits(targets):
        coreach[t] |= sources
    return sources, targets


def hb_reaches(g: PartialExecutionGraph, rf: ReadsFrom, src: EventId, dst: EventId) -> bool:
    """True iff (src, dst) is in the transitive closure of po and rf.

    One forward sweep from src, stopping at dst.  Reaching an event
    reaches the rest of its thread, so the sweep keeps, per thread, the
    first event reached and scans each thread's events at most once.
    """
    g.event(src)
    g.event(dst)
    readers: dict[EventId, list[EventId]] = {}
    for rid, wid in rf.mapping.items():
        readers.setdefault(wid, []).append(rid)
    first = {tid: len(evs) for tid, evs in g.events_of.items()}
    todo = [EventId(src.thread, src.index + 1), *readers.get(src, ())]
    while todo:
        e = todo.pop()
        end = first[e.thread]
        if e.index >= end:
            continue
        if e.thread == dst.thread and e.index <= dst.index < end:
            return True
        first[e.thread] = e.index
        for ev in g.events_of[e.thread][e.index : end]:
            todo.extend(readers.get(ev.id, ()))
    return False


def _cycle_certificate(
    g: PartialExecutionGraph, rf: ReadsFrom, cycle: list[int] | None
) -> list[tuple[EventId, str]] | None:
    """A cycle `_components` found over po ∪ rf successors (plus any mo
    edges) as labelled steps, or None.  A step is labelled po when it is
    one, else rf, else mo: the search tries the po edge first."""
    if cycle is None:
        return None
    num = g.numbering
    steps = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        src = num.events[a].id
        if b == a + 1 and num.thread_of[a] == num.thread_of[b]:
            label = PO_EDGE
        elif rf.mapping.get(num.events[b].id) == src:
            label = RF_EDGE
        else:
            label = MO_EDGE
        steps.append((src, label))
    return normalize_cycle(steps)


def porf_cycle(g: PartialExecutionGraph, rf: ReadsFrom) -> list[tuple[EventId, str]] | None:
    return _cycle_certificate(g, rf, _components(_adjacency(g, rf))[1])


# ---------------------------------------------------------------------------
# Observed order (per-thread view coherence)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObRelation:
    """Least transitive per-anchor order on observed events.

    Seeded with hb restricted to the anchor's (reflexive) hb-past, then
    closed under the conflicting-triplet rule: a read forces the write it
    observes after every conflicting write already observed before it.
    `edges` keeps the generating pairs so cycles can be traced.
    """

    anchor: EventId
    pairs: frozenset[tuple[EventId, EventId]]
    edges: tuple[tuple[EventId, EventId], ...]

    def contains(self, a: EventId, b: EventId) -> bool:
        return (a, b) in self.pairs

    def reflexive_events(self) -> list[EventId]:
        return sorted(a for a, b in self.pairs if a == b)


class _ObservedOrder:
    """The observed-order fixed point of one anchor, as bitset rows.

    `rows[e]` is the closure row of event e of the anchor's reflexive
    hb-past and `gen[e]` its generating edges: the hb seed plus the edges
    the triplet rule added, which `added` lists in the order they came.
    """

    def __init__(self, hb: _HbIndex, g: PartialExecutionGraph, rf: ReadsFrom, anchor: EventId):
        pos = hb.pos
        a = pos[anchor]
        self.hb = hb
        self.anchor = anchor
        self.past = past = hb.back[a] | 1 << a
        # Rule 1: hb restricted to the past.  Every hb path between two
        # events of the past stays inside it, so the seed is already closed.
        rows = {e: hb.reach[e] & past for e in _bits(past)}
        cols = {e: hb.back[e] & past for e in _bits(past)}  # rows transposed
        gen = {e: row & ~(1 << e) for e, row in rows.items()}

        # Conflicting triplets anchored at reads po-at-or-before the anchor.
        # A write outside the past never gains an edge, so it is left out.
        triplets: list[tuple[int, int, int]] = []
        for r in g.events_of[anchor.thread][: anchor.index + 1]:
            wid = rf.mapping.get(r.id)
            if wid is None:  # a write, or a read that rf leaves out
                continue
            w, ri = pos[wid], pos[r.id]
            for other in g.writes_by_var.get(r.var, ()):
                o = pos[other.id]
                if other.id != wid and past >> o & 1:
                    triplets.append((w, ri, o))

        self.added: list[tuple[int, int]] = []
        while True:
            # A round reads the closure as it stood when the round began.
            new = []
            for w, ri, o in triplets:
                row = rows[o]
                if row >> ri & 1 and not (row | gen[o]) >> w & 1:
                    gen[o] |= 1 << w
                    new.append((o, w))
            if not new:
                break
            for o, w in new:
                _link(rows, cols, 1 << o, 1 << w)
            self.added += new
        self.rows = rows
        self.gen = gen

    def contains(self, a: EventId, b: EventId) -> bool:
        pos = self.hb.pos
        return a in pos and b in pos and bool(self.rows.get(pos[a], 0) >> pos[b] & 1)

    def cycle(self, start: int) -> list[tuple[EventId, str]]:
        """Shortest generating-edge cycle through a reflexive event."""
        gen = self.gen
        parent: dict[int, int] = {}
        queue: deque[int] = deque()
        for n in _bits(gen[start]):
            parent[n] = start
            queue.append(n)
        while queue:
            n = queue.popleft()
            if n == start:
                break
            for m in _bits(gen[n]):
                if m not in parent:
                    parent[m] = n
                    queue.append(m)
        # walk back from start's reappearance
        path = [start]
        node = parent[start]
        while node != start:
            path.append(node)
            node = parent[node]
        path.reverse()
        ids = self.hb.ids
        return normalize_cycle([(ids[n], OB_EDGE) for n in path])

    def relation(self) -> ObRelation:
        ids, reach, past = self.hb.ids, self.hb.reach, self.past
        pairs = frozenset((ids[e], ids[f]) for e, row in self.rows.items() for f in _bits(row))
        seed = [
            (ids[e], ids[f]) for e in self.rows for f in _bits(reach[e] & past & ~(1 << e))
        ]
        added = [(ids[o], ids[w]) for o, w in self.added]
        return ObRelation(anchor=self.anchor, pairs=pairs, edges=tuple(seed + added))


def compute_ob(
    g: PartialExecutionGraph, rf: ReadsFrom, anchor: EventId | str
) -> ObRelation:
    """Fixed point of the observed-order rules for one anchor.

    A thread anchor resolves to its last event.  Presumes porf-acyclicity;
    callers check that first.
    """
    if isinstance(anchor, str):
        if anchor not in g.events_of:
            raise UnknownEvent(f"no thread {anchor!r}")
        evs = g.events_of[anchor]
        if not evs:
            raise EmptyThread(f"thread {anchor!r} has no events")
        anchor_id = evs[-1].id
    else:
        anchor_id = anchor
        g.event(anchor_id)
    return _ObservedOrder(_hb_index(g, rf), g, rf, anchor_id).relation()


def _thread_orders(g: PartialExecutionGraph, rf: ReadsFrom, hb: _HbIndex):
    """The observed order of every non-empty thread, in sorted thread order."""
    events = g.numbering.events
    for start, end in g.numbering.spans:
        if start < end:
            yield _ObservedOrder(hb, g, rf, events[end - 1].id)


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


def _suffix_masks(hb: _HbIndex, order: list[EventId]) -> list[int]:
    """later[i]: the bits of the events after order[i]."""
    later = [0] * len(order)
    acc = 0
    for i in range(len(order) - 1, 0, -1):
        acc |= 1 << hb.pos[order[i]]
        later[i - 1] = acc
    return later


def _check_mo(
    g: PartialExecutionGraph, mo: ModificationOrder | None, needed_by: str | None
) -> None:
    """Validate a given mo; when `needed_by` (an axiom or a model) reads
    mo, require one that covers every written location."""
    if mo is not None:
        mo.validate(g)
    if needed_by is None:
        return
    if mo is None:
        raise MissingMo(f"{needed_by} needs a modification order")
    if not mo.covers(g):
        raise MissingMo("modification order does not cover every written location")


def check_axiom(
    g: PartialExecutionGraph,
    rf: ReadsFrom,
    mo: ModificationOrder | None,
    ax: Axiom,
) -> list[tuple[EventId, str]] | None:
    """None when the axiom holds, else the first violating cycle found.

    Scan order is deterministic: locations sorted, reads and events in
    (thread id, index) order.  rf may be partial: a read it leaves out has
    no rf edge and is not checked.  A given mo must be valid (ModelError),
    and an axiom that reads mo needs one that covers every written
    location (MissingMo).
    """
    _check_mo(g, mo, f"axiom {ax.value}" if ax in MO_AXIOMS else None)
    return _check_axiom(g, rf, mo, ax, _hb_index(g, rf) if ax in HB_AXIOMS else None)


def _check_axiom(
    g: PartialExecutionGraph, rf: ReadsFrom, mo: ModificationOrder | None, ax: Axiom, hb
) -> list[tuple[EventId, str]] | None:
    """`check_axiom` on validated witnesses and rf's hb index, if built."""
    if ax is Axiom.PORF_ACYCLICITY:
        return porf_cycle(g, rf) if hb is None else _cycle_certificate(g, rf, hb.cycle)

    if ax is Axiom.WRITE_COHERENCE:
        for var in sorted(mo.per_var):
            order = mo.order(var)
            later = _suffix_masks(hb, order)
            for i, w1 in enumerate(order):
                hit = hb.back[hb.pos[w1]] & later[i]
                if hit:
                    return [(w1, MO_EDGE), (hb.first(order[i + 1 :], hit), HB_EDGE)]
        return None

    if ax is Axiom.READ_COHERENCE:
        scans: dict[str, tuple[list[EventId], dict[EventId, int], list[int]]] = {}
        for r, w1 in _rf_edges(g, rf):
            if r.var not in scans:
                order = mo.order(r.var)
                scans[r.var] = order, mo.position(r.var), _suffix_masks(hb, order)
            order, position, later = scans[r.var]
            pos = position[w1]
            hit = hb.back[hb.pos[r.id]] & later[pos]
            if hit:
                w2 = hb.first(order[pos + 1 :], hit)
                return [(r.id, RF_INV_EDGE), (w1, MO_EDGE), (w2, HB_EDGE)]
        return None

    if ax is Axiom.STRONG_WRITE_COHERENCE:
        # acy(hb ∪ mo) == acy(po ∪ rf ∪ mo); consecutive mo edges suffice.
        succ = _adjacency(g, rf)
        pos = g.numbering.index
        for var in sorted(mo.per_var):
            order = mo.order(var)
            for a, b in zip(order, order[1:]):
                succ[pos[a]].append(pos[b])
        return _cycle_certificate(g, rf, _components(succ)[1])

    if ax is Axiom.WEAK_READ_COHERENCE:
        writes = g.numbering.write_mask
        for r, w1 in _rf_edges(g, rf):
            # writes of the location hb-before the read and hb-after its write
            hit = hb.back[hb.pos[r.id]] & writes[r.var] & hb.reach[hb.pos[w1]]
            if hit:
                w2 = hb.ids[(hit & -hit).bit_length() - 1]
                return [(r.id, RF_INV_EDGE), (w1, HB_EDGE), (w2, HB_EDGE)]
        return None

    if ax is Axiom.RELAXED_WRITE_COHERENCE:
        # A write breaks it when a po-earlier write of its thread is
        # mo-after it; the certificate takes the mo-first such write and,
        # as w2, the mo-first of those po-earlier writes above it.
        for var in sorted(mo.per_var):
            position = mo.position(var)
            w1 = w2 = None  # mo positions of the certificate's writes
            exposed, thread = 0, None  # mo positions of the thread's writes so far
            for w in g.writes_by_var.get(var, ()):
                if w.id.thread != thread:
                    exposed, thread = 0, w.id.thread
                pos = position[w.id]
                above = exposed >> pos + 1
                if above and (w1 is None or pos < w1):
                    w1, w2 = pos, pos + (above & -above).bit_length()
                exposed |= 1 << pos
            if w1 is not None:
                order = mo.order(var)
                return [(order[w1], MO_EDGE), (order[w2], PO_EDGE)]
        return None

    if ax is Axiom.RELAXED_READ_COHERENCE:
        # A read breaks it when a po-earlier event of its thread exposes a
        # write mo-after its own: a write of the location, or the write an
        # earlier read of the location took.  The certificate's w2 is the
        # mo-first such write, through the write itself if it is po-before
        # the read, else through the first read that took it.  Reads are
        # scanned in sorted-id order, so the first one found is the first
        # of `g.reads`.
        positions = {var: mo.position(var) for var in mo.per_var}
        num = g.numbering
        for start, end in num.spans:
            exposed: dict[str, int] = {}  # location -> mask of exposed positions
            via: dict[EventId, EventId | None] = {}  # exposed write -> first read of it
            for ev in num.events[start:end]:
                w = rf.mapping.get(ev.id) if ev.is_read else ev.id
                if w is None:  # a read that rf leaves out exposes nothing
                    continue
                pos = positions[ev.var][w]
                seen = exposed.get(ev.var, 0)
                if ev.is_read:
                    above = seen >> pos + 1
                    if above:
                        w2 = mo.order(ev.var)[pos + (above & -above).bit_length()]
                        r2 = via[w2]
                        tail = [(w2, PO_EDGE)] if r2 is None else [(w2, RF_EDGE), (r2, PO_EDGE)]
                        return [(ev.id, RF_INV_EDGE), (w, MO_EDGE), *tail]
                    via.setdefault(w, ev.id)
                else:
                    via[w] = None  # the write itself is po-before later reads
                exposed[ev.var] = seen | 1 << pos
        return None

    if ax is Axiom.OB_ACYCLICITY:
        for ob in _thread_orders(g, rf, hb):
            start = next((e for e, row in ob.rows.items() if row >> e & 1), None)
            if start is not None:
                return ob.cycle(start)
        return None

    raise ValueError(f"unknown axiom {ax!r}")


def verify(
    g: PartialExecutionGraph,
    rf: ReadsFrom,
    mo: ModificationOrder | None,
    m: MemoryModel,
    report: dict[Axiom, list[tuple[EventId, str]] | None] | None = None,
) -> Verdict:
    """Run the model's axioms against given witnesses.

    Returns a Consistent verdict echoing the witnesses, or the first
    violation in the model's check order.  Given a `report`, every axiom
    is checked once and its certificate (None when it holds) is stored
    under it; the verdict is still the first violation.
    """
    rf.validate(g)
    _check_mo(g, mo, f"model {m.value}" if model_needs_mo(m) else None)
    verdict = None
    # hb models check porf first: without a report a cyclic rf stops there
    hb = _hb_index(g, rf, report is None) if HB_AXIOMS.intersection(axioms_for(m)) else None
    for ax in axioms_for(m):
        cert = _check_axiom(g, rf, mo, ax, hb)
        if report is not None:
            report[ax] = cert
        if cert is not None and verdict is None:
            verdict = Verdict.inconsistent(ax.value, cert)
            if report is None:
                break
    return verdict if verdict is not None else Verdict.consistent(rf, mo)


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------


def replay_certificate(
    g: PartialExecutionGraph,
    cert: list[tuple[EventId, str]],
    rf: ReadsFrom | None = None,
    mo: ModificationOrder | None = None,
) -> bool:
    """Re-check every labelled step of a certificate against the graph.

    Certificates are cyclic: the last event's edge leads back to the first.
    Single-event certificates (a blocking read) have no edges to check.
    rf may be partial: a read it leaves out has no rf edge.
    """
    if len(cert) <= 1:
        return all(g.has_event(e) for e, _ in cert)
    ob_steps: list[tuple[EventId, EventId]] = []
    for i, (a, label) in enumerate(cert):
        b = cert[(i + 1) % len(cert)][0]
        if label == PO_EDGE:
            if not g.po(a, b):
                return False
        elif label == RF_EDGE:
            if rf is None or rf.mapping.get(b) != a:
                return False
        elif label == RF_INV_EDGE:
            if rf is None or rf.mapping.get(a) != b:
                return False
        elif label == MO_EDGE:
            if mo is None:
                return False
            var = g.event(a).var
            order = mo.per_var.get(var, [])
            if a not in order or b not in order or order.index(a) >= order.index(b):
                return False
        elif label == HB_EDGE:
            if rf is None or not hb_reaches(g, rf, a, b):
                return False
        elif label == OB_EDGE:
            ob_steps.append((a, b))
        else:
            return False
    if ob_steps:
        if rf is None:
            return False
        hb = _hb_index(g, rf)
        return any(all(ob.contains(a, b) for a, b in ob_steps) for ob in _thread_orders(g, rf, hb))
    return True
