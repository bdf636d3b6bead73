"""Consistency axioms over complete execution graphs.

Checks the coherence and causality axioms of the release-acquire family
(WRA/RA/SRA), the relaxed variants, and the per-thread observed-order
acyclicity that distinguishes causal memory.  Every failed check yields a
certificate: labelled edges that replay to the violating cycle.

The checks work on event numbers.  Each public entry point numbers its
rf and mo once, on the graph's numbering (`number_rf`, `number_mo`),
and everything below it reads those numbers; `racheck verify` hands
`_verify` the numbers its parse made instead.  EventIds are made only
for the certificates, `ObRelation` and the witnesses a verdict echoes.
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
    number_mo,
    number_rf,
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


def _adjacency(g: PartialExecutionGraph, src: list[int]) -> list[list[int]]:
    """po (immediate) and rf successors on the graph's numbering: each
    event's po-successor first, then the reads it feeds in ascending order."""
    num = g.numbering
    succ: list[list[int]] = [[] for _ in num.events]
    for start, end in num.spans:
        for i in range(start + 1, end):
            succ[i - 1].append(i)
    for r in num.reads:
        if src[r] >= 0:
            succ[src[r]].append(r)
    return succ


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

    def __init__(self, reach: list[int], back: list[int], cycle=None):
        self.reach = reach
        self.back = back
        self.cycle = cycle


def _hb_index(g: PartialExecutionGraph, src: list[int], cycle_only: bool = False) -> _HbIndex:
    """rf's hb index: one `_components` run orders both closures and keeps
    its cycle; with `cycle_only` a cyclic rf gets the cycle and no masks."""
    succ = _adjacency(g, src)
    comps, cycle = _components(succ)
    if cycle_only and cycle is not None:
        return _HbIndex([], [], cycle)
    pred: list[list[int]] = [[] for _ in succ]
    for v, out in enumerate(succ):
        for w in out:
            pred[w].append(v)
    return _HbIndex(_propagate(comps, succ), _propagate(comps[::-1], pred), cycle)


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
    # every loop walks the bits inline: no generator per call or event
    sources, targets = heads, tails
    rest = heads
    while rest:
        low = rest & -rest
        sources |= coreach[low.bit_length() - 1]
        rest ^= low
    rest = tails
    while rest:
        low = rest & -rest
        targets |= reach[low.bit_length() - 1]
        rest ^= low
    rest = sources
    while rest:
        low = rest & -rest
        reach[low.bit_length() - 1] |= targets
        rest ^= low
    rest = targets
    while rest:
        low = rest & -rest
        coreach[low.bit_length() - 1] |= sources
        rest ^= low
    return sources, targets


def hb_reaches(g: PartialExecutionGraph, rf: ReadsFrom, src: EventId, dst: EventId) -> bool:
    """True iff (src, dst) is in the transitive closure of po and rf."""
    return _hb_reaches(g, number_rf(g, rf), src, dst)


def _hb_reaches(g: PartialExecutionGraph, rf: list[int], src: EventId, dst: EventId) -> bool:
    """`hb_reaches` on the numbered rf: one forward sweep from src, stopping
    at dst.  Reaching an event reaches the rest of its thread, so the sweep
    keeps, per thread, the first event reached and scans each thread's
    events at most once."""
    g.event(src)
    g.event(dst)
    num = g.numbering
    s, d = num.index[src], num.index[dst]
    readers: dict[int, list[int]] = {}
    for r in num.reads:
        if rf[r] >= 0:
            readers.setdefault(rf[r], []).append(r)
    first = [end for _, end in num.spans]  # per thread; its end: none reached yet
    todo = list(readers.get(s, ()))
    if s + 1 < first[num.thread_of[s]]:
        todo.append(s + 1)
    while todo:
        e = todo.pop()
        t = num.thread_of[e]
        end = first[t]
        if e >= end:
            continue
        if e <= d < end:
            return True
        first[t] = e
        for v in range(e, end):
            todo += readers.get(v, ())
    return False


def _cycle_certificate(
    g: PartialExecutionGraph, src: list[int], cycle: list[int] | None
) -> list[tuple[EventId, str]] | None:
    """A cycle `_components` found over po ∪ rf successors (plus any mo
    edges) as labelled steps, or None.  A step is labelled po when it is
    one, else rf, else mo: the search tries the po edge first."""
    if cycle is None:
        return None
    num = g.numbering
    steps = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if b == a + 1 and num.thread_of[a] == num.thread_of[b]:
            label = PO_EDGE
        elif src[b] == a:
            label = RF_EDGE
        else:
            label = MO_EDGE
        steps.append((num.ids[a], label))
    return normalize_cycle(steps)


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

    def __init__(self, hb: _HbIndex, g: PartialExecutionGraph, src: list[int], anchor: int):
        num = g.numbering
        self.hb = hb
        self.ids = num.ids
        self.anchor = anchor
        self.past = past = hb.back[anchor] | 1 << anchor
        # Rule 1: hb restricted to the past.  Every hb path between two
        # events of the past stays inside it, so the seed is already closed.
        rows = {e: hb.reach[e] & past for e in _bits(past)}
        cols = {e: hb.back[e] & past for e in _bits(past)}  # rows transposed
        gen = {e: row & ~(1 << e) for e, row in rows.items()}

        # Conflicting triplets anchored at reads po-at-or-before the anchor.
        # A write outside the past never gains an edge, so it is left out.
        triplets: list[tuple[int, int, int]] = []
        for r in range(num.spans[num.thread_of[anchor]][0], anchor + 1):
            w = src[r]
            if w < 0:  # a write, or a read that rf leaves out
                continue
            for o in num.var_writes.get(num.events[r].var, ()):
                if o != w and past >> o & 1:
                    triplets.append((w, r, o))

        self.added: list[tuple[int, int]] = []
        while True:
            # A round reads the closure as it stood when the round began.
            new = []
            for w, r, o in triplets:
                row = rows[o]
                if row >> r & 1 and not (row | gen[o]) >> w & 1:
                    gen[o] |= 1 << w
                    new.append((o, w))
            if not new:
                break
            for o, w in new:
                _link(rows, cols, 1 << o, 1 << w)
            self.added += new
        self.rows = rows
        self.gen = gen

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
        ids = self.ids
        return normalize_cycle([(ids[n], OB_EDGE) for n in path])

    def relation(self) -> ObRelation:
        ids, reach, past = self.ids, self.hb.reach, self.past
        pairs = frozenset((ids[e], ids[f]) for e, row in self.rows.items() for f in _bits(row))
        seed = [
            (ids[e], ids[f]) for e in self.rows for f in _bits(reach[e] & past & ~(1 << e))
        ]
        added = [(ids[o], ids[w]) for o, w in self.added]
        return ObRelation(anchor=ids[self.anchor], pairs=pairs, edges=tuple(seed + added))


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
        anchor = evs[-1].id
    else:
        g.event(anchor)
    src = number_rf(g, rf)
    return _ObservedOrder(_hb_index(g, src), g, src, g.numbering.index[anchor]).relation()


def _thread_orders(g: PartialExecutionGraph, src: list[int], hb: _HbIndex):
    """The observed order of every non-empty thread, in sorted thread order."""
    for start, end in g.numbering.spans:
        if start < end:
            yield _ObservedOrder(hb, g, src, end - 1)


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


def _require_mo(g: PartialExecutionGraph, mo: ModificationOrder | None, needed_by: str) -> None:
    """Raise MissingMo unless mo is given and covers every written
    location; `needed_by` names the axiom or model that reads it."""
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
    numbered_mo = None if mo is None else number_mo(g, mo)
    if ax in MO_AXIOMS:
        _require_mo(g, mo, f"axiom {ax.value}")
    src = number_rf(g, rf)
    return _check_axiom(g, src, numbered_mo, ax, _hb_index(g, src) if ax in HB_AXIOMS else None)


def _check_axiom(
    g: PartialExecutionGraph, src: list[int], mo, ax: Axiom, hb: _HbIndex | None
) -> list[tuple[EventId, str]] | None:
    """`check_axiom` on the numbered rf and mo, and rf's hb index if built."""
    num = g.numbering
    ids, events = num.ids, num.events
    orders, rank = mo or (None, None)

    if ax is Axiom.PORF_ACYCLICITY:
        cycle = _components(_adjacency(g, src))[1] if hb is None else hb.cycle
        return _cycle_certificate(g, src, cycle)

    if ax in (Axiom.WRITE_COHERENCE, Axiom.READ_COHERENCE):
        # Broken when a write mo-after w1 happens-before e, which is w1
        # itself or a read of w1; the certificate's w2 is the mo-first one.
        if ax is Axiom.WRITE_COHERENCE:
            pairs = ((w, w) for var in sorted(orders) for w in orders[var])
        else:
            pairs = ((r, src[r]) for r in num.reads if src[r] >= 0)
        later = [0] * len(ids)  # later[w]: the writes mo-after write w
        for order in orders.values():
            acc = 0
            for w in reversed(order):
                later[w], acc = acc, acc | 1 << w
        for e, w1 in pairs:
            hit = hb.back[e] & later[w1]
            if hit:
                w2 = min(_bits(hit), key=rank.__getitem__)
                cert = [(ids[w1], MO_EDGE), (ids[w2], HB_EDGE)]
                return cert if e == w1 else [(ids[e], RF_INV_EDGE), *cert]
        return None

    if ax is Axiom.STRONG_WRITE_COHERENCE:
        # acy(hb ∪ mo) == acy(po ∪ rf ∪ mo); consecutive mo edges suffice.
        succ = _adjacency(g, src)
        for var in sorted(orders):
            order = orders[var]
            for a, b in zip(order, order[1:]):
                succ[a].append(b)
        return _cycle_certificate(g, src, _components(succ)[1])

    if ax is Axiom.WEAK_READ_COHERENCE:
        writes = num.write_mask
        for r in num.reads:
            w1 = src[r]
            # writes of the location hb-before the read and hb-after its write
            hit = w1 >= 0 and hb.back[r] & writes[events[r].var] & hb.reach[w1]
            if hit:
                w2 = (hit & -hit).bit_length() - 1
                return [(ids[r], RF_INV_EDGE), (ids[w1], HB_EDGE), (ids[w2], HB_EDGE)]
        return None

    if ax is Axiom.RELAXED_WRITE_COHERENCE:
        # A write breaks it when a po-earlier write of its thread is
        # mo-after it; the certificate takes the mo-first such write and,
        # as w2, the mo-first of those po-earlier writes above it.
        thread_of = num.thread_of
        for var in sorted(orders):
            w1 = w2 = None  # mo positions of the certificate's writes
            exposed, thread = 0, None  # mo positions of the thread's writes so far
            for w in num.var_writes.get(var, ()):
                if thread_of[w] != thread:
                    exposed, thread = 0, thread_of[w]
                pos = rank[w]
                above = exposed >> pos + 1
                if above and (w1 is None or pos < w1):
                    w1, w2 = pos, pos + (above & -above).bit_length()
                exposed |= 1 << pos
            if w1 is not None:
                order = orders[var]
                return [(ids[order[w1]], MO_EDGE), (ids[order[w2]], PO_EDGE)]
        return None

    if ax is Axiom.RELAXED_READ_COHERENCE:
        # A read breaks it when a po-earlier event of its thread exposes a
        # write mo-after its own: a write of the location, or the write an
        # earlier read of the location took.  The certificate's w2 is the
        # mo-first such write, through the write itself if it is po-before
        # the read, else through the first read that took it.  Reads are
        # scanned in sorted-id order, so the first one found is the first
        # of `g.reads`.
        for start, end in num.spans:
            exposed: dict[str, int] = {}  # location -> mask of exposed positions
            via: dict[int, int] = {}  # exposed write -> first read of it, -1: itself
            for e in range(start, end):
                ev = events[e]
                w = src[e] if ev.is_read else e
                if w < 0:  # a read that rf leaves out exposes nothing
                    continue
                pos = rank[w]
                seen = exposed.get(ev.var, 0)
                if ev.is_read:
                    above = seen >> pos + 1
                    if above:
                        w2 = orders[ev.var][pos + (above & -above).bit_length()]
                        r2 = via[w2]
                        tail = [(w2, PO_EDGE)] if r2 < 0 else [(w2, RF_EDGE), (r2, PO_EDGE)]
                        cert = [(e, RF_INV_EDGE), (w, MO_EDGE), *tail]
                        return [(ids[x], label) for x, label in cert]
                    via.setdefault(w, e)
                else:
                    via[w] = -1  # the write itself is po-before later reads
                exposed[ev.var] = seen | 1 << pos
        return None

    if ax is Axiom.OB_ACYCLICITY:
        for ob in _thread_orders(g, src, hb):
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
    under it; the verdict is still the first violation.  rf must map
    exactly the reads (InvalidRf), a given mo must be valid (ModelError),
    and a model that reads mo needs one that covers every written
    location (MissingMo).
    """
    rf._check_domain(g)
    src = number_rf(g, rf)  # validates each rf edge
    numbered_mo = None if mo is None else number_mo(g, mo)
    return _verify(g, rf, mo, src, numbered_mo, m, report)


def _verify(
    g: PartialExecutionGraph,
    rf: ReadsFrom,
    mo: ModificationOrder | None,
    src: list[int],
    numbered_mo,
    m: MemoryModel,
    report: dict[Axiom, list[tuple[EventId, str]] | None] | None = None,
) -> Verdict:
    """`verify` on witnesses that are already validated and numbered:
    `src` is rf in `number_rf`'s form and `numbered_mo` mo in
    `number_mo`'s (None or unread when the model reads no mo).  Every key
    of rf is a read, so the domain check is a count."""
    if len(rf.mapping) != len(g.reads):
        rf._check_domain(g)
    if model_needs_mo(m):
        _require_mo(g, mo, f"model {m.value}")
    verdict = None
    # hb models check porf first: without a report a cyclic rf stops there
    hb = _hb_index(g, src, report is None) if HB_AXIOMS.intersection(axioms_for(m)) else None
    for ax in axioms_for(m):
        cert = _check_axiom(g, src, numbered_mo, ax, hb)
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
    An empty certificate makes no claim, so it fails.  A one-step
    certificate claims rf-totality fails: its step is rf^-1 on
    a read that no write matches in location and value.  A step from or
    to an event the graph lacks fails.  rf may be partial: a read it
    leaves out has no rf edge.  A given mo must be valid (ModelError).
    """
    num = g.numbering
    nums = [num.index.get(e, -1) for e, _ in cert]  # -1: no such event
    if len(cert) == 1:
        if cert[0][1] != RF_INV_EDGE or nums[0] < 0:
            return False
        ev = num.events[nums[0]]
        return ev.is_read and ev[2:] not in num.matches
    src = None if rf is None else number_rf(g, rf)
    rank = None if mo is None else number_mo(g, mo)[1]
    ob_steps: list[tuple[int, int]] = []
    for (a, label), (b, _), x, y in zip(cert, cert[1:] + cert[:1], nums, nums[1:] + nums[:1]):
        if min(x, y) < 0:
            return False
        if label == PO_EDGE:
            ok = g.po(a, b)
        elif label in (RF_EDGE, RF_INV_EDGE):
            read, write = (y, x) if label == RF_EDGE else (x, y)
            ok = src is not None and src[read] == write
        elif label == MO_EDGE:  # two writes of one location, a first
            ok = rank is not None and num.events[x].var == num.events[y].var
            ok = ok and 0 <= rank[x] < rank[y]
        elif label == HB_EDGE:
            ok = src is not None and _hb_reaches(g, src, a, b)
        else:
            ok = label == OB_EDGE and src is not None
            ob_steps.append((x, y))
        if not ok:
            return False
    if ob_steps:
        orders = _thread_orders(g, src, _hb_index(g, src))
        return any(all(ob.rows.get(x, 0) >> y & 1 for x, y in ob_steps) for ob in orders)
    return bool(cert)
