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
    Event,
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


def _successors(g: PartialExecutionGraph, rf: ReadsFrom) -> dict[EventId, list[tuple[EventId, str]]]:
    """Labelled adjacency of po (immediate) and rf edges, deterministic order."""
    adj: dict[EventId, list[tuple[EventId, str]]] = {}
    for tid in g.thread_ids:
        evs = g.events_of[tid]
        for i, ev in enumerate(evs):
            out: list[tuple[EventId, str]] = []
            if i + 1 < len(evs):
                out.append((evs[i + 1].id, PO_EDGE))
            adj[ev.id] = out
    readers: dict[EventId, list[EventId]] = {}
    for rid, wid in rf.mapping.items():
        readers.setdefault(wid, []).append(rid)
    for wid, rids in readers.items():
        adj[wid].extend((rid, RF_EDGE) for rid in sorted(rids))
    return adj


def _predecessors(g: PartialExecutionGraph, rf: ReadsFrom) -> dict[EventId, list[EventId]]:
    pred: dict[EventId, list[EventId]] = {ev.id: [] for ev in g.events()}
    for tid in g.thread_ids:
        evs = g.events_of[tid]
        for i in range(1, len(evs)):
            pred[evs[i].id].append(evs[i - 1].id)
    for rid, wid in rf.mapping.items():
        pred[rid].append(wid)
    return pred


def _reach_from(
    adj: dict[EventId, list[tuple[EventId, str]]], start: EventId
) -> set[EventId]:
    """Events reachable from start by at least one po/rf edge."""
    seen: set[EventId] = set()
    queue = deque(nid for nid, _ in adj[start])
    while queue:
        nid = queue.popleft()
        if nid in seen:
            continue
        seen.add(nid)
        queue.extend(m for m, _ in adj[nid] if m not in seen)
    return seen


def _reach_back(pred: dict[EventId, list[EventId]], start: EventId) -> set[EventId]:
    """Events from which start is reachable by at least one edge."""
    seen: set[EventId] = set()
    queue = deque(pred[start])
    while queue:
        nid = queue.popleft()
        if nid in seen:
            continue
        seen.add(nid)
        queue.extend(m for m in pred[nid] if m not in seen)
    return seen


def hb_reaches(g: PartialExecutionGraph, rf: ReadsFrom, src: EventId, dst: EventId) -> bool:
    """True iff (src, dst) is in the transitive closure of po and rf."""
    g.event(src)
    g.event(dst)
    adj = _successors(g, rf)
    return dst in _reach_from(adj, src)


def _find_cycle(
    nodes: list[EventId], adj: dict[EventId, list[tuple[EventId, str]]]
) -> list[tuple[EventId, str]] | None:
    """First cycle found by DFS in sorted node order, as labelled steps."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    for root in sorted(nodes):
        if color[root] != WHITE:
            continue
        path_nodes = [root]
        path_labels: list[str] = []
        color[root] = GREY
        iters = [iter(adj[root])]
        while iters:
            try:
                nxt, label = next(iters[-1])
            except StopIteration:
                iters.pop()
                color[path_nodes.pop()] = BLACK
                if path_labels:
                    path_labels.pop()
                continue
            if color[nxt] == GREY:
                pos = path_nodes.index(nxt)
                cycle = [
                    (path_nodes[i], path_labels[i]) for i in range(pos, len(path_nodes) - 1)
                ]
                cycle.append((path_nodes[-1], label))
                return normalize_cycle(cycle)
            if color[nxt] == WHITE:
                color[nxt] = GREY
                path_nodes.append(nxt)
                path_labels.append(label)
                iters.append(iter(adj[nxt]))
        # path exhausted, all blackened above
    return None


def porf_cycle(g: PartialExecutionGraph, rf: ReadsFrom) -> list[tuple[EventId, str]] | None:
    adj = _successors(g, rf)
    return _find_cycle([ev.id for ev in g.events()], adj)


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


def _closure(edge_adj: dict[EventId, set[EventId]]) -> set[tuple[EventId, EventId]]:
    pairs: set[tuple[EventId, EventId]] = set()
    for start in edge_adj:
        seen: set[EventId] = set()
        queue = deque(edge_adj[start])
        while queue:
            n = queue.popleft()
            if n in seen:
                continue
            seen.add(n)
            queue.extend(edge_adj.get(n, ()))
        pairs.update((start, n) for n in seen)
    return pairs


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

    adj = _successors(g, rf)
    pred = _predecessors(g, rf)
    past = _reach_back(pred, anchor_id)
    past.add(anchor_id)

    # Rule 1: hb restricted to the (reflexive) past of the anchor.
    edge_adj: dict[EventId, set[EventId]] = {e: set() for e in past}
    for e in past:
        for f in _reach_from(adj, e):
            if f in past and f != e:
                edge_adj[e].add(f)

    # Conflicting triplets anchored at reads po-at-or-before the anchor.
    triplets: list[tuple[EventId, EventId, EventId]] = []
    for r in g.reads:
        rid = r.id
        in_prefix = rid == anchor_id or (
            rid.thread == anchor_id.thread and rid.index < anchor_id.index
        )
        if not in_prefix:
            continue
        wid = rf.mapping[rid]
        for other in g.writes_by_var.get(r.var, []):
            if other.id != wid:
                triplets.append((wid, rid, other.id))

    edges: list[tuple[EventId, EventId]] = sorted(
        (a, b) for a in edge_adj for b in edge_adj[a]
    )
    pairs = _closure(edge_adj)
    changed = True
    while changed:
        changed = False
        for wid, rid, other in triplets:
            if (other, rid) in pairs and (other, wid) not in pairs:
                edge_adj.setdefault(other, set())
                if wid not in edge_adj[other]:
                    edge_adj[other].add(wid)
                    edges.append((other, wid))
                    changed = True
        if changed:
            pairs = _closure(edge_adj)
    return ObRelation(anchor=anchor_id, pairs=frozenset(pairs), edges=tuple(edges))


def _ob_cycle(ob: ObRelation, start: EventId) -> list[tuple[EventId, str]]:
    """Shortest generating-edge cycle through a reflexive event."""
    adj: dict[EventId, list[EventId]] = {}
    for a, b in ob.edges:
        adj.setdefault(a, []).append(b)
    for lst in adj.values():
        lst.sort()
    parent: dict[EventId, EventId] = {}
    queue = deque(adj.get(start, ()))
    for n in adj.get(start, ()):
        parent.setdefault(n, start)
    while queue:
        n = queue.popleft()
        if n == start:
            break
        for m in adj.get(n, ()):
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
    return normalize_cycle([(n, OB_EDGE) for n in path])


# ---------------------------------------------------------------------------
# Axiom checks
# ---------------------------------------------------------------------------


def check_axiom(
    g: PartialExecutionGraph,
    rf: ReadsFrom,
    mo: ModificationOrder | None,
    ax: Axiom,
) -> list[tuple[EventId, str]] | None:
    """None when the axiom holds, else the first violating cycle found.

    Scan order is deterministic: locations sorted, reads and events in
    (thread id, index) order.
    """
    if ax in MO_AXIOMS:
        if mo is None:
            raise MissingMo(f"axiom {ax.value} needs a modification order")
        if not mo.covers(g):
            raise MissingMo("modification order does not cover every written location")

    if ax is Axiom.PORF_ACYCLICITY:
        return porf_cycle(g, rf)

    if ax is Axiom.WRITE_COHERENCE:
        pred = _predecessors(g, rf)
        for var in sorted(mo.per_var):
            order = mo.order(var)
            for i, w1 in enumerate(order):
                if i + 1 == len(order):
                    continue
                back = _reach_back(pred, w1)
                for w2 in order[i + 1 :]:
                    if w2 in back:
                        return [(w1, MO_EDGE), (w2, HB_EDGE)]
        return None

    if ax is Axiom.READ_COHERENCE:
        pred = _predecessors(g, rf)
        for r in g.reads:
            w1 = rf.mapping[r.id]
            order = mo.order(r.var)
            pos = order.index(w1)
            if pos + 1 == len(order):
                continue
            back = _reach_back(pred, r.id)
            for w2 in order[pos + 1 :]:
                if w2 in back:
                    return [(r.id, RF_INV_EDGE), (w1, MO_EDGE), (w2, HB_EDGE)]
        return None

    if ax is Axiom.STRONG_WRITE_COHERENCE:
        # acy(hb ∪ mo) == acy(po ∪ rf ∪ mo); consecutive mo edges suffice.
        adj = _successors(g, rf)
        for var in sorted(mo.per_var):
            order = mo.order(var)
            for a, b in zip(order, order[1:]):
                adj[a] = adj[a] + [(b, MO_EDGE)]
        return _find_cycle([ev.id for ev in g.events()], adj)

    if ax is Axiom.WEAK_READ_COHERENCE:
        adj = _successors(g, rf)
        pred = _predecessors(g, rf)
        for r in g.reads:
            w1 = rf.mapping[r.id]
            back = _reach_back(pred, r.id)
            candidates = [w.id for w in g.writes_by_var[r.var] if w.id in back]
            if not candidates:
                continue
            fwd = _reach_from(adj, w1)
            for w2 in candidates:
                if w2 in fwd:
                    return [(r.id, RF_INV_EDGE), (w1, HB_EDGE), (w2, HB_EDGE)]
        return None

    if ax is Axiom.RELAXED_WRITE_COHERENCE:
        for var in sorted(mo.per_var):
            order = mo.order(var)
            for i, w1 in enumerate(order):
                for w2 in order[i + 1 :]:
                    if w2.thread == w1.thread and w2.index < w1.index:
                        return [(w1, MO_EDGE), (w2, PO_EDGE)]
        return None

    if ax is Axiom.RELAXED_READ_COHERENCE:
        readers: dict[EventId, list[EventId]] = {}
        for rid, wid in rf.mapping.items():
            readers.setdefault(wid, []).append(rid)
        for r in g.reads:
            w1 = rf.mapping[r.id]
            order = mo.order(r.var)
            pos = order.index(w1)
            for w2 in order[pos + 1 :]:
                if w2.thread == r.id.thread and w2.index < r.id.index:
                    return [(r.id, RF_INV_EDGE), (w1, MO_EDGE), (w2, PO_EDGE)]
                for r2 in sorted(readers.get(w2, ())):
                    if r2.thread == r.id.thread and r2.index < r.id.index:
                        return [
                            (r.id, RF_INV_EDGE),
                            (w1, MO_EDGE),
                            (w2, RF_EDGE),
                            (r2, PO_EDGE),
                        ]
        return None

    if ax is Axiom.OB_ACYCLICITY:
        for tid in sorted(g.thread_ids):
            if not g.events_of[tid]:
                continue
            ob = compute_ob(g, rf, tid)
            reflexive = ob.reflexive_events()
            if reflexive:
                return _ob_cycle(ob, reflexive[0])
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
    if model_needs_mo(m):
        if mo is None:
            raise MissingMo(f"model {m.value} needs a modification order")
        mo.validate(g)
        if not mo.covers(g):
            raise MissingMo("modification order does not cover every written location")
    verdict = None
    for ax in axioms_for(m):
        cert = check_axiom(g, rf, mo, ax)
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
        for tid in sorted(g.thread_ids):
            if not g.events_of[tid]:
                continue
            ob = compute_ob(g, rf, tid)
            if all(ob.contains(a, b) for a, b in ob_steps):
                return True
        return False
    return True
