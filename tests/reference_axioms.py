"""Set-based reference for the hb-reading axiom checks.

These are the breadth-first-search versions that `racheck.axioms` used
before it moved to per-event reachability bitsets: `hb_reaches` rebuilds
the po/rf adjacency per query, `compute_ob` seeds the observed order by a
search from every event of the anchor's past and recomputes the full
closure after each round of the triplet rule, and the coherence checks
search backwards from each write or read.  `porf-acyclicity` and
`strong-write-coherence` run a colouring DFS over an EventId adjacency
with labelled edges, where the library reads the cycle off the Tarjan
search on the shared numbering.  The relaxed coherence checks scan the
whole mo suffix of every write and read, where the library makes one
pass over each location's writes or each thread's events.  The
differential tests hold the library to these results, certificates
included.  A read that rf leaves out has no rf edge: it seeds no
triplet and no coherence check.
"""

from __future__ import annotations

from collections import deque

from racheck.axioms import Axiom, EmptyThread, ObRelation
from racheck.model import (
    HB_EDGE,
    MO_EDGE,
    OB_EDGE,
    PO_EDGE,
    RF_EDGE,
    RF_INV_EDGE,
    UnknownEvent,
    normalize_cycle,
)


def _successors(g, rf):
    adj = {}
    for tid in g.thread_ids:
        evs = g.events_of[tid]
        for i, ev in enumerate(evs):
            out = []
            if i + 1 < len(evs):
                out.append((evs[i + 1].id, PO_EDGE))
            adj[ev.id] = out
    readers = {}
    for rid, wid in rf.mapping.items():
        readers.setdefault(wid, []).append(rid)
    for wid, rids in readers.items():
        adj[wid].extend((rid, RF_EDGE) for rid in sorted(rids))
    return adj


def _find_cycle(nodes, adj):
    """First cycle found by DFS in sorted node order, as labelled steps."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    for root in sorted(nodes):
        if color[root] != WHITE:
            continue
        path_nodes = [root]
        path_labels = []
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
    return None


def _predecessors(g, rf):
    pred = {ev.id: [] for ev in g.events()}
    for tid in g.thread_ids:
        evs = g.events_of[tid]
        for i in range(1, len(evs)):
            pred[evs[i].id].append(evs[i - 1].id)
    for rid, wid in rf.mapping.items():
        pred[rid].append(wid)
    return pred


def _reach_from(adj, start):
    """Events reachable from start by at least one po/rf edge."""
    seen = set()
    queue = deque(nid for nid, _ in adj[start])
    while queue:
        nid = queue.popleft()
        if nid in seen:
            continue
        seen.add(nid)
        queue.extend(m for m, _ in adj[nid] if m not in seen)
    return seen


def _reach_back(pred, start):
    """Events from which start is reachable by at least one edge."""
    seen = set()
    queue = deque(pred[start])
    while queue:
        nid = queue.popleft()
        if nid in seen:
            continue
        seen.add(nid)
        queue.extend(m for m in pred[nid] if m not in seen)
    return seen


def hb_reaches(g, rf, src, dst):
    g.event(src)
    g.event(dst)
    return dst in _reach_from(_successors(g, rf), src)


def _closure(edge_adj):
    pairs = set()
    for start in edge_adj:
        seen = set()
        queue = deque(edge_adj[start])
        while queue:
            n = queue.popleft()
            if n in seen:
                continue
            seen.add(n)
            queue.extend(edge_adj.get(n, ()))
        pairs.update((start, n) for n in seen)
    return pairs


def compute_ob(g, rf, anchor):
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

    edge_adj = {e: set() for e in past}
    for e in past:
        for f in _reach_from(adj, e):
            if f in past and f != e:
                edge_adj[e].add(f)

    triplets = []
    for r in g.reads:
        rid = r.id
        in_prefix = rid == anchor_id or (
            rid.thread == anchor_id.thread and rid.index < anchor_id.index
        )
        if not in_prefix or rid not in rf.mapping:
            continue
        wid = rf.mapping[rid]
        for other in g.writes_by_var.get(r.var, []):
            if other.id != wid:
                triplets.append((wid, rid, other.id))

    edges = sorted((a, b) for a in edge_adj for b in edge_adj[a])
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


def _ob_cycle(ob, start):
    adj = {}
    for a, b in ob.edges:
        adj.setdefault(a, []).append(b)
    for lst in adj.values():
        lst.sort()
    parent = {}
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
    path = [start]
    node = parent[start]
    while node != start:
        path.append(node)
        node = parent[node]
    path.reverse()
    return normalize_cycle([(n, OB_EDGE) for n in path])


def check_axiom(g, rf, mo, ax):
    """The reference result of one hb-reading axiom, of the two po ∪ rf
    cycle checks, and of the relaxed checks, which scan the whole mo
    suffix of every write and read."""
    if ax is Axiom.PORF_ACYCLICITY:
        return _find_cycle([ev.id for ev in g.events()], _successors(g, rf))

    if ax is Axiom.STRONG_WRITE_COHERENCE:
        adj = _successors(g, rf)
        for var in sorted(mo.per_var):
            order = mo.per_var[var]
            for a, b in zip(order, order[1:]):
                adj[a] = adj[a] + [(b, MO_EDGE)]
        return _find_cycle([ev.id for ev in g.events()], adj)

    if ax is Axiom.WRITE_COHERENCE:
        pred = _predecessors(g, rf)
        for var in sorted(mo.per_var):
            order = mo.per_var[var]
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
            if r.id not in rf.mapping:
                continue
            w1 = rf.mapping[r.id]
            order = mo.per_var[r.var]
            pos = order.index(w1)
            if pos + 1 == len(order):
                continue
            back = _reach_back(pred, r.id)
            for w2 in order[pos + 1 :]:
                if w2 in back:
                    return [(r.id, RF_INV_EDGE), (w1, MO_EDGE), (w2, HB_EDGE)]
        return None

    if ax is Axiom.WEAK_READ_COHERENCE:
        adj = _successors(g, rf)
        pred = _predecessors(g, rf)
        for r in g.reads:
            if r.id not in rf.mapping:
                continue
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
            order = mo.per_var[var]
            for i, w1 in enumerate(order):
                for w2 in order[i + 1 :]:
                    if w2.thread == w1.thread and w2.index < w1.index:
                        return [(w1, MO_EDGE), (w2, PO_EDGE)]
        return None

    if ax is Axiom.RELAXED_READ_COHERENCE:
        readers = {}
        for rid, wid in rf.mapping.items():
            readers.setdefault(wid, []).append(rid)
        for r in g.reads:
            if r.id not in rf.mapping:
                continue
            w1 = rf.mapping[r.id]
            order = mo.per_var[r.var]
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

    raise ValueError(f"no reference for {ax!r}")


REFERENCE_AXIOMS = (
    Axiom.PORF_ACYCLICITY,
    Axiom.STRONG_WRITE_COHERENCE,
    Axiom.WRITE_COHERENCE,
    Axiom.READ_COHERENCE,
    Axiom.WEAK_READ_COHERENCE,
    Axiom.RELAXED_WRITE_COHERENCE,
    Axiom.RELAXED_READ_COHERENCE,
    Axiom.OB_ACYCLICITY,
)
