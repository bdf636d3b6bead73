"""References for the oracle: brute-force streams, its rf search and its
mo synthesis.

`read_candidates` lists each read's value-matching writes by scanning its
location's writes, the table that `Numbering.matches` replaces.
`enumerate_rfs` and `enumerate_mos` are the plain Cartesian products of
each read's value-matching writes and of each location's write orders.
The tests verify every (rf, mo) pair they stream to decide consistency
with no search at all.  `unmatched_read` is the first read in id order
with no value-matching write, by that scan: the reference for
`Numbering.unmatched_read`, which both engines report for rf-totality
before any search.

`ChronologicalSearch` is the search that `racheck.oracle._Search.leaves`
ran before it learned conflict-directed backjumping: a failed candidate,
and a leaf resumed after it was yielded, only move the search on to the
next candidate of the same read, and a read that runs out of candidates
returns to the read assigned just before it.
Its relaxed prune is the one the library had before it kept the forced
write order as a closure: a per-location digraph of the forced pairs,
searched for a cycle by DFS after every assignment.  That digraph lacks
each location's po edges between writes, so a leaf can still have no
mo.  The search keeps the library's closure too, through
`_Search._forces_mo_cycle` with its answer ignored, so that its leaves
hand `_first_mo` the same encoding.  The candidate order, the other
prunes, the leaf check and the budget are those of the library, so the
differential tests can hold the backjumping search to the same leaves in
the same order (so the same first witness and the same
`all_consistent_rfs`) and the same budget exits, with no more nodes.

`UnionMaskSearch` is the backjumping search before each prune blamed
one path: a porf prune (r takes w while r reaches w) blames every
assigned read whose rf edge can lie on some path r ->* w, and a
weak-read-coherence prune at (q, w_q) every one whose edge can lie on
some path w_q ->* q.  Each of its sets contains the library's, and the
rest of the search is the library's: the differential tests hold the
library to the same outcome and to no more nodes.

`permutation_first_mo` is the mo synthesis that `racheck.oracle._first_mo`
ran before it became a topological sort: a depth-first search over
permutations of each location's writes (one joint search over all
locations under SRA), cut off after a given number of placements.  The
differential tests hold the topological sort to its result wherever it
stays within that ceiling.

The library's `OracleLimits` bounds only the search, so the two mo
references take their own ceiling, `MAX_MO_PERMUTATIONS` by default;
exceeding it raises `BudgetExceeded("max_mo_permutations")`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from racheck.axioms import Axiom, _bits, check_axiom, model_needs_mo
from racheck.model import (
    Event,
    EventId,
    MemoryModel,
    ModificationOrder,
    PartialExecutionGraph,
    ReadsFrom,
    number_rf,
)
from racheck.oracle import (
    DEFAULT_LIMITS,
    BudgetExceeded,
    OracleLimits,
    _Encoding,
    _Leaf,
    _first_mo,
    _Search,
)

# orders `enumerate_mos` streams, placements `permutation_first_mo` tries
MAX_MO_PERMUTATIONS = 10_000


def read_candidates(g: PartialExecutionGraph) -> list[tuple[Event, list[EventId]]]:
    """Each read in id order with its value-matching writes in (thread,
    index) order, by a scan of every write of its location."""
    out = []
    for r in g.reads:
        matches = [w.id for w in g.writes_by_var.get(r.var, []) if w.val == r.val]
        out.append((r, matches))
    return out


def unmatched_read(g: PartialExecutionGraph) -> EventId | None:
    return next((r.id for r, matches in read_candidates(g) if not matches), None)


def enumerate_rfs(g: PartialExecutionGraph, limits: OracleLimits = DEFAULT_LIMITS):
    """All value-matching reads-from relations, lexicographic in read order.

    Empty stream iff some read has no matching write.
    """
    if g.num_events > limits.max_events:
        raise BudgetExceeded("max_events", limits.max_events)
    cands = read_candidates(g)
    count = 0
    for combo in itertools.product(*(matches for _, matches in cands)):
        count += 1
        if count > limits.max_rf_candidates:
            raise BudgetExceeded("max_rf_candidates", limits.max_rf_candidates)
        yield ReadsFrom({r.id: wid for (r, _), wid in zip(cands, combo)})


def enumerate_mos(g: PartialExecutionGraph, max_permutations: int = MAX_MO_PERMUTATIONS):
    """All per-location write orders, lexicographic over sorted locations."""
    variables = sorted(g.writes_by_var)
    perms_per_var = [
        itertools.permutations([w.id for w in g.writes_by_var[var]]) for var in variables
    ]
    count = 0
    for combo in itertools.product(*perms_per_var):
        count += 1
        if count > max_permutations:
            raise BudgetExceeded("max_mo_permutations", max_permutations)
        yield ModificationOrder({var: list(order) for var, order in zip(variables, combo)})


class ChronologicalSearch(_Search):
    def __init__(self, g: PartialExecutionGraph, m: MemoryModel, limits: OracleLimits):
        super().__init__(g, m, limits)
        self.assignment: dict[int, int] = {}  # read idx -> write idx
        # relaxed forced-order digraph per location
        self.forced: dict[str, dict[EventId, set[EventId]]] = {}

    def _forced_new_pairs(self, rid: EventId, wid: EventId) -> list[tuple[EventId, EventId]]:
        rev = self.g.event(rid)
        pairs: list[tuple[EventId, EventId]] = []
        for w in self.g.writes_by_var[rev.var]:
            if w.id != wid and w.id.thread == rid.thread and w.id.index < rid.index:
                pairs.append((w.id, wid))
        for other, ow, _ in self.assigned_reads:
            oid = self.enc.events[other].id
            if oid.thread != rid.thread or self.g.event(oid).var != rev.var:
                continue
            owid = self.enc.events[ow].id
            if oid.index < rid.index and owid != wid:
                pairs.append((owid, wid))
            elif oid.index > rid.index and wid != owid:
                pairs.append((wid, owid))
        return pairs

    def _forced_cycle(self, var: str) -> bool:
        adj = self.forced.get(var, {})
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[EventId, int] = {}
        for root in adj:
            if color.get(root, WHITE) != WHITE:
                continue
            stack = [(root, iter(adj.get(root, ())))]
            color[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = color.get(nxt, WHITE)
                    if c == GREY:
                        return True
                    if c == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, iter(adj.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False

    def leaves(self) -> Iterator[_Leaf]:
        enc = self.enc

        def leaf() -> _Leaf | None:
            rf = ReadsFrom(
                {enc.events[r].id: enc.events[w].id for r, w in self.assignment.items()}
            )
            mo: ModificationOrder | None = None
            if self.check_ob:
                if check_axiom(self.g, rf, None, Axiom.OB_ACYCLICITY) is not None:
                    return None
            if model_needs_mo(self.model):
                mo = _first_mo(self.g, enc, number_rf(self.g, rf), self.model)
                if mo is None:
                    return None
            return rf, mo

        def descend(depth: int) -> Iterator[_Leaf]:
            if depth == len(self.order):
                found = leaf()
                if found is not None:
                    yield found
                return
            r, matches = self.order[depth]
            rev = enc.events[r]
            var_mask = enc.var_write_mask[rev.var]
            for w in matches:
                wid = enc.events[w].id
                self.rf_nodes += 1
                if self.rf_nodes > self.limits.max_rf_candidates:
                    raise BudgetExceeded(
                        "max_rf_candidates", self.limits.max_rf_candidates
                    )
                reach_snap = list(enc.reach)
                coreach_snap = list(enc.coreach)
                if self.prune_relaxed:
                    mo_snap = list(enc.mo_reach), list(enc.mo_coreach)
                sources = enc.coreach[w] | (1 << w)
                targets = enc.reach[r] | (1 << r)
                for s in _bits(sources):
                    enc.reach[s] |= targets
                for t in _bits(targets):
                    enc.coreach[t] |= sources
                self.assignment[r] = w
                self.assigned_reads.append((r, w, var_mask))
                if self.prune_relaxed:
                    pairs = [(q, wq) for q, wq, qmask in self.assigned_reads if qmask == var_mask]
                    self._forces_mo_cycle(r, w, var_mask, pairs)
                added: list[tuple[EventId, EventId]] = []
                ok = True
                if self.prune_porf and enc.reach[r] & (1 << r):
                    ok = False
                if ok and self.prune_weakrc:
                    for q, wq, qmask in self.assigned_reads:
                        if enc.reach[wq] & enc.coreach[q] & qmask:
                            ok = False
                            break
                if ok and self.prune_relaxed:
                    adj = self.forced.setdefault(rev.var, {})
                    for a, b in self._forced_new_pairs(rev.id, wid):
                        successors = adj.setdefault(a, set())
                        if b not in successors:
                            successors.add(b)
                            added.append((a, b))
                    if added and self._forced_cycle(rev.var):
                        ok = False
                if ok:
                    yield from descend(depth + 1)
                if added:
                    adj = self.forced[rev.var]
                    for a, b in added:
                        adj[a].discard(b)
                self.assigned_reads.pop()
                del self.assignment[r]
                enc.reach = reach_snap
                enc.coreach = coreach_snap
                if self.prune_relaxed:
                    enc.mo_reach, enc.mo_coreach = mo_snap

        yield from descend(0)


class UnionMaskSearch(_Search):
    def _depths_between(self, heads: int, tails: int) -> int:
        """Depths of the assigned reads q whose edge w_q -> q can lie on a
        po/rf path from `heads` to `tails`: w_q in `heads`, q in `tails`."""
        mask = 0
        for depth, (q, wq, _) in enumerate(self.assigned_reads):
            if heads >> wq & 1 and tails >> q & 1:
                mask |= 1 << depth
        return mask

    def _path(self, a: int, b: int) -> int:
        return self._depths_between(self.enc.reach[a] | 1 << a, self.enc.coreach[b] | 1 << b)

    def _incoherence(self, q: int, wq: int, between: int) -> int:
        return self._path(wq, q)


def permutation_first_mo(
    g: PartialExecutionGraph,
    enc: _Encoding,
    rf: ReadsFrom,
    model: MemoryModel,
    max_permutations: int = MAX_MO_PERMUTATIONS,
) -> ModificationOrder | None:
    """First modification order satisfying the model's mo axioms for a
    fixed rf, in lexicographic permutation order; None when none exists."""
    readers: dict[EventId, list[EventId]] = {}
    for rid, wid in rf.mapping.items():
        readers.setdefault(wid, []).append(rid)
    index = g.numbering.index
    budget = [0]

    def spend() -> None:
        budget[0] += 1
        if budget[0] > max_permutations:
            raise BudgetExceeded("max_mo_permutations", max_permutations)

    def hb(a: EventId, b: EventId) -> bool:
        return bool(enc.reach[index[a]] & (1 << index[b]))

    variables = sorted(g.writes_by_var)

    if model in (MemoryModel.RELAXED, MemoryModel.RELAXED_ACYCLIC, MemoryModel.RA):
        relaxed = model is not MemoryModel.RA

        def pair_bad(w1: EventId, w2: EventId) -> bool:
            # placing w1 anywhere before w2 violates an axiom
            if relaxed:
                if w2.thread == w1.thread and w2.index < w1.index:
                    return True
                for r in readers.get(w1, ()):
                    if w2.thread == r.thread and w2.index < r.index:
                        return True
                    for r2 in readers.get(w2, ()):
                        if r2.thread == r.thread and r2.index < r.index:
                            return True
                return False
            if hb(w2, w1):
                return True
            return any(hb(w2, r) for r in readers.get(w1, ()))

        per_var: dict[str, list[EventId]] = {}
        for var in variables:
            writes = [w.id for w in g.writes_by_var[var]]
            bad = {
                (a, b): pair_bad(a, b) for a in writes for b in writes if a != b
            }
            chosen: list[EventId] | None = None

            def extend(prefix: list[EventId], remaining: list[EventId]) -> list[EventId] | None:
                if not remaining:
                    return prefix
                for i, w in enumerate(remaining):
                    spend()
                    if any(bad[(p, w)] for p in prefix):
                        continue
                    result = extend(prefix + [w], remaining[:i] + remaining[i + 1 :])
                    if result is not None:
                        return result
                return None

            chosen = extend([], writes)
            if chosen is None:
                return None
            per_var[var] = chosen
        return ModificationOrder(per_var)

    # SRA: strong-write-coherence couples locations; search jointly with an
    # incremental cycle check over po ∪ rf ∪ mo edges.
    extra: dict[EventId, list[EventId]] = {}

    def reaches(a: EventId, b: EventId) -> bool:
        if hb(a, b):
            return True
        seen = {a}
        stack = [a]
        while stack:
            node = stack.pop()
            for nxt in extra.get(node, ()):
                if nxt == b or hb(nxt, b):
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            i = index[node]
            for j in _bits(enc.reach[i]):
                tgt = enc.events[j].id
                if tgt in extra and tgt not in seen:
                    seen.add(tgt)
                    stack.append(tgt)
        return False

    def rc_bad(w1: EventId, w2: EventId) -> bool:
        return any(hb(w2, r) for r in readers.get(w1, ()))

    per_var_sra: dict[str, list[EventId]] = {}

    def place(var_idx: int) -> bool:
        if var_idx == len(variables):
            return True
        var = variables[var_idx]
        writes = [w.id for w in g.writes_by_var[var]]

        def extend(prefix: list[EventId], remaining: list[EventId]) -> bool:
            if not remaining:
                per_var_sra[var] = list(prefix)
                if place(var_idx + 1):
                    return True
                del per_var_sra[var]
                return False
            for i, w in enumerate(remaining):
                spend()
                if prefix:
                    prev = prefix[-1]
                    if any(rc_bad(p, w) for p in prefix):
                        continue
                    if reaches(w, prev):
                        continue
                    extra.setdefault(prev, []).append(w)
                else:
                    prev = None
                if extend(prefix + [w], remaining[:i] + remaining[i + 1 :]):
                    return True
                if prev is not None:
                    extra[prev].pop()
            return False

        return extend([], writes)

    if place(0):
        return ModificationOrder(per_var_sra)
    return None
