"""Exhaustive consistency decision for arbitrary execution graphs.

Only the choice of rf is hard: with rf fixed, `_first_mo` builds the
first valid mo in polynomial time (see below).  The decision entry
points therefore search the value-matching reads-from candidates by
backtracking, most-constrained read first (fewest candidates, then event
id), each read's candidates in (thread, index) order, discarding partial
assignments only when no completion can satisfy the queried model:

 * a po/rf cycle never disappears when more rf edges are added, so
   models mandating porf-acyclicity prune on the first cycle;
 * a weak-read-coherence violation dooms every modification order under
   SRA and RA as well (one of the two orders of the offending writes
   breaks read- or (strong-)write-coherence), so those models prune on
   it too;
 * under the relaxed models the per-location write-order constraints
   forced by the axioms only grow with the assignment, so a forced
   cycle prunes.  The forced order is kept as a transitive closure like
   happens-before, seeded with each location's writes in po; the edges a
   new rf edge r <- w forces all run into or out of w, so they close a
   cycle iff w then reaches itself.  At a leaf the closure is the whole
   relaxed constraint, so the prune is exact: a relaxed leaf always has
   a modification order.

The search backjumps over conflict sets (Prosser's CBJ).  Each prune
names the depths of the assigned reads it rests on, a set whose rf edges
alone force the failure:

 * porf cycle (read r takes write w, and r already reaches w): r and
   the reads whose rf edges make one po/rf path r ->* w.  It is found
   before the edge w -> r is added, so a pruned candidate costs no
   snapshot;
 * weak-read-coherence at (q, w_q), with w_q ->+ w2 ->+ q for a write w2
   of q's location: q and the reads of one path w_q ->+ w2 and one path
   w2 ->+ q, for the w2 whose set is shallowest.  Before the new edge no
   read broke the axiom, so only the reads it reaches are checked;
 * relaxed forced cycle on location x: every assigned read of x, as the
   forced digraph of x depends on those alone;
 * a failed leaf (ob-acyclicity under CM, or no modification order
   under RA or SRA): every depth.

Each path is chosen so that its deepest rf edge is as shallow as
possible (`_Search._path`), so a read that fails on it jumps back as far
as one path allows.

A read that runs out of candidates returns the union of its conflict
sets minus itself, and a read whose depth is not in a returned set
undoes its assignment and passes the set up without trying its other
candidates.  The search is one generator, `_Search.leaves`, that yields
each accepted leaf (rf, and the first mo of `_first_mo` for that rf) in
search order; a failed leaf, and a leaf that the caller resumes after it
was yielded, blame every depth.  So only subtrees without leaves are
skipped: the search reaches the same leaves in the same order as a
chronological one.  `oracle_consistent` takes the first leaf as its
witness and `all_consistent_rfs` the rf of every leaf.

At a leaf rf is fixed, and every mo axiom then only forces some write of
a location before another, so `_first_mo` builds the lexicographically
first valid mo as a topological sort in polynomial time.

Budgets (`OracleLimits`): `max_events` bounds the input and is checked
before anything else is built, rf-totality next (`_gate`);
`max_rf_candidates` counts the candidates tried (search nodes,
`_Search.rf_nodes`).  Exceeding either raises `BudgetExceeded`.  mo
synthesis needs no budget.

Happens-before and the relaxed forced order are maintained incrementally
as per-event reachability bitmasks over the graph's shared numbering,
snapshotted per search node.  At a leaf the hb masks are the po ∪ rf
closure of a porf-acyclic graph: CM's ob check reads them as its index.
The leaf hands its rf, on the numbering, to that check and `_first_mo`,
and builds a `ReadsFrom` only for a leaf that it yields.
"""

from __future__ import annotations

from collections.abc import Generator, Iterator
from dataclasses import dataclass

from .axioms import Axiom, _bits, _check_axiom, _HbIndex, _link, model_needs_mo
from .model import (
    RF_INV_EDGE,
    RF_TOTALITY,
    EventId,
    MemoryModel,
    ModificationOrder,
    PartialExecutionGraph,
    ReadsFrom,
    Verdict,
    reads_from,
)

EXHAUSTED = "exhausted"

_Leaf = tuple[ReadsFrom, ModificationOrder | None]  # an accepted leaf: rf, its first mo


class BudgetExceeded(Exception):
    def __init__(self, limit: str, value: int):
        super().__init__(f"oracle budget exceeded: {limit} > {value}")
        self.limit = limit


@dataclass(frozen=True)
class OracleLimits:
    """Search ceilings; exceeding either raises `BudgetExceeded`, never
    truncates.  `max_events` bounds the input, `max_rf_candidates` the
    search nodes (candidates tried).  mo synthesis is polynomial and has
    no ceiling.
    """

    max_events: int = 128
    max_rf_candidates: int = 1_000_000


DEFAULT_LIMITS = OracleLimits()


# ---------------------------------------------------------------------------
# Backtracking search
# ---------------------------------------------------------------------------


class _Encoding:
    """Two transitive closures as per-event reach/coreach masks on the
    graph's numbering, both grown by the search: hb (`reach`,
    `coreach`), starting as po, and the relaxed forced write order
    (`mo_reach`, `mo_coreach`), starting as each location's writes in
    po."""

    def __init__(self, g: PartialExecutionGraph):
        num = g.numbering
        self.events = num.events
        n = len(self.events)
        self.reach = [0] * n
        self.coreach = [0] * n
        for start, end in num.spans:
            for i in range(start, end):
                self.reach[i] = (1 << end) - (2 << i)
                self.coreach[i] = (1 << i) - (1 << start)
        self.po_before = list(self.coreach)  # strict po-prefix, never grows
        self.po_after = list(self.reach)  # strict po-suffix, never grows
        self.var_write_mask = num.write_mask
        self.mo_reach = [0] * n
        self.mo_coreach = [0] * n
        for mask in self.var_write_mask.values():
            for w in _bits(mask):
                self.mo_reach[w] = self.reach[w] & mask
                self.mo_coreach[w] = self.coreach[w] & mask


def _gate(g: PartialExecutionGraph, limits: OracleLimits) -> EventId | None:
    """The gates both entry points answer before any search setup:
    `max_events` first, before the numbering's candidate table is built,
    then rf-totality (`Numbering.unmatched_read`)."""
    if g.num_events > limits.max_events:
        raise BudgetExceeded("max_events", limits.max_events)
    return g.numbering.unmatched_read()


class _Search:
    """The rf search of one graph under one model, for a graph that has
    passed `_gate`."""

    def __init__(self, g: PartialExecutionGraph, m: MemoryModel, limits: OracleLimits):
        self.g = g
        self.model = m.canonical
        self.limits = limits
        num = g.numbering
        # (read, its candidate writes) as event numbers, most-constrained
        # read first; candidates stay ascending, which is (thread, index)
        # order.
        events, matches = num.events, num.matches
        self.order = sorted(
            ((r, matches.get(events[r][2:], ())) for r in num.reads),
            key=lambda rc: (len(rc[1]), rc[0]),
        )
        self.enc = _Encoding(g)
        base = self.model
        relaxed = base in (MemoryModel.RELAXED, MemoryModel.RELAXED_ACYCLIC)
        self.prune_porf = base is not MemoryModel.RELAXED
        self.prune_weakrc = not relaxed
        self.prune_relaxed = relaxed
        self.check_ob = base is MemoryModel.CM
        self.rf_nodes = 0  # candidates tried, the `max_rf_candidates` budget
        self.backjumps = 0  # returns that skipped a read's remaining candidates
        self.assigned_reads: list[tuple[int, int, int]] = []  # (read, write, var mask)

    def _forces_mo_cycle(self, r: int, w: int, var_mask: int) -> bool:
        """Add the write order forced by r taking w; True iff it is cyclic.

        The writes of r's location po-before r, and those taken by assigned
        reads of it po-before r, precede w; the writes taken by such reads
        po-after r follow it.  Every new edge ends at w or starts at it, so
        a new cycle passes through w.
        """
        enc = self.enc
        before = enc.po_before
        heads = before[r] & var_mask
        tails = 0
        for q, wq, qmask in self.assigned_reads:
            if qmask == var_mask:
                if before[r] >> q & 1:
                    heads |= 1 << wq
                elif before[q] >> r & 1:
                    tails |= 1 << wq
        heads &= ~(1 << w)
        tails &= ~(1 << w)
        if heads:
            _link(enc.mo_reach, enc.mo_coreach, heads, 1 << w)
        if tails:
            _link(enc.mo_reach, enc.mo_coreach, 1 << w, tails)
        return bool(enc.mo_reach[w] >> w & 1)

    # -- conflict sets ----------------------------------------------------

    def _path(self, a: int, b: int) -> int:
        """Depths of the assigned reads whose rf edges make one po/rf path
        a ->* b, chosen so that its deepest edge is as shallow as possible;
        a must reach b or be it.

        The edges that can lie on such a path (w_q reached from a, q
        reaching b) are admitted in depth order.  After each, every
        admitted edge whose write is reached joins, adding its read's
        po-suffix to the events reached from a, until none does.  Once b is
        reached, the walk back from b takes, at each step, the first joined
        edge whose read is the current event or po-before it: its write was
        reached before it joined, so the walk ends in a's po-suffix.
        """
        enc = self.enc
        po_after = enc.po_after
        start = po_after[a] | 1 << a
        if start >> b & 1:
            return 0
        heads, tails = enc.reach[a] | 1 << a, enc.coreach[b] | 1 << b
        reached = start
        admitted: list[tuple[int, int, int]] = []  # (depth, read, write)
        joined: list[tuple[int, int, int]] = []  # in the order they joined
        for depth, (q, wq, _) in enumerate(self.assigned_reads):
            if not (heads >> wq & 1 and tails >> q & 1):
                continue
            admitted.append((depth, q, wq))
            grown = reached >> wq & 1
            while grown:
                grown = False
                for edge in admitted:
                    if reached >> edge[2] & 1 and not reached >> edge[1] & 1:
                        joined.append(edge)
                        reached |= po_after[edge[1]] | 1 << edge[1]
                        grown = True
            if reached >> b & 1:
                break
        mask, target = 0, b
        while not start >> target & 1:
            for depth, q, wq in joined:
                if (po_after[q] | 1 << q) >> target & 1:
                    mask |= 1 << depth
                    target = wq
                    break
        return mask

    def _incoherence(self, q: int, wq: int, between: int) -> int:
        """Depths of the assigned reads, q's aside, whose rf edges make
        paths w_q ->+ w2 ->+ q through one write w2 of `between`, the
        shallowest such set (as a mask) over those writes."""
        return min(self._path(wq, w2) | self._path(w2, q) for w2 in _bits(between))

    def _depths_of_location(self, var_mask: int) -> int:
        mask = 0
        for depth, (_, _, qmask) in enumerate(self.assigned_reads):
            if qmask == var_mask:
                mask |= 1 << depth
        return mask

    # -- search -----------------------------------------------------------

    def leaves(self) -> Iterator[_Leaf]:
        """Each accepted leaf, in search order; mo is None when the model
        reads none."""
        enc = self.enc
        every_depth = (1 << len(self.order)) - 1

        def leaf() -> _Leaf | None:
            src = [-1] * len(enc.events)  # `number_rf`'s form
            for r, w, _ in self.assigned_reads:
                src[r] = w
            mo: ModificationOrder | None = None
            if self.check_ob:
                hb = _HbIndex(enc.reach, enc.coreach)
                if _check_axiom(self.g, src, None, Axiom.OB_ACYCLICITY, hb) is not None:
                    return None
            if model_needs_mo(self.model):
                mo = _first_mo(self.g, enc, src, self.model)
                if mo is None:
                    return None
            return reads_from(self.g, src), mo

        def descend(depth: int) -> Generator[_Leaf, None, int]:
            """Yield the leaves below; return the conflict set, the mask of
            the shallower depths whose assignments alone leave this subtree
            without a further leaf."""
            if depth == len(self.order):
                # A failed leaf, and a leaf resumed after it was yielded,
                # blame every depth: the search backtracks chronologically.
                found = leaf()
                if found is not None:
                    yield found
                return every_depth
            r, matches = self.order[depth]
            var_mask = enc.var_write_mask[enc.events[r].var]
            me = 1 << depth
            conflicts = 0
            for k, w in enumerate(matches):
                self.rf_nodes += 1
                if self.rf_nodes > self.limits.max_rf_candidates:
                    raise BudgetExceeded(
                        "max_rf_candidates", self.limits.max_rf_candidates
                    )
                if self.prune_porf and enc.reach[r] >> w & 1:
                    # r reaches w: the cycle runs r ->* w -> r, found
                    # before the edge is added.  It rests on r, so it
                    # never jumps past r.
                    conflicts |= self._path(r, w)
                    continue
                reach_snap = list(enc.reach)
                coreach_snap = list(enc.coreach)
                if self.prune_relaxed:
                    mo_snap = list(enc.mo_reach), list(enc.mo_coreach)
                _, targets = _link(enc.reach, enc.coreach, 1 << w, 1 << r)
                self.assigned_reads.append((r, w, var_mask))
                # Every prune's conflict set holds the depth of at least
                # one assigned read, so 0 means "not pruned".
                conflict = 0
                if self.prune_weakrc:
                    # Every node checks all assigned reads, so a violation
                    # w_q ->+ w2 ->+ q runs through the new edge w -> r,
                    # and r reached q before it: on w2 ->+ q, or on w_q ->+
                    # w2 and then on w2 ->+ q.
                    for q_depth, (q, wq, qmask) in enumerate(self.assigned_reads):
                        if targets >> q & 1:
                            between = enc.reach[wq] & enc.coreach[q] & qmask
                            if between:
                                conflict = 1 << q_depth | self._incoherence(q, wq, between)
                                break
                if not conflict and self.prune_relaxed and self._forces_mo_cycle(r, w, var_mask):
                    conflict = self._depths_of_location(var_mask)
                if not conflict:
                    conflict = yield from descend(depth + 1)
                # undo
                self.assigned_reads.pop()
                enc.reach = reach_snap
                enc.coreach = coreach_snap
                if self.prune_relaxed:
                    enc.mo_reach, enc.mo_coreach = mo_snap
                if not conflict & me:
                    # the failure does not depend on this read: no other
                    # candidate can help, so jump back past it
                    if k + 1 < len(matches):
                        self.backjumps += 1
                    return conflict
                conflicts |= conflict
            return conflicts & ~me

        yield from descend(0)


def _first_mo(
    g: PartialExecutionGraph,
    enc: _Encoding,
    rf: list[int],
    model: MemoryModel,
) -> ModificationOrder | None:
    """First modification order satisfying the model's mo axioms for a
    fixed rf, lexicographic over sorted locations and `writes_by_var`
    order; None when none exists.  rf is in `number_rf`'s form.

    With rf fixed every mo axiom only forces some write of a location
    before another, so a valid mo is a topological order of those forced
    edges, and the lexicographically first one takes, position by
    position, the first write that no remaining write must precede.
    Under RA (and SRA) w2 precedes w1 when w2 happens-before w1 or a
    reader of w1.  Under the relaxed models w2 precedes w1 when w2 is
    po-before w1 or a reader r of w1, or is read by a read po-before
    such an r; the search keeps the closure of those edges for rf in
    `enc.mo_coreach`, so `enc` is its encoding at rf's leaf.  The sort
    reads the closure as is: the writes it has placed are always closed
    downward, so it picks the same write whether a remaining write must
    precede it directly or through others.  SRA needs
    hb ∪ mo acyclic across locations: the forced edges that hb lacks join
    a copy of the po ∪ rf closure, and each placed write gains edges to
    the remaining writes of its location that it does not reach yet.  A
    write no remaining write reaches keeps that graph acyclic, so every
    order it has begun extends and the locations never need revisiting.
    """
    sra = model is MemoryModel.SRA
    if sra or model is MemoryModel.RA:
        before = list(enc.coreach)
        for w, co in zip(rf, enc.coreach):
            if w >= 0:
                before[w] |= co
        if sra:
            reach, coreach = list(enc.reach), list(enc.coreach)
        for mask in enc.var_write_mask.values():
            for w in _bits(mask):
                before[w] &= mask & ~(1 << w)
                if sra and (heads := before[w] & ~coreach[w]):
                    _link(reach, coreach, heads, 1 << w)
        if sra:
            before = coreach  # "must precede" now grows with the placed writes
    else:
        before = enc.mo_coreach
    per_var: dict[str, list[EventId]] = {}
    var_writes = g.numbering.var_writes
    for var in sorted(var_writes):
        writes = var_writes[var]
        remaining = enc.var_write_mask[var]
        order: list[EventId] = []
        while remaining:
            for w in writes:
                if remaining >> w & 1 and not before[w] & remaining:
                    break
            else:
                return None
            remaining ^= 1 << w
            order.append(enc.events[w].id)
            if sra and (tails := remaining & ~reach[w]):
                _link(reach, coreach, 1 << w, tails)
        per_var[var] = order
    return ModificationOrder(per_var)


def oracle_consistent(
    g: PartialExecutionGraph,
    m: MemoryModel,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> Verdict:
    """Decide consistency by exhaustive search over (rf, mo) witnesses.

    Consistent verdicts carry the first witness found under the search
    order documented above.  Models whose axioms ignore mo skip the mo
    search.  Inconsistent-by-exhaustion verdicts carry no certificate
    except for a read with no matching write anywhere, which is reported
    directly.
    """
    blocked = _gate(g, limits)
    if blocked is not None:
        return Verdict.inconsistent(RF_TOTALITY, [(blocked, RF_INV_EDGE)])
    witness = next(_Search(g, m, limits).leaves(), None)
    if witness is None:
        return Verdict.inconsistent(EXHAUSTED, None)
    return Verdict.consistent(*witness)


def all_consistent_rfs(
    g: PartialExecutionGraph,
    m: MemoryModel,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> list[ReadsFrom]:
    """Every rf for which some mo satisfies the model, canonically sorted."""
    if _gate(g, limits) is not None:
        return []
    rfs = [rf for rf, _ in _Search(g, m, limits).leaves()]
    return sorted(rfs, key=lambda rf: tuple(sorted(rf.mapping.items())))
