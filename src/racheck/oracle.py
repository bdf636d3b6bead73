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
witness and `all_consistent_rfs` the rf of every leaf; `_decide` runs
the one search that gives both, for a caller that asks for the two.

The sets that reads return recur across branches, so the search stores
them (nogood recording):

 * each is a nogood: every prune's set alone forces its failure, and a
   read's returned union covers each of its candidates, so by induction
   no leaf keeps the writes that a returned set's reads hold;
 * a read that runs out of candidates stores its set when the set names
   only depths shallower than the read's and not every one of them.  A
   failed or yielded leaf blames every depth, so a set that rests on a
   leaf never qualifies, and the whole prefix never recurs;
 * depth d always holds the read `order[d]`, so a set is stored under
   its deepest (depth, write), with the writes of its other depths.  A
   candidate that completes a stored set, every other depth holding the
   write stored for it, is pruned before the porf test, and the set is
   its conflict set.  The pairs are compared deepest first, as deep
   assignments change most often;
 * only sets of at most `_MAX_STORED_READS` (8) reads are kept.
   Unbounded, the consistent 300-event `rlx-acyclic` search of
   `GenParams(1001, 6, 12, 300, 3, 2, recent=1)` stores 11,081 sets of
   about 17 reads and scans 7.5 M of them for 2 prunes, at up to twice
   the time; the bound keeps every prune of the benchmark's
   multi-writer inputs, whose stored sets have a median of 5 reads.

Stored sets prune only subtrees without leaves too, so the leaves and
their order stay.

At a leaf rf is fixed, and every mo axiom then only forces some write of
a location before another, so `_first_mo` builds the lexicographically
first valid mo as a topological sort in polynomial time.

Budgets: the input may have at most `_MAX_EVENTS` events, a fixed gate
checked before anything else is built, rf-totality next (`_gate`).  The
one option, `OracleLimits.max_rf_candidates`, counts the candidates
tried (search nodes, `_Search.rf_nodes`).  Exceeding either raises
`BudgetExceeded`.  mo synthesis needs no budget.

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

_MAX_STORED_READS = 8  # the largest conflict set the search stores, in reads

# The largest input the oracle searches, in events.  `_Search._descend`
# takes one frame per read, so a deeper search meets the interpreter's
# recursion limit (1,000 frames by default): a consistent 1,102-event
# input would fail with a RecursionError.  And memory grows roughly with
# depth x n^2, as every depth keeps a snapshot of the reachability masks:
# one full-depth descent peaks near 25 MB at 512 events, 70 MB at 1,000
# and 2.6 GB at 4,000.  768 stays below both and above the hardness
# gadgets of a few hundred events.
_MAX_EVENTS = 768


class BudgetExceeded(Exception):
    def __init__(self, limit: str, value: int):
        super().__init__(f"oracle budget exceeded: {limit} > {value}")
        self.limit = limit


@dataclass(frozen=True)
class OracleLimits:
    """The search's ceiling: `max_rf_candidates` bounds the search nodes
    (candidates tried), and exceeding it raises `BudgetExceeded`, never
    truncates.  The input size is a fixed gate (`_MAX_EVENTS`), not an
    option.  mo synthesis is polynomial and has no ceiling.
    """

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


def _gate(g: PartialExecutionGraph) -> EventId | None:
    """The gates answered before any search setup: `_MAX_EVENTS` first,
    before the numbering's candidate table is built, then rf-totality
    (`Numbering.unmatched_read`)."""
    if g.num_events > _MAX_EVENTS:
        raise BudgetExceeded("max_events", _MAX_EVENTS)
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
        self.learned_prunes = 0  # candidates pruned by a stored conflict set
        # per depth: write -> [(stored set, its other (depth, write) pairs)]
        self.learned: list[dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]]] = [
            {} for _ in self.order
        ]
        self.assigned_reads: list[tuple[int, int, int]] = []  # (read, write, var mask)
        # Under the relaxed models, per location: the mask of the depths
        # whose reads are assigned, and their (read, write) pairs.
        self.location_depths = dict.fromkeys(num.var_writes, 0)
        self.location_pairs: dict[str, list[tuple[int, int]]] = {v: [] for v in num.var_writes}

    def _forces_mo_cycle(self, r: int, w: int, var_mask: int, pairs: list[tuple[int, int]]) -> bool:
        """Add the write order forced by r taking w; True iff it is cyclic.

        `pairs` are the assigned (read, write) pairs of r's location.  The
        writes of the location po-before r, and those taken by assigned
        reads of it po-before r, precede w; the writes taken by such reads
        po-after r follow it.  Every new edge ends at w or starts at it, so
        a new cycle passes through w.
        """
        enc = self.enc
        before = enc.po_before
        heads = before[r] & var_mask
        tails = 0
        for q, wq in pairs:
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

    # -- search -----------------------------------------------------------

    def leaves(self) -> Iterator[_Leaf]:
        """Each accepted leaf, in search order; mo is None when the model
        reads none."""
        yield from self._descend(0)

    def _leaf(self) -> _Leaf | None:
        """The current full assignment as an accepted leaf; None if it fails."""
        enc = self.enc
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

    def _learn(self, nogood: int) -> None:
        """Store a returned conflict set under its deepest (depth, write),
        with the (depth, write) pairs of its other depths, deepest first."""
        assigned = self.assigned_reads
        pairs = []
        rest = nogood
        while rest:
            d = rest.bit_length() - 1
            pairs.append((d, assigned[d][1]))
            rest ^= 1 << d
        deepest, w = pairs[0]
        self.learned[deepest].setdefault(w, []).append((nogood, tuple(pairs[1:])))

    def _descend(self, depth: int) -> Generator[_Leaf, None, int]:
        """Yield the leaves below; return the conflict set, the mask of
        the shallower depths whose assignments alone leave this subtree
        without a further leaf."""
        if depth == len(self.order):
            # A failed leaf, and a leaf resumed after it was yielded,
            # blame every depth: the search backtracks chronologically.
            found = self._leaf()
            if found is not None:
                yield found
            return (1 << depth) - 1
        enc = self.enc
        assigned = self.assigned_reads
        learned = self.learned[depth]
        r, matches = self.order[depth]
        var = enc.events[r].var
        var_mask = enc.var_write_mask[var]
        relaxed = self.prune_relaxed
        if relaxed:
            pairs = self.location_pairs[var]
        me = 1 << depth
        conflicts = 0
        for k, w in enumerate(matches):
            self.rf_nodes += 1
            if self.rf_nodes > self.limits.max_rf_candidates:
                raise BudgetExceeded("max_rf_candidates", self.limits.max_rf_candidates)
            if learned and w in learned and (stored := self._stored(learned[w])):
                self.learned_prunes += 1
                conflicts |= stored
                continue
            if self.prune_porf and enc.reach[r] >> w & 1:
                # r reaches w: the cycle runs r ->* w -> r, found
                # before the edge is added.  It rests on r, so it
                # never jumps past r.
                conflicts |= self._path(r, w)
                continue
            reach_snap = list(enc.reach)
            coreach_snap = list(enc.coreach)
            if relaxed:
                mo_snap = list(enc.mo_reach), list(enc.mo_coreach)
                pairs.append((r, w))
                self.location_depths[var] |= me
            _, targets = _link(enc.reach, enc.coreach, 1 << w, 1 << r)
            assigned.append((r, w, var_mask))
            # Every prune's conflict set holds the depth of at least
            # one assigned read, so 0 means "not pruned".
            conflict = 0
            if self.prune_weakrc:
                # Every node checks all assigned reads, so a violation
                # w_q ->+ w2 ->+ q runs through the new edge w -> r,
                # and r reached q before it: on w2 ->+ q, or on w_q ->+
                # w2 and then on w2 ->+ q.
                for q_depth, (q, wq, qmask) in enumerate(assigned):
                    if targets >> q & 1:
                        between = enc.reach[wq] & enc.coreach[q] & qmask
                        if between:
                            conflict = 1 << q_depth | self._incoherence(q, wq, between)
                            break
            if not conflict and relaxed and self._forces_mo_cycle(r, w, var_mask, pairs):
                # the forced order of the location rests on its reads alone
                conflict = self.location_depths[var]
            if not conflict:
                conflict = yield from self._descend(depth + 1)
            # undo
            assigned.pop()
            enc.reach = reach_snap
            enc.coreach = coreach_snap
            if relaxed:
                enc.mo_reach, enc.mo_coreach = mo_snap
                pairs.pop()
                self.location_depths[var] ^= me
            if not conflict & me:
                # the failure does not depend on this read: no other
                # candidate can help, so jump back past it
                if k + 1 < len(matches):
                    self.backjumps += 1
                return conflict
            conflicts |= conflict
        nogood = conflicts & ~me
        # Below `me` and not all of it: no leaf blamed it, and it can recur.
        if 0 < nogood < me - 1 and nogood.bit_count() <= _MAX_STORED_READS:
            self._learn(nogood)
        return nogood

    def _stored(self, sets: list[tuple[int, tuple[tuple[int, int], ...]]]) -> int:
        """The first stored set that the current assignment completes, as
        its conflict set; 0 if none.  Deep assignments change most often,
        so each set's pairs are compared deepest first."""
        assigned = self.assigned_reads
        for nogood, others in sets:
            for d, w in others:
                if assigned[d][1] != w:
                    break
            else:
                return nogood
        return 0


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


def _decide(
    g: PartialExecutionGraph, m: MemoryModel, limits: OracleLimits
) -> tuple[Verdict, Iterator[_Leaf]]:
    """The verdict of `oracle_consistent`, and its search, to resume for
    the leaves after the witness (empty unless the verdict is consistent)."""
    blocked = _gate(g)
    if blocked is not None:
        return Verdict.inconsistent(RF_TOTALITY, [(blocked, RF_INV_EDGE)]), iter(())
    leaves = _Search(g, m, limits).leaves()
    witness = next(leaves, None)
    if witness is None:
        return Verdict.inconsistent(EXHAUSTED, None), leaves
    return Verdict.consistent(*witness), leaves


def _consistent_rfs(verdict: Verdict, rest: Iterator[_Leaf]) -> list[ReadsFrom]:
    """The rf of every leaf of a `_decide` result, canonically sorted."""
    if not verdict.is_consistent:
        return []
    rfs = [verdict.rf, *(rf for rf, _ in rest)]
    return sorted(rfs, key=lambda rf: tuple(sorted(rf.mapping.items())))


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
    return _decide(g, m, limits)[0]


def all_consistent_rfs(
    g: PartialExecutionGraph,
    m: MemoryModel,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> list[ReadsFrom]:
    """Every rf for which some mo satisfies the model, canonically sorted."""
    return _consistent_rfs(*_decide(g, m, limits))
