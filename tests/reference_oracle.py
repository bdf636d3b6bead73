"""Chronological reference for the oracle's rf search.

This is the search that `racheck.oracle._Search.run` ran before it
learned conflict-directed backjumping: a failed candidate only moves the
search on to the next candidate of the same read, and a read that runs
out of candidates returns to the read assigned just before it.  The
candidate order, the prunes, the leaf check and the budgets are those of
the library, so the differential tests can hold the backjumping search to
the same leaves, the same first witness, the same `all_consistent_rfs`
and the same budget exits, with no more nodes.
"""

from __future__ import annotations

from racheck.axioms import Axiom, check_axiom, model_needs_mo
from racheck.model import EventId, ModificationOrder, ReadsFrom
from racheck.oracle import BudgetExceeded, _bits, _first_mo, _Search


class ChronologicalSearch(_Search):
    def run(self, stop_at_first: bool) -> tuple[
        tuple[ReadsFrom, ModificationOrder | None] | None, list[ReadsFrom]
    ]:
        witness: list[tuple[ReadsFrom, ModificationOrder | None]] = []
        found: list[ReadsFrom] = []

        enc = self.enc

        def leaf() -> bool:
            rf = ReadsFrom(
                {enc.events[r].id: enc.events[w].id for r, w in self.assignment.items()}
            )
            mo: ModificationOrder | None = None
            if self.check_ob:
                if check_axiom(self.g, rf, None, Axiom.OB_ACYCLICITY) is not None:
                    return False
            if model_needs_mo(self.model):
                mo = _first_mo(self.g, enc, rf, self.model, self.limits)
                if mo is None:
                    return False
            found.append(rf)
            if stop_at_first:
                witness.append((rf, mo))
                return True
            return False

        def descend(depth: int) -> bool:
            if depth == len(self.order):
                return leaf()
            rev, matches = self.order[depth]
            r = enc.index[rev.id]
            var_mask = enc.var_write_mask[rev.var]
            for wid in matches:
                w = enc.index[wid]
                self.rf_nodes += 1
                if self.rf_nodes > self.limits.max_rf_candidates:
                    raise BudgetExceeded(
                        "max_rf_candidates", self.limits.max_rf_candidates
                    )
                reach_snap = list(enc.reach)
                coreach_snap = list(enc.coreach)
                sources = enc.coreach[w] | (1 << w)
                targets = enc.reach[r] | (1 << r)
                for s in _bits(sources):
                    enc.reach[s] |= targets
                for t in _bits(targets):
                    enc.coreach[t] |= sources
                self.assignment[r] = w
                self.assigned_reads.append((r, w, var_mask))
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
                if ok and descend(depth + 1):
                    return True
                if added:
                    adj = self.forced[rev.var]
                    for a, b in added:
                        adj[a].discard(b)
                self.assigned_reads.pop()
                del self.assignment[r]
                enc.reach = reach_snap
                enc.coreach = coreach_snap
            return False

        descend(0)
        return (witness[0] if witness else None), found
