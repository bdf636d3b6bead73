"""Benchmark inputs whose verdicts are known by construction.

Consistent executions come from an operational, view-based
release-acquire machine (the presentation used by Lahav and Boker,
*What's Decidable About Causally Consistent Shared Memory?*, TOPLAS
2022):

* each location keeps its messages in the order they were written;
* a write appends a message carrying a copy of its thread's view;
* each thread keeps a view: for every location, the newest message
  index it has observed;
* a read takes a message at or after its view and joins that message's
  view into its own.

Every event happens after everything it depends on in one global
execution sequence, and the message order is that sequence restricted to
a location, so po, rf and mo all run forwards and the recorded rf/mo
satisfy the axioms of `sra`, `ra`, `wra`, `rlx` and `rlx-acyclic`.  They
satisfy `cm` too when every location has one writer thread (`cm` then
coincides with `wra`), or when reads take the newest message only
(`recent=1`), which makes the run sequentially consistent.  With several
writers and stale reads a run can break `cm`'s observed-order axiom:
`GenParams(232, 6, 12, 60, 3, 2)` is one.

The known-inconsistent inputs are built on top of these executions:
two trace mutations (stale pair, cross-thread read cycle) and two
annotation mutations (stale rf, mo swap).  Each function says under which
models its result is inconsistent and why.

This module depends only on the standard library, so the inputs it
produces do not rest on racheck's own parser or serializer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MODELS = ("sra", "ra", "wra", "rlx", "rlx-acyclic", "cm")

EventRef = tuple[str, int]  # (thread id, 0-based index in thread)
Op = tuple[str, str, int]  # ("r" | "w", location, value)


@dataclass(frozen=True)
class GenParams:
    seed: int
    threads: int
    locations: int
    events: int
    values: int
    writers: int  # writer threads per location (at most)
    write_share: float = 0.45
    # A read takes one of the `recent` newest messages at or after its
    # view, so threads keep acquiring each other's views and hb is dense.
    # With recent=1 the run is sequentially consistent.
    recent: int = 2


@dataclass
class Execution:
    threads: list[tuple[str, list[Op]]]
    rf: dict[EventRef, EventRef] = field(default_factory=dict)
    mo: dict[str, list[EventRef]] = field(default_factory=dict)

    def ops(self, tid: str) -> list[Op]:
        return dict(self.threads)[tid]

    def event(self, ref: EventRef) -> Op:
        return self.ops(ref[0])[ref[1]]

    def writer_threads(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for tid, ops in self.threads:
            for op, var, _ in ops:
                if op == "w":
                    out.setdefault(var, set()).add(tid)
        return out

    def max_writers(self) -> int:
        return max((len(s) for s in self.writer_threads().values()), default=0)


def generate(p: GenParams) -> Execution:
    """Run the machine for `p.events` steps; the same params give the same
    execution.

    Location k is writable by threads k, k+1, ..., k+writers-1 (mod the
    thread count), so no location has more than `p.writers` writer
    threads and every thread writes as many locations as the next.  Steps
    go round-robin over the threads, with a random thread instead one
    step in four.  Both keep the cost of deciding one execution close to
    that of another of the same size, which keeps the benchmark steady
    across seeds.
    """
    rng = random.Random(p.seed)
    tids = [f"t{i}" for i in range(p.threads)]
    locs = [f"x{i}" for i in range(p.locations)]
    writable: dict[str, list[str]] = {t: [] for t in tids}
    for k, loc in enumerate(locs):
        for j in range(min(p.writers, p.threads)):
            writable[tids[(k + j) % p.threads]].append(loc)

    ops: dict[str, list[Op]] = {t: [] for t in tids}
    view: dict[str, dict[str, int]] = {t: {} for t in tids}
    messages: dict[str, list[tuple[EventRef, int, dict[str, int]]]] = {loc: [] for loc in locs}
    rf: dict[EventRef, EventRef] = {}
    for step in range(p.events):
        t = rng.choice(tids) if rng.random() < 0.25 else tids[step % p.threads]
        ref = (t, len(ops[t]))
        readable = [loc for loc in locs if messages[loc]]
        if writable[t] and (not readable or rng.random() < p.write_share):
            loc = rng.choice(writable[t])
            val = rng.randrange(p.values)
            view[t][loc] = len(messages[loc])
            messages[loc].append((ref, val, dict(view[t])))
            ops[t].append(("w", loc, val))
        elif readable:
            loc = rng.choice(readable)
            msgs = messages[loc]
            lo = max(view[t].get(loc, 0), len(msgs) - p.recent)
            idx = rng.randrange(lo, len(msgs))
            wref, val, mview = msgs[idx]
            for var, i in mview.items():
                if i > view[t].get(var, -1):
                    view[t][var] = i
            ops[t].append(("r", loc, val))
            rf[ref] = wref
    mo = {loc: [m[0] for m in msgs] for loc, msgs in messages.items() if msgs}
    return Execution([(t, ops[t]) for t in tids if ops[t]], rf, mo)


def scaling(n: int, locations: int = 8, values: int = 4) -> Execution:
    """The repair-heavy single-writer shape: one writer thread per
    location cycling through the values, one reader per location opening
    with a descending block of values.  Readers never synchronise, and
    every later read of value 0 has to hop over what its predecessors
    exposed, so the solver's repairs grow with the read count.  Carries
    no rf/mo: its least rf is the solver's to find."""
    reads = n // (2 * locations)
    writes = (n - locations * reads) // locations
    threads: list[tuple[str, list[Op]]] = []
    for i in range(locations):
        threads.append((f"w{i}", [("w", f"x{i}", j % values) for j in range(writes)]))
    for i in range(locations):
        threads.append(
            (f"r{i}", [("r", f"x{i}", values - 1 - j if j < values else 0) for j in range(reads)])
        )
    return Execution(threads)


# ---------------------------------------------------------------------------
# Trace mutations: the result carries no rf/mo
# ---------------------------------------------------------------------------


def _insert(ops: list[Op], new: list[Op]) -> list[Op]:
    """Spread `new` evenly through a copy of `ops`, keeping both orders.

    Fixed positions keep the solver's cost of finding the violation close
    from one seed to the next; the seed picks the threads."""
    out = list(ops)
    for k, op in enumerate(new):
        out.insert((k + 1) * len(ops) // (len(new) + 1) + k, op)
    return out


def _inject(ex: Execution, seed: int, into_a: list[Op], into_b: list[Op]) -> Execution:
    """`ex` without rf/mo, with `into_a` and `into_b` inserted into two
    threads the seed picks."""
    a, b = random.Random(seed).sample(range(len(ex.threads)), 2)
    threads = list(ex.threads)
    for k, new in ((a, into_a), (b, into_b)):
        tid, ops = threads[k]
        threads[k] = (tid, _insert(ops, new))
    return Execution(threads)


def stale_pair(ex: Execution, seed: int) -> Execution:
    """Inconsistent under all six models.

    One thread writes a fresh location `zs` with 1 then 2; another reads
    2 then 1.  Values are unique, so rf is forced.  The second read takes
    a write that is po-before, hence hb-before and (under the models with
    an mo) mo-before, the write its thread already observed."""
    return _inject(ex, seed, [("w", "zs", 1), ("w", "zs", 2)], [("r", "zs", 2), ("r", "zs", 1)])


def read_cycle(ex: Execution, seed: int) -> Execution:
    """Inconsistent under every model except `rlx`.

    Thread A reads `zp`=1 and then writes `zq`=1; thread B reads `zq`=1
    and then writes `zp`=1.  Both values are unique, so rf is forced and
    closes a po ∪ rf cycle.  Pure `rlx` has no causality axiom and each
    fresh location holds one write and one read, so under `rlx` the
    mutated trace is as consistent as the execution it came from."""
    return _inject(ex, seed, [("r", "zp", 1), ("w", "zq", 1)], [("r", "zq", 1), ("w", "zp", 1)])


# ---------------------------------------------------------------------------
# Annotation mutations: same trace, one rf edge or mo pair changed
# ---------------------------------------------------------------------------


def stale_rf_candidates(ex: Execution) -> list[tuple[EventRef, EventRef]]:
    """(read, old write) pairs for which redirecting the read to the old
    write is inconsistent under all six models.

    The read's own thread already observed a write `wk` of the location
    in program order (it wrote `wk`, or read it), and the old write has
    the read's value and sits before `wk` in `wk`'s thread.  So the old
    write is mo-before `wk` (the machine's mo follows execution order)
    and hb-before it (po):
    * `sra`, `ra`: read-coherence (`wk` mo-after the source, `wk` hb the read);
    * `wra`, `cm`: weak-read-coherence (source hb `wk` hb the read);
    * `rlx`, `rlx-acyclic`: relaxed-read-coherence (`wk` mo-after the
      source, and `wk` po-before the read or read by a po-earlier read).
    """
    out = []
    for tid, ops in ex.threads:
        seen: dict[str, list[EventRef]] = {}  # writes this thread observed in po
        for i, (op, var, val) in enumerate(ops):
            if op == "w":
                seen.setdefault(var, []).append((tid, i))
                continue
            src = ex.rf[(tid, i)]
            for wk in seen.get(var, []):
                for j in range(wk[1]):
                    old = (wk[0], j)
                    if old != src and ex.event(old) == ("w", var, val):
                        out.append(((tid, i), old))
            seen.setdefault(var, []).append(src)
    return sorted(set(out))


def stale_rf(ex: Execution, seed: int) -> Execution | None:
    """Redirect one read to a stale write (see `stale_rf_candidates`);
    None when the execution has no candidate."""
    cands = stale_rf_candidates(ex)
    if not cands:
        return None
    read, old = random.Random(seed).choice(cands)
    rf = dict(ex.rf)
    rf[read] = old
    return Execution(ex.threads, rf, ex.mo)


def mo_swap(ex: Execution, seed: int) -> Execution | None:
    """Swap two mo entries written by one thread, so mo runs against po.

    Inconsistent under `sra`, `ra` (the later write is hb-before the
    earlier one: write-coherence), `rlx` and `rlx-acyclic`
    (relaxed-write-coherence); consistent under `wra` and `cm`, whose
    axioms ignore mo.  None when no location has two writes by one
    thread."""
    pairs = []
    for var, order in sorted(ex.mo.items()):
        for i, a in enumerate(order):
            for j in range(i + 1, len(order)):
                if order[j][0] == a[0]:
                    pairs.append((var, i, j))
    if not pairs:
        return None
    var, i, j = random.Random(seed).choice(pairs)
    mo = {k: list(v) for k, v in ex.mo.items()}
    mo[var][i], mo[var][j] = mo[var][j], mo[var][i]
    return Execution(ex.threads, ex.rf, mo)


# ---------------------------------------------------------------------------
# 3-CNF formulas
# ---------------------------------------------------------------------------

Clause = tuple[tuple[int, bool], tuple[int, bool], tuple[int, bool]]


def random_formula(rng: random.Random, num_vars: int, num_clauses: int) -> list[Clause]:
    return [
        tuple((rng.randint(1, num_vars), rng.random() < 0.5) for _ in range(3))
        for _ in range(num_clauses)
    ]


def unsat_formula(rng: random.Random, a: int, b: int, pos: int) -> list[Clause]:
    """Four clauses over variables `a` and `b`, one per sign pattern, so
    no assignment satisfies them.  Each clause repeats a's literal and has
    b's literal in slot `pos`; `rng` orders the clauses."""
    clauses = []
    for sa in (True, False):
        for sb in (True, False):
            lits = [(a, sa), (a, sa)]
            lits.insert(pos, (b, sb))
            clauses.append(tuple(lits))
    rng.shuffle(clauses)
    return clauses


def satisfiable(num_vars: int, clauses: list[Clause]) -> bool:
    """Truth-table satisfiability, independent of racheck.brute_sat."""
    for code in range(1 << num_vars):
        if all(any(bool(code >> (v - 1) & 1) == pol for v, pol in c) for c in clauses):
            return True
    return False


def dimacs(num_vars: int, clauses: list[Clause]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(str(v if pol else -v) for v, pol in c) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Text form
# ---------------------------------------------------------------------------


def render(ex: Execution, annotate: bool = False) -> str:
    """The racheck trace format; rf and mo lines only when `annotate`."""
    lines = []
    for tid, ops in ex.threads:
        lines.append(f"thread {tid}")
        lines += [f"{op} {var} {val}" for op, var, val in ops]
    if annotate:
        for (rt, ri), (wt, wi) in sorted(ex.rf.items()):
            lines.append(f"rf {wt}:{wi} {rt}:{ri}")
        for var in sorted(ex.mo):
            lines.append(f"mo {var} " + " ".join(f"{t}:{i}" for t, i in ex.mo[var]))
    return "\n".join(lines) + "\n"
