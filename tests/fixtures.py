"""Shared graphs used across the suite.

The five small violation fixtures each break exactly one axiom; the two
single-writer fixtures drive the repair loop to a consistent and to a
porf-cyclic end respectively; the two-clause formula exercises the CNF
gadgets end to end.
"""

from __future__ import annotations

from racheck import (
    CnfFormula,
    EventId,
    ModificationOrder,
    PartialExecutionGraph,
    ReadsFrom,
    UndirectedGraph,
    build_graph,
)

E = EventId


def porf_cycle_pair():
    """Two threads reading each other's later writes: po ∪ rf cycle."""
    g = build_graph(
        [
            ("t1", [("r", "x", 1), ("w", "y", 1)]),
            ("t2", [("r", "y", 1), ("w", "x", 1)]),
        ]
    )
    rf = ReadsFrom({E("t1", 0): E("t2", 1), E("t2", 0): E("t1", 1)})
    return g, rf


def mo_against_hb():
    """mo orders two writes against an hb path between them."""
    g = build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "y", 1)]),
            ("t2", [("r", "y", 1), ("w", "x", 2)]),
        ]
    )
    rf = ReadsFrom({E("t2", 0): E("t1", 1)})
    mo = ModificationOrder({"x": [E("t2", 1), E("t1", 0)], "y": [E("t1", 1)]})
    return g, rf, mo


def stale_read_via_mo():
    """A read observes a write that mo places before another hb-earlier write."""
    g = build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "x", 2), ("w", "y", 1)]),
            ("t2", [("r", "y", 1), ("r", "x", 1)]),
        ]
    )
    rf = ReadsFrom({E("t2", 0): E("t1", 2), E("t2", 1): E("t1", 0)})
    mo = ModificationOrder({"x": [E("t1", 0), E("t1", 1)], "y": [E("t1", 2)]})
    return g, rf, mo


def stale_read_via_hb():
    """Same staleness with the intermediate write ordered by hb alone."""
    g = build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "y", 1)]),
            ("t2", [("r", "y", 1), ("w", "x", 2), ("r", "x", 1)]),
        ]
    )
    rf = ReadsFrom({E("t2", 0): E("t1", 1), E("t2", 2): E("t1", 0)})
    return g, rf


def cross_location_mo_cycle():
    """Write-only graph whose two per-location orders close an hb ∪ mo cycle
    while each location alone agrees with hb."""
    g = build_graph(
        [
            ("t1", [("w", "y", 0), ("w", "x", 0)]),
            ("t2", [("w", "x", 0), ("w", "y", 0)]),
        ]
    )
    rf = ReadsFrom({})
    mo = ModificationOrder({"x": [E("t1", 1), E("t2", 0)], "y": [E("t2", 1), E("t1", 0)]})
    return g, rf, mo


def relaxed_read_pair():
    """Two reads of one location swapped against mo within one thread."""
    g = build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "x", 2)]),
            ("t2", [("r", "x", 2), ("r", "x", 1)]),
        ]
    )
    rf = ReadsFrom({E("t2", 0): E("t1", 1), E("t2", 1): E("t1", 0)})
    mo = ModificationOrder({"x": [E("t1", 0), E("t1", 1)]})
    return g, rf, mo


def single_writer_consistent():
    """Single-writer graph that becomes consistent after two repairs."""
    return build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "x", 2), ("w", "x", 1), ("w", "x", 2)]),
            ("t2", [("r", "x", 2), ("r", "x", 1), ("w", "y", 1)]),
            ("t3", [("r", "y", 1), ("r", "x", 2)]),
        ]
    )


# Events of single_writer_consistent by their role.
SWC_W1 = E("t1", 0)
SWC_W2 = E("t1", 1)
SWC_W3 = E("t1", 2)
SWC_W5 = E("t1", 3)
SWC_R1 = E("t2", 0)
SWC_R3 = E("t2", 1)
SWC_W4 = E("t2", 2)
SWC_R2 = E("t3", 0)
SWC_R4 = E("t3", 1)


def swc_rf0():
    return ReadsFrom({SWC_R1: SWC_W2, SWC_R3: SWC_W1, SWC_R2: SWC_W4, SWC_R4: SWC_W2})


def swc_rf1():
    return ReadsFrom({SWC_R1: SWC_W2, SWC_R3: SWC_W3, SWC_R2: SWC_W4, SWC_R4: SWC_W2})


def swc_rf2():
    return ReadsFrom({SWC_R1: SWC_W2, SWC_R3: SWC_W3, SWC_R2: SWC_W4, SWC_R4: SWC_W5})


def single_writer_porf_cyclic():
    """Single-writer graph whose only coherent rf closes a po ∪ rf cycle."""
    return build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "x", 2), ("r", "y", 1), ("w", "x", 1)]),
            ("t2", [("r", "x", 2), ("r", "x", 1), ("w", "y", 1)]),
        ]
    )


def porf_cyclic_rf0():
    """The po-earliest matching writes of `single_writer_porf_cyclic`."""
    return ReadsFrom({E("t2", 0): E("t1", 1), E("t2", 1): E("t1", 0), E("t1", 2): E("t2", 2)})


def two_clause_formula() -> CnfFormula:
    """(x1 v x2 v x3) and (x1 v -x2 v -x3)."""
    return CnfFormula(
        3,
        (
            ((1, True), (2, True), (3, True)),
            ((1, True), (2, False), (3, False)),
        ),
    )


TWO_CLAUSE_DIMACS = "p cnf 3 2\n1 2 3 0\n1 -2 -3 0\n"


def two_clause_witness():
    """The hand-built rf/mo pair that explains the two-clause formula's
    three-writer encoding under the strongest model (assignment x1=1,
    x2=0, x3=0; per location both writes of the chosen side precede the
    unused side's writes)."""
    rf = ReadsFrom(
        {
            E("Tf", 0): E("Tx_1", 1),
            E("Tf", 1): E("Tx_1", 2),
            E("Tf", 2): E("T1_1", 1),
            E("Tf", 3): E("T1_0", 0),
            E("Tf", 4): E("T2_0", 1),
            E("Tf", 5): E("T2_1", 0),
            E("Tf", 6): E("T3_0", 1),
            E("Tf", 7): E("T3_1", 0),
            E("Tx_1", 0): E("T1_1", 2),
            E("Tnx_1", 0): E("T1_0", 2),
            E("Tx_2", 0): E("T2_1", 2),
            E("Tnx_2", 0): E("T2_0", 2),
            E("Tx_3", 0): E("T3_1", 2),
            E("Tnx_3", 0): E("T3_0", 2),
        }
    )
    mo = ModificationOrder(
        {
            "s1": [E("T1_1", 0), E("T1_1", 1), E("T1_0", 0), E("T1_0", 1)],
            "s2": [E("T2_0", 0), E("T2_0", 1), E("T2_1", 0), E("T2_1", 1)],
            "s3": [E("T3_0", 0), E("T3_0", 1), E("T3_1", 0), E("T3_1", 1)],
            "c1": [E("Tx_2", 1), E("Tx_3", 1), E("Tx_1", 1)],
            "c2": [E("Tnx_2", 1), E("Tnx_3", 1), E("Tx_1", 2)],
            "v1": [E("T1_0", 2), E("T1_1", 2)],
            "v2": [E("T2_1", 2), E("T2_0", 2)],
            "v3": [E("T3_1", 2), E("T3_0", 2)],
        }
    )
    return rf, mo


def unsat_formula() -> CnfFormula:
    return CnfFormula(
        1,
        (
            ((1, True), (1, True), (1, True)),
            ((1, False), (1, False), (1, False)),
        ),
    )


def triangle_graph() -> UndirectedGraph:
    return UndirectedGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])


def square_graph() -> UndirectedGraph:
    return UndirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def observed_order_acyclic():
    """A read forced to order two same-location writes it observed: still
    acyclic per-thread observed order."""
    g = build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "y", 1)]),
            ("t2", [("r", "y", 1), ("r", "x", 2)]),
            ("t3", [("w", "x", 2)]),
        ]
    )
    rf = ReadsFrom({E("t2", 0): E("t1", 1), E("t2", 1): E("t3", 0)})
    return g, rf


def observed_order_cyclic():
    """Adding a read of the first z write flips the forced observed order
    against program order: per-thread observed order becomes reflexive."""
    g = build_graph(
        [
            ("t1", [("w", "z", 1), ("w", "z", 2), ("w", "x", 1), ("w", "y", 1)]),
            ("t2", [("r", "y", 1), ("r", "x", 2), ("r", "z", 1)]),
            ("t3", [("w", "x", 2)]),
        ]
    )
    rf = ReadsFrom({E("t2", 0): E("t1", 3), E("t2", 1): E("t3", 0), E("t2", 2): E("t1", 0)})
    return g, rf


def crossed_reads() -> PartialExecutionGraph:
    """Two threads each write x 1 and then read x 1 (shrunk from a
    generated multi-writer input).  Of its four rfs the one where each
    read takes the other thread's write has no mo under sra or ra: each
    write is hb-before the read of the other, so each must be mo-before
    the other.  The other three have one."""
    return build_graph(
        [("t1", [("w", "x", 1), ("r", "x", 1)]), ("t2", [("w", "x", 1), ("r", "x", 1)])]
    )


def scaling_graph(n: int, num_locations: int = 8, values: int = 4) -> PartialExecutionGraph:
    """Deterministic single-writer family for runtime measurements.

    One writer thread per location cycling through the value domain, one
    reader per location opening with a descending value block; every later
    read of the first value must then hop over the positions its
    predecessors exposed, so repairs scale with the read count.
    """
    readers = num_locations
    reads_per_reader = n // (2 * readers)
    writes_per_writer = (n - readers * reads_per_reader) // num_locations
    threads = []
    for i in range(num_locations):
        threads.append(
            (f"w{i + 1:02d}", [("w", f"x{i + 1}", j % values) for j in range(writes_per_writer)])
        )
    for i in range(readers):
        var = f"x{i + 1}"
        ops = []
        for j in range(reads_per_reader):
            val = values - 1 - j if j < values else 0
            ops.append(("r", var, val))
        threads.append((f"r{i + 1:02d}", ops))
    return build_graph(threads)


def synchronizing_graph(n: int, num_threads: int = 4, values: int = 4) -> PartialExecutionGraph:
    """Deterministic single-writer family whose hb-pasts span most of the graph.

    A round-robin schedule: each step one thread writes the next value of
    its own location and then reads the value another thread's location
    holds at that point, the reader's target rotating over the other
    threads.  The schedule is a sequentially consistent run, so the graph
    is consistent under every model, and every thread keeps synchronizing
    with every other.
    """
    ops: list[list[tuple[str, str, int]]] = [[] for _ in range(num_threads)]
    current: dict[int, int] = {}
    step = 0
    while sum(map(len, ops)) < n:
        t, j = step % num_threads, step // num_threads
        current[t] = j % values
        ops[t].append(("w", f"x{t}", current[t]))
        other = (t + 1 + j % (num_threads - 1)) % num_threads
        if other in current:
            ops[t].append(("r", f"x{other}", current[other]))
        step += 1
    return build_graph([(f"t{t}", ops[t]) for t in range(num_threads)])
