"""Hardness-gadget generators.

Three encodings of 3-CNF satisfiability as consistency questions (with
three, two, and two writer threads per location, the last targeting
``rlx-acyclic``: the relaxed coherence axioms plus porf-acyclicity), and
the encoding of triangle detection as a single-writer weak-read-coherence
question.  A small exhaustive SAT decider cross-validates the
equivalences.

No gadget here encodes satisfiability under pure ``rlx``.  Both of its
axioms relate events of a single location, so a graph is rlx-consistent
iff every per-location restriction is.  An rlx gadget would have to
encode the formula within a single location.

Thread and location naming is stable across runs so generated fixtures
diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import EventId, PartialExecutionGraph, ReadsFrom, READ, WRITE, build_graph

Literal = tuple[int, bool]  # (variable index 1..k, polarity)


class NotThreeCnf(Exception):
    pass


class TooManyVariables(Exception):
    pass


class SelfLoop(Exception):
    pass


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF formula: clauses are exactly-three literal slots; duplicate
    literals within a clause are legal and collapse in the membership sets."""

    num_vars: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        for clause in self.clauses:
            if len(clause) != 3:
                raise NotThreeCnf(f"clause {clause!r} does not have exactly 3 literals")
            for var, _ in clause:
                if not 1 <= var <= self.num_vars:
                    raise ValueError(f"literal variable {var} out of range")

    def membership(self) -> dict[Literal, list[int]]:
        """literal -> ascending clause indices (1-based) containing it."""
        sets: dict[Literal, set[int]] = {}
        for j, clause in enumerate(self.clauses, start=1):
            for lit in clause:
                sets.setdefault(lit, set()).add(j)
        return {lit: sorted(js) for lit, js in sets.items()}


def brute_sat(formula: CnfFormula) -> list[bool] | None:
    """Lexicographically least satisfying assignment (False < True), or None.

    Guarded exhaustive enumeration; the first variable is the most
    significant position.
    """
    k = formula.num_vars
    if k > 24:
        raise TooManyVariables(f"{k} variables exceeds the enumeration guard")
    for code in range(1 << k):
        assignment = [bool((code >> (k - i)) & 1) for i in range(1, k + 1)]
        if all(
            any(assignment[var - 1] == polarity for var, polarity in clause)
            for clause in formula.clauses
        ):
            return assignment
    return None


# ---------------------------------------------------------------------------
# CNF gadgets
# ---------------------------------------------------------------------------


def _variable_gadgets(k: int) -> list[tuple[str, list[tuple[str, str, int]]]]:
    threads = []
    for i in range(1, k + 1):
        threads.append(
            (f"T{i}_1", [(WRITE, f"s{i}", 1), (WRITE, f"s{i}", 2), (WRITE, f"v{i}", 1)])
        )
        threads.append(
            (f"T{i}_0", [(WRITE, f"s{i}", 1), (WRITE, f"s{i}", 2), (WRITE, f"v{i}", 0)])
        )
    return threads


def _s_reads(k: int) -> list[tuple[str, str, int]]:
    out = []
    for i in range(1, k + 1):
        out.append((READ, f"s{i}", 2))
        out.append((READ, f"s{i}", 1))
    return out


def cnf_to_threewriter(formula: CnfFormula) -> PartialExecutionGraph:
    """Encode satisfiability with at most three writers per location.

    Per variable i: two setter threads racing on s_i and publishing the
    chosen truth value of v_i, plus one thread per literal that consumes
    v_i and acknowledges every clause containing the literal.  A final
    thread checks all clauses, then reads the s_i pairs in an order only
    a single-valued assignment can explain.
    """
    k, m = formula.num_vars, len(formula.clauses)
    member = formula.membership()
    threads = _variable_gadgets(k)
    for i in range(1, k + 1):
        pos = [(WRITE, f"c{j}", 1) for j in member.get((i, True), [])]
        neg = [(WRITE, f"c{j}", 1) for j in member.get((i, False), [])]
        threads.append((f"Tx_{i}", [(READ, f"v{i}", 1)] + pos))
        threads.append((f"Tnx_{i}", [(READ, f"v{i}", 0)] + neg))
    final = [(READ, f"c{j}", 1) for j in range(1, m + 1)] + _s_reads(k)
    threads.append(("Tf", final))
    return build_graph(threads)


def _clause_tokens(formula: CnfFormula, lit: Literal) -> list[tuple[str, str, int]]:
    """Clause acknowledgements for one literal under the two-writer split:
    first two slots write c_j, the third writes d_j; within a clause the
    c write precedes the d write."""
    tokens = []
    for j, clause in enumerate(formula.clauses, start=1):
        if lit in clause[:2]:
            tokens.append((WRITE, f"c{j}", 1))
        if lit == clause[2]:
            tokens.append((WRITE, f"d{j}", 1))
    return tokens


def cnf_to_twowriter(formula: CnfFormula) -> PartialExecutionGraph:
    """The three-writer encoding squeezed to two writers per location by
    relaying each clause's third acknowledgement through a fresh thread."""
    k, m = formula.num_vars, len(formula.clauses)
    threads = _variable_gadgets(k)
    for i in range(1, k + 1):
        threads.append(
            (f"Tx_{i}", [(READ, f"v{i}", 1)] + _clause_tokens(formula, (i, True)))
        )
        threads.append(
            (f"Tnx_{i}", [(READ, f"v{i}", 0)] + _clause_tokens(formula, (i, False)))
        )
    for j in range(1, m + 1):
        threads.append((f"Tj_{j}", [(READ, f"c{j}", 1), (WRITE, f"d{j}", 1)]))
    final = [(READ, f"d{j}", 1) for j in range(1, m + 1)] + _s_reads(k)
    threads.append(("Tf", final))
    return build_graph(threads)


def cnf_to_twowriter_relaxed(formula: CnfFormula) -> PartialExecutionGraph:
    """Two-writer encoding for ``rlx-acyclic`` (relaxed coherence plus
    porf-acyclicity).

    Truth values are staged by two initializer threads; the second one
    re-publishes both values of every v_i after a gate read of s, which
    the final thread writes only after all clauses acknowledge.  Literal
    threads must observe v_i transition in their polarity's direction.

    The gate is a causality argument: Init1's read of s can only take
    Tf's write, so a literal thread that reads a re-published value and
    supplies an acknowledgement Tf reads closes a po ∪ rf cycle.  Only
    porf-acyclicity forbids that cycle.  Under pure ``rlx`` every
    per-location restriction is consistent (on v_i, Init0 writes 0 and
    Init1 writes 1, 0, 1, explaining both read orders; c_j, d_j and s
    carry one value each), so the graph is rlx-consistent for every
    formula.
    """
    k, m = formula.num_vars, len(formula.clauses)
    init0 = [(WRITE, f"v{i}", 0) for i in range(1, k + 1)]
    init1 = (
        [(WRITE, f"v{i}", 1) for i in range(1, k + 1)]
        + [(READ, "s", 1)]
        + [(WRITE, f"v{i}", 0) for i in range(1, k + 1)]
        + [(WRITE, f"v{i}", 1) for i in range(1, k + 1)]
    )
    threads = [("Init0", init0), ("Init1", init1)]
    for i in range(1, k + 1):
        threads.append(
            (
                f"Tx_{i}",
                [(READ, f"v{i}", 0), (READ, f"v{i}", 1)]
                + _clause_tokens(formula, (i, True)),
            )
        )
        threads.append(
            (
                f"Tnx_{i}",
                [(READ, f"v{i}", 1), (READ, f"v{i}", 0)]
                + _clause_tokens(formula, (i, False)),
            )
        )
    for j in range(1, m + 1):
        threads.append((f"Tj_{j}", [(READ, f"c{j}", 1), (WRITE, f"d{j}", 1)]))
    final = [(READ, f"d{j}", 1) for j in range(1, m + 1)] + [(WRITE, "s", 1)]
    threads.append(("Tf", final))
    return build_graph(threads)


# ---------------------------------------------------------------------------
# Triangle gadget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on vertices 1..num_vertices, no self-loops."""

    num_vertices: int
    edges: frozenset[tuple[int, int]]  # normalized u < v

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (1 <= u <= self.num_vertices and 1 <= v <= self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u > v:
                raise ValueError("edges must be normalized with u < v")

    @classmethod
    def from_edges(cls, num_vertices: int, pairs) -> "UndirectedGraph":
        return cls(num_vertices, frozenset((min(u, v), max(u, v)) for u, v in pairs))

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def has_triangle(self) -> bool:
        adj = {v: set(self.neighbors(v)) for v in range(1, self.num_vertices + 1)}
        for u, v in self.edges:
            if adj[u] & adj[v]:
                return True
        return False


def graph_to_onewriter(graph: UndirectedGraph) -> tuple[PartialExecutionGraph, ReadsFrom]:
    """Encode triangle detection as a single-writer coherence question.

    Four threads per vertex form a three-hop relay along edges; a value
    flip on a_v at the source is observable at the final read of a_v
    exactly when some length-3 cycle returns to v.  Every read has a
    unique matching write, so the reads-from relation is forced; it is
    returned alongside the graph.
    """
    threads = []
    verts = range(1, graph.num_vertices + 1)
    for v in verts:
        row = [(WRITE, f"a{v}", 0), (WRITE, f"a{v}", 1)]
        row += [(WRITE, f"a{v}_{w}", 0) for w in graph.neighbors(v)]
        threads.append((f"ta_{v}", row))
    for v in verts:
        row = [(READ, f"a{w}_{v}", 0) for w in graph.neighbors(v)]
        row += [(WRITE, f"b{v}", 0)]
        row += [(WRITE, f"b{v}_{w}", 0) for w in graph.neighbors(v)]
        threads.append((f"tb_{v}", row))
    for v in verts:
        row = [(READ, f"b{w}_{v}", 0) for w in graph.neighbors(v)]
        row += [(WRITE, f"c{v}", 0)]
        row += [(WRITE, f"c{v}_{w}", 0) for w in graph.neighbors(v)]
        threads.append((f"tc_{v}", row))
    for v in verts:
        row = [(READ, f"c{w}_{v}", 0) for w in graph.neighbors(v)]
        row += [(READ, f"a{v}", 0)]
        threads.append((f"td_{v}", row))
    g = build_graph(threads)

    num = g.numbering
    mapping: dict[EventId, EventId] = {}
    for r in num.reads:
        ev = num.events[r]
        matches = num.matches.get((ev.var, ev.val), ())
        assert len(matches) == 1, f"read {ev} should have a unique writer"
        mapping[ev.id] = num.events[matches[0]].id
    return g, ReadsFrom(mapping)
