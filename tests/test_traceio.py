from __future__ import annotations

import random

import pytest

from racheck import (
    CnfFormula,
    EventId,
    NotThreeCnf,
    SelfLoop,
    UndirectedGraph,
    build_graph,
    cnf_to_threewriter,
    derive_mo,
    graph_to_onewriter,
    random_graph,
    solve,
)
from racheck.harness import FuzzParams
from racheck.model import MemoryModel
from racheck.traceio import (
    ParseError,
    TraceDocument,
    parse_dimacs,
    parse_edgelist,
    parse_trace,
    serialize_dimacs,
    serialize_edgelist,
    serialize_trace,
)

import fixtures as fx

E = EventId


# ---------------------------------------------------------------------------
# Trace parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_complete_trace():
    doc = parse_trace("thread t1\nw x 1\nthread t2\nr x 1\nrf t1:0 t2:0\n")
    assert doc.graph.num_events == 2
    assert doc.rf.mapping == {E("t2", 0): E("t1", 0)}
    assert doc.mo is None


def test_parse_write_only_trace_with_mo():
    text = "thread t1\nw y 0\nw x 0\nthread t2\nw x 0\nw y 0\nmo x t1:1 t2:0\nmo y t2:1 t1:0\n"
    doc = parse_trace(text)
    assert doc.mo.per_var["x"] == [E("t1", 1), E("t2", 0)]
    assert doc.mo.per_var["y"] == [E("t2", 1), E("t1", 0)]
    g, rf, mo = fx.cross_location_mo_cycle()
    assert doc.graph == g and doc.mo == mo


def test_parse_event_outside_thread():
    with pytest.raises(ParseError) as err:
        parse_trace("w x 1\n")
    assert err.value.line == 1


def test_parse_comments_and_blanks():
    doc = parse_trace("# header\n\nthread t1  # block\nw x 1 # write\n")
    assert doc.graph.num_events == 1


@pytest.mark.parametrize(
    "text",
    [
        "thread t1\nw x 1\nthread t1\n",  # duplicate thread
        "thread t1\nw x one\n",  # malformed integer
        "thread t1\nw x 1\nrf t1:0 t1:0\n",  # target not a read
        "thread t1\nr x 1\nthread t2\nw x 2\nrf t2:0 t1:0\n",  # value mismatch
        "thread t1\nw x 1\nrf t1:0 t9:0\n",  # unknown event
        "thread t1\nw x 1\nw x 2\nmo x t1:0\n",  # mo omits a write
        "thread t1\nw x 1\nw x 2\nmo x t1:0 t1:0\n",  # mo duplicates a write
        "thread t1\nw x 1\nrf t1:0\n",  # malformed rf
        "thread t1\nw x 1\nmo x t1:0\nthread t2\n",  # thread after annotations
        "thread t1\nw x 99999999999999999999\n",  # out of range
        "bogus line\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_trace(text)


def test_parse_rejects_double_writer_for_read():
    text = (
        "thread t1\nw x 1\nw x 1\nthread t2\nr x 1\n"
        "rf t1:0 t2:0\nrf t1:1 t2:0\n"
    )
    with pytest.raises(ParseError):
        parse_trace(text)


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------


def _documents():
    g = fx.single_writer_consistent()
    verdict, _ = solve(g, MemoryModel.WRA)
    yield TraceDocument(g)
    yield TraceDocument(g, verdict.rf, None)
    yield TraceDocument(g, verdict.rf, derive_mo(g))
    cyc = fx.single_writer_porf_cyclic()
    yield TraceDocument(cyc, fx.porf_cyclic_rf0(), derive_mo(cyc))
    gadget = cnf_to_threewriter(fx.two_clause_formula())
    yield TraceDocument(gadget)
    tri, rf = graph_to_onewriter(fx.triangle_graph())
    yield TraceDocument(tri, rf)
    yield TraceDocument(build_graph([]))
    for seed in range(10):
        rg = random_graph(FuzzParams(seed=seed, num_events=9, writer_bound=None))
        yield TraceDocument(rg)


def test_round_trip_documents():
    for doc in _documents():
        text = serialize_trace(doc)
        assert parse_trace(text) == doc
        assert serialize_trace(parse_trace(text)) == text


def test_serialize_empty_document():
    assert serialize_trace(TraceDocument(build_graph([]))) == ""


def test_serialize_gadget_thread_blocks():
    doc = TraceDocument(cnf_to_threewriter(fx.two_clause_formula()))
    text = serialize_trace(doc)
    assert sum(1 for line in text.splitlines() if line.startswith("thread ")) == 13
    assert not any(line.startswith(("rf ", "mo ")) for line in text.splitlines())


def test_mutated_rf_lines_are_rejected():
    base = serialize_trace(_first_annotated())
    rng = random.Random(3)
    lines = base.splitlines()
    rf_indices = [i for i, line in enumerate(lines) if line.startswith("rf ")]
    rejected = 0
    for i in rf_indices:
        tokens = lines[i].split()
        for mutation in (
            [tokens[0], tokens[2], tokens[1]],  # reversed roles
            [tokens[0], tokens[1], tokens[1]],  # read replaced by write
            [tokens[0], tokens[1], f"zz:{rng.randrange(5)}"],  # unknown event
        ):
            mutated = lines[:]
            mutated[i] = " ".join(mutation)
            try:
                parse_trace("\n".join(mutated) + "\n")
            except ParseError:
                rejected += 1
    assert rejected == 3 * len(rf_indices)


def _first_annotated():
    g = fx.single_writer_consistent()
    verdict, _ = solve(g, MemoryModel.WRA)
    return TraceDocument(g, verdict.rf, derive_mo(g))


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------


def test_parse_dimacs_two_clause():
    assert parse_dimacs(fx.TWO_CLAUSE_DIMACS) == fx.two_clause_formula()


def test_parse_dimacs_rejects_width():
    with pytest.raises(NotThreeCnf):
        parse_dimacs("p cnf 2 1\n1 2 0\n")


def test_parse_dimacs_header_mismatch():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n")


@pytest.mark.parametrize("header", ["p cnf -1 0", "p cnf 3 -1"])
def test_parse_dimacs_rejects_negative_counts(header):
    with pytest.raises(ParseError):
        parse_dimacs(header + "\n")


def test_parse_dimacs_comments_and_multiline_clauses():
    phi = parse_dimacs("c comment\np cnf 3 1\n1 2\n3 0\n")
    assert phi == CnfFormula(3, (((1, True), (2, True), (3, True)),))


def test_dimacs_round_trip():
    phi = fx.two_clause_formula()
    assert parse_dimacs(serialize_dimacs(phi)) == phi


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------


def test_parse_edgelist_triangle():
    assert parse_edgelist("3\n1 2\n2 3\n1 3\n") == fx.triangle_graph()


def test_parse_edgelist_self_loop():
    with pytest.raises(SelfLoop):
        parse_edgelist("2\n1 1\n")


def test_parse_edgelist_square():
    graph = parse_edgelist("4\n1 2\n2 3\n3 4\n4 1\n")
    assert graph == fx.square_graph()
    assert not graph.has_triangle()


def test_parse_edgelist_deduplicates():
    graph = parse_edgelist("3\n1 2\n2 1\n")
    assert graph == UndirectedGraph.from_edges(3, [(1, 2)])


def test_edgelist_round_trip():
    graph = fx.square_graph()
    assert parse_edgelist(serialize_edgelist(graph)) == graph
