from __future__ import annotations

import itertools

import pytest

from racheck import (
    CnfFormula,
    MemoryModel,
    NotThreeCnf,
    SelfLoop,
    TooManyVariables,
    UndirectedGraph,
    brute_sat,
    build_graph,
    cnf_to_threewriter,
    cnf_to_twowriter,
    cnf_to_twowriter_relaxed,
    graph_to_onewriter,
    max_writers,
    oracle_consistent,
    random_graph,
    writer_profile,
)
from racheck.axioms import Axiom, check_axiom
from racheck.harness import FuzzParams
from racheck.oracle import EXHAUSTED
from racheck.solver import RF_TOTALITY

import fixtures as fx
from reference_oracle import enumerate_rfs


def _ops(g, tid):
    return [(ev.op, ev.var, ev.val) for ev in g.events_of[tid]]


# ---------------------------------------------------------------------------
# brute_sat
# ---------------------------------------------------------------------------


def test_brute_sat_two_clause_formula():
    phi = fx.two_clause_formula()
    assignment = brute_sat(phi)
    assert assignment is not None
    assert all(
        any(assignment[var - 1] == pol for var, pol in clause) for clause in phi.clauses
    )
    # least assignment in False<True order with the first variable most significant
    assert assignment == [False, False, True]


def test_brute_sat_contradiction():
    assert brute_sat(fx.unsat_formula()) is None


def test_brute_sat_empty_formula():
    assert brute_sat(CnfFormula(2, ())) == [False, False]


def test_brute_sat_guard():
    with pytest.raises(TooManyVariables):
        brute_sat(CnfFormula(25, ()))


def test_cnf_rejects_wrong_width():
    with pytest.raises(NotThreeCnf):
        CnfFormula(1, (((1, True), (1, True)),))


# The parsers check every line first, so these guard direct construction.
@pytest.mark.parametrize(
    "cls, args, error, message",
    [
        (CnfFormula, (-1, ()), ValueError, "negative variable count"),
        (CnfFormula, (2, (((1, True), (3, False), (2, True)),)), ValueError,
         "literal variable 3 out of range"),
        (CnfFormula, (2, (((0, True), (1, True), (2, True)),)), ValueError,
         "literal variable 0 out of range"),
        (UndirectedGraph, (3, frozenset({(2, 2)})), SelfLoop, "self-loop at vertex 2"),
        (UndirectedGraph, (3, frozenset({(1, 4)})), ValueError, "edge (1,4) out of range"),
        (UndirectedGraph, (3, frozenset({(3, 1)})), ValueError,
         "edges must be normalized with u < v"),
    ],
)
def test_constructor_guards(cls, args, error, message):
    with pytest.raises(error) as err:
        cls(*args)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Three-writer gadget
# ---------------------------------------------------------------------------


def test_threewriter_two_clause_layout():
    g = cnf_to_threewriter(fx.two_clause_formula())
    assert len(g.thread_ids) == 13
    assert g.num_events == 38
    assert max_writers(g) == 3
    assert _ops(g, "T1_1") == [("w", "s1", 1), ("w", "s1", 2), ("w", "v1", 1)]
    assert _ops(g, "T1_0") == [("w", "s1", 1), ("w", "s1", 2), ("w", "v1", 0)]
    assert _ops(g, "Tx_1") == [("r", "v1", 1), ("w", "c1", 1), ("w", "c2", 1)]
    assert _ops(g, "Tnx_1") == [("r", "v1", 0)]
    assert _ops(g, "Tx_2") == [("r", "v2", 1), ("w", "c1", 1)]
    assert _ops(g, "Tnx_2") == [("r", "v2", 0), ("w", "c2", 1)]
    assert _ops(g, "Tf") == [
        ("r", "c1", 1),
        ("r", "c2", 1),
        ("r", "s1", 2),
        ("r", "s1", 1),
        ("r", "s2", 2),
        ("r", "s2", 1),
        ("r", "s3", 2),
        ("r", "s3", 1),
    ]


def test_threewriter_duplicate_literals_collapse():
    phi = CnfFormula(1, (((1, True), (1, True), (1, True)),))
    g = cnf_to_threewriter(phi)
    assert _ops(g, "Tx_1") == [("r", "v1", 1), ("w", "c1", 1)]


def test_threewriter_size_bounds():
    for k, m in [(1, 1), (2, 2), (3, 2), (4, 4)]:
        clauses = tuple(
            ((1 + j % k, True), (1 + (j + 1) % k, False), (1 + (j + 2) % k, True))
            for j in range(m)
        )
        g = cnf_to_threewriter(CnfFormula(k, clauses))
        assert len(g.thread_ids) == 4 * k + 1
        assert g.num_events <= 10 * k + 4 * m


# ---------------------------------------------------------------------------
# Two-writer gadget
# ---------------------------------------------------------------------------


def test_twowriter_write_split():
    g = cnf_to_twowriter(fx.two_clause_formula())
    profile = writer_profile(g)
    assert max_writers(g) == 2
    # first two literal slots keep the clause location, third moves to the relay
    assert profile["c1"] == {"Tx_1", "Tx_2"}
    assert profile["d1"] == {"Tx_3", "Tj_1"}
    assert profile["c2"] == {"Tx_1", "Tnx_2"}
    assert profile["d2"] == {"Tnx_3", "Tj_2"}
    assert _ops(g, "Tj_1") == [("r", "c1", 1), ("w", "d1", 1)]
    assert _ops(g, "Tf")[:2] == [("r", "d1", 1), ("r", "d2", 1)]
    assert len(g.thread_ids) == 4 * 3 + 2 + 1


def test_twowriter_repeated_first_literals_single_writer():
    phi = CnfFormula(2, (((1, True), (1, True), (2, True)),))
    g = cnf_to_twowriter(phi)
    assert writer_profile(g)["c1"] == {"Tx_1"}


def test_twowriter_no_clauses():
    g = cnf_to_twowriter(CnfFormula(2, ()))
    assert [v for v in writer_profile(g) if v.startswith(("c", "d"))] == []
    assert _ops(g, "Tf") == [
        ("r", "s1", 2),
        ("r", "s1", 1),
        ("r", "s2", 2),
        ("r", "s2", 1),
    ]


def test_twowriter_literal_in_first_and_third_slot():
    phi = CnfFormula(1, (((1, True), (1, True), (1, True)),))
    g = cnf_to_twowriter(phi)
    assert _ops(g, "Tx_1") == [("r", "v1", 1), ("w", "c1", 1), ("w", "d1", 1)]
    assert max_writers(g) == 2


# ---------------------------------------------------------------------------
# Relaxed two-writer gadget
# ---------------------------------------------------------------------------


def test_twowriter_relaxed_layout():
    phi = CnfFormula(1, (((1, True), (1, True), (1, True)),))
    g = cnf_to_twowriter_relaxed(phi)
    assert _ops(g, "Init1") == [
        ("w", "v1", 1),
        ("r", "s", 1),
        ("w", "v1", 0),
        ("w", "v1", 1),
    ]
    assert _ops(g, "Init0") == [("w", "v1", 0)]
    assert _ops(g, "Tx_1") == [("r", "v1", 0), ("r", "v1", 1), ("w", "c1", 1), ("w", "d1", 1)]
    assert _ops(g, "Tf") == [("r", "d1", 1), ("w", "s", 1)]
    assert len(g.thread_ids) == 2 * 1 + 1 + 3
    assert max_writers(g) <= 2


def test_twowriter_relaxed_thread_count():
    for k, m in [(2, 1), (3, 2), (4, 3)]:
        clauses = tuple(
            ((1 + j % k, True), (1 + (j + 1) % k, False), (1 + (j + 2) % k, True))
            for j in range(m)
        )
        g = cnf_to_twowriter_relaxed(CnfFormula(k, clauses))
        assert len(g.thread_ids) == 2 * k + m + 3


def test_twowriter_relaxed_satisfiable_is_consistent():
    for phi in (
        fx.two_clause_formula(),
        CnfFormula(2, (((1, True), (2, False), (2, True)),)),
        CnfFormula(1, (((1, False), (1, False), (1, False)),)),
    ):
        assert brute_sat(phi) is not None
        g = cnf_to_twowriter_relaxed(phi)
        assert oracle_consistent(g, MemoryModel.RELAXED).is_consistent


def test_twowriter_relaxed_equivalence_holds_with_causality():
    # The unsat direction rests on the s gate: Init1's read of s can only be
    # explained by Tf's write, which follows every clause acknowledgement.
    # That is a causality argument and needs porf-acyclicity.  Pure rlx has
    # only per-location axioms, so it is separable by location, and every
    # per-location restriction of the gadget is consistent: the gadget is
    # rlx-consistent for every formula.
    g = cnf_to_twowriter_relaxed(fx.unsat_formula())
    assert oracle_consistent(g, MemoryModel.RELAXED_ACYCLIC).is_consistent is False
    assert oracle_consistent(g, MemoryModel.RELAXED).is_consistent is True


def _restrict(g, var):
    """The graph keeping only the events on `var`, every thread kept."""
    return build_graph(
        [
            (tid, [(ev.op, ev.var, ev.val) for ev in g.events_of[tid] if ev.var == var])
            for tid in g.thread_ids
        ]
    )


def _rlx_per_location(g):
    locations = sorted({ev.var for ev in g.events()})
    return all(
        oracle_consistent(_restrict(g, x), MemoryModel.RELAXED).is_consistent for x in locations
    )


def test_relaxed_consistency_is_separable_by_location():
    # both pure-rlx axioms relate events of one location only, so the whole
    # graph is rlx-consistent iff every per-location restriction is
    gadgets = [
        cnf_to_twowriter_relaxed(phi)
        for phi in (fx.unsat_formula(), fx.two_clause_formula(), CnfFormula(2, ()))
    ]
    randoms = [
        random_graph(
            FuzzParams(
                seed=90_000 + seed,
                num_threads=3,
                num_locations=2,
                num_events=14,
                value_range=3,
                writer_bound=None,
            )
        )
        for seed in range(100)
    ]
    axioms_hit = set()
    for g in gadgets + randoms:
        whole = oracle_consistent(g, MemoryModel.RELAXED)
        assert whole.is_consistent == _rlx_per_location(g)
        axioms_hit.add(whole.axiom)
    # consistent graphs, unmatched reads and coherence failures all occur
    assert axioms_hit == {None, RF_TOTALITY, EXHAUSTED}


# ---------------------------------------------------------------------------
# Triangle gadget
# ---------------------------------------------------------------------------


def test_triangle_gadget_layout_and_violation():
    g, rf = graph_to_onewriter(fx.triangle_graph())
    assert len(g.thread_ids) == 12
    assert g.num_events == 51
    assert max_writers(g) == 1
    cert = check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE)
    assert cert is not None
    assert {g.event(eid).var for eid, _ in cert} == {"a1"}


def test_triangle_gadget_forced_rf_unique():
    g, rf = graph_to_onewriter(fx.triangle_graph())
    candidates = list(enumerate_rfs(g))
    assert candidates == [rf]


def test_triangle_free_square_has_no_violation():
    g, rf = graph_to_onewriter(fx.square_graph())
    assert check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE) is None


def test_single_edge_has_no_violation():
    g, rf = graph_to_onewriter(UndirectedGraph.from_edges(2, [(1, 2)]))
    assert len(g.thread_ids) == 8
    assert check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE) is None


def test_triangle_gadget_rejects_self_loop():
    with pytest.raises(SelfLoop):
        UndirectedGraph.from_edges(2, [(1, 1)])


def test_triangle_equivalence_small_exhaustive():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            ug = UndirectedGraph.from_edges(
                n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            )
            g, rf = graph_to_onewriter(ug)
            violated = check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE) is not None
            assert violated == ug.has_triangle()


# ---------------------------------------------------------------------------
# Reduction equivalence on the fixture formulas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", [MemoryModel.SRA, MemoryModel.RA, MemoryModel.WRA])
def test_equivalence_on_fixture_formulas(model):
    for phi in (fx.two_clause_formula(), fx.unsat_formula()):
        sat = brute_sat(phi) is not None
        assert oracle_consistent(cnf_to_threewriter(phi), model).is_consistent == sat
        assert oracle_consistent(cnf_to_twowriter(phi), model).is_consistent == sat
