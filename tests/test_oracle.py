from __future__ import annotations

import gc
import math
from unittest import mock

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

from racheck import (
    BudgetExceeded,
    EventId,
    MemoryModel,
    ModificationOrder,
    OracleLimits,
    ReadsFrom,
    all_consistent_rfs,
    build_graph,
    cnf_to_threewriter,
    cnf_to_twowriter,
    cnf_to_twowriter_relaxed,
    graph_to_onewriter,
    oracle_consistent,
    random_graph,
    solve,
    verify,
)
from racheck import axioms, oracle
from racheck.axioms import Axiom, check_axiom, model_needs_mo, replay_certificate
from racheck.cli import build_parser, main
from racheck.harness import FuzzParams
from racheck.model import number_rf, reads_from
from racheck.oracle import EXHAUSTED, _Search
from racheck.reductions import CnfFormula
from racheck.solver import RF_TOTALITY
from racheck.traceio import TraceDocument, serialize_trace

import fixtures as fx
from reference_oracle import (
    ChronologicalSearch,
    UnionMaskSearch,
    enumerate_mos,
    enumerate_rfs,
    permutation_first_mo,
    read_candidates,
    unmatched_read,
)

E = EventId

CANONICAL_MODELS = [
    MemoryModel.SRA,
    MemoryModel.RA,
    MemoryModel.WRA,
    MemoryModel.RELAXED,
    MemoryModel.RELAXED_ACYCLIC,
    MemoryModel.CM,
]

MO_MODELS = [MemoryModel.SRA, MemoryModel.RA, MemoryModel.RELAXED, MemoryModel.RELAXED_ACYCLIC]
RELAXED_MODELS = (MemoryModel.RELAXED, MemoryModel.RELAXED_ACYCLIC)


# ---------------------------------------------------------------------------
# Enumeration streams (the references in reference_oracle.py)
# ---------------------------------------------------------------------------


def test_enumerate_rfs_is_per_read_match_product():
    g = fx.single_writer_consistent()
    per_read = []
    for r in g.reads:
        per_read.append(sum(1 for w in g.writes_by_var[r.var] if w.val == r.val))
    expected = 1
    for count in per_read:
        expected *= count
    rfs = list(enumerate_rfs(g))
    assert len(rfs) == expected == 8
    assert len(set(rfs)) == len(rfs)


def test_enumerate_rfs_single_candidate():
    g = build_graph([("t1", [("w", "x", 1)]), ("t2", [("r", "x", 1)])])
    rfs = list(enumerate_rfs(g))
    assert rfs == [ReadsFrom({E("t2", 0): E("t1", 0)})]


def test_enumerate_rfs_unmatched_read_is_empty():
    g = build_graph([("t1", [("w", "x", 1)]), ("t2", [("r", "x", 5)])])
    assert list(enumerate_rfs(g)) == []


def test_enumerate_mos_two_locations():
    g = build_graph(
        [("t1", [("w", "x", 1), ("w", "x", 2)]), ("t2", [("w", "y", 1), ("w", "y", 2)])]
    )
    mos = list(enumerate_mos(g))
    assert len(mos) == 4
    assert len({repr(m) for m in mos}) == 4


def test_enumerate_mos_singletons():
    g = build_graph([("t1", [("w", "x", 1), ("w", "y", 1)])])
    assert len(list(enumerate_mos(g))) == 1


def test_enumerate_mos_three_writes():
    g = build_graph([("t1", [("w", "x", 1), ("w", "x", 2), ("w", "x", 3)])])
    assert len(list(enumerate_mos(g))) == 6


# ---------------------------------------------------------------------------
# oracle_consistent / all_consistent_rfs
# ---------------------------------------------------------------------------


def test_oracle_two_clause_gadget_consistent():
    g = cnf_to_threewriter(fx.two_clause_formula())
    for m in (MemoryModel.SRA, MemoryModel.RA, MemoryModel.WRA):
        verdict = oracle_consistent(g, m)
        assert verdict.is_consistent
        assert verify(g, verdict.rf, verdict.mo, m).is_consistent


def test_oracle_cyclic_fixture_inconsistent():
    g = fx.single_writer_porf_cyclic()
    verdict = oracle_consistent(g, MemoryModel.WRA)
    assert not verdict.is_consistent
    assert verdict.axiom == EXHAUSTED
    assert verdict.certificate is None


def test_oracle_empty_graph():
    g = build_graph([])
    for m in MemoryModel:
        assert oracle_consistent(g, m).is_consistent


def test_all_consistent_rfs_on_consistent_fixture():
    g = fx.single_writer_consistent()
    rfs = all_consistent_rfs(g, MemoryModel.WRA)
    assert fx.swc_rf2() in rfs
    assert fx.swc_rf0() not in rfs
    assert fx.swc_rf1() not in rfs


def test_all_consistent_rfs_no_reads():
    g = build_graph([("t1", [("w", "x", 1)])])
    assert all_consistent_rfs(g, MemoryModel.WRA) == [ReadsFrom({})]


def test_all_consistent_rfs_cyclic_fixture_empty():
    g = fx.single_writer_porf_cyclic()
    assert all_consistent_rfs(g, MemoryModel.WRA) == []


# t2 is listed first; each thread has a read that no write matches
def _unmatched_reads():
    return build_graph(
        [
            ("t2", [("w", "x", 1), ("r", "y", 7)]),
            ("t1", [("r", "x", 5), ("w", "y", 1)]),
        ]
    )


UNMATCHED_READS = _unmatched_reads()


def test_rf_totality_names_first_unmatched_read_in_id_order(monkeypatch):
    # both entry points answer it before the search's encoding is built
    def no_encoding(g):
        raise AssertionError("the search was set up")

    monkeypatch.setattr(oracle, "_Encoding", no_encoding)
    assert unmatched_read(UNMATCHED_READS) == E("t1", 0)
    for m in CANONICAL_MODELS:
        verdict = oracle_consistent(UNMATCHED_READS, m)
        assert (verdict.is_consistent, verdict.axiom) == (False, RF_TOTALITY), m
        assert verdict.certificate == [(E("t1", 0), "rf^-1")], m
        assert all_consistent_rfs(UNMATCHED_READS, m) == [], m
    with pytest.raises(AssertionError):  # a graph without one is searched
        oracle_consistent(fx.single_writer_consistent(), MemoryModel.WRA)


def test_max_events_is_checked_first():
    # before the rf-totality answer, and before the candidate table is built
    limits = OracleLimits(max_events=UNMATCHED_READS.num_events - 1)
    for entry in (oracle_consistent, all_consistent_rfs):
        g = _unmatched_reads()
        with pytest.raises(BudgetExceeded) as exc:
            entry(g, MemoryModel.WRA, limits)
        assert exc.value.limit == "max_events", entry.__name__
        assert "matches" not in g.numbering.__dict__, entry.__name__


def test_candidates_computed_once_per_call():
    # Both entry points read the one candidate table the numbering caches:
    # every read's candidate list is the table's own list object.
    g = fx.single_writer_consistent()
    assert unmatched_read(g) is None
    assert "matches" not in g.numbering.__dict__
    tables = []
    for entry in (oracle_consistent, all_consistent_rfs):
        entry(g, MemoryModel.WRA)
        tables.append(g.numbering.__dict__["matches"])
        order = _Search(g, MemoryModel.WRA, oracle.DEFAULT_LIMITS).order
        assert all(
            any(writes is own for own in tables[-1].values()) for _, writes in order
        ), entry.__name__
    assert tables[0] is tables[1]


def _candidate_graphs():
    for seed in range(40):
        yield random_graph(
            FuzzParams(
                seed=seed + 9000,
                num_threads=3,
                num_locations=1 + seed % 3,
                num_events=2 + seed % 11,
                writer_bound=None,
            )
        )
    for phi in (fx.two_clause_formula(), fx.unsat_formula()):
        yield cnf_to_threewriter(phi)
        yield cnf_to_twowriter(phi)
        yield cnf_to_twowriter_relaxed(phi)
    for graph in (fx.triangle_graph(), fx.square_graph()):
        yield graph_to_onewriter(graph)[0]
    yield UNMATCHED_READS


def test_candidate_table_matches_brute_force():
    for g in _candidate_graphs():
        num = g.numbering
        expected = read_candidates(g)
        assert [num.ids[r] for r in num.reads] == [r.id for r, _ in expected]
        for r, writes in expected:
            table = num.matches.get((r.var, r.val), [])
            assert [num.ids[w] for w in table] == writes, r
        # every list holds writes of its own (location, value), ascending
        for (var, val), writes in num.matches.items():
            assert writes == sorted(writes)
            assert all((num.events[w].var, num.events[w].val) == (var, val) for w in writes)
            assert all(num.events[w].is_write for w in writes)
        ranked = sorted(expected, key=lambda rc: (len(rc[1]), rc[0].id))
        order = _Search(g, MemoryModel.WRA, OracleLimits(max_events=10**6)).order
        assert [(num.ids[r], [num.ids[w] for w in writes]) for r, writes in order] == [
            (r.id, writes) for r, writes in ranked
        ]


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


def test_budget_max_events():
    g = fx.single_writer_consistent()
    with pytest.raises(BudgetExceeded):
        oracle_consistent(g, MemoryModel.WRA, OracleLimits(max_events=3))


def test_budget_rf_candidates():
    g = fx.single_writer_consistent()
    with pytest.raises(BudgetExceeded):
        list(enumerate_rfs(g, OracleLimits(max_rf_candidates=3)))
    with pytest.raises(BudgetExceeded):
        all_consistent_rfs(g, MemoryModel.WRA, OracleLimits(max_rf_candidates=2))


def test_budget_mo_permutations():
    g = build_graph([("t1", [("w", "x", 1), ("w", "x", 2), ("w", "x", 3), ("w", "x", 4)])])
    with pytest.raises(BudgetExceeded):
        list(enumerate_mos(g, max_permutations=5))


# ---------------------------------------------------------------------------
# Semantics: equivalence with the plain product search
# ---------------------------------------------------------------------------


def _product_consistent(g, m, limits, max_permutations):
    # graphs without reads still yield the single empty rf
    for rf in enumerate_rfs(g, limits):
        if model_needs_mo(m):
            for mo in enumerate_mos(g, max_permutations):
                if verify(g, rf, mo, m).is_consistent:
                    return True
        else:
            if verify(g, rf, None, m).is_consistent:
                return True
    return False


def test_oracle_agrees_with_product_search():
    limits = OracleLimits(max_rf_candidates=10**6)
    for seed in range(60):
        g = random_graph(
            FuzzParams(
                seed=seed,
                num_threads=3,
                num_locations=2,
                num_events=4 + seed % 5,
                writer_bound=None if seed % 3 else 2,
            )
        )
        for m in MemoryModel:
            assert (
                oracle_consistent(g, m, limits).is_consistent
                == _product_consistent(g, m, limits, max_permutations=10**6)
            ), (seed, m)


def test_oracle_witnesses_are_sound():
    for seed in range(60):
        g = random_graph(
            FuzzParams(seed=seed + 40, num_threads=3, num_locations=3, num_events=9, writer_bound=None)
        )
        for m in MemoryModel:
            verdict = oracle_consistent(g, m)
            if verdict.is_consistent and g.num_events:
                mo = verdict.mo
                if model_needs_mo(m):
                    assert mo is not None
                assert verify(g, verdict.rf, mo, m).is_consistent


def test_oracle_inconsistent_iff_no_consistent_rf():
    for seed in range(40):
        g = random_graph(
            FuzzParams(seed=seed + 400, num_threads=3, num_locations=2, num_events=8, writer_bound=2)
        )
        for m in CANONICAL_MODELS:
            verdict = oracle_consistent(g, m)
            rfs = all_consistent_rfs(g, m)
            assert verdict.is_consistent == bool(rfs)


def test_oracle_hierarchy_existence_level():
    for seed in range(50):
        g = random_graph(
            FuzzParams(seed=seed + 800, num_threads=3, num_locations=2, num_events=8, writer_bound=None)
        )
        sra = oracle_consistent(g, MemoryModel.SRA).is_consistent
        ra = oracle_consistent(g, MemoryModel.RA).is_consistent
        wra = oracle_consistent(g, MemoryModel.WRA).is_consistent
        assert (not sra or ra) and (not ra or wra)


def test_oracle_agrees_with_solver_on_single_writer():
    for seed in range(60):
        g = random_graph(
            FuzzParams(seed=seed + 6000, num_threads=4, num_locations=3, num_events=11, writer_bound=1)
        )
        for m in MemoryModel:
            assert oracle_consistent(g, m).is_consistent == solve(g, m)[0].is_consistent


# ---------------------------------------------------------------------------
# Backjumping against the chronological reference
# ---------------------------------------------------------------------------

GADGETS = {
    "cnf2w": cnf_to_twowriter,
    "cnf3w": cnf_to_threewriter,
    "cnf2w-rlx": cnf_to_twowriter_relaxed,
}

# the 3-variable formula made of all eight sign patterns: unsatisfiable
EIGHT_PATTERNS = CnfFormula(
    3,
    tuple(((1, a), (2, b), (3, c)) for a in (True, False) for b in (True, False) for c in (True, False)),
)


def sign_patterns(a, b, pos):
    """Four clauses, one per sign pattern of variables a and b, so no
    assignment satisfies them; each repeats a's literal and has b's
    literal in slot `pos`."""
    clauses = []
    for sa in (True, False):
        for sb in (True, False):
            lits = [(a, sa), (a, sa)]
            lits.insert(pos, (b, sb))
            clauses.append(tuple(lits))
    return clauses


@st.composite
def formulas(draw):
    """Half the time 1-4 random clauses over 1-2 variables (mostly
    satisfiable), half the time `sign_patterns` in a drawn layout and
    clause order."""
    if draw(st.booleans()):
        num_vars = draw(st.integers(1, 2))
        literal = st.tuples(st.integers(1, num_vars), st.booleans())
        clauses = draw(st.lists(st.tuples(literal, literal, literal), min_size=1, max_size=4))
        return CnfFormula(num_vars, tuple(clauses))
    a, b = draw(st.permutations([1, 2]))
    clauses = sign_patterns(a, b, draw(st.integers(0, 2)))
    return CnfFormula(2, tuple(draw(st.permutations(clauses))))


@st.composite
def oracle_cases(draw):
    """A multi-writer random graph of up to 16 events or a small SAT
    gadget, with no unmatched read (the entry points decide those before
    any search), one of the six canonical models, and a node budget small
    enough that it is met now and then."""
    if draw(st.booleans()):
        g = random_graph(
            FuzzParams(
                seed=draw(st.integers(0, 10**6)),
                num_threads=draw(st.integers(2, 4)),
                num_locations=draw(st.integers(1, 2)),
                num_events=draw(st.integers(4, 16)),
                value_range=draw(st.integers(2, 3)),
                writer_bound=None,
            )
        )
    else:
        g = GADGETS[draw(st.sampled_from(sorted(GADGETS)))](draw(formulas()))
    assume(unmatched_read(g) is None)
    limits = OracleLimits(max_rf_candidates=draw(st.sampled_from([30, 20_000])))
    return g, draw(st.sampled_from(CANONICAL_MODELS)), limits


def _outcome(search_class, g, m, limits, first):
    """Run a new search to its first leaf (`first`: the leaf, or None) or
    through every leaf (their list); ("budget", limit) when a limit ran
    out.  Returns the outcome and the search."""
    search = search_class(g, m, limits)
    leaves = search.leaves()
    try:
        return (next(leaves, None) if first else list(leaves)), search
    except BudgetExceeded as exc:
        return ("budget", exc.limit), search


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_backjumping_matches_chronological_search(case):
    g, m, limits = case
    for first in (True, False):
        ref, ref_search = _outcome(ChronologicalSearch, g, m, limits, first)
        out, search = _outcome(_Search, g, m, limits, first)
        assert search.rf_nodes <= ref_search.rf_nodes
        # Only subtrees without leaves are skipped, so every outcome the
        # reference reaches within the node budget is reproduced exactly:
        # the first witness (rf and mo) and every leaf in order.
        # Where the reference runs out of nodes, the smaller search may
        # still decide.
        if ref != ("budget", "max_rf_candidates"):
            assert out == ref, first
        # Each prune blames one path where the reference blames every rf
        # edge that can lie on some path: the same leaves, no more nodes.
        union, union_search = _outcome(UnionMaskSearch, g, m, limits, first)
        assert search.rf_nodes <= union_search.rf_nodes
        if union != ("budget", "max_rf_candidates"):
            assert out == union, first


def test_oracle_cases_reach_budgets_and_backjumps():
    # the differential test above sees the node budget exit and backjumps
    cfg = settings(max_examples=250, derandomize=True, database=None, phases=[Phase.generate])

    def outcome_is(expected):
        def check(case):
            return _outcome(ChronologicalSearch, *case, True)[0] == expected

        return check

    find(oracle_cases(), outcome_is(("budget", "max_rf_candidates")), settings=cfg)
    find(
        oracle_cases(),
        lambda case: _outcome(_Search, *case, True)[1].backjumps > 0,
        settings=cfg,
    )
    find(
        oracle_cases(),
        lambda case: _outcome(_Search, *case, False)[1].learned_prunes > 0,
        settings=cfg,
    )


def test_backjumping_decides_eight_pattern_formula():
    # The chronological search exhausts a 1,000,000-node budget on this
    # gadget; backjumping with stored conflict sets proves it inconsistent
    # in 731 nodes (8,247 and 3,150 backjumps without the store, 64,892
    # nodes when each prune blamed every path).
    g = cnf_to_twowriter_relaxed(EIGHT_PATTERNS)
    search = _Search(g, MemoryModel.RELAXED_ACYCLIC, OracleLimits(max_rf_candidates=200_000))
    assert list(search.leaves()) == []
    assert (search.rf_nodes, search.backjumps) == (731, 202)


def test_backjumps_counted_on_unsat_relaxed_gadget():
    # 225 nodes and 46 backjumps (577 and 154 without stored conflict
    # sets, 966 and 251 when each prune blamed every path) against the
    # chronological search's 13,725 nodes
    g = cnf_to_twowriter_relaxed(CnfFormula(2, tuple(sign_patterns(2, 1, 0))))
    search = _Search(g, MemoryModel.RELAXED_ACYCLIC, OracleLimits())
    reference = ChronologicalSearch(g, MemoryModel.RELAXED_ACYCLIC, OracleLimits())
    assert list(search.leaves()) == list(reference.leaves()) == []
    assert (search.rf_nodes, search.backjumps) == (225, 46)
    assert (reference.rf_nodes, reference.backjumps) == (13_725, 0)


class _PruneRecorder(_Search):
    """Records each porf and weak-read-coherence prune as (axiom, the rf
    it blames on the numbering): the blamed edges, plus the candidate
    edge r <- w for a porf prune."""

    def __init__(self, *args):
        super().__init__(*args)
        self.prunes = []
        self._in_incoherence = False

    def _blamed(self, mask, r, w):
        src = [-1] * len(self.enc.events)
        for depth in axioms._bits(mask):
            q, wq, _ = self.assigned_reads[depth]
            src[q] = wq
        src[r] = w
        return src

    def _path(self, a, b):
        mask = super()._path(a, b)
        if not self._in_incoherence:  # the porf prune of read a taking write b
            self.prunes.append((Axiom.PORF_ACYCLICITY, self._blamed(mask, a, b)))
        return mask

    def _incoherence(self, q, wq, between):
        self._in_incoherence = True
        mask = super()._incoherence(q, wq, between)
        self._in_incoherence = False
        self.prunes.append((Axiom.WEAK_READ_COHERENCE, self._blamed(mask, q, wq)))
        return mask


def _replay_prunes(g, m, limits):
    """Run the search, check that every porf and weak-read-coherence
    conflict set alone reproduces its failure, and return the axioms of
    the prunes seen."""
    search = _PruneRecorder(g, m, limits)
    try:
        next(search.leaves(), None)
    except BudgetExceeded:
        pass  # the prunes made so far were recorded
    for ax, src in search.prunes:
        assert check_axiom(g, reads_from(g, src), None, ax) is not None, ax
    return {ax for ax, _ in search.prunes}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_conflict_sets_are_nogoods(case):
    # The rf edges a prune blames, with no other edge, break its axiom.
    _replay_prunes(*case)


def test_conflict_set_cases_reach_both_prunes():
    # the test above replays porf and weak-read-coherence prunes
    cfg = settings(
        max_examples=250, deadline=None, derandomize=True, database=None, phases=[Phase.generate]
    )
    for ax in (Axiom.PORF_ACYCLICITY, Axiom.WEAK_READ_COHERENCE):
        find(oracle_cases(), lambda case: ax in _replay_prunes(*case), settings=cfg)


def test_eight_pattern_conflict_sets_are_nogoods():
    limits = OracleLimits(max_rf_candidates=200_000)
    g = cnf_to_twowriter_relaxed(EIGHT_PATTERNS)
    assert _replay_prunes(g, MemoryModel.RELAXED_ACYCLIC, limits) == {Axiom.PORF_ACYCLICITY}
    g = cnf_to_twowriter(EIGHT_PATTERNS)
    assert _replay_prunes(g, MemoryModel.RA, limits) == {Axiom.WEAK_READ_COHERENCE}


class _LearnRecorder(_Search):
    """Records each stored conflict set as the partial rf it names on the
    numbering, read -> write."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stored = []

    def _learn(self, nogood):
        super()._learn(nogood)
        assigned = self.assigned_reads
        self.stored.append({assigned[d][0]: assigned[d][1] for d in axioms._bits(nogood)})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_stored_conflict_sets_are_nogoods(case):
    # No consistent rf agrees with a stored set on every read it names:
    # the chronological search, run to the end, reaches no such leaf.
    g, m, limits = case
    search = _LearnRecorder(g, m, limits)
    try:
        list(search.leaves())
    except BudgetExceeded:
        pass  # the sets stored so far were recorded
    if not search.stored:
        return
    reference = ChronologicalSearch(g, m, OracleLimits(max_rf_candidates=10**6))
    for rf, _ in reference.leaves():
        src = number_rf(g, rf)
        for partial in search.stored:
            assert any(src[r] != w for r, w in partial.items()), partial


def test_oracle_builds_one_reads_from_per_recorded_leaf(monkeypatch):
    # a leaf checks the rf on the numbering and builds a ReadsFrom only for
    # the witness it records, not for a leaf whose mo synthesis fails
    built, failed = [], []
    first_mo = oracle._first_mo

    def counted_reads_from(*args):
        built.append(args)
        return reads_from(*args)

    def counted_first_mo(*args):
        mo = first_mo(*args)
        failed.append(mo is None)
        return mo

    monkeypatch.setattr(oracle, "reads_from", counted_reads_from)
    monkeypatch.setattr(oracle, "_first_mo", counted_first_mo)
    g = fx.crossed_reads()
    rfs = all_consistent_rfs(g, MemoryModel.SRA)
    assert (len(failed), failed.count(True), len(rfs)) == (4, 1, 3)
    assert len(built) == len(rfs)
    built.clear()
    assert oracle_consistent(g, MemoryModel.SRA).is_consistent
    assert len(built) == 1


# ---------------------------------------------------------------------------
# cm leaves on the search's own hb closure
# ---------------------------------------------------------------------------


def _cm_leaf_certificates(g, limits):
    """Enumerate g's rfs under cm, holding each leaf's hb index to a fresh
    build for that rf and its ob certificate to `check_axiom`'s.  Returns
    the certificates of the leaves reached within `limits`."""
    leaf_check = oracle._check_axiom
    certs = []

    def checked(g, src, mo, ax, hb):
        assert ax is Axiom.OB_ACYCLICITY
        fresh = axioms._hb_index(g, src)
        # the search prunes porf under cm, so its closure is acyclic
        assert fresh.cycle is None and hb.cycle is None
        assert (hb.reach, hb.back) == (fresh.reach, fresh.back)
        cert = leaf_check(g, src, mo, ax, hb)
        assert cert == check_axiom(g, reads_from(g, src), None, Axiom.OB_ACYCLICITY)
        certs.append(cert)
        return cert

    with mock.patch.object(oracle, "_check_axiom", checked):
        try:
            all_consistent_rfs(g, MemoryModel.CM, limits)
        except BudgetExceeded:
            pass  # the leaves reached so far were checked
    return certs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(oracle_cases())
def test_cm_leaves_read_the_search_closure(case):
    g, _, limits = case
    _cm_leaf_certificates(g, limits)


def test_cm_leaf_cases_reach_ob_cycles():
    # the test above sees leaves that pass and leaves with an ob cycle
    cfg = settings(
        max_examples=250, deadline=None, derandomize=True, database=None, phases=[Phase.generate]
    )
    find(oracle_cases(), lambda c: None in _cm_leaf_certificates(c[0], c[2]), settings=cfg)
    find(
        oracle_cases(),
        lambda c: any(cert is not None for cert in _cm_leaf_certificates(c[0], c[2])),
        settings=cfg,
    )


def test_cm_search_builds_no_hb_index(monkeypatch):
    # the leaves wrap the search's masks: no Tarjan run, no propagation
    def unexpected(*args):
        raise AssertionError("the cm search rebuilt happens-before")

    monkeypatch.setattr(axioms, "_components", unexpected)
    monkeypatch.setattr(axioms, "_propagate", unexpected)
    g, rf = fx.observed_order_cyclic()
    assert not oracle_consistent(g, MemoryModel.CM).is_consistent
    assert not oracle_consistent(CM_SEPARATION, MemoryModel.CM).is_consistent
    g = cnf_to_twowriter(fx.two_clause_formula())
    assert oracle_consistent(g, MemoryModel.CM).is_consistent


# Consistent under every release-acquire and relaxed model, not under cm.
CM_SEPARATION = build_graph(
    [
        ("t1", [("w", "x", 1), ("w", "x", 2), ("w", "y", 0)]),
        ("t2", [("w", "y", 2), ("r", "x", 1), ("r", "z", 0), ("r", "y", 2)]),
        ("t3", [("r", "y", 0), ("w", "z", 0)]),
    ]
)


def test_cm_separation_example():
    """Causal memory is strictly stronger than SRA here, on a 9-event input
    with a single rf (every value is unique per location).

    The argument is that of Bouajjani, Enea, Guerraoui and Hamza, *On
    Verifying Causal Consistency*, POPL 2017: every thread serialises the
    writes in its causal past consistently with what it reads.  `w x 2`
    is in t2's past through `w x 2 ->po w y 0 ->rf r y 0 ->po w z 0 ->rf
    r z 0`, and so is `w y 0`.  t2's last read `r y 2` takes `w y 2`, so
    t2's view puts `w y 0` before `w y 2`, and with po `w x 2` before `w y
    0` and `w y 2` before `r x 1`, `w x 2` before `r x 1`.  `r x 1` takes
    `w x 1`, so `w x 2` comes before `w x 1`, against po.  SRA's coherence
    reads hb alone, and `w x 2` reaches `r x 1` only through the mo step
    `w y 0 -> w y 2`: mo `w x 1, w x 2` and `w y 0, w y 2` satisfy it.
    """
    for m in (MemoryModel.SRA, MemoryModel.RA, MemoryModel.WRA) + RELAXED_MODELS:
        assert oracle_consistent(CM_SEPARATION, m).is_consistent, m
    verdict = oracle_consistent(CM_SEPARATION, MemoryModel.CM)
    assert (verdict.is_consistent, verdict.axiom) == (False, EXHAUSTED)
    [rf] = enumerate_rfs(CM_SEPARATION)
    cert = check_axiom(CM_SEPARATION, rf, None, Axiom.OB_ACYCLICITY)
    assert cert == [(E("t1", 0), "ob"), (E("t1", 1), "ob")]
    assert replay_certificate(CM_SEPARATION, cert, rf)


# ---------------------------------------------------------------------------
# mo synthesis against the permutation reference
# ---------------------------------------------------------------------------

# placements the permutation reference may try per leaf before it gives up
REFERENCE_MO_PERMUTATIONS = 200
# leaves without an mo and with at most this many orders in all are checked
# against every order, the first few of each input
MAX_CHECKED_ORDERS = math.factorial(6)
MAX_CHECKED_LEAVES = 5


@st.composite
def mo_cases(draw):
    """A multi-writer random graph with at most 7 writes per location, or
    a small SAT gadget, under one of the four models that need mo."""
    if draw(st.booleans()):
        g = random_graph(
            FuzzParams(
                seed=draw(st.integers(0, 10**6)),
                num_threads=draw(st.integers(2, 4)),
                num_locations=draw(st.integers(1, 3)),
                num_events=draw(st.integers(6, 16)),
                value_range=draw(st.integers(2, 3)),
                writer_bound=None,
            )
        )
        assume(all(len(ws) <= 7 for ws in g.writes_by_var.values()))
    else:
        g = GADGETS[draw(st.sampled_from(sorted(GADGETS)))](draw(formulas()))
    assume(unmatched_read(g) is None)
    return g, draw(st.sampled_from(MO_MODELS))


def _orders(g):
    return math.prod(math.factorial(len(ws)) for ws in g.writes_by_var.values())


def _checked_leaves(g, m):
    """Run the enumerating search of g under m for up to 200 nodes and
    check the mo of each leaf: it verifies, it is the permutation
    reference's wherever that stays within its budget, and on leaves with
    few orders it is None only when no order verifies.  Returns (mo found,
    reference over budget) per leaf."""
    first_mo = oracle._first_mo
    orders = _orders(g)
    outcomes = []
    exhausted = []

    def checked(g, enc, src, model):
        mo = first_mo(g, enc, src, model)
        rf = reads_from(g, src)
        # the relaxed prune is exact: a relaxed leaf always has an mo
        assert mo is not None or model not in RELAXED_MODELS
        if mo is not None:
            assert verify(g, rf, mo, model).is_consistent
        elif orders <= MAX_CHECKED_ORDERS and len(exhausted) < MAX_CHECKED_LEAVES:
            assert not any(verify(g, rf, o, model).is_consistent for o in enumerate_mos(g))
            exhausted.append(rf)
        try:
            ref = permutation_first_mo(g, enc, rf, model, REFERENCE_MO_PERMUTATIONS)
        except BudgetExceeded:
            over_budget = True
        else:
            over_budget = False
            assert mo == ref
        outcomes.append((mo is not None, over_budget))
        return mo

    with mock.patch.object(oracle, "_first_mo", checked):
        try:
            all_consistent_rfs(g, m, OracleLimits(max_rf_candidates=200))
        except BudgetExceeded:
            pass  # the leaves reached so far were checked
    return outcomes


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mo_cases())
def test_first_mo_matches_permutation_search(case):
    _checked_leaves(*case)


def test_mo_cases_reach_every_outcome():
    # the differential test above sees leaves with and without an mo, with
    # few enough orders to check them all, and leaves where the reference
    # runs out of placements while the topological sort finds an mo
    cfg = settings(
        max_examples=200, deadline=None, derandomize=True, database=None, phases=[Phase.generate]
    )

    for outcome in ((True, False), (False, False), (True, True)):
        find(mo_cases(), lambda case: outcome in _checked_leaves(*case), settings=cfg)
    find(
        mo_cases(),
        lambda case: _orders(case[0]) <= MAX_CHECKED_ORDERS
        and (False, False) in _checked_leaves(*case),
        settings=cfg,
    )


def test_relaxed_prune_sees_po_order_of_writes():
    # t2 reads x = 2 before x = 1, which forces t1's second write before
    # its first: with the po edge between them the forced order is cyclic
    # at the second read, so the search prunes there and reaches no leaf
    g = build_graph(
        [("t1", [("w", "x", 1), ("w", "x", 2)]), ("t2", [("r", "x", 2), ("r", "x", 1)])]
    )
    for m in RELAXED_MODELS:
        with mock.patch.object(oracle, "_first_mo", wraps=oracle._first_mo) as first_mo:
            verdict = oracle_consistent(g, m)
        assert verdict.axiom == EXHAUSTED, m
        assert first_mo.call_count == 0, m


def test_write_heavy_graphs_decide_within_default_limits():
    # The permutation search ran out of its 10,000 placements on both
    # graphs, under every model on the first.
    g = random_graph(
        FuzzParams(
            seed=90008, num_threads=3, num_locations=2, num_events=16, value_range=3, writer_bound=None
        )
    )
    cases = [(g, m) for m in MO_MODELS]
    g = random_graph(
        FuzzParams(
            seed=7, num_threads=3, num_locations=1, num_events=14, value_range=3, writer_bound=None
        )
    )
    assert len(g.writes_by_var["x1"]) == 12
    cases.append((g, MemoryModel.SRA))
    for g, m in cases:
        verdict = oracle_consistent(g, m)
        assert verdict.is_consistent, m
        assert verify(g, verdict.rf, verdict.mo, m).is_consistent, m


def test_sra_mo_avoids_cycles_through_earlier_locations():
    # x's order t1:1 before t2:0 closes the path t3:0 ->rf t1:0 ->po t1:1
    # ->mo t2:0 ->po t2:1, so y must put t3:0 first although RA, with no
    # such coupling, keeps the writes_by_var order
    g = build_graph(
        [
            ("t1", [("r", "y", 2), ("w", "x", 1)]),
            ("t2", [("w", "x", 2), ("w", "y", 1)]),
            ("t3", [("w", "y", 2)]),
        ]
    )
    x_order = [E("t1", 1), E("t2", 0)]
    expected = {
        MemoryModel.SRA: ModificationOrder({"x": x_order, "y": [E("t3", 0), E("t2", 1)]}),
        MemoryModel.RA: ModificationOrder({"x": x_order, "y": [E("t2", 1), E("t3", 0)]}),
    }
    for m, mo in expected.items():
        verdict = oracle_consistent(g, m)
        assert verdict.mo == mo, m
        assert verify(g, verdict.rf, mo, m).is_consistent, m


# ---------------------------------------------------------------------------
# Reference counting frees every call
# ---------------------------------------------------------------------------


def test_entry_points_leave_no_cyclic_garbage(tmp_path):
    # Each call frees what it built by reference counting alone, so the
    # cyclic collector finds nothing once it returns.
    sat = cnf_to_twowriter(fx.two_clause_formula())
    unsat = cnf_to_twowriter_relaxed(CnfFormula(2, tuple(sign_patterns(2, 1, 0))))
    witness = oracle_consistent(sat, MemoryModel.RA)
    trace = tmp_path / "sat.trace"
    trace.write_text(serialize_trace(TraceDocument(sat)))

    def budget_exceeded():
        try:
            oracle_consistent(unsat, MemoryModel.RELAXED_ACYCLIC, OracleLimits(max_rf_candidates=30))
        except BudgetExceeded:
            return True
        return False

    calls = {
        "witness": lambda: oracle_consistent(sat, MemoryModel.RA).is_consistent,
        "exhausted": lambda: not oracle_consistent(unsat, MemoryModel.RELAXED_ACYCLIC).is_consistent,
        "budget": budget_exceeded,
        "all_consistent_rfs": lambda: len(all_consistent_rfs(sat, MemoryModel.RA)) > 0,
        "solve": lambda: solve(fx.single_writer_consistent(), MemoryModel.WRA)[0].is_consistent,
        "verify": lambda: verify(sat, witness.rf, witness.mo, MemoryModel.RA).is_consistent,
        "check": lambda: main(["check", "--model", "ra", "--input", str(trace), "--witness", "-"]) == 0,
    }
    build_parser()  # built once per process; argparse's own formatters are cyclic
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, call in calls.items():
            gc.collect()
            assert call(), name
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()
