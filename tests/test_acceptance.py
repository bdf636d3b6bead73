"""Acceptance suite: one test per shipping criterion.

Each test prints its verdict line to the real stdout so the run log
carries one pass/fail line per criterion even under capture.  Stated
wall-clock budgets are asserted outright; the scaling criterion is soft
and only hard-fails at twice its budget.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from racheck import (
    CnfFormula,
    EventId,
    MemoryModel,
    OracleLimits,
    ReadsFrom,
    UndirectedGraph,
    all_consistent_rfs,
    brute_sat,
    build_graph,
    cnf_to_threewriter,
    cnf_to_twowriter,
    cnf_to_twowriter_relaxed,
    derive_mo,
    graph_to_onewriter,
    max_writers,
    oracle_consistent,
    random_graph,
    rf_leq,
    rf_min,
    solve,
    verify,
)
from racheck.axioms import Axiom, check_axiom, replay_certificate
from racheck.cli import main
from racheck.harness import FuzzParams, differential_run
from racheck.traceio import TraceDocument, parse_trace, serialize_trace

import fixtures as fx
from reference_oracle import enumerate_mos, enumerate_rfs

E = EventId
SWEEP_LIMITS = OracleLimits(max_rf_candidates=5_000_000)
SWEEP_MO_PERMUTATIONS = 1_000_000  # ceiling of the reference `enumerate_mos`
RA_FAMILY = [MemoryModel.SRA, MemoryModel.RA, MemoryModel.WRA]


def _announce(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)
    sys.__stdout__.flush()


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        _announce(num, label, False)
        raise
    _announce(num, label, True)


# ---------------------------------------------------------------------------
# 1. Violation fixture suite
# ---------------------------------------------------------------------------


def test_criterion_01_violation_fixtures():
    with criterion(1, "violation fixtures"):
        start = time.time()

        g, rf = fx.porf_cycle_pair()
        v = verify(g, rf, None, MemoryModel.WRA)
        assert v.axiom == Axiom.PORF_ACYCLICITY.value
        assert replay_certificate(g, v.certificate, rf)

        g, rf, mo = fx.mo_against_hb()
        v = verify(g, rf, mo, MemoryModel.RA)
        assert v.axiom == Axiom.WRITE_COHERENCE.value

        g, rf, mo = fx.stale_read_via_mo()
        v = verify(g, rf, mo, MemoryModel.RA)
        assert v.axiom == Axiom.READ_COHERENCE.value

        g, rf = fx.stale_read_via_hb()
        v = verify(g, rf, None, MemoryModel.WRA)
        assert v.axiom == Axiom.WEAK_READ_COHERENCE.value

        g, rf, mo = fx.cross_location_mo_cycle()
        assert check_axiom(g, rf, mo, Axiom.WRITE_COHERENCE) is None
        v = verify(g, rf, mo, MemoryModel.SRA)
        assert v.axiom == Axiom.STRONG_WRITE_COHERENCE.value
        assert verify(g, rf, mo, MemoryModel.RA).is_consistent

        assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# 2./3. Repair-loop replays
# ---------------------------------------------------------------------------


def test_criterion_02_consistent_replay():
    with criterion(2, "repair loop reaches the least witness"):
        start = time.time()
        verdict, trace = solve(fx.single_writer_consistent(), MemoryModel.WRA)
        assert verdict.is_consistent
        assert trace.update_count == 2
        assert verdict.rf.mapping == {
            fx.SWC_R1: fx.SWC_W2,
            fx.SWC_R3: fx.SWC_W3,
            fx.SWC_R2: fx.SWC_W4,
            fx.SWC_R4: fx.SWC_W5,
        }
        assert time.time() - start < 1.0


def test_criterion_03_cyclic_replay():
    with criterion(3, "repair loop detects the causality cycle"):
        start = time.time()
        g = fx.single_writer_porf_cyclic()
        verdict, trace = solve(g, MemoryModel.WRA)
        assert not verdict.is_consistent
        assert trace.update_count == 1
        assert verdict.axiom == Axiom.PORF_ACYCLICITY.value
        # the unique cycle: w@t1:3 -rf-> r@t2:1 -po-> w@t2:2 -rf-> r@t1:2 -po-> w@t1:3
        assert verdict.certificate == [
            (E("t1", 2), "po"),
            (E("t1", 3), "rf"),
            (E("t2", 1), "po"),
            (E("t2", 2), "rf"),
        ]
        assert replay_certificate(g, verdict.certificate, trace.final_rf)
        assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# 4. Gadget end to end through the CLI
# ---------------------------------------------------------------------------


def test_criterion_04_gadget_end_to_end(tmp_path):
    with criterion(4, "three-writer gadget end to end"):
        start = time.time()
        cnf = tmp_path / "phi.cnf"
        cnf.write_text(fx.TWO_CLAUSE_DIMACS)
        out = tmp_path / "phi3w.trace"
        assert main(["reduce", "cnf3w", "--input", str(cnf), "--output", str(out)]) == 0
        for model in ("sra", "ra", "wra"):
            assert main(["check", "--model", model, "--input", str(out)]) == 0
        doc = parse_trace(out.read_text())
        rf, mo = fx.two_clause_witness()
        witness = tmp_path / "witness.trace"
        witness.write_text(serialize_trace(TraceDocument(doc.graph, rf, mo)))
        assert main(["verify", "--model", "sra", "--input", str(witness)]) == 0
        assert time.time() - start < 1.0


# ---------------------------------------------------------------------------
# 5. Reduction equivalence sweeps
# ---------------------------------------------------------------------------


def _all_clauses(k: int):
    lits = sorted((v, p) for v in range(1, k + 1) for p in (True, False))
    return [tuple(c) for c in itertools.combinations_with_replacement(lits, 3)]


def _exhaustive_formulas(max_k: int, max_m: int):
    for k in range(1, max_k + 1):
        clauses = _all_clauses(k)
        for m in range(0, max_m + 1):
            for combo in itertools.combinations_with_replacement(range(len(clauses)), m):
                yield CnfFormula(k, tuple(clauses[i] for i in combo))


def _random_formulas(count: int, max_k: int, max_m: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, max_k)
        m = rng.randint(0, max_m)
        yield CnfFormula(
            k,
            tuple(
                tuple((rng.randint(1, k), rng.random() < 0.5) for _ in range(3))
                for _ in range(m)
            ),
        )


def _sweep_formulas():
    yield from _exhaustive_formulas(3, 2)
    yield from _random_formulas(200, 4, 4, seed=20260810)


def test_criterion_05_equivalence_release_acquire_gadgets():
    with criterion(5, "release-acquire gadget equivalence"):
        start = time.time()
        mismatches = []
        for phi in _sweep_formulas():
            sat = brute_sat(phi) is not None
            for gen in (cnf_to_threewriter, cnf_to_twowriter):
                g = gen(phi)
                for m in RA_FAMILY:
                    if oracle_consistent(g, m, SWEEP_LIMITS).is_consistent != sat:
                        mismatches.append((phi, gen.__name__, m.value))
        assert mismatches == []
        assert time.time() - start < 600


def test_criterion_05_equivalence_relaxed_gadget():
    # The relaxed gadget encodes satisfiability under rlx-acyclic, not pure
    # rlx.  Both pure-rlx axioms relate events of one location only, so a
    # graph is rlx-consistent iff each per-location restriction is
    # (test_reductions checks this separability).  Every restriction of the
    # gadget is consistent whatever the formula: on v_i Init0 writes 0 and
    # Init1 writes 1, 0, 1, which explains both literal threads' read
    # orders, and c_j, d_j and s each carry a single value.  So the gadget
    # is rlx-consistent for every formula.  Its unsat direction is a
    # causality argument -- Init1's gate read of s can only be explained by
    # Tf's write, which follows every clause acknowledgement -- and that
    # needs porf-acyclicity.
    with criterion(5, "relaxed gadget equivalence"):
        start = time.time()
        mismatches, rlx_inconsistent, unsat_count = [], [], 0
        for phi in _sweep_formulas():
            sat = brute_sat(phi) is not None
            unsat_count += not sat
            g = cnf_to_twowriter_relaxed(phi)
            if oracle_consistent(g, MemoryModel.RELAXED_ACYCLIC, SWEEP_LIMITS).is_consistent != sat:
                mismatches.append(phi)
            if not oracle_consistent(g, MemoryModel.RELAXED, SWEEP_LIMITS).is_consistent:
                rlx_inconsistent.append(phi)
        # the unsat direction is the one that separates the two models
        assert unsat_count > 0
        assert mismatches == [], (
            f"{len(mismatches)} formulas disagree with brute_sat under rlx-acyclic, "
            f"first: {mismatches[0]}"
        )
        assert rlx_inconsistent == [], (
            f"{len(rlx_inconsistent)} gadget graphs are rlx-inconsistent, "
            f"first: {rlx_inconsistent[0]}"
        )
        assert time.time() - start < 600


# ---------------------------------------------------------------------------
# 6. Triangle equivalence
# ---------------------------------------------------------------------------


def _edge_subsets(n: int):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield UndirectedGraph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        )


def test_criterion_06_triangle_equivalence():
    with criterion(6, "triangle detection equivalence"):
        start = time.time()
        for n in range(1, 6):
            for ug in _edge_subsets(n):
                g, rf = graph_to_onewriter(ug)
                violated = check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE) is not None
                assert violated == ug.has_triangle(), ug
        rng = random.Random(606)
        for _ in range(100):
            pairs = [
                p for p in itertools.combinations(range(1, 9), 2) if rng.random() < 0.3
            ]
            ug = UndirectedGraph.from_edges(8, pairs)
            g, rf = graph_to_onewriter(ug)
            violated = check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE) is not None
            assert violated == ug.has_triangle(), ug
        g, rf = graph_to_onewriter(fx.triangle_graph())
        cert = check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE)
        assert cert is not None
        assert {g.event(eid).var for eid, _ in cert} == {"a1"}
        assert replay_certificate(g, cert, rf)
        assert time.time() - start < 120


# ---------------------------------------------------------------------------
# 7. Solver vs oracle differential, with witness minimality
# ---------------------------------------------------------------------------


def _differential_params():
    for batch, events in enumerate((9, 10, 11, 12)):
        yield FuzzParams(
            seed=70_000 + 1000 * batch,
            num_threads=3 + batch % 2,
            num_locations=3,
            num_events=events,
            writer_bound=1,
        )


def test_criterion_07_solver_oracle_differential():
    with criterion(7, "solver/oracle differential with minimality"):
        start = time.time()
        total = 0
        for params in _differential_params():
            report = differential_run(params, list(MemoryModel), 250)
            total += report.cases
            assert report.failures == [], report.render()
            assert not report.budget_skips
        assert total == 1000
        assert time.time() - start < 300


# ---------------------------------------------------------------------------
# 8. Model hierarchy
# ---------------------------------------------------------------------------


def test_criterion_08_hierarchy():
    with criterion(8, "model hierarchy"):
        start = time.time()
        pointwise_checked = 0
        for case in range(500):
            params = FuzzParams(
                seed=80_000 + case,
                num_threads=3,
                num_locations=3,
                num_events=4 + case % 5,
                value_range=2,
                writer_bound=None,
            )
            g = random_graph(params)
            for rf in enumerate_rfs(g, SWEEP_LIMITS):
                for mo in enumerate_mos(g, SWEEP_MO_PERMUTATIONS):
                    sra = verify(g, rf, mo, MemoryModel.SRA).is_consistent
                    ra = verify(g, rf, mo, MemoryModel.RA).is_consistent
                    wra = verify(g, rf, mo, MemoryModel.WRA).is_consistent
                    assert (not sra or ra) and (not ra or wra)
                    pointwise_checked += 1
            verdicts = [
                oracle_consistent(g, m, SWEEP_LIMITS).is_consistent for m in RA_FAMILY
            ]
            assert (not verdicts[0] or verdicts[1]) and (not verdicts[1] or verdicts[2])
        assert pointwise_checked > 5_000
        assert time.time() - start < 300


# ---------------------------------------------------------------------------
# 9. Order-theoretic properties of the rf lattice
# ---------------------------------------------------------------------------


def test_criterion_09_rf_order_properties():
    with criterion(9, "rf order closure properties"):
        start = time.time()
        pair_budget = 0
        for case in range(200):
            params = FuzzParams(
                seed=90_000 + case,
                num_threads=3,
                num_locations=2,
                num_events=8 + case % 4,
                value_range=2,
                writer_bound=1,
            )
            g = random_graph(params)
            rfs = list(enumerate_rfs(g, SWEEP_LIMITS))
            if not rfs:
                continue
            mo = derive_mo(g)
            cyclic = {
                i: check_axiom(g, rf, None, Axiom.PORF_ACYCLICITY) is not None
                for i, rf in enumerate(rfs)
            }
            weak_ok = {
                i: check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE) is None
                for i, rf in enumerate(rfs)
            }
            relaxed_ok = {
                i: check_axiom(g, rf, mo, Axiom.RELAXED_READ_COHERENCE) is None
                for i, rf in enumerate(rfs)
            }
            for i, j in itertools.combinations(range(len(rfs)), 2):
                pair_budget += 1
                for a, b in ((i, j), (j, i)):
                    if rf_leq(rfs[a], rfs[b], g) and cyclic[a]:
                        assert cyclic[b]
                merged = rf_min(rfs[i], rfs[j], g)
                if weak_ok[i] and weak_ok[j]:
                    assert check_axiom(g, merged, None, Axiom.WEAK_READ_COHERENCE) is None
                if relaxed_ok[i] and relaxed_ok[j]:
                    assert (
                        check_axiom(g, merged, mo, Axiom.RELAXED_READ_COHERENCE) is None
                    )
        assert pair_budget > 1000
        assert time.time() - start < 300


# ---------------------------------------------------------------------------
# 10. Causal-memory coincidence on single-writer witnesses
# ---------------------------------------------------------------------------


def test_criterion_10_causal_memory_coincidence():
    with criterion(10, "causal-memory coincidence"):
        consistent_cases = 0
        for params in _differential_params():
            for case in range(250):
                g = random_graph(replace(params, seed=params.seed + case))
                if max_writers(g) > 1:
                    continue
                verdict, _ = solve(g, MemoryModel.WRA)
                if not verdict.is_consistent:
                    continue
                consistent_cases += 1
                assert check_axiom(g, verdict.rf, None, Axiom.OB_ACYCLICITY) is None
                assert verify(g, verdict.rf, verdict.mo, MemoryModel.CM).is_consistent
        assert consistent_cases > 100


# ---------------------------------------------------------------------------
# 11. Scaling
# ---------------------------------------------------------------------------


def test_criterion_11_scaling():
    with criterion(11, "repair-loop scaling"):
        timings = []
        for n in (1000, 2000, 4000):
            g = fx.scaling_graph(n)
            start = time.time()
            verdict, trace = solve(g, MemoryModel.WRA)
            elapsed = time.time() - start
            timings.append((g.num_events, elapsed, trace.update_count))
            assert verdict.is_consistent
        for (n1, t1, _), (n2, t2, _) in zip(timings, timings[1:]):
            growth = t2 / max(t1, 1e-9)
            print(
                f"    scaling: {n1} -> {n2} events, {t1:.2f}s -> {t2:.2f}s "
                f"(x{growth:.2f} per doubling, bound x8.5)",
                file=sys.__stdout__,
            )
            assert growth < 8.5 * 2  # soft bound, doubled margin
        final_n, final_t, final_updates = timings[-1]
        print(
            f"    scaling: n={final_n} solved in {final_t:.2f}s "
            f"({final_updates} repairs; soft budget 60s, hard 120s)",
            file=sys.__stdout__,
        )
        assert final_t < 120  # twice the stated budget is the hard line
