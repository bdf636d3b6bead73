from __future__ import annotations

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from racheck import (
    EventId,
    MemoryModel,
    NotOneWriter,
    ReadsFrom,
    all_consistent_rfs,
    build_graph,
    derive_mo,
    oracle_consistent,
    random_graph,
    rf_leq,
    solve,
    verify,
)
from racheck.axioms import Axiom, check_axiom, replay_certificate
from racheck.harness import FuzzParams
from racheck.model import Numbering
from racheck.solver import RF_TOTALITY, Violation

import fixtures as fx
from reference_oracle import unmatched_read
from reference_solver import (
    NoLaterWrite,
    NoMatchingWrite,
    initialize_rf,
    next_violation,
    update_rf,
)

E = EventId
ALL_MODELS = list(MemoryModel)
CANONICAL_MODELS = [
    MemoryModel.SRA,
    MemoryModel.RA,
    MemoryModel.WRA,
    MemoryModel.RELAXED,
    MemoryModel.RELAXED_ACYCLIC,
    MemoryModel.CM,
]
WEAK_FAMILY = [
    MemoryModel.SRA,
    MemoryModel.RA,
    MemoryModel.WRA,
    MemoryModel.CC,
    MemoryModel.CCV,
    MemoryModel.CM,
]


# ---------------------------------------------------------------------------
# derive_mo / initialize_rf
# ---------------------------------------------------------------------------


def test_derive_mo_orders_by_program_order():
    mo = derive_mo(fx.single_writer_consistent())
    assert mo.per_var["x"] == [fx.SWC_W1, fx.SWC_W2, fx.SWC_W3, fx.SWC_W5]
    assert mo.per_var["y"] == [fx.SWC_W4]


def test_derive_mo_single_write():
    g = build_graph([("t", [("w", "x", 1)])])
    assert derive_mo(g).per_var == {"x": [E("t", 0)]}


def test_writer_bound_computed_once(monkeypatch):
    # solve and derive_mo each check the writer bound, and both read the
    # one value the numbering caches.
    g = fx.single_writer_consistent()
    assert "max_writers" not in g.numbering.__dict__
    compute = Numbering.max_writers.func
    calls = []

    def counted(num):
        calls.append(num)
        return compute(num)

    monkeypatch.setattr(Numbering.max_writers, "func", counted)
    assert solve(g, MemoryModel.WRA)[0].is_consistent
    derive_mo(g)
    assert calls == [g.numbering]


def test_derive_mo_rejects_two_writers():
    g = build_graph([("t1", [("w", "x", 1)]), ("t2", [("w", "x", 1)])])
    with pytest.raises(NotOneWriter):
        derive_mo(g)


def test_initialize_rf_reaches_fixture_floor():
    assert initialize_rf(fx.single_writer_consistent()) == fx.swc_rf0()


def test_initialize_rf_porf_cyclic_fixture():
    g = fx.single_writer_porf_cyclic()
    assert initialize_rf(g) == fx.porf_cyclic_rf0()


def test_initialize_rf_unmatched_read():
    g = build_graph([("t1", [("w", "x", 1)]), ("t2", [("r", "x", 5)])])
    with pytest.raises(NoMatchingWrite):
        initialize_rf(g)


def test_solve_read_of_own_later_write_closes_porf_cycle():
    # t1:1 matches t1:0, so rf-totality holds; taking it closes a po/rf
    # cycle, which every porf-mandating model reports, and pure rlx allows
    g = build_graph([("t1", [("r", "x", 1), ("w", "x", 1)])])
    assert initialize_rf(g) == ReadsFrom({E("t1", 0): E("t1", 1)})
    cycle = [(E("t1", 0), "po"), (E("t1", 1), "rf")]
    for m in ALL_MODELS:
        verdict, trace = solve(g, m)
        if m is MemoryModel.RELAXED:
            assert verdict.is_consistent
            continue
        assert (verdict.axiom, verdict.certificate) == (Axiom.PORF_ACYCLICITY.value, cycle), m
        assert replay_certificate(g, verdict.certificate, trace.final_rf), m


# ---------------------------------------------------------------------------
# next_violation / update_rf, following the fixture replay
# ---------------------------------------------------------------------------


def test_next_violation_chain_on_consistent_fixture():
    g = fx.single_writer_consistent()
    v0 = next_violation(g, fx.swc_rf0())
    assert (v0.read, v0.write, v0.blocker) == (fx.SWC_R3, fx.SWC_W1, fx.SWC_W2)
    v1 = next_violation(g, fx.swc_rf1())
    assert (v1.read, v1.write, v1.blocker) == (fx.SWC_R4, fx.SWC_W2, fx.SWC_W3)
    assert next_violation(g, fx.swc_rf2()) is None


def test_update_rf_steps_through_fixture_chain():
    g = fx.single_writer_consistent()
    rf1 = update_rf(g, fx.swc_rf0(), next_violation(g, fx.swc_rf0()))
    assert rf1 == fx.swc_rf1()
    rf2 = update_rf(g, rf1, next_violation(g, rf1))
    assert rf2 == fx.swc_rf2()


def test_update_rf_on_cyclic_fixture():
    g = fx.single_writer_porf_cyclic()
    rf0 = initialize_rf(g)
    v = next_violation(g, rf0)
    assert (v.read, v.write, v.blocker) == (E("t2", 1), E("t1", 0), E("t1", 1))
    rf1 = update_rf(g, rf0, v)
    assert rf1.mapping[E("t2", 1)] == E("t1", 3)
    assert next_violation(g, rf1) is None


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_consistent_fixture_two_updates():
    verdict, trace = solve(fx.single_writer_consistent(), MemoryModel.WRA)
    assert verdict.is_consistent
    assert trace.update_count == 2
    assert verdict.rf == fx.swc_rf2()
    assert verdict.mo == derive_mo(fx.single_writer_consistent())


def test_solve_cyclic_fixture_one_update():
    g = fx.single_writer_porf_cyclic()
    verdict, trace = solve(g, MemoryModel.WRA)
    assert not verdict.is_consistent
    assert trace.update_count == 1
    assert verdict.axiom == Axiom.PORF_ACYCLICITY.value
    cycle_events = [eid for eid, _ in verdict.certificate]
    assert set(cycle_events) == {E("t1", 2), E("t1", 3), E("t2", 1), E("t2", 2)}
    assert replay_certificate(g, verdict.certificate, trace.final_rf)


def test_solve_no_reads():
    g = build_graph([("t1", [("w", "x", 1), ("w", "x", 2)])])
    for m in ALL_MODELS:
        verdict, trace = solve(g, m)
        assert verdict.is_consistent
        assert trace.update_count == 0
        assert verdict.rf == ReadsFrom({})


def test_solve_rejects_multi_writer():
    g = build_graph([("t1", [("w", "x", 1)]), ("t2", [("w", "x", 1)])])
    with pytest.raises(NotOneWriter):
        solve(g, MemoryModel.WRA)


def test_solve_unmatched_read_names_blocking_read():
    g = build_graph([("t1", [("w", "x", 1)]), ("t2", [("r", "x", 5)])])
    verdict, _ = solve(g, MemoryModel.WRA)
    assert not verdict.is_consistent
    assert verdict.axiom == RF_TOTALITY
    assert verdict.certificate == [(E("t2", 0), "rf^-1")]
    oracle = oracle_consistent(g, MemoryModel.WRA)
    assert oracle.certificate == verdict.certificate


def test_solve_blocked_update_reports_coherence():
    # the triangle gadget's forced rf cannot be repaired: no later write
    g, _ = __import__("racheck").graph_to_onewriter(fx.triangle_graph())
    verdict, _ = solve(g, MemoryModel.WRA)
    assert not verdict.is_consistent
    assert verdict.axiom == Axiom.WEAK_READ_COHERENCE.value


def test_solve_relaxed_future_read():
    # a read between two same-value writes of its own thread: only a po-later
    # write explains it under the relaxed axioms (no causality requirement)
    g = build_graph(
        [("t2", [("w", "x2", 2), ("w", "x3", 3), ("w", "x3", 1), ("r", "x3", 3), ("w", "x3", 3)])]
    )
    relaxed, _ = solve(g, MemoryModel.RELAXED)
    assert relaxed.is_consistent
    assert relaxed.rf.mapping[E("t2", 3)] == E("t2", 4)
    acyclic, _ = solve(g, MemoryModel.RELAXED_ACYCLIC)
    assert not acyclic.is_consistent
    for m in WEAK_FAMILY:
        verdict, _ = solve(g, m)
        assert not verdict.is_consistent


def test_solve_verdicts_coincide_across_weak_family():
    for seed in range(80):
        g = random_graph(
            FuzzParams(seed=seed, num_threads=3, num_locations=2, num_events=9, writer_bound=1)
        )
        verdicts = {m: solve(g, m)[0].is_consistent for m in WEAK_FAMILY}
        assert len(set(verdicts.values())) == 1, verdicts


def test_solve_witness_passes_verify():
    for seed in range(60):
        g = random_graph(
            FuzzParams(seed=seed + 300, num_threads=3, num_locations=3, num_events=10, writer_bound=1)
        )
        for m in ALL_MODELS:
            verdict, _ = solve(g, m)
            if verdict.is_consistent:
                assert verify(g, verdict.rf, verdict.mo, m).is_consistent


def test_solve_cm_witness_passes_observed_order():
    # solve never runs the observed-order check: on 1-writer graphs it
    # cannot fire, so every consistent cm witness verifies under cm
    consistent = 0
    for seed in range(30):
        g = random_graph(
            FuzzParams(seed=seed + 900, num_threads=3, num_locations=2, num_events=8, writer_bound=1)
        )
        verdict, _ = solve(g, MemoryModel.CM)
        if verdict.is_consistent:
            consistent += 1
            assert verify(g, verdict.rf, verdict.mo, MemoryModel.CM).is_consistent
    assert consistent > 0


def test_trace_monotone_and_bounded():
    for seed in range(40):
        g = random_graph(
            FuzzParams(seed=seed + 50, num_threads=3, num_locations=2, num_events=10, writer_bound=1)
        )
        verdict, trace = solve(g, MemoryModel.WRA)
        max_writes = max((len(ws) for ws in g.writes_by_var.values()), default=0)
        assert trace.update_count <= max(1, len(g.reads)) * max(1, max_writes)
        # replay the iterations: each step rebinds exactly one read strictly later
        if verdict.axiom == RF_TOTALITY:
            continue
        rf = initialize_rf(g)
        for it in trace.iterations:
            updated = update_rf(g, rf, it)
            changed = {
                r for r in rf.mapping if rf.mapping[r] != updated.mapping[r]
            }
            assert changed == {it.read}
            assert rf_leq(rf, updated, g) and not rf_leq(updated, rf, g)
            rf = updated
        assert rf == trace.final_rf


def test_solver_minimal_among_oracle_witnesses():
    for seed in range(60):
        g = random_graph(
            FuzzParams(seed=seed + 7000, num_threads=3, num_locations=2, num_events=9, writer_bound=1)
        )
        for m in (MemoryModel.WRA, MemoryModel.RELAXED):
            verdict, _ = solve(g, m)
            if not verdict.is_consistent:
                continue
            for other in all_consistent_rfs(g, m):
                assert rf_leq(verdict.rf, other, g)


def test_update_violation_must_come_from_scan():
    g = fx.single_writer_consistent()
    fabricated = Violation(read=fx.SWC_R3, write=fx.SWC_W1, blocker=fx.SWC_W5)
    # blocker beyond the last matching write exhausts the candidates
    with pytest.raises(NoLaterWrite):
        update_rf(g, fx.swc_rf0(), fabricated)


# ---------------------------------------------------------------------------
# solve against the step-by-step repair loop
# ---------------------------------------------------------------------------


def _coherence_mode(m: MemoryModel) -> Axiom:
    if m.canonical in (MemoryModel.RELAXED, MemoryModel.RELAXED_ACYCLIC):
        return Axiom.RELAXED_READ_COHERENCE
    return Axiom.WEAK_READ_COHERENCE


def repair_loop(g, m: MemoryModel) -> tuple[str | None, ReadsFrom | None]:
    """Reference decision: raise the first violating read until none is
    left, then test causality.  Returns (failed axiom or None, final rf)."""
    mode = _coherence_mode(m)
    try:
        rf = initialize_rf(g)
    except NoMatchingWrite:
        return RF_TOTALITY, None
    while (violation := next_violation(g, rf, mode)) is not None:
        try:
            rf = update_rf(g, rf, violation, mode)
        except NoLaterWrite:
            return mode.value, rf
    if m.canonical is not MemoryModel.RELAXED and check_axiom(g, rf, None, Axiom.PORF_ACYCLICITY):
        return Axiom.PORF_ACYCLICITY.value, rf
    return None, rf


@st.composite
def single_writer_graphs(draw, own_later=False):
    """2-4 threads over 1-3 locations, each location with one writer thread.

    Reads take values that some write can supply: a written value of their
    location, and in the writer thread one written po-before the read (a
    read with no such location stays, and has no matching write).  With
    `own_later` a read in the writer thread may take any value its thread
    writes there, so some reads match only writes po-after them.
    """
    num_threads = draw(st.integers(2, 4))
    num_locations = draw(st.integers(1, 3))
    writer = draw(st.lists(st.integers(0, num_threads - 1), min_size=num_locations, max_size=num_locations))
    op = st.tuples(st.sampled_from("wr"), st.integers(0, num_locations - 1), st.integers(0, 2))
    drawn = [draw(st.lists(op, min_size=1, max_size=7)) for _ in range(num_threads)]
    written: dict[int, list[int]] = {}
    for t, ops in enumerate(drawn):
        for kind, x, v in ops:
            if kind == "w" and writer[x] == t:
                written.setdefault(x, []).append(v)
    threads = []
    for t, ops in enumerate(drawn):
        events = []
        own: dict[int, list[int]] = {}
        for kind, x, v in ops:
            if kind == "w" and writer[x] == t:
                own.setdefault(x, []).append(v)
                events.append(("w", f"x{x}", v))
                continue
            readable = sorted(y for y in written if own_later or writer[y] != t or y in own)
            if readable and x not in readable:
                x = readable[x % len(readable)]
            before = not own_later and writer[x] == t and x in own
            values = sorted(set(own[x] if before else written.get(x, [v])))
            events.append(("r", f"x{x}", values[v % len(values)]))
        threads.append((f"t{t}", events))
    return build_graph(threads)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(single_writer_graphs(), single_writer_graphs(own_later=True)))
def test_solve_matches_repair_loop(g):
    for m in CANONICAL_MODELS:
        verdict, trace = solve(g, m)
        axiom, loop_rf = repair_loop(g, m)
        assert verdict.is_consistent == (axiom is None), m
        if axiom is None:
            assert verdict.rf == loop_rf
            assert verdict.mo == derive_mo(g)
            continue
        # The pass can close a po/rf cycle before reaching the read that
        # the loop finds unrepairable; both answers are inconsistent.
        assert verdict.axiom == axiom or (
            verdict.axiom == Axiom.PORF_ACYCLICITY.value
            and axiom == Axiom.WEAK_READ_COHERENCE.value
        ), m
        if axiom == RF_TOTALITY:
            continue
        assert replay_certificate(g, verdict.certificate, trace.final_rf, derive_mo(g)), m
        rf = initialize_rf(g)
        for it in trace.iterations:
            rf = update_rf(g, rf, it, _coherence_mode(m))
            assert rf.mapping[it.read] == it.replacement
        assert rf == trace.final_rf


def _matches_only_own_later(g) -> bool:
    """Some read matches only writes po-after it in its own thread."""
    return any(
        (matches := [w for w in g.writes_by_var.get(r.var, ()) if w.val == r.val])
        and all(g.po(r.id, w.id) for w in matches)
        for r in g.reads
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(single_writer_graphs(own_later=True))
def test_rf_totality_agrees_with_oracle(g):
    # Both engines fail rf-totality on the first read in id order that no
    # write matches, whatever thread its matches sit in: a read that only
    # a po-later write of its own thread matches is not such a read.
    blocked = unmatched_read(g)
    for m in CANONICAL_MODELS:
        verdict, _ = solve(g, m)
        oracle = oracle_consistent(g, m)
        assert (verdict.axiom == RF_TOTALITY) == (oracle.axiom == RF_TOTALITY), m
        assert (verdict.axiom == RF_TOTALITY) == (blocked is not None), m
        if blocked is not None:
            assert verdict.certificate == oracle.certificate == [(blocked, "rf^-1")], m
            assert replay_certificate(g, verdict.certificate), m


def test_single_writer_graphs_reach_own_later_reads():
    # the test above sees such reads on graphs where rf-totality holds
    cfg = settings(max_examples=200, derandomize=True, database=None, phases=[Phase.generate])
    g = find(
        single_writer_graphs(own_later=True),
        lambda g: _matches_only_own_later(g) and unmatched_read(g) is None,
        settings=cfg,
    )
    verdict, _ = solve(g, MemoryModel.WRA)
    assert not verdict.is_consistent and verdict.axiom != RF_TOTALITY


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(single_writer_graphs(), st.randoms(use_true_random=False))
def test_solve_invariant_under_thread_renaming(g, rng):
    # renaming permutes the sorted-id order in which the pass schedules threads
    names = [f"u{i}" for i in range(len(g.thread_ids))]
    rng.shuffle(names)
    rename = dict(zip(g.thread_ids, names))
    back = {new: old for old, new in rename.items()}
    renamed = build_graph(
        [(rename[tid], [(ev.op, ev.var, ev.val) for ev in g.events_of[tid]]) for tid in g.thread_ids]
    )
    for m in CANONICAL_MODELS:
        verdict, _ = solve(g, m)
        other, _ = solve(renamed, m)
        assert other.axiom == verdict.axiom, m
        if verdict.is_consistent:
            mapped = {
                E(back[r.thread], r.index): E(back[w.thread], w.index)
                for r, w in other.rf.mapping.items()
            }
            assert mapped == verdict.rf.mapping, m


def test_cycle_reached_before_unrepairable_read():
    # t1:3 can never read x=1 coherently (t1:2 overwrote it), but the pass
    # never reaches it: t1:0 and t2:0 wait for each other's po-later write.
    g = build_graph(
        [
            ("t1", [("r", "y", 1), ("w", "x", 1), ("w", "x", 0), ("r", "x", 1)]),
            ("t2", [("r", "x", 1), ("w", "y", 1)]),
        ]
    )
    assert repair_loop(g, MemoryModel.WRA)[0] == Axiom.WEAK_READ_COHERENCE.value
    for m in WEAK_FAMILY:
        verdict, trace = solve(g, m)
        assert verdict.axiom == Axiom.PORF_ACYCLICITY.value
        assert verdict.certificate == [
            (E("t1", 0), "po"),
            (E("t1", 1), "rf"),
            (E("t2", 0), "po"),
            (E("t2", 1), "rf"),
        ]
        assert replay_certificate(g, verdict.certificate, trace.final_rf)
