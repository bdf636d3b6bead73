from __future__ import annotations

import functools
import itertools
import random
import time

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from racheck import (
    EventId,
    InvalidRf,
    MemoryModel,
    MissingMo,
    ModelError,
    ModificationOrder,
    ReadsFrom,
    UnknownEvent,
    build_graph,
    compute_ob,
    hb_reaches,
    random_graph,
    replay_certificate,
    solve,
    verify,
)
from racheck import axioms
from racheck.axioms import Axiom, EmptyThread, check_axiom
from racheck.harness import FuzzParams
from racheck.model import (
    HB_EDGE,
    MO_EDGE,
    OB_EDGE,
    PO_EDGE,
    RF_EDGE,
    RF_INV_EDGE,
    number_mo,
    number_rf,
)

import fixtures as fx
import reference_axioms as ref
from reference_oracle import enumerate_mos, enumerate_rfs

E = EventId
WEAK_MODELS = [MemoryModel.SRA, MemoryModel.RA, MemoryModel.WRA]


# ---------------------------------------------------------------------------
# hb reachability
# ---------------------------------------------------------------------------


def test_hb_reaches_through_rf():
    g, rf, mo = fx.mo_against_hb()
    assert hb_reaches(g, rf, E("t1", 0), E("t2", 1))


def test_hb_is_irreflexive_when_acyclic():
    g, rf, mo = fx.mo_against_hb()
    for ev in g.events():
        assert not hb_reaches(g, rf, ev.id, ev.id)


def test_hb_reaches_unrelated_threads():
    g = build_graph([("t1", [("w", "x", 1)]), ("t2", [("w", "y", 1)])])
    assert not hb_reaches(g, ReadsFrom({}), E("t1", 0), E("t2", 0))


def test_hb_reaches_unknown_event():
    g = build_graph([("t1", [("w", "x", 1)])])
    with pytest.raises(UnknownEvent):
        hb_reaches(g, ReadsFrom({}), E("t1", 0), E("zz", 0))


def _closure_by_squaring(g, rf):
    """Independent reachability oracle: boolean matrix repeated squaring."""
    ids = [ev.id for ev in sorted(g.events(), key=lambda e: e.id)]
    pos = {eid: i for i, eid in enumerate(ids)}
    n = len(ids)
    rows = [0] * n
    for tid in g.thread_ids:
        evs = g.events_of[tid]
        for a, b in zip(evs, evs[1:]):
            rows[pos[a.id]] |= 1 << pos[b.id]
    for rid, wid in rf.mapping.items():
        rows[pos[wid]] |= 1 << pos[rid]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            extra = 0
            scan = acc
            while scan:
                low = scan & -scan
                extra |= rows[low.bit_length() - 1]
                scan ^= low
            if extra | acc != acc:
                rows[i] = acc | extra
                changed = True
    return ids, pos, rows


@pytest.mark.parametrize("seed", range(6))
def test_hb_reaches_matches_matrix_closure(seed):
    g = random_graph(
        FuzzParams(seed=seed, num_threads=4, num_locations=3, num_events=24, writer_bound=None)
    )
    rfs = iter(enumerate_rfs(g))
    rf = next(rfs, None)
    if rf is None:
        rf = ReadsFrom({})
        g = build_graph([(t, [(e.op, e.var, e.val) for e in g.events_of[t] if e.is_write]) for t in g.thread_ids])
    ids, pos, rows = _closure_by_squaring(g, rf)
    for a in ids:
        for b in ids:
            expected = bool(rows[pos[a]] >> pos[b] & 1)
            assert hb_reaches(g, rf, a, b) == expected


# ---------------------------------------------------------------------------
# Individual axioms on the violation fixtures
# ---------------------------------------------------------------------------


def test_porf_cycle_detected():
    g, rf = fx.porf_cycle_pair()
    cert = check_axiom(g, rf, None, Axiom.PORF_ACYCLICITY)
    assert cert is not None and len(cert) == 4
    assert replay_certificate(g, cert, rf)


def test_write_coherence_violation():
    g, rf, mo = fx.mo_against_hb()
    cert = check_axiom(g, rf, mo, Axiom.WRITE_COHERENCE)
    assert cert is not None
    assert replay_certificate(g, cert, rf, mo)
    assert check_axiom(g, rf, mo, Axiom.PORF_ACYCLICITY) is None


def test_read_coherence_violation():
    g, rf, mo = fx.stale_read_via_mo()
    cert = check_axiom(g, rf, mo, Axiom.READ_COHERENCE)
    assert cert is not None
    assert cert[0] == (E("t2", 1), "rf^-1")
    assert replay_certificate(g, cert, rf, mo)


def test_weak_read_coherence_violation():
    g, rf = fx.stale_read_via_hb()
    cert = check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE)
    assert cert is not None
    assert replay_certificate(g, cert, rf)
    assert not replay_certificate(g, [(cert[0][0], "hb"), (E("zz", 0), "hb")], rf)


def test_strong_but_not_plain_write_coherence():
    g, rf, mo = fx.cross_location_mo_cycle()
    assert check_axiom(g, rf, mo, Axiom.WRITE_COHERENCE) is None
    cert = check_axiom(g, rf, mo, Axiom.STRONG_WRITE_COHERENCE)
    assert cert is not None
    assert replay_certificate(g, cert, rf, mo)


def test_relaxed_read_coherence_violation():
    g, rf, mo = fx.relaxed_read_pair()
    cert = check_axiom(g, rf, mo, Axiom.RELAXED_READ_COHERENCE)
    assert cert is not None
    assert replay_certificate(g, cert, rf, mo)


def test_relaxed_write_coherence_violation():
    g, rf, mo = fx.relaxed_read_pair()
    reversed_mo = ModificationOrder({"x": [E("t1", 1), E("t1", 0)]})
    cert = check_axiom(g, rf, reversed_mo, Axiom.RELAXED_WRITE_COHERENCE)
    assert cert is not None
    assert replay_certificate(g, cert, rf, reversed_mo)


def test_empty_graph_satisfies_everything():
    g = build_graph([])
    rf = ReadsFrom({})
    mo = ModificationOrder({})
    for ax in Axiom:
        assert check_axiom(g, rf, mo, ax) is None


def test_mo_axioms_require_mo():
    g, rf, _ = fx.mo_against_hb()
    with pytest.raises(MissingMo):
        check_axiom(g, rf, None, Axiom.WRITE_COHERENCE)
    # and one that orders every written location
    g = build_graph([("t1", [("w", "x", 1), ("w", "y", 1)])])
    only_x = ModificationOrder({"x": [E("t1", 0)]})
    with pytest.raises(MissingMo, match="does not cover every written location"):
        check_axiom(g, ReadsFrom({}), only_x, Axiom.WRITE_COHERENCE)


def test_given_mo_is_validated_by_every_check():
    g = build_graph([("t1", [("w", "x", 1), ("w", "x", 2)]), ("t2", [("r", "x", 2)])])
    rf = ReadsFrom({E("t2", 0): E("t1", 1)})
    short = ModificationOrder({"x": [E("t1", 0)]})  # leaves out t1:1
    for ax in Axiom:
        with pytest.raises(ModelError):
            check_axiom(g, rf, short, ax)
    for m in MemoryModel:
        with pytest.raises(ModelError):
            verify(g, rf, short, m)
    with pytest.raises(ModelError):
        replay_certificate(g, [(E("t1", 0), "po"), (E("t1", 1), "mo")], rf, short)


def test_invalid_rf_edges_are_rejected_at_entry():
    # every entry point numbers its rf first, and the numbering checks each
    # rf edge, so a partial rf is checked edge by edge; `verify` checks
    # rf's domain before that
    g = build_graph([("t1", [("w", "x", 1), ("w", "y", 1), ("r", "x", 1)])])
    mo = ModificationOrder({"x": [E("t1", 0)], "y": [E("t1", 1)]})
    read = E("t1", 2)
    cases = {
        (read, E("zz", 0)): "rf source zz:0 does not exist",
        (read, E("t1", 2)): "rf source t1:2 is not a write",
        (read, E("t1", 1)): "rf edge t1:1 -> t1:2 mismatches on location or value",
        (E("zz", 0), E("t1", 0)): "rf target zz:0 does not exist",
        (E("t1", 1), E("t1", 0)): "rf target t1:1 is not a read",
    }
    for (target, source), message in cases.items():
        rf = ReadsFrom({target: source})
        calls = [lambda ax=ax: check_axiom(g, rf, mo, ax) for ax in Axiom] + [
            lambda: hb_reaches(g, rf, E("t1", 0), E("t1", 1)),
            lambda: compute_ob(g, rf, "t1"),
            lambda: replay_certificate(g, [(E("t1", 0), "hb"), (E("t1", 1), "hb")], rf),
        ]
        for call in calls:
            with pytest.raises(InvalidRf) as err:
                call()
            assert str(err.value) == message
        if target != read:
            message = f"rf domain mismatch: missing=[{read}] extra=[{target}]"
        with pytest.raises(InvalidRf) as err:
            verify(g, rf, mo, MemoryModel.SRA)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Certificate replay: every claim a certificate makes is checked
# ---------------------------------------------------------------------------

REPLAY_LABELS = (PO_EDGE, RF_EDGE, RF_INV_EDGE, MO_EDGE, HB_EDGE, OB_EDGE)


def test_replay_fails_on_unknown_events():
    g = build_graph([("t1", [("w", "x", 1), ("r", "x", 1)]), ("t2", [("w", "x", 2)])])
    rf = ReadsFrom({E("t1", 1): E("t1", 0)})
    mo = ModificationOrder({"x": [E("t1", 0), E("t2", 0)]})
    unknown = E("zz", 0)
    for known in (E("t1", 0), E("t1", 1)):
        for label in REPLAY_LABELS:
            # the first step runs from the unknown event, then to it
            for cert in ([(unknown, label), (known, label)], [(known, label), (unknown, label)]):
                assert not replay_certificate(g, cert, rf, mo), cert


def test_replay_checks_one_step_certificates():
    # a one-step certificate claims rf-totality: rf^-1 on a read that no
    # write matches in location and value
    g = build_graph([("t1", [("w", "x", 1), ("r", "x", 1), ("r", "x", 2)])])
    unmatched, matched, write = E("t1", 2), E("t1", 1), E("t1", 0)
    assert replay_certificate(g, [(unmatched, RF_INV_EDGE)])
    assert not replay_certificate(g, [(matched, RF_INV_EDGE)])
    assert not replay_certificate(g, [(write, RF_INV_EDGE)])
    assert not replay_certificate(g, [(E("zz", 0), RF_INV_EDGE)])
    for label in REPLAY_LABELS:
        if label != RF_INV_EDGE:
            assert not replay_certificate(g, [(unmatched, label)]), label
    # an empty certificate makes no claim, so it replays on no graph
    assert not replay_certificate(g, [])
    assert not replay_certificate(g, [], ReadsFrom({}), ModificationOrder({"x": [write]}))


def test_replay_rejects_each_false_step():
    # t1: w x 1; r y 2    t2: w y 1; w y 2; r x 1    t3: w x 2
    g = build_graph(
        [
            ("t1", [("w", "x", 1), ("r", "y", 2)]),
            ("t2", [("w", "y", 1), ("w", "y", 2), ("r", "x", 1)]),
            ("t3", [("w", "x", 2)]),
        ]
    )
    t1, t2, t3 = (functools.partial(E, t) for t in ("t1", "t2", "t3"))
    rf = ReadsFrom({t2(2): t1(0), t1(1): t2(1)})
    mo = ModificationOrder({"x": [t1(0), t3(0)], "y": [t2(0), t2(1)]})
    # The first step of each cycle is false.  The steps that close it
    # hold, except where no path back exists or the relation is not given.
    cases = [
        ([(t1(0), PO_EDGE), (t2(2), RF_INV_EDGE)], rf, mo),  # across threads
        ([(t2(2), PO_EDGE), (t2(1), PO_EDGE)], rf, mo),  # reversed
        ([(t2(2), RF_EDGE), (t1(0), RF_EDGE)], rf, mo),  # reversed
        ([(t1(0), RF_EDGE), (t2(2), RF_INV_EDGE)], None, mo),  # no rf
        ([(t1(0), RF_INV_EDGE), (t2(2), RF_INV_EDGE)], rf, mo),  # reversed
        ([(t2(1), MO_EDGE), (t2(0), MO_EDGE)], rf, mo),  # reversed
        ([(t1(0), MO_EDGE), (t2(1), PO_EDGE), (t2(2), RF_INV_EDGE)], rf, mo),  # x before y
        ([(t2(0), MO_EDGE), (t2(1), MO_EDGE)], rf, None),  # no mo
        ([(t3(0), HB_EDGE), (t1(0), MO_EDGE)], rf, mo),  # unrelated events
        ([(t1(0), OB_EDGE), (t2(2), RF_INV_EDGE)], None, mo),  # no rf
        ([(t1(0), "xx"), (t2(2), RF_INV_EDGE)], rf, mo),  # unknown label
    ]
    for cert, given_rf, given_mo in cases:
        assert not replay_certificate(g, cert, given_rf, given_mo), cert
    assert replay_certificate(g, [(t1(0), RF_EDGE), (t2(2), RF_INV_EDGE)], rf, mo)
    assert replay_certificate(g, [(t1(0), HB_EDGE), (t2(2), RF_INV_EDGE)], rf, mo)


# ---------------------------------------------------------------------------
# Partial rf: a read that rf leaves out has no rf edge and is not checked
# ---------------------------------------------------------------------------

READ_AXIOMS = (
    Axiom.WEAK_READ_COHERENCE,
    Axiom.READ_COHERENCE,
    Axiom.RELAXED_READ_COHERENCE,
    Axiom.OB_ACYCLICITY,
)


def test_reads_that_rf_leaves_out_are_not_checked():
    # t1 reads x 1 after writing x 2, which breaks every read check and
    # the observed order; t2's read of x 2 breaks nothing
    g = build_graph(
        [("t1", [("w", "x", 1), ("w", "x", 2), ("r", "x", 1)]), ("t2", [("r", "x", 2)])]
    )
    stale, fresh = (E("t1", 2), E("t1", 0)), (E("t2", 0), E("t1", 1))
    rf = ReadsFrom(dict([stale, fresh]))
    mo = ModificationOrder({"x": [E("t1", 0), E("t1", 1)]})
    partial = [ReadsFrom(dict([stale])), ReadsFrom(dict([fresh])), ReadsFrom({})]
    for ax in READ_AXIOMS:
        cert = check_axiom(g, rf, mo, ax)
        assert cert is not None, ax
        assert check_axiom(g, partial[0], mo, ax) == cert, ax
        assert replay_certificate(g, cert, partial[0], mo), ax
        assert check_axiom(g, partial[1], mo, ax) is None, ax
        assert check_axiom(g, partial[2], mo, ax) is None, ax
    # the ob steps replay on the rf's observed orders, which no longer close
    ob_cert = check_axiom(g, rf, None, Axiom.OB_ACYCLICITY)
    for part in partial[1:]:
        assert not replay_certificate(g, ob_cert, part)
    for part in partial:
        for ax in Axiom:
            check_axiom(g, part, mo, ax)
        with pytest.raises(InvalidRf):
            verify(g, part, mo, MemoryModel.SRA)


def test_compute_ob_on_partial_rf():
    g = build_graph([("t1", [("w", "x", 1), ("r", "x", 1)]), ("t2", [("r", "x", 1)])])
    rf = ReadsFrom({E("t1", 1): E("t1", 0)})
    assert compute_ob(g, rf, "t2").pairs == frozenset()
    assert compute_ob(g, rf, "t1").pairs == {(E("t1", 0), E("t1", 1))}
    assert compute_ob(g, ReadsFrom({}), E("t1", 1)).pairs == {(E("t1", 0), E("t1", 1))}


# ---------------------------------------------------------------------------
# Observed order
# ---------------------------------------------------------------------------


def test_observed_order_triplet_pair_acyclic():
    g, rf = fx.observed_order_acyclic()
    ob = compute_ob(g, rf, "t2")
    assert ob.contains(E("t1", 0), E("t3", 0))
    assert not ob.reflexive_events()
    assert check_axiom(g, rf, None, Axiom.OB_ACYCLICITY) is None


def test_observed_order_forced_against_po():
    g, rf = fx.observed_order_cyclic()
    ob = compute_ob(g, rf, "t2")
    assert ob.contains(E("t1", 1), E("t1", 0))
    assert ob.contains(E("t1", 0), E("t1", 1))
    assert ob.reflexive_events()
    cert = check_axiom(g, rf, None, Axiom.OB_ACYCLICITY)
    assert cert is not None
    assert replay_certificate(g, cert, rf)


def test_observed_order_single_thread_is_po():
    g = build_graph([("t1", [("w", "x", 1), ("w", "x", 2), ("w", "y", 1)])])
    ob = compute_ob(g, ReadsFrom({}), "t1")
    expected = {
        (E("t1", 0), E("t1", 1)),
        (E("t1", 0), E("t1", 2)),
        (E("t1", 1), E("t1", 2)),
    }
    assert set(ob.pairs) == expected


def test_observed_order_empty_thread():
    g = build_graph([("t1", [])])
    with pytest.raises(EmptyThread):
        compute_ob(g, ReadsFrom({}), "t1")
    with pytest.raises(UnknownEvent, match="no thread 'zz'"):
        compute_ob(g, ReadsFrom({}), "zz")


def test_observed_order_grows_along_po():
    g, rf = fx.observed_order_cyclic()
    for tid in g.thread_ids:
        evs = g.events_of[tid]
        for a, b in zip(evs, evs[1:]):
            early = compute_ob(g, rf, a.id)
            late = compute_ob(g, rf, b.id)
            assert early.pairs <= late.pairs


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_two_clause_witness_under_strongest_model():
    from racheck import cnf_to_threewriter

    g = cnf_to_threewriter(fx.two_clause_formula())
    rf, mo = fx.two_clause_witness()
    for model in WEAK_MODELS:
        assert verify(g, rf, mo, model).is_consistent


def test_verify_porf_cyclic_single_writer():
    g = fx.single_writer_porf_cyclic()
    rf = ReadsFrom(
        {
            E("t2", 0): E("t1", 1),
            E("t2", 1): E("t1", 3),
            E("t1", 2): E("t2", 2),
        }
    )
    verdict = verify(g, rf, None, MemoryModel.WRA)
    assert not verdict.is_consistent
    assert verdict.axiom == Axiom.PORF_ACYCLICITY.value
    assert replay_certificate(g, verdict.certificate, rf)


def test_verify_write_only_graph_consistent_everywhere():
    g = build_graph([("t1", [("w", "x", 1), ("w", "y", 2)]), ("t2", [("w", "z", 3)])])
    rf = ReadsFrom({})
    mo = ModificationOrder({v: [w.id for w in ws] for v, ws in g.writes_by_var.items()})
    for model in MemoryModel:
        assert verify(g, rf, mo, model).is_consistent


def test_verify_requires_mo_for_mo_models():
    g, rf, mo = fx.mo_against_hb()
    with pytest.raises(MissingMo):
        verify(g, rf, None, MemoryModel.RA)
    assert verify(g, rf, None, MemoryModel.WRA) is not None


def test_verify_rejects_invalid_rf():
    g, rf = fx.stale_read_via_hb()
    broken = ReadsFrom(dict(list(rf.mapping.items())[:1]))
    with pytest.raises(InvalidRf):
        verify(g, broken, None, MemoryModel.WRA)


def test_verify_builds_one_hb_index(monkeypatch):
    # One hb closure per (graph, rf): verify builds at most one index, and
    # the Tarjan run that orders it is also the porf check's, so only
    # strong-write-coherence (po ∪ rf ∪ mo) and an index-free porf check run
    # a DFS of their own.
    counts = {"index": 0, "dfs": 0}
    hb_index, components = axioms._hb_index, axioms._components

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(axioms, "_hb_index", counted("index", hb_index))
    monkeypatch.setattr(axioms, "_components", counted("dfs", components))
    g, rf, mo = fx.mo_against_hb()
    seen = {}
    for m in axioms.MODEL_AXIOMS:
        counts.update(index=0, dfs=0)
        verify(g, rf, mo, m, {})
        seen[m.value] = (counts["index"], counts["dfs"])
    assert seen == {
        "wra": (1, 1),
        "ra": (1, 1),
        "sra": (1, 2),
        "rlx": (0, 0),
        "rlx-acyclic": (0, 1),
        "cm": (1, 1),
    }


def test_verify_numbers_each_witness_once(monkeypatch):
    # verify validates and numbers rf and mo at entry, and every check reads
    # those numbers; a validation of mo is its numbering
    counts = {}

    def counted(key, fn):
        def call(*args):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)

        return call

    for module in ("racheck.axioms", "racheck.model"):
        monkeypatch.setattr(f"{module}.number_rf", counted("rf", number_rf))
        monkeypatch.setattr(f"{module}.number_mo", counted("mo", number_mo))
    g, rf, mo = fx.mo_against_hb()
    for m in axioms.MODEL_AXIOMS:
        for report in (None, {}):
            counts.clear()
            verify(g, rf, mo, m, report)
            assert counts == {"rf": 1, "mo": 1}, m
        counts.clear()
        if not axioms.model_needs_mo(m):
            verify(g, rf, None, m)
            assert counts == {"rf": 1}, m


def test_verify_stops_at_porf_cycle_before_closing_hb(monkeypatch):
    # without a report, a porf-cyclic rf fails the first axiom on the DFS's
    # cycle; the closure it would never read is not propagated
    def unexpected(*args):
        raise AssertionError("verify propagated hb for a cyclic rf")

    g, rf = fx.porf_cycle_pair()
    expected = check_axiom(g, rf, None, Axiom.PORF_ACYCLICITY)
    assert expected is not None
    monkeypatch.setattr(axioms, "_propagate", unexpected)
    for m in (MemoryModel.WRA, MemoryModel.RA, MemoryModel.SRA, MemoryModel.CM):
        mo = ModificationOrder({"x": [E("t2", 1)], "y": [E("t1", 1)]})
        verdict = verify(g, rf, mo, m)
        assert (verdict.axiom, verdict.certificate) == (Axiom.PORF_ACYCLICITY.value, expected)


def test_cm_verify_scales_on_synchronizing_graph():
    # every thread reads every other thread's location, so each thread's
    # hb-past, and with it its observed order, spans most of the graph
    g = fx.synchronizing_graph(1000)
    verdict, _ = solve(g, MemoryModel.CM)
    assert verdict.is_consistent
    start = time.perf_counter()
    checked = verify(g, verdict.rf, verdict.mo, MemoryModel.CM)
    elapsed = time.perf_counter() - start
    assert checked.is_consistent
    hb = axioms._hb_index(g, number_rf(g, verdict.rf))
    for _, end in g.numbering.spans:
        assert hb.back[end - 1].bit_count() > 900
    assert elapsed < 5.0, f"verify under cm took {elapsed:.2f}s on {g.num_events} events"


def test_relaxed_coherence_checks_scale_on_synchronizing_graph():
    # One pass per location: scanning the whole mo suffix of every write
    # and read took about 8 s here, 0.37 s at 4,000 events.
    g = fx.synchronizing_graph(16000)
    verdict, _ = solve(g, MemoryModel.SRA)
    start = time.perf_counter()
    for ax in (Axiom.RELAXED_WRITE_COHERENCE, Axiom.RELAXED_READ_COHERENCE):
        assert check_axiom(g, verdict.rf, verdict.mo, ax) is None, ax
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"relaxed coherence took {elapsed:.2f}s on {g.num_events} events"


def test_model_aliases_dispatch_identically():
    g, rf = fx.stale_read_via_hb()
    assert verify(g, rf, None, MemoryModel.CC).axiom == verify(g, rf, None, MemoryModel.WRA).axiom
    g2, rf2, mo2 = fx.cross_location_mo_cycle()
    assert (
        verify(g2, rf2, mo2, MemoryModel.CCV).axiom
        == verify(g2, rf2, mo2, MemoryModel.SRA).axiom
    )


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


def _random_cases(count, **overrides):
    base = dict(num_threads=3, num_locations=2, num_events=7, writer_bound=None)
    base.update(overrides)
    for seed in range(count):
        yield random_graph(FuzzParams(seed=seed + 5000, **base))


def test_model_hierarchy_pointwise():
    # every complete graph: strongest implies middle implies weakest
    for g in _random_cases(40):
        for rf in enumerate_rfs(g):
            for mo in enumerate_mos(g):
                sra = verify(g, rf, mo, MemoryModel.SRA).is_consistent
                ra = verify(g, rf, mo, MemoryModel.RA).is_consistent
                wra = verify(g, rf, mo, MemoryModel.WRA).is_consistent
                assert (not sra or ra) and (not ra or wra)


def test_weak_violation_dooms_every_mo():
    # a weak-read-coherence break forces a read- or write-coherence break;
    # needs an acyclic po ∪ rf (else the break can relate a write to itself
    # through the cycle and the mo case split collapses)
    found = 0
    for g in _random_cases(60):
        for rf in enumerate_rfs(g):
            if check_axiom(g, rf, None, Axiom.PORF_ACYCLICITY) is not None:
                continue
            if check_axiom(g, rf, None, Axiom.WEAK_READ_COHERENCE) is None:
                continue
            found += 1
            for mo in enumerate_mos(g):
                assert (
                    check_axiom(g, rf, mo, Axiom.READ_COHERENCE) is not None
                    or check_axiom(g, rf, mo, Axiom.WRITE_COHERENCE) is not None
                )
    assert found > 0


def test_strong_write_coherence_implies_write_coherence():
    for g in _random_cases(40):
        for rf in enumerate_rfs(g):
            for mo in enumerate_mos(g):
                if check_axiom(g, rf, mo, Axiom.STRONG_WRITE_COHERENCE) is None:
                    assert check_axiom(g, rf, mo, Axiom.WRITE_COHERENCE) is None


def test_certificates_replay_on_random_cases():
    rng = random.Random(17)
    count = 0
    for g in _random_cases(50):
        for rf in enumerate_rfs(g):
            mos = list(enumerate_mos(g))
            mo = rng.choice(mos) if mos else ModificationOrder({})
            for ax in Axiom:
                cert = check_axiom(g, rf, mo, ax)
                if cert is not None:
                    count += 1
                    assert replay_certificate(g, cert, rf, mo), (ax, cert)
    assert count > 20


# ---------------------------------------------------------------------------
# Bitset hb index against the set-based reference
# ---------------------------------------------------------------------------


@st.composite
def multiwriter_cases(draw):
    """1-4 threads over 1-3 locations, any thread writing anywhere, with a
    random mo and a value-matching rf whose sources are drawn freely, so
    po-later writes and po ∪ rf cycles occur."""
    num_threads = draw(st.integers(1, 4))
    num_locations = draw(st.integers(1, 3))
    op = st.tuples(st.sampled_from("wr"), st.integers(0, num_locations - 1), st.integers(0, 2))
    drawn = [draw(st.lists(op, min_size=1, max_size=7)) for _ in range(num_threads)]
    writes = [
        (t, i, x, v) for t, ops in enumerate(drawn) for i, (kind, x, v) in enumerate(ops) if kind == "w"
    ]
    threads = []
    sources = {}
    for t, ops in enumerate(drawn):
        events = []
        for i, (kind, x, v) in enumerate(ops):
            if kind == "r" and writes:
                wt, wi, x, v = writes[draw(st.integers(0, len(writes) - 1))]
                sources[E(f"t{t}", i)] = E(f"t{wt}", wi)
            events.append((kind if writes else "w", f"x{x}", v))
        threads.append((f"t{t}", events))
    g = build_graph(threads)
    rng = draw(st.randoms(use_true_random=False))
    mo = ModificationOrder(
        {var: rng.sample([w.id for w in ws], len(ws)) for var, ws in g.writes_by_var.items()}
    )
    return g, ReadsFrom(sources), mo


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(multiwriter_cases())
def test_hb_checks_match_set_reference(case):
    g, rf, mo = case
    for ax in ref.REFERENCE_AXIOMS:
        cert = check_axiom(g, rf, mo, ax)
        assert cert == ref.check_axiom(g, rf, mo, ax), ax
        assert cert is None or replay_certificate(g, cert, rf, mo), ax
    # verify's checks share one index, porf's cycle included
    for m in axioms.MODEL_AXIOMS:
        report = {}
        verify(g, rf, mo, m, report)
        assert report == {ax: check_axiom(g, rf, mo, ax) for ax in axioms.axioms_for(m)}, m
    ids = sorted(ev.id for ev in g.events())
    for a in ids:
        for b in ids:
            assert hb_reaches(g, rf, a, b) == ref.hb_reaches(g, rf, a, b), (a, b)
    # thread anchors and every mid-thread anchor
    for anchor in sorted(g.thread_ids) + ids:
        assert compute_ob(g, rf, anchor) == ref.compute_ob(g, rf, anchor), anchor


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(multiwriter_cases(), st.randoms(use_true_random=False))
def test_partial_rf_checks_match_set_reference(case, rng):
    g, rf, mo = case
    part = ReadsFrom({r: w for r, w in rf.items() if rng.random() < 0.5})
    for ax in ref.REFERENCE_AXIOMS:
        cert = check_axiom(g, part, mo, ax)
        assert cert == ref.check_axiom(g, part, mo, ax), ax
        assert cert is None or replay_certificate(g, cert, part, mo), ax
    for anchor in sorted(g.thread_ids) + sorted(ev.id for ev in g.events()):
        assert compute_ob(g, part, anchor) == ref.compute_ob(g, part, anchor), anchor


def test_multiwriter_cases_reach_cycles():
    # the differential test above sees po ∪ rf cycles and, on acyclic
    # po ∪ rf, cycles closed by mo edges and observed-order cycles, and
    # relaxed-read certificates through a po-earlier write and through
    # a po-earlier read
    cfg = settings(
        max_examples=300, derandomize=True, database=None, phases=[Phase.generate]
    )
    def porf_cyclic(c):
        return check_axiom(c[0], c[1], None, Axiom.PORF_ACYCLICITY) is not None

    find(multiwriter_cases(), porf_cyclic, settings=cfg)
    find(
        multiwriter_cases(),
        lambda c: not porf_cyclic(c) and check_axiom(*c, Axiom.STRONG_WRITE_COHERENCE) is not None,
        settings=cfg,
    )
    find(
        multiwriter_cases(),
        lambda c: not porf_cyclic(c)
        and check_axiom(c[0], c[1], None, Axiom.OB_ACYCLICITY) is not None,
        settings=cfg,
    )

    def relaxed_read_labels(c):
        return [label for _, label in check_axiom(*c, Axiom.RELAXED_READ_COHERENCE) or ()]

    for labels in ([RF_INV_EDGE, MO_EDGE, PO_EDGE], [RF_INV_EDGE, MO_EDGE, RF_EDGE, PO_EDGE]):
        find(multiwriter_cases(), lambda c: relaxed_read_labels(c) == labels, settings=cfg)
