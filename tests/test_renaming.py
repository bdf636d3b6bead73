"""Verdicts do not depend on the names of threads, locations and values.

Renaming threads permutes the sorted-id numbering that the solver, the
oracle and the axiom checks share, and reordering the thread blocks
changes the order the graph lists them in.  Neither may change a verdict.
The oracle's first witness follows the numbering, so a renamed witness
is only required to verify, not to be the renamed graph's first one, and
to survive the trace format's round trip; a renamed solver certificate
is only required to replay on the renamed graph.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from racheck import (
    BudgetExceeded,
    EventId,
    MemoryModel,
    ModificationOrder,
    OracleLimits,
    ReadsFrom,
    TraceDocument,
    build_graph,
    derive_mo,
    max_writers,
    oracle_consistent,
    parse_trace,
    random_graph,
    replay_certificate,
    serialize_trace,
    solve,
    verify,
)
from racheck.harness import FuzzParams

from test_solver import CANONICAL_MODELS, single_writer_graphs

LIMITS = OracleLimits(max_rf_candidates=20_000)


@st.composite
def multi_writer_graphs(draw):
    return random_graph(
        FuzzParams(
            seed=draw(st.integers(0, 10**6)),
            num_threads=draw(st.integers(2, 4)),
            num_locations=draw(st.integers(1, 2)),
            num_events=draw(st.integers(4, 12)),
            value_range=draw(st.integers(2, 3)),
            writer_bound=None,
        )
    )


def _renamed(g, rng):
    """g with threads, locations and values renamed injectively and the
    thread blocks shuffled, plus the maps of its events and locations."""
    threads = list(g.thread_ids)
    locations = sorted({ev.var for ev in g.events()})
    values = sorted({ev.val for ev in g.events()})
    thread_names = [f"u{i}" for i in range(len(threads))]
    location_names = [f"v{i}" for i in range(len(locations))]
    rng.shuffle(thread_names)
    rng.shuffle(location_names)
    thread_map = dict(zip(threads, thread_names))
    location_map = dict(zip(locations, location_names))
    value_map = dict(zip(values, rng.sample(range(-(2**40), 2**40), len(values))))
    rng.shuffle(threads)
    renamed = build_graph(
        [
            (
                thread_map[tid],
                [(ev.op, location_map[ev.var], value_map[ev.val]) for ev in g.events_of[tid]],
            )
            for tid in threads
        ]
    )
    event_map = {ev.id: EventId(thread_map[ev.id.thread], ev.id.index) for ev in g.events()}
    return renamed, event_map, location_map


def _renamed_rf(rf, event_map):
    return ReadsFrom({event_map[r]: event_map[w] for r, w in rf.mapping.items()})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(multi_writer_graphs(), single_writer_graphs()), st.randoms(use_true_random=False))
def test_verdicts_invariant_under_renaming(g, rng):
    renamed, event_map, location_map = _renamed(g, rng)
    one_writer = max_writers(g) <= 1
    for m in CANONICAL_MODELS:
        if one_writer:
            verdict, trace = solve(g, m)
            assert solve(renamed, m)[0].axiom == verdict.axiom, m
            if not verdict.is_consistent:
                cert = [(event_map[e], label) for e, label in verdict.certificate]
                rf = None
                if trace.final_rf is not None:  # None only on rf-totality
                    rf = _renamed_rf(trace.final_rf, event_map)
                assert replay_certificate(renamed, cert, rf, derive_mo(renamed)), m
        try:
            verdict = oracle_consistent(g, m, LIMITS)
            other = oracle_consistent(renamed, m, LIMITS)
        except BudgetExceeded:
            continue
        assert other.axiom == verdict.axiom, m
        if verdict.is_consistent:
            rf = _renamed_rf(verdict.rf, event_map)
            mo = None
            if verdict.mo is not None:
                mo = ModificationOrder(
                    {
                        location_map[var]: [event_map[w] for w in order]
                        for var, order in verdict.mo.per_var.items()
                    }
                )
            assert verify(renamed, rf, mo, m).is_consistent, m
            # a graph without reads has no rf lines; `racheck verify` reads
            # their absence as the empty rf
            back = parse_trace(serialize_trace(TraceDocument(renamed, rf, mo)))
            assert back.graph == renamed and back.mo == mo, m
            assert (back.rf if back.rf is not None else ReadsFrom({})) == rf, m
