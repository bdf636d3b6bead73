from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racheck import (
    DuplicateThreadId,
    EventId,
    IncomparableWrites,
    ModelError,
    ModificationOrder,
    ReadsFrom,
    UnknownEvent,
    build_graph,
    max_writers,
    random_graph,
    rf_leq,
    rf_min,
    writer_profile,
)
from racheck.harness import FuzzParams
from racheck.model import normalize_cycle

import fixtures as fx
from reference_oracle import enumerate_rfs

E = EventId


def test_build_graph_assigns_ids_by_position():
    g = build_graph(
        [("t1", [("r", "x", 0), ("w", "y", 0)]), ("t2", [("r", "y", 0), ("w", "x", 0)])]
    )
    assert g.num_events == 4
    assert g.po(E("t1", 0), E("t1", 1))
    assert g.po(E("t2", 0), E("t2", 1))
    assert not g.po(E("t1", 0), E("t2", 1))
    assert g.event(E("t2", 1)).var == "x"


def test_build_graph_empty():
    g = build_graph([])
    assert g.num_events == 0
    assert g.thread_ids == []


def test_build_graph_single_thread_listing_order():
    g = build_graph([("t", [("w", "x", 1), ("r", "x", 1)])])
    assert g.num_events == 2
    assert g.po(E("t", 0), E("t", 1))
    assert not g.po(E("t", 1), E("t", 0))


def test_build_graph_rejects_duplicate_thread():
    with pytest.raises(DuplicateThreadId):
        build_graph([("t", []), ("t", [])])


@pytest.mark.parametrize(
    "threads",
    [
        [("", [("w", "x", 1)])],
        [("t!", [("w", "x", 1)])],
        [("t", [("w", "bad var", 1)])],
        [("t", [("x", "y", 1)])],
        [("t", [("w", "x", 2**63)])],
    ],
)
def test_build_graph_rejects_malformed(threads):
    with pytest.raises(ModelError):
        build_graph(threads)


def test_po_edge_count_matches_thread_lengths():
    g = fx.single_writer_consistent()
    immediate = sum(
        1
        for tid in g.thread_ids
        for a, b in zip(g.events_of[tid], g.events_of[tid][1:])
        if g.po(a.id, b.id)
    )
    assert immediate == sum(len(g.events_of[t]) - 1 for t in g.thread_ids)


def test_writer_profile_single_writer_fixture():
    g = fx.single_writer_consistent()
    assert writer_profile(g) == {"x": {"t1"}, "y": {"t2"}}
    assert max_writers(g) == 1


def test_writer_profile_two_writers():
    g = build_graph([("t1", [("w", "x", 1)]), ("t2", [("w", "x", 2)])])
    assert writer_profile(g) == {"x": {"t1", "t2"}}
    assert max_writers(g) == 2


def test_writer_profile_empty():
    assert writer_profile(build_graph([])) == {}
    assert max_writers(build_graph([])) == 0


def test_rf_leq_on_fixture_chain():
    g = fx.single_writer_consistent()
    assert rf_leq(fx.swc_rf0(), fx.swc_rf2(), g)
    assert rf_leq(fx.swc_rf0(), fx.swc_rf1(), g)
    assert rf_leq(fx.swc_rf1(), fx.swc_rf2(), g)


def test_rf_leq_reflexive():
    g = fx.single_writer_consistent()
    assert rf_leq(fx.swc_rf1(), fx.swc_rf1(), g)


def test_rf_leq_strictly_larger_is_not_smaller():
    g = fx.single_writer_consistent()
    assert not rf_leq(fx.swc_rf2(), fx.swc_rf0(), g)


def test_rf_leq_incomparable_writes():
    g = build_graph(
        [("t1", [("w", "x", 1)]), ("t2", [("w", "x", 1)]), ("t3", [("r", "x", 1)])]
    )
    rf1 = ReadsFrom({E("t3", 0): E("t1", 0)})
    rf2 = ReadsFrom({E("t3", 0): E("t2", 0)})
    with pytest.raises(IncomparableWrites):
        rf_leq(rf1, rf2, g)
    with pytest.raises(IncomparableWrites):
        rf_min(rf1, rf2, g)


def test_rf_min_of_comparable_chain():
    g = fx.single_writer_consistent()
    assert rf_min(fx.swc_rf0(), fx.swc_rf2(), g) == fx.swc_rf0()


def test_rf_min_idempotent():
    g = fx.single_writer_consistent()
    assert rf_min(fx.swc_rf1(), fx.swc_rf1(), g) == fx.swc_rf1()


def test_rf_min_pointwise():
    g = build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "x", 2), ("w", "x", 1), ("w", "x", 2)]),
            ("t2", [("r", "x", 1), ("r", "x", 2)]),
        ]
    )
    rf_a = ReadsFrom({E("t2", 0): E("t1", 0), E("t2", 1): E("t1", 3)})
    rf_b = ReadsFrom({E("t2", 0): E("t1", 2), E("t2", 1): E("t1", 1)})
    merged = rf_min(rf_a, rf_b, g)
    assert merged == ReadsFrom({E("t2", 0): E("t1", 0), E("t2", 1): E("t1", 1)})


def test_rf_order_is_partial_order_on_enumerated_rfs():
    g = fx.single_writer_consistent()
    rfs = list(enumerate_rfs(g))
    assert len(rfs) <= 10
    for a in rfs:
        assert rf_leq(a, a, g)
    for a, b in itertools.permutations(rfs, 2):
        if rf_leq(a, b, g) and rf_leq(b, a, g):
            assert a == b
    for a, b, c in itertools.product(rfs, repeat=3):
        if rf_leq(a, b, g) and rf_leq(b, c, g):
            assert rf_leq(a, c, g)


def test_rf_min_is_greatest_lower_bound():
    g = fx.single_writer_consistent()
    rfs = list(enumerate_rfs(g))
    for a, b in itertools.combinations(rfs, 2):
        lower = rf_min(a, b, g)
        assert rf_leq(lower, a, g) and rf_leq(lower, b, g)
        for other in rfs:
            if rf_leq(other, a, g) and rf_leq(other, b, g):
                assert rf_leq(other, lower, g)


def test_relations_compare_by_value():
    # ReadsFrom hashes its mapping; a ModificationOrder is not hashable
    rf = ReadsFrom({E("t2", 0): E("t1", 0)})
    assert rf == ReadsFrom(dict(rf.mapping)) and rf != ReadsFrom({})
    assert hash(rf) == hash(ReadsFrom(dict(rf.mapping)))
    mo = ModificationOrder({"x": [E("t1", 0), E("t2", 0)]})
    assert mo == ModificationOrder({"x": [E("t1", 0), E("t2", 0)]})
    assert mo != ModificationOrder({"x": [E("t2", 0), E("t1", 0)]})
    assert rf != mo
    with pytest.raises(TypeError):
        hash(mo)


def test_reads_from_validate_rejects_mismatches():
    g = fx.single_writer_consistent()
    from racheck import InvalidRf

    bad = ReadsFrom({fx.SWC_R1: fx.SWC_W1})  # value mismatch and missing reads
    with pytest.raises(InvalidRf):
        bad.validate(g)


VALIDATED = build_graph(
    [("t1", [("w", "x", 1), ("r", "x", 1), ("w", "y", 1)]), ("t2", [("r", "x", 1)])]
)
NOT_A_PERMUTATION = "mo for 'x' is not a permutation of that location's writes"


def _rf(writer_of_t1_1: EventId) -> ReadsFrom:
    return ReadsFrom({E("t1", 1): writer_of_t1_1, E("t2", 0): E("t1", 0)})


@pytest.mark.parametrize(
    "relation, message",
    [
        (ReadsFrom({E("t1", 1): E("t1", 0)}), "rf domain mismatch: missing=[t2:0] extra=[]"),
        (_rf(E("t9", 0)), "rf source t9:0 does not exist"),
        (_rf(E("t2", 0)), "rf source t2:0 is not a write"),
        (_rf(E("t1", 2)), "rf edge t1:2 -> t1:1 mismatches on location or value"),
        (ModificationOrder({"x": [E("t1", 0), E("t1", 0)]}), NOT_A_PERMUTATION),
        (ModificationOrder({"x": [E("t9", 0)]}), NOT_A_PERMUTATION),
        (ModificationOrder({"x": [E("t1", 2)]}), NOT_A_PERMUTATION),
        (ModificationOrder({"x": []}), NOT_A_PERMUTATION),
    ],
)
def test_validate_messages(relation, message):
    with pytest.raises(ModelError) as err:
        relation.validate(VALIDATED)
    assert str(err.value) == message
    assert _rf(E("t1", 0)).validate(VALIDATED) is None
    assert ModificationOrder({"x": [E("t1", 0)], "y": [E("t1", 2)]}).validate(VALIDATED) is None


def test_normalize_cycle_rotation():
    cycle = [(E("t2", 0), "po"), (E("t1", 0), "rf"), (E("t1", 1), "po")]
    assert normalize_cycle(cycle)[0][0] == E("t1", 0)
    assert normalize_cycle([]) == []


# ---------------------------------------------------------------------------
# Sorted-id views, read off the numbering
# ---------------------------------------------------------------------------

# String order differs from listing order and from numeric order.
THREAD_NAMES = ["t2", "t1", "t10", "t9", "b", "A"]
OP = st.tuples(st.sampled_from("rw"), st.sampled_from("xy"), st.integers(0, 2))


@st.composite
def listed_graphs(draw):
    """Graphs whose threads are listed in any order, names from THREAD_NAMES."""
    names = draw(st.permutations(THREAD_NAMES))[: draw(st.integers(0, len(THREAD_NAMES)))]
    return build_graph([(tid, draw(st.lists(OP, max_size=4))) for tid in names])


random_graphs = st.builds(
    lambda seed, threads, events, bound: random_graph(
        FuzzParams(seed, threads, 2, events, writer_bound=bound)
    ),
    st.integers(0, 10**6),
    st.integers(1, 12),
    st.integers(0, 30),
    st.sampled_from([1, 2, None]),
)


# t2 listed before t1; t10 after t9, which it precedes in string order
OUT_OF_ORDER = [
    build_graph([("t2", [("w", "x", 1), ("r", "y", 1)]), ("t1", [("r", "x", 1), ("w", "y", 0)])]),
    build_graph([("t9", [("w", "x", 1), ("r", "x", 2)]), ("t10", [("w", "x", 2), ("w", "y", 1)])]),
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(OUT_OF_ORDER), listed_graphs(), random_graphs))
def test_sorted_id_views_match_a_sort_by_id(g):
    # each view is what a sort of every thread's events by id gives
    by_id = sorted((ev for evs in g.events_of.values() for ev in evs), key=lambda e: e.id)
    writes_by_var = {}
    for ev in by_id:
        if ev.is_write:
            writes_by_var.setdefault(ev.var, []).append(ev)
    assert list(g.writes_by_var.items()) == list(writes_by_var.items())
    assert g.reads == [ev for ev in by_id if ev.is_read]
    assert g.num_events == len(by_id)
    for ev in by_id:
        assert g.has_event(ev.id) and g.event(ev.id) == ev
    unknown = [E("zz", 0), E("t1", -1)]
    unknown += [E(tid, len(evs)) for tid, evs in g.events_of.items()]
    for eid in unknown:
        assert not g.has_event(eid)
        with pytest.raises(UnknownEvent):
            g.event(eid)
