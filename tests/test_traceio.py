from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racheck import model
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
    max_writers,
    oracle_consistent,
    random_graph,
    solve,
)
from racheck.harness import FuzzParams
from racheck.model import (
    MemoryModel,
    ModelError,
    ModificationOrder,
    ReadsFrom,
    number_mo,
    number_rf,
)
from racheck.traceio import (
    ParseError,
    TraceDocument,
    _parse,
    parse_dimacs,
    parse_edgelist,
    parse_trace,
    serialize_dimacs,
    serialize_edgelist,
    serialize_trace,
)

import fixtures as fx
import reference_traceio

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  the benchmark's execution generator

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
    with pytest.raises(NotThreeCnf, match="at line 2 has 2 literals"):
        parse_dimacs("p cnf 2 1\n1 2 0\n")
    # the short clause on line 2 comes before line 3's malformed token
    with pytest.raises(NotThreeCnf, match="at line 2 has 2 literals"):
        parse_dimacs("p cnf 3 2\n1 2 0\n1 x 2 0\n")


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


def test_parse_dimacs_errors():
    cases = {
        "p cnf 3 1\np cnf 3 1\n1 2 3 0\n": (2, "duplicate header"),
        "p cnf 3\n": (1, "expected: p cnf <vars> <clauses>"),
        "p dnf 3 1\n": (1, "expected: p cnf <vars> <clauses>"),
        "p cnf x 1\n": (1, "malformed integer 'x'"),
        "1 2 3 0\np cnf 3 1\n": (1, "clause before header"),
        "c no header\n": (0, "missing header"),
        "": (0, "missing header"),
        "p cnf 2 1\n1 -2 3 0\n": (2, "literal 3 exceeds declared variable count"),
        "p cnf 3 1\n1 2 y 0\n": (2, "malformed integer 'y'"),
        "p cnf 3 1\n1 2 3 0\n1 2\n": (3, "unterminated clause"),
        "p cnf 2 2\n1 2 3 0\n1 x 2 0\n": (2, "literal 3 exceeds declared variable count"),
    }
    for text, error in cases.items():
        with pytest.raises(ParseError) as err:
            parse_dimacs(text)
        assert (err.value.line, err.value.reason) == error, text


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


def test_parse_edgelist_errors():
    cases = {
        "3 4\n": (1, "expected a vertex count"),
        "three\n": (1, "malformed integer 'three'"),
        "-1\n": (1, "negative vertex count"),
        "3\n1 2 3\n": (2, "expected: <u> <v>"),
        "3\n1 x\n": (2, "malformed integer 'x'"),
        "3\n1 4\n": (2, "edge (1,4) out of range"),
        "3\n0 1\n": (2, "edge (0,1) out of range"),
        "": (0, "empty edge list input"),
        "# only a comment\n\n": (0, "empty edge list input"),
    }
    for text, error in cases.items():
        with pytest.raises(ParseError) as err:
            parse_edgelist(text)
        assert (err.value.line, err.value.reason) == error, text
    # a comment-only line is skipped before and after the vertex count
    text = "# a path\n3\n  # first edge\n1 2\n"
    assert parse_edgelist(text) == UndirectedGraph.from_edges(3, [(1, 2)])


def test_edgelist_round_trip():
    graph = fx.square_graph()
    assert parse_edgelist(serialize_edgelist(graph)) == graph


# ---------------------------------------------------------------------------
# Differential: the one-pass parser against the two-pass reference
# ---------------------------------------------------------------------------

NAMES = ["t1", "t2", "t10", "x", "y", "a.b", "_", "v-1"]
BAD_NAMES = ["a!", "é", "a:b", "t1,", "$"]
JUNK = ["zz", "w", "rf", "1", "t1:0", "x!", "99999999999999999999", "-9223372036854775809"]
BAD_IDS = ["t1", ":0", "t1:", "t1:x", "zz:0", "t1:-1", "t1:99", "t1:00", "a:b:0", "t1:1:"]
BIG_INTS = ["9223372036854775808", "-9223372036854775809", "1e3", "0x1", "+7", "1_0"]


@st.composite
def documents(draw):
    """A graph on names from NAMES, a partial rf of value-matching writes and
    an mo for some of its locations, each drawn at random."""
    tids = draw(st.lists(st.sampled_from(NAMES), unique=True, min_size=1, max_size=4))
    locations = draw(st.lists(st.sampled_from(NAMES), unique=True, min_size=1, max_size=3))
    op = st.tuples(st.sampled_from("rw"), st.sampled_from(locations), st.integers(-1, 2))
    g = build_graph([(tid, draw(st.lists(op, max_size=6))) for tid in tids])
    return _annotate(g, draw(st.randoms(use_true_random=False)))


def _random_document(rng: random.Random) -> TraceDocument:
    tids = rng.sample(NAMES, rng.randint(1, 4))
    locations = rng.sample(NAMES, rng.randint(1, 3))
    ops = [
        [(rng.choice("rw"), rng.choice(locations), rng.randint(-1, 2)) for _ in range(n)]
        for n in (rng.randint(0, 6) for _ in tids)
    ]
    return _annotate(build_graph(list(zip(tids, ops))), rng)


def _annotate(g, rng: random.Random) -> TraceDocument:
    mapping = {}
    for r in g.reads:
        writes = [w.id for w in g.writes_by_var.get(r.var, []) if w.val == r.val]
        if writes and rng.random() < 0.8:
            mapping[r.id] = rng.choice(writes)
    per_var = {}
    for var, writes in g.writes_by_var.items():
        if rng.random() < 0.8:
            per_var[var] = rng.sample([w.id for w in writes], len(writes))
    rf = ReadsFrom(mapping) if mapping else None
    return TraceDocument(g, rf, ModificationOrder(per_var) if per_var else None)


def _mutate(lines: list[str], kind: int, rng: random.Random) -> list[str]:
    """`lines` with one mutation of the given kind, at a random place."""
    lines = lines[:] or [""]
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    if kind == 0 and len(tokens) > 1:  # swap two tokens
        a, b = rng.sample(range(len(tokens)), 2)
        tokens[a], tokens[b] = tokens[b], tokens[a]
    elif kind == 1 and tokens:  # delete a token
        del tokens[rng.randrange(len(tokens))]
    elif kind == 2:  # junk token
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(JUNK))
    elif kind == 3:  # a comment after the tokens
        tokens.append(rng.choice(["# note", "#", "#rf t1:0 t2:0"]))
    elif kind == 4 and len(tokens) > 1:  # a bad identifier
        tokens[1] = rng.choice(BAD_NAMES)
    elif kind == 5 and tokens:  # an out-of-range or malformed int
        tokens[-1] = rng.choice(BIG_INTS)
    elif kind == 6:  # a bad, swapped, deleted or repeated event id
        annotated = [
            k for k, line in enumerate(lines)
            if line.startswith(("rf ", "mo ")) and len(line.split()) > 2
        ]
        if annotated:
            i = rng.choice(annotated)
            tokens = lines[i].split()
            k = rng.randrange(1 + (tokens[0] == "mo"), len(tokens))
            ids = [t for line in lines for t in line.split() if ":" in t]
            choice = rng.randrange(4)
            if choice == 0:
                tokens[k] = rng.choice(BAD_IDS)
            elif choice == 1:
                tokens[k] = rng.choice(ids)
            elif choice == 2:
                del tokens[k]
            else:
                tokens.insert(k, tokens[k])
    lines[i] = " ".join(tokens)
    at = rng.randrange(len(lines) + 1)
    if kind == 3:  # a comment or blank line
        lines.insert(at, rng.choice(["# comment", "", "   ", "#"]))
    elif kind in (7, 8):  # a duplicate thread or mo line
        copies = [line for line in lines if line.startswith(("thread", "mo")[kind - 7])]
        if copies:
            lines.insert(at, rng.choice(copies))
    elif kind == 9:  # a thread after the annotations
        lines += [f"thread {rng.choice(NAMES + BAD_NAMES)}", f"w {rng.choice(NAMES)} 1"]
    elif kind == 10 and len(lines) > 1:  # swap two lines
        a, b = rng.sample(range(len(lines)), 2)
        lines[a], lines[b] = lines[b], lines[a]
    elif kind == 11:  # event ids written out of canonical form
        lines = [" ".join(_noncanonical(t, rng) for t in line.split()) for line in lines]
    return lines


def _noncanonical(token: str, rng: random.Random) -> str:
    """An event-id token, at random, in another spelling of the same id;
    other tokens as they are."""
    thread, sep, index = token.rpartition(":")
    if not sep or not index.isdigit() or rng.random() < 0.5:
        return token
    return f"{thread}:{rng.choice(['0', '+', '+0', '00'])}{index}"


def _outcome(parse, text):
    try:
        return parse(text), None
    except ParseError as exc:
        return None, (exc.line, exc.reason)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(documents(), st.lists(st.integers(0, 11), max_size=3), st.randoms(use_true_random=True))
def test_parse_trace_matches_reference(doc, mutations, rng):
    lines = reference_traceio.serialize_trace(doc).splitlines()
    for kind in mutations:
        lines = _mutate(lines, kind, rng)
    _check_against_reference("\n".join(lines) + "\n")


def _check_against_reference(text: str) -> None:
    got, got_error = _outcome(parse_trace, text)
    want, want_error = _outcome(reference_traceio.parse_trace, text)
    assert (got_error is None) == (want_error is None)
    if want is not None:
        assert got == want
        assert got.graph.numbering.events == want.graph.numbering.events
        assert got.graph.numbering.index == want.graph.numbering.index
        assert serialize_trace(got) == reference_traceio.serialize_trace(want)
    else:
        assert got_error == _first_error(text)


def _first_error(text: str) -> tuple[int, str]:
    """The first error in line order, by the reference: its reason on the
    shortest prefix of the lines that it rejects, at that prefix's last
    line."""
    lines = text.splitlines()
    for end in range(1, len(lines) + 1):
        _, error = _outcome(reference_traceio.parse_trace, "\n".join(lines[:end]))
        if error is not None:
            return end, error[1]


def test_mutated_traces_parse_as_the_reference():
    # plain random draws, so that every mutation kind, rf/mo resolution
    # errors included, is well covered
    for seed in range(3000):
        rng = random.Random(seed)
        lines = reference_traceio.serialize_trace(_random_document(rng)).splitlines()
        for _ in range(rng.randint(1, 2)):
            lines = _mutate(lines, rng.choice([*range(12), 6, 6, 6, 8]), rng)
        _check_against_reference("\n".join(lines) + "\n")


def test_parse_error_order():
    # the first error in line order; within a line its syntax, then its
    # name, then its rf/mo resolution
    cases = [
        ("thread a!\nw x 1\nrf t1:0 t9:0\nbogus\n", (1, "thread id 'a!' is not a valid identifier")),
        ("thread a!\nw y! 1\nrf a!:0 t9:0\n", (1, "thread id 'a!' is not a valid identifier")),
        ("thread t\nw y! 1\nthread b$\n", (2, "location 'y!' is not a valid identifier")),
        ("thread t\nw x 1\nrf t:0 t9:0\nmo x t:1\n", (3, "unknown event t9:0")),
        ("thread t1\nw x 1\nr x 1\nmo x t1:5\nrf t1:0 t1:9\n", (4, "unknown event t1:5")),
        ("thread t1\nw x 1\nrf t1:0 t1:0\nw x 2\n", (3, "rf target t1:0 is not a read")),
        ("thread t\nw x! y\n", (2, "malformed integer 'y'")),
        ("thread t\nw x 1\nrf t:0 t:x\n", (3, "malformed integer 'x'")),
    ]
    for text, error in cases:
        assert _outcome(parse_trace, text)[1] == error
        assert _first_error(text) == error


# The parse numbers rf and mo as it reads them, once
# ---------------------------------------------------------------------------


def _check_numbering(text: str) -> None:
    """`_parse` gives `parse_trace`'s document, and its rf and mo numbered
    as `number_rf` and `number_mo` number them."""
    doc, src, numbered_mo = _parse(text)
    assert doc == parse_trace(text)
    g = doc.graph
    assert src == number_rf(g, doc.rf or ReadsFrom({}))
    assert numbered_mo == number_mo(g, doc.mo or ModificationOrder({}))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3]),
    st.integers(1, 80),
    st.integers(0, 2**32 - 1),
)
def test_parse_numbers_generator_witnesses(seed, writers, events, mutation_seed):
    # the benchmark's `verify-annotated` inputs: witnesses of the generator
    # and their stale-rf and mo-swap mutations
    params = gen.GenParams(seed, 4, 6, events, 3, writers, recent=2 if writers == 1 else 1)
    ex = gen.generate(params)
    for variant in (ex, gen.stale_rf(ex, mutation_seed), gen.mo_swap(ex, mutation_seed)):
        if variant is not None:
            _check_numbering(gen.render(variant, True))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(documents(), st.randoms(use_true_random=False))
def test_parse_numbers_partial_and_noncanonical_witnesses(doc, rng):
    lines = serialize_trace(doc).splitlines()
    _check_numbering("\n".join(_mutate(lines, 11, rng)) + "\n")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(documents())
def test_serialize_trace_matches_reference(doc):
    assert serialize_trace(doc) == reference_traceio.serialize_trace(doc)


@pytest.mark.parametrize("model", [MemoryModel.SRA, MemoryModel.RELAXED, MemoryModel.CM])
def test_witnesses_serialize_as_the_reference(model):
    for seed in range(30):
        g = random_graph(FuzzParams(seed, num_events=12, writer_bound=[1, 2][seed % 2]))
        if max_writers(g) <= 1:
            verdict, _ = solve(g, model)
        else:
            verdict = oracle_consistent(g, model)
        if verdict.is_consistent:
            doc = TraceDocument(g, verdict.rf, verdict.mo)
            text = serialize_trace(doc)
            assert text == reference_traceio.serialize_trace(doc)
            assert parse_trace(text) == doc


THREAD_LISTS = st.lists(
    st.tuples(
        st.sampled_from(NAMES + BAD_NAMES + [""]),
        st.lists(
            st.tuples(
                st.sampled_from(["r", "w", "x"]),
                st.sampled_from(NAMES + BAD_NAMES),
                st.sampled_from([0, 1, -1, 2**63, -(2**63) - 1, True, "1"]),
            ),
            max_size=3,
        ),
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(THREAD_LISTS)
def test_build_graph_matches_reference(threads):
    try:
        want = reference_traceio.build_graph(threads)
    except ModelError as exc:
        with pytest.raises(type(exc)) as err:
            build_graph(threads)
        assert str(err.value) == str(exc)
        return
    got = build_graph(threads)
    assert got == want and got.numbering.events == want.numbering.events


def test_each_name_is_checked_once(monkeypatch):
    names = []
    pattern = model._IDENT_RE

    class Counting:
        def match(self, name):
            names.append(name)
            return pattern.match(name)

    monkeypatch.setattr(model, "_IDENT_RE", Counting())
    threads = [
        (f"t{t}", [("wr"[k % 2], f"x{k % 3}", k % 5) for k in range(50)]) for t in range(4)
    ]
    g = build_graph(threads)
    assert g.num_events == 200
    assert sorted(names) == ["t0", "t1", "t2", "t3", "x0", "x1", "x2"]
    first = {}
    for w in reversed(sorted(w for ws in g.writes_by_var.values() for w in ws)):
        first[w.var, w.val] = w.id
    rf = ReadsFrom({r.id: first[r.var, r.val] for r in g.reads if (r.var, r.val) in first})
    mo = ModificationOrder({var: [w.id for w in ws] for var, ws in g.writes_by_var.items()})
    text = serialize_trace(TraceDocument(g, rf, mo))
    names.clear()
    assert parse_trace(text) == TraceDocument(g, rf, mo)
    assert sorted(names) == ["t0", "t1", "t2", "t3", "x0", "x1", "x2"]
