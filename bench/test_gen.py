"""Tests of the benchmark's input generator.

Run from the root of the checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_gen.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from racheck import MemoryModel, oracle_consistent, parse_trace, solve, verify  # noqa: E402

PARAMS = [
    gen.GenParams(seed, threads, locations, events, 3, writers, recent=recent)
    for seed, (threads, locations, events, writers, recent) in enumerate(
        [(4, 8, 120, 1, 2), (3, 6, 80, 2, 1), (6, 12, 60, 3, 1), (2, 2, 40, 2, 2), (5, 3, 100, 1, 2)]
    )
]


def _doc(ex: gen.Execution, annotate: bool = True):
    return parse_trace(gen.render(ex, annotate))


@pytest.mark.parametrize("p", PARAMS)
def test_same_seed_same_execution(p):
    assert gen.render(gen.generate(p), True) == gen.render(gen.generate(p), True)


def test_different_seeds_differ():
    a, b = (gen.generate(gen.GenParams(s, 4, 8, 120, 3, 1)) for s in (1, 2))
    assert gen.render(a, True) != gen.render(b, True)


@pytest.mark.parametrize("p", PARAMS)
def test_writer_bound_holds(p):
    ex = gen.generate(p)
    assert 1 <= ex.max_writers() <= p.writers
    assert sum(len(ops) for _, ops in ex.threads) == p.events


@pytest.mark.parametrize("p", PARAMS)
@pytest.mark.parametrize("model", gen.MODELS)
def test_witness_passes_verify(p, model):
    if model == "cm" and p.writers > 1 and p.recent > 1:
        pytest.skip("no cm guarantee with stale reads of multi-writer locations")
    doc = _doc(gen.generate(p))
    assert verify(doc.graph, doc.rf, doc.mo, MemoryModel(model)).is_consistent


def test_release_acquire_run_can_break_causal_memory():
    """Two writers per location and stale reads: consistent under the
    five other models, not under cm."""
    doc = _doc(gen.generate(gen.GenParams(232, 6, 12, 60, 3, 2)))
    for model in gen.MODELS:
        assert verify(doc.graph, doc.rf, doc.mo, MemoryModel(model)).is_consistent == (model != "cm")


def _decide(ex: gen.Execution, model: str) -> bool:
    g = _doc(ex, annotate=False).graph
    if ex.max_writers() <= 1:
        return solve(g, MemoryModel(model))[0].is_consistent
    return oracle_consistent(g, MemoryModel(model)).is_consistent


@pytest.mark.parametrize("seed", range(4))
def test_trace_mutations_have_their_verdicts(seed):
    ex = gen.generate(gen.GenParams(seed, 3, 3, 24, 3, 1))
    for model in gen.MODELS:
        assert not _decide(gen.stale_pair(ex, seed), model)
        assert _decide(gen.read_cycle(ex, seed), model) == (model == "rlx")


@pytest.mark.parametrize("p", PARAMS)
def test_annotation_mutations_have_their_verdicts(p):
    ex = gen.generate(p)
    stale, swapped = gen.stale_rf(ex, p.seed), gen.mo_swap(ex, p.seed)
    assert stale is not None and swapped is not None
    for model in gen.MODELS:
        m = MemoryModel(model)
        doc = _doc(stale)
        assert not verify(doc.graph, doc.rf, doc.mo, m).is_consistent
        doc = _doc(swapped)
        assert verify(doc.graph, doc.rf, doc.mo, m).is_consistent == (model in ("wra", "cm"))


def test_satisfiable_by_truth_table():
    import random

    rng = random.Random(0)
    for pos in range(3):
        assert not gen.satisfiable(2, gen.unsat_formula(rng, 1, 2, pos))
        assert not gen.satisfiable(3, gen.unsat_formula(rng, 3, 1, pos))
    assert gen.satisfiable(3, [((1, True), (2, False), (3, True))])
    assert not gen.satisfiable(1, [((1, True),) * 3, ((1, False),) * 3])


def test_checks_flag_wrong_answers():
    """Every check flags a wrong answer on real outputs of two workloads."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    import checks
    import workloads
    from contextlib import nullcontext
    from racheck import cli

    for name, keep in (("onewriter-check", 1), ("verify-annotated", 6)):
        inputs = [i for i in workloads.build(name, 0) if "n100" in i.name][:keep + 2]
        ops = workloads.prepare(inputs, lambda _: nullcontext())
        outputs = {}
        for k, op in enumerate(ops):
            out = io.StringIO()
            stdin, sys.stdin = sys.stdin, io.StringIO(op.input.text)
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(op.argv)
            finally:
                sys.stdin = stdin
            checks.check(op, code, out.getvalue())
            outputs[k] = (code, out.getvalue())
        assert checks.self_test(ops, outputs) == []
