from __future__ import annotations

import pytest

import racheck.harness as harness
from racheck import (
    BudgetExceeded,
    InvalidParams,
    MemoryModel,
    Verdict,
    differential_run,
    max_writers,
    random_graph,
)
from racheck.harness import FuzzParams
from racheck.traceio import parse_trace, serialize_trace, TraceDocument


def test_random_graph_deterministic():
    params = FuzzParams(seed=42, num_events=14, writer_bound=2)
    a, b = random_graph(params), random_graph(params)
    assert serialize_trace(TraceDocument(a)) == serialize_trace(TraceDocument(b))


def test_random_graph_respects_writer_bound():
    for bound in (1, 2, 3):
        for seed in range(25):
            g = random_graph(
                FuzzParams(seed=seed, num_threads=4, num_locations=3, num_events=16, writer_bound=bound)
            )
            assert max_writers(g) <= bound


def test_random_graph_empty():
    g = random_graph(FuzzParams(seed=1, num_events=0))
    assert g.num_events == 0


def test_random_graph_rejects_zero_threads():
    with pytest.raises(InvalidParams):
        random_graph(FuzzParams(seed=1, num_threads=0, num_events=5))


def test_random_graph_rejects_empty_value_range():
    with pytest.raises(InvalidParams, match="empty value range"):
        random_graph(FuzzParams(seed=1, value_range=0))


def test_random_graph_mostly_matched_reads():
    matched = unmatched = 0
    for seed in range(60):
        g = random_graph(FuzzParams(seed=seed, num_events=20, writer_bound=2))
        for r in g.reads:
            if any(w.val == r.val for w in g.writes_by_var.get(r.var, [])):
                matched += 1
            else:
                unmatched += 1
    assert matched / (matched + unmatched) >= 0.9


def test_differential_run_clean_sweep():
    report = differential_run(
        FuzzParams(seed=11, num_events=10, writer_bound=1), list(MemoryModel), 60
    )
    assert report.cases == 60
    assert report.failures == []
    assert report.summary() == "cases=60 failures=0"
    assert report.render().rstrip().endswith("cases=60 failures=0")


def test_differential_run_empty():
    report = differential_run(FuzzParams(seed=1), [MemoryModel.WRA], 0)
    assert report.summary() == "cases=0 failures=0"


def test_differential_failure_writes_reproducer(tmp_path, monkeypatch):
    # force a disagreement to exercise the failure path end to end
    real = harness.oracle_consistent

    def lying_oracle(g, m, limits=None):
        verdict = real(g, m) if limits is None else real(g, m, limits)
        if m is MemoryModel.WRA:
            if verdict.is_consistent:
                return Verdict.inconsistent("fake", None)
            return Verdict.consistent(None, None)
        return verdict

    monkeypatch.setattr(harness, "oracle_consistent", lying_oracle)
    report = differential_run(
        FuzzParams(seed=3, num_events=8, writer_bound=1),
        [MemoryModel.WRA],
        4,
        failure_dir=tmp_path,
    )
    assert report.failures
    failure = report.failures[0]
    assert failure.reproducer is not None
    reparsed = parse_trace((tmp_path / f"case_{failure.case_index}.trace").read_text())
    regenerated = random_graph(
        FuzzParams(seed=3 + failure.case_index, num_events=8, writer_bound=1)
    )
    assert reparsed.graph == regenerated
    assert f"failures={len(report.failures)}" in report.summary()


def _consistent_under_sra_only(g, m, limits=None):
    if m is MemoryModel.SRA:
        return Verdict.consistent(None, None)
    return Verdict.inconsistent("fake", None)


@pytest.mark.parametrize(
    "name, fake, message",
    [
        ("rf_leq", lambda rf, other, g: False, "solver rf not minimal under wra"),
        ("oracle_consistent", _consistent_under_sra_only, "hierarchy broken: sra consistent, ra not"),
        (
            "verify",
            lambda g, rf, mo, m: Verdict.inconsistent("fake", None),
            "single-writer witness rejected by causal memory",
        ),
    ],
)
def test_differential_failure_reports(monkeypatch, name, fake, message):
    # each check of the sweep, made to fail by a faked engine
    monkeypatch.setattr(harness, name, fake)
    models = [MemoryModel.SRA, MemoryModel.RA, MemoryModel.WRA]
    report = differential_run(FuzzParams(seed=11, num_events=10, writer_bound=1), models, 10)
    assert message in {failure.message for failure in report.failures}


def test_differential_run_skips_cases_over_budget(monkeypatch):
    def over_budget(g, m, limits=None):
        raise BudgetExceeded("max_events", 0)

    monkeypatch.setattr(harness, "oracle_consistent", over_budget)
    report = differential_run(FuzzParams(seed=1), [MemoryModel.WRA], 2)
    assert (report.cases, report.budget_skips, report.failures) == (2, [0, 1], [])


def test_report_render():
    report = harness.Report(
        FuzzParams(seed=5),
        [MemoryModel.WRA, MemoryModel.CM],
        cases=3,
        failures=[harness.CaseFailure(2, "boom", "out/case_2.trace"), harness.CaseFailure(0, "bang")],
        budget_skips=[1],
    )
    assert report.render() == (
        "prng=python-random-mt19937 seed=5 threads=3 locations=3 events=10 values=0..3 writers=1\n"
        "models=wra,cm\n"
        "case 0: FAIL bang\n"
        "case 2: FAIL boom reproducer=out/case_2.trace\n"
        "case 1: skipped (oracle budget)\n"
        "cases=3 failures=2\n"
    )
