from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import pytest

from racheck import axioms, build_graph, cli, oracle, solve, verify
from racheck.cli import build_parser, main
from racheck.model import MemoryModel, ReadsFrom
from racheck.traceio import parse_trace, serialize_trace, TraceDocument

import fixtures as fx

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  the benchmark's formula generator

FIG2 = serialize_trace(TraceDocument(fx.single_writer_consistent()))
FIG3 = serialize_trace(TraceDocument(fx.single_writer_porf_cyclic()))
K3_EDGES = "3\n1 2\n2 3\n1 3\n"


def _gate_trace(num_events: int) -> str:
    """A consistent two-writer trace of `num_events` events: `w x 1`, a
    thread of `r x 1` reads, and `w x 2`.  Every read has one candidate,
    so the oracle's search descends one level per read."""
    reads = [("r", "x", 1)] * (num_events - 2)
    threads = [("t0", [("w", "x", 1)]), ("t1", reads), ("t2", [("w", "x", 2)])]
    return serialize_trace(TraceDocument(build_graph(threads)))


OVER_GATE = _gate_trace(oracle._MAX_EVENTS + 1)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "fig2.trace").write_text(FIG2)
    (tmp_path / "fig3.trace").write_text(FIG3)
    (tmp_path / "phi.cnf").write_text(fx.TWO_CLAUSE_DIMACS)
    (tmp_path / "k3.edges").write_text(K3_EDGES)
    (tmp_path / "over-gate.trace").write_text(OVER_GATE)
    return tmp_path


def test_check_consistent_fixture(workdir, capsys):
    witness = workdir / "witness.trace"
    code = main(
        [
            "check",
            "--model",
            "wra",
            "--input",
            str(workdir / "fig2.trace"),
            "--witness",
            str(witness),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "CONSISTENT"
    doc = parse_trace(witness.read_text())
    assert doc.rf == fx.swc_rf2()


def test_check_witness_to_stdout(workdir, capsys):
    code = main(["check", "--model", "wra", "--input", str(workdir / "fig2.trace"), "--witness", "-"])
    assert code == 0
    g = fx.single_writer_consistent()
    verdict, _ = solve(g, MemoryModel.WRA)
    witness = serialize_trace(TraceDocument(g, verdict.rf, verdict.mo))
    assert capsys.readouterr().out == "CONSISTENT\n" + witness
    doc = parse_trace(witness)
    assert verify(doc.graph, doc.rf, doc.mo, MemoryModel.WRA).is_consistent


def test_check_inconsistent_fixture(workdir, capsys):
    code = main(["check", "--model", "wra", "--input", str(workdir / "fig3.trace")])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0] == "INCONSISTENT porf-acyclicity"


def test_check_missing_model_flag(workdir, capsys):
    assert main(["check", "--input", str(workdir / "fig2.trace")]) == 2


def test_parser_is_shared_and_options_do_not_leak(workdir, capsys):
    assert build_parser() is build_parser()
    fig2 = str(workdir / "fig2.trace")
    witness, steps = workdir / "witness.trace", workdir / "steps.txt"

    assert main(["check", "--model", "wra", "--input", fig2, "--witness", str(witness)]) == 0
    assert main(["check", "--model", "wra", "--input", fig2, "--trace", str(steps)]) == 0
    assert witness.exists() and steps.exists()
    witness.unlink()
    steps.unlink()
    assert main(["check", "--model", "sra", "--input", fig2]) == 0
    assert not witness.exists() and not steps.exists()

    capsys.readouterr()
    assert main(["oracle", "--model", "wra", "--input", fig2, "--all-rf"]) == 0
    assert "consistent rf count: 1" in capsys.readouterr().out
    over_gate = str(workdir / "over-gate.trace")
    assert main(["oracle", "--model", "wra", "--input", over_gate]) == 3
    assert main(["oracle", "--model", "wra", "--input", fig2]) == 0
    assert "consistent rf count" not in capsys.readouterr().out

    # usage errors and --help read as from a freshly built parser
    fresh = build_parser.__wrapped__()
    assert main(["check", "--input", fig2]) == 2
    assert "the following arguments are required: --model" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == fresh.format_help()
    assert main(["verify", "--model", "wra", "--input", fig2]) == 2
    assert main(["check", "--model", "wra", "--input", fig2]) == 0
    assert capsys.readouterr().out.splitlines() == ["CONSISTENT"]


def test_check_solver_trace_output(workdir):
    steps = workdir / "steps.txt"
    main(
        [
            "check",
            "--model",
            "wra",
            "--input",
            str(workdir / "fig2.trace"),
            "--trace",
            str(steps),
        ]
    )
    assert steps.read_text().rstrip().endswith("updates 2")


def test_check_trace_on_multi_writer_input(workdir, capsys):
    # the oracle keeps no solver trace: the check says so and writes none
    trace = workdir / "two-writers.trace"
    trace.write_text("thread t1\nw x 1\nthread t2\nw x 2\nr x 1\n")
    steps = workdir / "steps.txt"
    code = main(["check", "--model", "wra", "--input", str(trace), "--trace", str(steps)])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "multi-writer input: falling back to exponential search",
        "no solver trace for the exponential path",
    ]
    assert not steps.exists()


def test_verify_fixture_witness(workdir, capsys):
    witness = workdir / "w.trace"
    main(
        ["check", "--model", "wra", "--input", str(workdir / "fig2.trace"), "--witness", str(witness)]
    )
    capsys.readouterr()
    code = main(["verify", "--model", "wra", "--input", str(witness)])
    out = capsys.readouterr().out
    assert code == 0
    assert "porf-acyclicity: pass" in out
    assert "weak-read-coherence: pass" in out


def test_verify_requires_annotations(workdir, capsys):
    assert main(["verify", "--model", "wra", "--input", str(workdir / "fig2.trace")]) == 2


def test_verify_staleness_fixture(workdir, capsys):
    g, rf = fx.stale_read_via_hb()
    path = workdir / "stale.trace"
    path.write_text(serialize_trace(TraceDocument(g, rf)))
    code = main(["verify", "--model", "wra", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "weak-read-coherence: FAIL" in out


def test_verify_checks_each_axiom_once(workdir, capsys, monkeypatch):
    # verify runs each axiom through the per-axiom check on its shared hb
    # index, not through the public check_axiom
    calls = []
    check_axiom = axioms._check_axiom

    def counted(g, rf, mo, ax, hb):
        calls.append(ax)
        return check_axiom(g, rf, mo, ax, hb)

    monkeypatch.setattr(axioms, "_check_axiom", counted)
    g, rf = fx.stale_read_via_hb()
    path = workdir / "stale.trace"
    path.write_text(serialize_trace(TraceDocument(g, rf)))
    code = main(["verify", "--model", "cm", "--input", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert calls == axioms.axioms_for(MemoryModel.CM)
    # the report covers the axioms after the first failure too
    assert lines[:2] == ["porf-acyclicity: pass", "weak-read-coherence: FAIL"]
    assert lines[2].startswith("ob-acyclicity: ")
    assert lines[3] == "INCONSISTENT weak-read-coherence"


def test_verify_numbers_its_witnesses_once(workdir, capsys, monkeypatch):
    # the parse validates and numbers rf and mo, and `racheck verify` hands
    # its numbers to the axiom checks: nothing numbers or checks them again
    calls = []

    def counting(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)

        return counted

    for name in ("number_rf", "number_mo"):
        f = getattr(sys.modules["racheck.model"], name)
        for module in [m for n, m in sys.modules.items() if n.startswith("racheck")]:
            if getattr(module, name, None) is f:
                monkeypatch.setattr(module, name, counting(name, f))
    monkeypatch.setattr(
        ReadsFrom, "_check_domain", counting("_check_domain", ReadsFrom._check_domain)
    )
    g = fx.single_writer_consistent()
    verdict, _ = solve(g, MemoryModel.SRA)
    doc = TraceDocument(g, verdict.rf, verdict.mo)
    assert doc.rf is not None and doc.mo is not None
    path = workdir / "witness.trace"
    path.write_text(serialize_trace(doc))
    for model in ("sra", "ra", "wra", "rlx", "rlx-acyclic", "cm"):
        assert main(["verify", "--model", model, "--input", str(path)]) == 0
    assert calls == []
    # the counters count: the public verify numbers its witnesses itself
    assert verify(g, doc.rf, doc.mo, MemoryModel.RA).is_consistent
    assert calls == ["_check_domain", "number_rf", "number_mo"]


VERIFY_BASE = """thread t1
w x 1
w x 2
r y 1
thread t2
w y 1
r x 1
r x 2
"""
VERIFY_RF = ["rf t1:0 t2:1", "rf t1:1 t2:2", "rf t2:0 t1:2"]
VERIFY_MO = ["mo x t1:0 t1:1", "mo y t2:0"]
VERIFY_CASES = {
    "as given": VERIFY_RF + VERIFY_MO,
    "non-canonical ids": [
        "rf t1:00 t2:+1", "rf t1:+1 t2:02", *VERIFY_RF[2:], "mo x t1:00 t1:+1", "mo y t2:+0"
    ],
    "unknown index": ["rf t1:9 t2:1", *VERIFY_RF[1:], *VERIFY_MO],
    "negative index": ["rf t1:-1 t2:1", *VERIFY_RF[1:], *VERIFY_MO],
    "20-digit index": ["rf t1:99999999999999999999 t2:1", *VERIFY_RF[1:], *VERIFY_MO],
    "malformed id": ["rf t1 t2:1", *VERIFY_RF[1:], *VERIFY_MO],
    "read without rf": VERIFY_RF[:2] + VERIFY_MO,
    "location without mo": VERIFY_RF + VERIFY_MO[:1],
    "no mo": VERIFY_RF,
    "write listed twice": VERIFY_RF + ["mo x t1:0 t1:00", VERIFY_MO[1]],
    "mo against po": VERIFY_RF + ["mo x t1:1 t1:0", VERIFY_MO[1]],
}


@pytest.mark.parametrize("model", ["ra", "wra"])
@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_matches_the_public_verify(tmp_path, capsys, monkeypatch, model, case):
    # exit code, stdout and stderr are those of the public verify on
    # parse_trace's document
    path = tmp_path / "in.trace"
    path.write_text(VERIFY_BASE + "\n".join(VERIFY_CASES[case]) + "\n")
    argv = ["verify", "--model", model, "--input", str(path)]
    got = main(argv), *capsys.readouterr()
    monkeypatch.setattr(cli, "_parse", lambda text: (parse_trace(text), None, None))
    monkeypatch.setattr(
        cli, "_verify", lambda g, rf, mo, _src, _mo, m, report: verify(g, rf, mo, m, report)
    )
    assert got == (main(argv), *capsys.readouterr())


def test_verify_mo_cycle_fixture_models_differ(workdir, capsys):
    # a write-only trace carries no rf lines; verify treats that as the
    # (vacuously total) empty rf
    g, _, mo = fx.cross_location_mo_cycle()
    path = workdir / "weird.trace"
    path.write_text(serialize_trace(TraceDocument(g, None, mo)))
    assert main(["verify", "--model", "ra", "--input", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--model", "sra", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert "strong-write-coherence: FAIL" in out


def test_reduce_and_check_pipeline(workdir, capsys):
    out_trace = workdir / "phi3w.trace"
    assert (
        main(["reduce", "cnf3w", "--input", str(workdir / "phi.cnf"), "--output", str(out_trace)])
        == 0
    )
    capsys.readouterr()
    for model in ("sra", "ra", "wra"):
        assert main(["check", "--model", model, "--input", str(out_trace)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "CONSISTENT"


def test_reduce_output_to_stdout(workdir, capsys):
    out_trace = workdir / "phi3w.trace"
    argv = ["reduce", "cnf3w", "--input", str(workdir / "phi.cnf"), "--output"]
    assert main(argv + [str(out_trace)]) == 0
    assert main(argv + ["-"]) == 0
    assert capsys.readouterr().out == out_trace.read_text()


def test_reduce_twowriter_profile(workdir, capsys):
    out_trace = workdir / "phi2w.trace"
    main(["reduce", "cnf2w", "--input", str(workdir / "phi.cnf"), "--output", str(out_trace)])
    from racheck import max_writers

    doc = parse_trace(out_trace.read_text())
    assert max_writers(doc.graph) == 2


def test_reduce_triangle_embeds_forced_rf(workdir, capsys):
    out_trace = workdir / "k3.trace"
    main(["reduce", "triangle", "--input", str(workdir / "k3.edges"), "--output", str(out_trace)])
    doc = parse_trace(out_trace.read_text())
    assert doc.rf is not None
    assert len(doc.rf.mapping) == len(doc.graph.reads)
    capsys.readouterr()
    assert main(["check", "--model", "wra", "--input", str(out_trace)]) == 1
    assert "INCONSISTENT weak-read-coherence" in capsys.readouterr().out


def test_reduce_rejects_bad_input(workdir, capsys):
    bad = workdir / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 2 0\n")
    assert main(["reduce", "cnf3w", "--input", str(bad), "--output", "-"]) == 2
    loop = workdir / "loop.edges"
    loop.write_text("2\n1 1\n")
    assert main(["reduce", "triangle", "--input", str(loop), "--output", "-"]) == 2


def test_input_errors_exit_2_without_traceback(workdir, capsys):
    header = workdir / "negative.cnf"
    header.write_text("p cnf -1 0\n")
    assert main(["reduce", "cnf3w", "--input", str(header), "--output", "-"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    for flag in ("--threads", "--locations"):
        argv = ["fuzz", flag, "0", "--events", "5", "--failure-dir", str(workdir / "f")]
        assert main(argv) == 2, flag
        assert capsys.readouterr().err.startswith("error:"), flag


def test_oracle_all_rf(workdir, capsys):
    code = main(
        ["oracle", "--model", "wra", "--input", str(workdir / "fig2.trace"), "--all-rf"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "consistent rf count: 1" in out
    assert "t3:1<-t1:3" in out


def _count_searches(monkeypatch) -> list:
    """Patch the oracle to record each `_Search` it builds."""
    built = []

    class Counted(oracle._Search):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(oracle, "_Search", Counted)
    return built


def test_oracle_all_rf_skips_search_when_inconsistent(workdir, capsys, monkeypatch):
    # an inconsistent verdict has exhausted the search, so no second one runs
    built = _count_searches(monkeypatch)
    code = main(["oracle", "--model", "wra", "--input", str(workdir / "fig3.trace"), "--all-rf"])
    out = capsys.readouterr().out
    assert code == 1
    assert len(built) == 1
    assert out.startswith("INCONSISTENT ")
    assert out.endswith("consistent rf count: 0\n")


def test_oracle_all_rf_runs_one_search(tmp_path, capsys, monkeypatch):
    # the verdict's witness and every rf come from one search, in its order
    g = build_graph(
        [
            ("t1", [("w", "x", 1), ("r", "x", 2), ("w", "y", 1)]),
            ("t2", [("w", "x", 2), ("r", "x", 1), ("r", "y", 1)]),
            ("t3", [("w", "x", 1), ("r", "x", 1)]),
        ]
    )
    trace = tmp_path / "in.trace"
    trace.write_text(serialize_trace(TraceDocument(g)))
    built = _count_searches(monkeypatch)
    assert main(["oracle", "--model", "wra", "--input", str(trace), "--all-rf"]) == 0
    assert len(built) == 1
    rfs = oracle.all_consistent_rfs(g, MemoryModel.WRA)
    assert len(rfs) > 1
    expected = [f"consistent rf count: {len(rfs)}"]
    expected += ["rf: " + " ".join(f"{r}<-{w}" for r, w in rf.items()) for rf in rfs]
    assert capsys.readouterr().out.splitlines() == ["CONSISTENT", *expected]


def test_oracle_budget_exit(workdir, capsys):
    code = main(["oracle", "--model", "wra", "--input", str(workdir / "over-gate.trace")])
    assert code == 3
    assert "max_events" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["sra", "ra", "wra", "rlx", "rlx-acyclic", "cm"])
def test_check_decides_at_the_gate(tmp_path, capsys, model):
    # two writers route `check` to the oracle, whose search takes one
    # frame per read: the gate leaves room for it within pytest's stack
    trace = tmp_path / "gate.trace"
    trace.write_text(_gate_trace(oracle._MAX_EVENTS))
    assert main(["check", "--model", model, "--input", str(trace)]) == 0
    captured = capsys.readouterr()
    assert "falling back to exponential search" in captured.err
    assert captured.out == "CONSISTENT\n"
    trace.write_text(_gate_trace(oracle._MAX_EVENTS + 1))
    assert main(["check", "--model", model, "--input", str(trace)]) == 3
    assert "max_events" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["cnf3w", "cnf2w"])
@pytest.mark.parametrize("num_vars, num_clauses, sat", [(7, 21, True), (6, 36, False)])
def test_check_decides_gadgets_over_128_events(tmp_path, capsys, kind, num_vars, num_clauses, sat):
    clauses = gen.random_formula(random.Random(7), num_vars, num_clauses)
    assert gen.satisfiable(num_vars, clauses) is sat
    phi, gadget, witness = tmp_path / "phi.cnf", tmp_path / "gadget.trace", tmp_path / "w.trace"
    phi.write_text(gen.dimacs(num_vars, clauses))
    assert main(["reduce", kind, "--input", str(phi), "--output", str(gadget)]) == 0
    assert parse_trace(gadget.read_text()).graph.num_events > 128
    argv = ["check", "--model", "ra", "--input", str(gadget), "--witness", str(witness)]
    if sat:
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["verify", "--model", "ra", "--input", str(witness)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "CONSISTENT"
    else:
        assert main(argv) == 1
        assert capsys.readouterr().out == "INCONSISTENT exhausted\n"
        assert not witness.exists()


def test_oracle_on_gadget(workdir, capsys):
    out_trace = workdir / "phi3w.trace"
    main(["reduce", "cnf3w", "--input", str(workdir / "phi.cnf"), "--output", str(out_trace)])
    capsys.readouterr()
    assert main(["oracle", "--model", "wra", "--input", str(out_trace)]) == 0


def test_fuzz_clean_and_deterministic(workdir, capsys):
    argv = [
        "fuzz",
        "--seed",
        "7",
        "--cases",
        "25",
        "--events",
        "10",
        "--writers",
        "1",
        "--models",
        "all",
        "--failure-dir",
        str(workdir / "failures"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.rstrip().endswith("cases=25 failures=0")


def test_fuzz_zero_cases(workdir, capsys):
    assert main(["fuzz", "--cases", "0"]) == 0
    assert "cases=0 failures=0" in capsys.readouterr().out


def test_fuzz_rejects_unknown_model(workdir, capsys):
    assert main(["fuzz", "--models", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["fuzz", "--models", ","]) == 2
    assert capsys.readouterr().err == "empty model list\n"


def test_stdin_input(workdir, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(FIG2))
    assert main(["check", "--model", "wra", "--input", "-"]) == 0


def test_check_and_oracle_agree_on_fixtures(workdir, capsys):
    for name in ("fig2.trace", "fig3.trace"):
        for model in ("sra", "ra", "wra", "rlx", "rlx-acyclic", "cc", "cm", "ccv"):
            a = main(["check", "--model", model, "--input", str(workdir / name)])
            b = main(["oracle", "--model", model, "--input", str(workdir / name)])
            assert a == b
    capsys.readouterr()


@pytest.mark.parametrize("model", ["sra", "ra", "rlx", "rlx-acyclic"])
@pytest.mark.parametrize("text", ["thread t1\n", ""])
def test_write_free_witness_round_trip(tmp_path, capsys, model, text):
    # a graph without writes has the empty mo, so its witness has no mo line
    trace, witness = tmp_path / "in.trace", tmp_path / "witness.trace"
    trace.write_text(text)
    assert main(["check", "--model", model, "--input", str(trace), "--witness", str(witness)]) == 0
    assert witness.read_text() == text
    capsys.readouterr()
    assert main(["verify", "--model", model, "--input", str(witness)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "CONSISTENT"


def test_max_events_is_not_an_option(workdir, capsys):
    # the oracle's input gate is fixed: the flag is a usage error
    fig2 = ["oracle", "--model", "wra", "--input", str(workdir / "fig2.trace")]
    for value in ("5000", "0"):
        assert main(fig2 + ["--max-events", value]) == 2
        assert f"unrecognized arguments: --max-events {value}" in capsys.readouterr().err
    assert "--max-events" not in build_parser.__wrapped__().format_help()


@pytest.mark.parametrize("flag, value", [("--cases", "-1"), ("--events", "-5")])
def test_fuzz_counts_must_not_be_negative(workdir, capsys, flag, value):
    argv = ["fuzz", flag, value, "--failure-dir", str(workdir / "f")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {value} is negative" in err
    assert not (workdir / "f").exists()


def test_readme_usage_matches_the_parser():
    # every --flag on a `racheck <command>` line of the README's CLI block
    # is an option of that subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    subcommands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    usages = [line.split("#", 1)[0].split() for line in block.splitlines()]
    usages = [words for words in usages if words[:1] == ["racheck"]]
    assert {words[1] for words in usages} == set(subcommands)
    for words in usages:
        options = {s for action in subcommands[words[1]]._actions for s in action.option_strings}
        flags = {word.strip("[]") for word in words if word.strip("[]").startswith("--")}
        assert flags <= options, (words[1], flags - options)
