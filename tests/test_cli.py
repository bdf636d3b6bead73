from __future__ import annotations

import pytest

from racheck import axioms, cli, solve, verify
from racheck.cli import build_parser, main
from racheck.model import MemoryModel
from racheck.traceio import parse_trace, serialize_trace, TraceDocument

import fixtures as fx

FIG2 = serialize_trace(TraceDocument(fx.single_writer_consistent()))
FIG3 = serialize_trace(TraceDocument(fx.single_writer_porf_cyclic()))
K3_EDGES = "3\n1 2\n2 3\n1 3\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "fig2.trace").write_text(FIG2)
    (tmp_path / "fig3.trace").write_text(FIG3)
    (tmp_path / "phi.cnf").write_text(fx.TWO_CLAUSE_DIMACS)
    (tmp_path / "k3.edges").write_text(K3_EDGES)
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
    assert main(["oracle", "--model", "wra", "--input", fig2, "--max-events", "3"]) == 3
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


def test_oracle_all_rf_skips_search_when_inconsistent(workdir, capsys, monkeypatch):
    # an inconsistent verdict has exhausted the search, so no second one runs
    calls = []
    monkeypatch.setattr(cli, "all_consistent_rfs", lambda *args: calls.append(args) or [])
    code = main(["oracle", "--model", "wra", "--input", str(workdir / "fig3.trace"), "--all-rf"])
    out = capsys.readouterr().out
    assert code == 1
    assert calls == []
    assert out.startswith("INCONSISTENT ")
    assert out.endswith("consistent rf count: 0\n")


def test_oracle_budget_exit(workdir, capsys):
    code = main(
        ["oracle", "--model", "wra", "--input", str(workdir / "fig2.trace"), "--max-events", "3"]
    )
    assert code == 3


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


def test_max_events_must_not_be_negative(workdir, capsys):
    fig2 = ["oracle", "--model", "wra", "--input", str(workdir / "fig2.trace")]
    assert main(fig2 + ["--max-events", "-1"]) == 2
    assert "argument --max-events: -1 is negative" in capsys.readouterr().err
    assert main(fig2 + ["--max-events", "x"]) == 2
    assert "argument --max-events: invalid int value: 'x'" in capsys.readouterr().err
    assert main(fig2 + ["--max-events", "0"]) == 3
    assert "max_events" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--cases", "-1"), ("--events", "-5")])
def test_fuzz_counts_must_not_be_negative(workdir, capsys, flag, value):
    argv = ["fuzz", flag, value, "--failure-dir", str(workdir / "f")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: {value} is negative" in err
    assert not (workdir / "f").exists()
