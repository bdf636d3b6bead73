"""Command-line front end.

Subcommands: check (synthesize witnesses), verify (check given
witnesses), oracle (exhaustive search), reduce (gadget generators),
fuzz (differential sweep).  Exit codes: 0 consistent/success, 1
inconsistent or failing sweep, 2 usage or input error, 3 search budget
exceeded.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .axioms import MissingMo, _verify
from .harness import FuzzParams, InvalidParams, differential_run
from .model import MemoryModel, ModelError, ModificationOrder, ReadsFrom, Verdict, max_writers
from .oracle import DEFAULT_LIMITS, BudgetExceeded, all_consistent_rfs, oracle_consistent
from .reductions import (
    NotThreeCnf,
    SelfLoop,
    cnf_to_threewriter,
    cnf_to_twowriter,
    cnf_to_twowriter_relaxed,
    graph_to_onewriter,
)
from .solver import SolverTrace, solve
from .traceio import (
    ParseError,
    TraceDocument,
    _parse,
    parse_dimacs,
    parse_edgelist,
    parse_trace,
    serialize_trace,
)

EXIT_CONSISTENT = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

MODEL_CHOICES = [m.value for m in MemoryModel]


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _print_verdict(verdict: Verdict) -> None:
    if verdict.is_consistent:
        print("CONSISTENT")
        return
    print(f"INCONSISTENT {verdict.axiom}")
    if verdict.certificate:
        steps = verdict.certificate
        for i, (eid, label) in enumerate(steps):
            target = steps[(i + 1) % len(steps)][0]
            print(f"  {eid} --{label}--> {target}")


def _format_solver_trace(trace: SolverTrace) -> str:
    lines = []
    for i, v in enumerate(trace.iterations):
        via = f" via {v.via_read}" if v.via_read is not None else ""
        lines.append(
            f"update {i + 1}: read {v.read} from {v.write} blocked by {v.blocker}{via}"
            f" -> {v.replacement}"
        )
    lines.append(f"updates {len(trace.iterations)}")
    return "\n".join(lines) + "\n"


def cmd_check(args: argparse.Namespace) -> int:
    model = MemoryModel(args.model)
    doc = parse_trace(_read_input(args.input))
    g = doc.graph
    if max_writers(g) <= 1:
        verdict, trace = solve(g, model)
        if args.trace:
            _write_output(args.trace, _format_solver_trace(trace))
    else:
        print("multi-writer input: falling back to exponential search", file=sys.stderr)
        verdict = oracle_consistent(g, model, DEFAULT_LIMITS)
        if args.trace:
            print("no solver trace for the exponential path", file=sys.stderr)
    _print_verdict(verdict)
    if verdict.is_consistent and args.witness:
        _write_output(args.witness, serialize_trace(TraceDocument(g, verdict.rf, verdict.mo)))
    return EXIT_CONSISTENT if verdict.is_consistent else EXIT_INCONSISTENT


def cmd_verify(args: argparse.Namespace) -> int:
    model = MemoryModel(args.model)
    # the parse validates and numbers rf and mo, and `_verify` reads its numbers
    doc, src, numbered_mo = _parse(_read_input(args.input))
    rf = doc.rf
    if rf is None:
        if doc.graph.reads:
            print("input carries no rf annotations", file=sys.stderr)
            return EXIT_USAGE
        rf = ReadsFrom({})  # a graph without reads has the empty rf
    mo = doc.mo
    if mo is None and not doc.graph.writes_by_var:
        mo = ModificationOrder({})  # and one without writes the empty mo
    report: dict = {}
    verdict = _verify(doc.graph, rf, mo, src, numbered_mo, model, report)
    for ax, cert in report.items():
        print(f"{ax.value}: {'FAIL' if cert else 'pass'}")
    _print_verdict(verdict)
    return EXIT_CONSISTENT if verdict.is_consistent else EXIT_INCONSISTENT


def cmd_oracle(args: argparse.Namespace) -> int:
    model = MemoryModel(args.model)
    doc = parse_trace(_read_input(args.input))
    limits = DEFAULT_LIMITS
    if args.max_events is not None:
        limits = replace(limits, max_events=args.max_events)
    verdict = oracle_consistent(doc.graph, model, limits)
    _print_verdict(verdict)
    if args.all_rf:
        # an inconsistent verdict has exhausted the search: no rf is left
        rfs = all_consistent_rfs(doc.graph, model, limits) if verdict.is_consistent else []
        print(f"consistent rf count: {len(rfs)}")
        for rf in rfs:
            pairs = " ".join(f"{rid}<-{wid}" for rid, wid in rf.items())
            print(f"rf: {pairs}")
    return EXIT_CONSISTENT if verdict.is_consistent else EXIT_INCONSISTENT


def cmd_reduce(args: argparse.Namespace) -> int:
    text = _read_input(args.input)
    if args.kind == "triangle":
        graph, rf = graph_to_onewriter(parse_edgelist(text))
        doc = TraceDocument(graph, rf)
    else:
        formula = parse_dimacs(text)
        generator = {
            "cnf3w": cnf_to_threewriter,
            "cnf2w": cnf_to_twowriter,
            "cnf2w-rlx": cnf_to_twowriter_relaxed,
        }[args.kind]
        doc = TraceDocument(generator(formula))
    _write_output(args.output, serialize_trace(doc))
    return EXIT_CONSISTENT


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.models == "all":
        models = list(MemoryModel)
    else:
        try:
            models = [MemoryModel(name) for name in args.models.split(",") if name]
        except ValueError as exc:
            print(f"unknown model: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not models:
            print("empty model list", file=sys.stderr)
            return EXIT_USAGE
    writer_bound = None if args.writers == "any" else int(args.writers)
    params = FuzzParams(
        seed=args.seed,
        num_threads=args.threads,
        num_locations=args.locations,
        num_events=args.events,
        writer_bound=writer_bound,
    )
    report = differential_run(
        params, models, args.cases, failure_dir=args.failure_dir
    )
    sys.stdout.write(report.render())
    return EXIT_CONSISTENT if not report.failures else EXIT_INCONSISTENT


def _count(text: str) -> int:
    """An argparse type: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call:
    parsing leaves it unchanged, and each call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="racheck",
        description="Consistency testing of execution graphs under "
        "release-acquire, relaxed, and causal memory models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide consistency, synthesizing rf/mo")
    p.add_argument("--model", required=True, choices=MODEL_CHOICES)
    p.add_argument("--input", required=True, help="trace file or - for stdin")
    p.add_argument("--witness", help="write the consistent rf/mo as a trace")
    p.add_argument("--trace", help="write the reads the solver raised, one per line")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="check given rf/mo annotations")
    p.add_argument("--model", required=True, choices=MODEL_CHOICES)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive consistency search")
    p.add_argument("--model", required=True, choices=MODEL_CHOICES)
    p.add_argument("--input", required=True)
    p.add_argument("--all-rf", action="store_true", dest="all_rf")
    p.add_argument("--max-events", type=_count, dest="max_events")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce", help="generate hardness gadgets")
    p.add_argument("kind", choices=["cnf3w", "cnf2w", "cnf2w-rlx", "triangle"])
    p.add_argument("--input", required=True, help="DIMACS CNF or edge list")
    p.add_argument("--output", required=True, help="trace file or - for stdout")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fuzz", help="differential solver-vs-oracle sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_count, default=100)
    p.add_argument("--events", type=_count, default=10)
    p.add_argument("--threads", type=int, default=3)
    p.add_argument("--locations", type=int, default=3)
    p.add_argument("--writers", choices=["1", "2", "3", "any"], default="1")
    p.add_argument("--models", default="all")
    p.add_argument("--failure-dir", default="fuzz-failures")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_CONSISTENT
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        ParseError, NotThreeCnf, SelfLoop, MissingMo, ModelError, InvalidParams, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
