"""Benchmark for `racheck check` and `racheck verify`.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload onewriter-check --seed 1 --seconds 20 --trace 0

One workload runs per process, from a single caller in a closed loop:
each op is one in-process call of `racheck.cli.main` with the input on
stdin, and the next op starts when it returns.  The run repeats whole
rounds of the workload's ops until `--seconds` have passed, checks every
output (see checks.py) and prints one JSON object as its last line.

With `--trace 0` the object holds the end-to-end metrics.  With
`--trace 1` the run alternates untraced and traced passes (a pass is the
set-up work plus one round; a traced one has spans at every call into a
layer) until `--seconds` have passed, and reports the per-layer metrics
as medians (the lower one of an even count) over the traced passes.  The spans of the first traced pass,
and the cost of tracing, are written to bench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
AXIOMS = (
    "porf-acyclicity",
    "write-coherence",
    "read-coherence",
    "strong-write-coherence",
    "weak-read-coherence",
    "relaxed-write-coherence",
    "relaxed-read-coherence",
    "ob-acyclicity",
)
LAYER_TIMES = {
    "traceio.parse_trace_s": "traceio.parse_trace",
    "traceio.serialize_trace_s": "traceio.serialize_trace",
    "model.build_graph_s": "model.build_graph",
    "solver.solve_s": "solver.solve",
    "oracle.oracle_consistent_s": "oracle.oracle_consistent",
    "oracle.first_mo_s": "oracle.first_mo",
    "axioms.verify_s": "axioms.verify",
    "axioms.check_axiom_s": "axioms.check_axiom",
    "reductions.gadget_s": "reductions.gadget",
}
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import racheck.cli; print(time.perf_counter() - t)"
)


class Tracer:
    """In-memory spans around calls into racheck's layers.

    A span is [name, parent index, start, end, detail].  `install` wraps
    the names that racheck's modules look up at call time, so the CLI's
    own calls (and verify's calls of check_axiom) are traced without
    touching racheck's source.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.originals: list[tuple] = []

    @contextmanager
    def span(self, name: str, detail: str | None = None):
        rec = [name, self.stack[-1] if self.stack else None, 0.0, 0.0, detail]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, module, attr: str, name: str, after=None, detail=None) -> None:
        orig = getattr(module, attr, None)
        if orig is None:  # the name left the module: its metric reads 0
            return

        def traced(*args, **kwargs):
            with self.span(name, detail(*args, **kwargs) if detail else None):
                result = orig(*args, **kwargs)
            if after:
                after(result)
            return result

        self.originals.append((module, attr, orig))
        setattr(module, attr, traced)

    def install(self) -> None:
        from racheck import axioms, cli, oracle, traceio
        from racheck.oracle import BudgetExceeded

        def axiom_of(g, rf, mo, ax):
            return ax.value

        def repairs(result):
            self.counts["solver.repairs"] += result[1].update_count

        def counted_oracle(*args, **kwargs):
            try:
                return oracle_consistent(*args, **kwargs)
            except BudgetExceeded:
                self.counts["oracle.budget_exceeded"] += 1
                raise

        oracle_consistent = cli.oracle_consistent
        self.originals.append((cli, "oracle_consistent", oracle_consistent))
        cli.oracle_consistent = counted_oracle
        self._wrap(cli, "parse_trace", "traceio.parse_trace")
        self._wrap(cli, "serialize_trace", "traceio.serialize_trace")
        self._wrap(traceio, "build_graph", "model.build_graph")
        self._wrap(cli, "solve", "solver.solve", after=repairs)
        self._wrap(cli, "oracle_consistent", "oracle.oracle_consistent")
        self._wrap(oracle, "_first_mo", "oracle.first_mo")
        self._wrap(cli, "verify", "axioms.verify")
        for module in (axioms, cli, oracle):
            self._wrap(module, "check_axiom", "axioms.check_axiom", detail=axiom_of)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self.originals):
            setattr(module, attr, orig)
        self.originals.clear()

    def summary(self, first: int) -> dict[str, float]:
        """Per-layer totals over the spans from index `first` on, and the
        counters since they were last cleared."""
        spans = self.spans[first:]
        busy: Counter = Counter()
        child: Counter = Counter()
        for name, parent, t0, t1, detail in spans:
            busy[name] += t1 - t0
            if detail is not None:
                busy[f"{name}.{detail}"] += t1 - t0
            if parent is not None and parent >= first:
                child[parent] += t1 - t0
        out = {metric: float(busy[name]) for metric, name in LAYER_TIMES.items()}
        for ax in AXIOMS:
            out[f"axioms.check_axiom.{ax}_s"] = float(busy[f"axioms.check_axiom.{ax}"])
        out["axioms.check_axiom_calls"] = sum(1 for s in spans if s[0] == "axioms.check_axiom")
        for name in ("solver.repairs", "oracle.budget_exceeded"):
            out[name] = self.counts[name]
        out["cli.self_s"] = sum(
            s[3] - s[2] - child[first + k] for k, s in enumerate(spans) if s[0] == "cli.main"
        )
        return out


def import_racheck():
    if not (SRC / "racheck" / "__init__.py").is_file():
        sys.exit(f"error: no racheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import racheck.cli

    return racheck.cli


def time_import() -> float:
    """Seconds to import racheck.cli in a fresh interpreter (median)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def call(main, op, tracer: Tracer | None):
    """One op: returns (exit code or None on an exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.input.text), out, err
    timed = tracer.span("cli.main") if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with timed:
            code = main(op.argv)
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        dt = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue(), dt


class Results:
    """Every op execution of the run, and the first output of each op."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.times: list[float] = []
        self.codes: list[int | None] = []
        self.first: dict[int, tuple[int | None, str, str]] = {}
        self.changed: set[int] = set()  # ops whose output differed between rounds

    def round(self, main, tracer: Tracer | None = None) -> float:
        t0 = time.perf_counter()
        for i, op in enumerate(self.ops):
            code, out, err, dt = call(main, op, tracer)
            self.times.append(dt)
            self.codes.append(code)
            if i not in self.first:
                self.first[i] = (code, out, err)
            elif self.first[i][:2] != (code, out):
                self.changed.add(i)
        return time.perf_counter() - t0


def end_to_end(results: Results, n: int) -> dict[str, float]:
    """Throughput and op-time quantiles, as medians over the run's rounds.

    A burst of load on the host slows one round, not the median.  Each op's
    time is the median of its calls over the rounds; a failed call counts
    as slower than every verdict.  Quantiles are nearest-rank over the ops.
    """
    rounds = len(results.times) // n
    per_round = [range(r * n, (r + 1) * n) for r in range(rounds)]
    decided = [c in (0, 1) for c in results.codes]
    throughput = [sum(decided[k] for k in ks) / sum(results.times[k] for k in ks) for ks in per_round]
    per_op = sorted(
        statistics.median(results.times[r * n + i] if decided[r * n + i] else math.inf for r in range(rounds))
        for i in range(n)
    )

    def quantile(q: float) -> float:
        return per_op[max(0, math.ceil(q * n) - 1)]

    return {
        "verdicts_per_s": statistics.median(throughput),
        "verdict_p50_s": quantile(0.5),
        "verdict_p90_s": quantile(0.9),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["onewriter-check", "multiwriter-check", "verify-annotated"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    cli = import_racheck()
    import checks
    import workloads

    inputs = workloads.build(args.workload, args.seed)
    passes = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.prepare(inputs, lambda name: nullcontext())
        passes.append(time.perf_counter() - t0)
    setup_s = time_import() + statistics.median(passes)

    results = Results(ops)
    t_start = time.perf_counter()
    layers = []
    if args.trace:
        # Untraced and traced passes alternate, so that the host's drift
        # hits both sides of the tracing-cost estimate alike.
        tracer = Tracer()
        untraced, traced = [], []
        while not traced or time.perf_counter() - t_start < args.seconds:
            t0 = time.perf_counter()
            workloads.prepare(inputs, lambda name: nullcontext())
            results.round(cli.main)
            untraced.append(time.perf_counter() - t0)
            first = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
            t0 = time.perf_counter()
            workloads.prepare(inputs, tracer.span)
            results.round(cli.main, tracer)
            traced.append(time.perf_counter() - t0)
            tracer.uninstall()
            layers.append(tracer.summary(first))
            if len(layers) == 1:
                first_pass = tracer.spans[:]
    else:
        while not results.times or time.perf_counter() - t_start < args.seconds:
            results.round(cli.main)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong: dict[int, str] = {i: "output changed between rounds" for i in results.changed}
    known_failures = set()
    for i, (code, out, err) in sorted(results.first.items()):
        op = ops[i]
        if checks.is_known_failure(op, code, err):
            known_failures.add(i)
            continue
        try:
            checks.check(op, code, out)
        except checks.CheckFailed as exc:
            wrong[i] = f"{exc} ({err.strip()[-200:]})"
    checked = {i: v[:2] for i, v in results.first.items() if i not in known_failures and i not in wrong}
    missed = checks.self_test(ops, checked)
    for i, why in sorted(wrong.items()):
        print(f"wrong output: {ops[i].label}: {why}", file=sys.stderr)
    for what in missed:
        print(f"self-test: check did not flag {what}", file=sys.stderr)

    n = len(ops)
    attempted = len(results.times)
    failed = sum(
        1 for k, code in enumerate(results.codes) if code not in (0, 1) or k % n in wrong
    )
    correct = not wrong and not missed and all(
        code in (0, 1) or k % n in known_failures for k, code in enumerate(results.codes)
    )

    if args.trace:
        metrics = {
            name: {"value": statistics.median_low(p[name] for p in layers), "unit": "s" if name.endswith("_s") else "count"}
            for name in layers[0]
        }
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "untraced_pass_s": untraced,
                    "traced_pass_s": traced,
                    "tracing_overhead": overhead,
                    "spans": [dict(zip(("name", "parent", "start", "end", "detail"), s)) for s in first_pass],
                }
            )
        )
        print(f"traced passes {len(layers)}, tracing overhead {overhead:+.1%}, spans in {spans_path}", file=sys.stderr)
    else:
        units = {"verdicts_per_s": "1/s", "verdict_p50_s": "s", "verdict_p90_s": "s"}
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update({name: {"value": v, "unit": units[name]} for name, v in end_to_end(results, n).items()})
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(f"{attempted} ops in {attempted // n} rounds of {n}, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
