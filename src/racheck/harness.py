"""Randomized graph generation and differential testing.

Generated graphs honor a writer bound by pre-assigning each location a
writer-thread set.  The differential sweep replays every case through
the polynomial solver and the exhaustive oracle, checks the model
hierarchy, and writes self-contained reproducer traces for failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from .axioms import verify
from .model import (
    MemoryModel,
    PartialExecutionGraph,
    Verdict,
    build_graph,
    max_writers,
    rf_leq,
)
from .oracle import DEFAULT_LIMITS, BudgetExceeded, OracleLimits, all_consistent_rfs, oracle_consistent
from .solver import solve
from .traceio import TraceDocument, serialize_trace

PRNG_ID = "python-random-mt19937"


class InvalidParams(Exception):
    pass


@dataclass(frozen=True)
class FuzzParams:
    seed: int
    num_threads: int = 3
    num_locations: int = 3
    num_events: int = 10
    value_range: int = 4  # small domain forces write collisions
    writer_bound: int | None = 1  # None: any thread may write anywhere

    def describe(self) -> str:
        bound = "any" if self.writer_bound is None else str(self.writer_bound)
        return (
            f"seed={self.seed} threads={self.num_threads} locations={self.num_locations} "
            f"events={self.num_events} values=0..{self.value_range - 1} writers={bound}"
        )


def random_graph(params: FuzzParams) -> PartialExecutionGraph:
    """Deterministic random graph; identical params give identical graphs.

    Reads draw their value from the location's already-written values 9
    times out of 10, so unmatched reads stay possible but rare.
    """
    if params.num_events > 0 and params.num_threads <= 0:
        raise InvalidParams("events need at least one thread")
    if params.num_events > 0 and params.num_locations <= 0:
        raise InvalidParams("events need at least one location")
    if params.value_range <= 0:
        raise InvalidParams("empty value range")
    rng = random.Random(params.seed)
    threads = [f"t{i + 1}" for i in range(params.num_threads)]
    locations = [f"x{i + 1}" for i in range(params.num_locations)]
    writer_sets: dict[str, list[str]] = {}
    for loc in locations:
        if params.writer_bound is None:
            writer_sets[loc] = list(threads)
        else:
            bound = min(params.writer_bound, len(threads))
            writer_sets[loc] = sorted(rng.sample(threads, bound))
    writable: dict[str, list[str]] = {t: [] for t in threads}
    for loc in locations:
        for t in writer_sets[loc]:
            writable[t].append(loc)

    ops: dict[str, list[tuple[str, str, int]]] = {t: [] for t in threads}
    written_values: dict[str, list[int]] = {loc: [] for loc in locations}
    for slot in range(params.num_events):
        base = slot % params.num_threads
        if rng.random() < 0.3:
            tid = threads[rng.randrange(params.num_threads)]
        else:
            tid = threads[base]
        can_write = bool(writable[tid])
        if can_write and rng.random() < 0.55:
            loc = rng.choice(writable[tid])
            val = rng.randrange(params.value_range)
            ops[tid].append(("w", loc, val))
            written_values[loc].append(val)
        else:
            populated = [loc for loc in locations if written_values[loc]]
            if populated and rng.random() < 0.92:
                loc = rng.choice(populated)
                val = rng.choice(sorted(set(written_values[loc])))
            else:
                loc = rng.choice(locations)
                val = rng.randrange(params.value_range)
            ops[tid].append(("r", loc, val))
    return build_graph([(t, ops[t]) for t in threads])


@dataclass
class CaseFailure:
    case_index: int
    message: str
    reproducer: str | None = None


@dataclass
class Report:
    params: FuzzParams
    models: list[MemoryModel]
    cases: int = 0
    failures: list[CaseFailure] = field(default_factory=list)
    budget_skips: list[int] = field(default_factory=list)

    def summary(self) -> str:
        return f"cases={self.cases} failures={len(self.failures)}"

    def render(self) -> str:
        lines = [
            f"prng={PRNG_ID} {self.params.describe()}",
            f"models={','.join(m.value for m in self.models)}",
        ]
        for failure in sorted(self.failures, key=lambda f: f.case_index):
            where = f" reproducer={failure.reproducer}" if failure.reproducer else ""
            lines.append(f"case {failure.case_index}: FAIL {failure.message}{where}")
        for idx in self.budget_skips:
            lines.append(f"case {idx}: skipped (oracle budget)")
        lines.append(self.summary())
        return "\n".join(lines) + "\n"


_HIERARCHY = [MemoryModel.SRA, MemoryModel.RA, MemoryModel.WRA]


def differential_run(
    params: FuzzParams,
    models: list[MemoryModel],
    count: int,
    failure_dir: str | Path | None = None,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> Report:
    """Drive `count` random cases through solver-vs-oracle agreement,
    minimality, hierarchy monotonicity, and the causal-memory coincidence.

    Budget blowups are recorded per case and do not abort the sweep.
    """
    report = Report(params=params, models=list(models))
    for case in range(count):
        report.cases += 1
        g = random_graph(replace(params, seed=params.seed + case))
        single_writer = max_writers(g) <= 1

        def fail(message: str) -> None:
            path = None
            if failure_dir is not None:
                directory = Path(failure_dir)
                directory.mkdir(parents=True, exist_ok=True)
                path = str(directory / f"case_{case}.trace")
                Path(path).write_text(serialize_trace(TraceDocument(g)))
            report.failures.append(CaseFailure(case, message, path))

        try:
            oracle_verdicts: dict[MemoryModel, bool] = {}
            for m in models:
                oracle_verdicts[m] = oracle_consistent(g, m, limits).is_consistent

            solver_verdicts: dict[MemoryModel, Verdict] = {}
            if single_writer:
                for m in models:
                    verdict, _ = solve(g, m)
                    solver_verdicts[m] = verdict
                    if verdict.is_consistent != oracle_verdicts[m]:
                        fail(
                            f"solver/oracle disagree under {m.value}: "
                            f"solver={verdict.is_consistent} oracle={oracle_verdicts[m]}"
                        )
                        continue
                    if verdict.is_consistent:
                        for other in all_consistent_rfs(g, m, limits):
                            if not rf_leq(verdict.rf, other, g):
                                fail(f"solver rf not minimal under {m.value}")
                                break

            for lower, higher in zip(_HIERARCHY, _HIERARCHY[1:]):
                if lower in oracle_verdicts and higher in oracle_verdicts:
                    if oracle_verdicts[lower] and not oracle_verdicts[higher]:
                        fail(f"hierarchy broken: {lower.value} consistent, {higher.value} not")

            if single_writer and MemoryModel.WRA in models and oracle_verdicts[MemoryModel.WRA]:
                verdict = solver_verdicts[MemoryModel.WRA]
                if verdict.is_consistent:
                    cm = verify(g, verdict.rf, verdict.mo, MemoryModel.CM)
                    if not cm.is_consistent:
                        fail("single-writer witness rejected by causal memory")
        except BudgetExceeded:
            report.budget_skips.append(case)
    return report
