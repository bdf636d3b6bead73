"""The three workloads: which inputs each one runs, under which models,
and the verdict each op must reach.

A workload seed fixes every generated input.  Only the write-heavy
inputs of `multiwriter-check` are fixed apart from the seed: they are the
ops that fail today (the oracle's mo budget), and a failure that depends
on the seed would make the failed share differ between runs.

`prepare` is the program-side set-up that `setup_s` times: it builds the
gadgets with `racheck.reductions` and parses every input once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import gen
from gen import MODELS, Execution, GenParams

RA_FAMILY = ("sra", "ra", "wra")
MO_MODELS = ("sra", "ra", "rlx", "rlx-acyclic")  # models whose axioms read mo

# Fixed write-heavy inputs: 16 events, three writer threads, one location
# with 8 or more writes.  Each exhausts the oracle's max_mo_permutations
# under every model of MO_MODELS (the first four such generator seeds).
WRITE_HEAVY_SEEDS = (0, 4, 7, 8)


@dataclass
class Input:
    name: str
    command: str  # "check" or "verify"
    # model -> whether the verdict under that model is "consistent"
    expect: dict[str, bool]
    text: str | None = None  # the trace; None for a gadget until prepared
    gadget: tuple[str, str] | None = None  # (reduce kind, DIMACS text)
    execution: Execution | None = None  # the generator's run, whose rf bounds the witness
    budget_ok: bool = False  # exit 3 on max_mo_permutations is the known fault


@dataclass
class Op:
    """One CLI call: an input under one model."""

    input: Input
    model: str
    graph: object = None  # the parsed graph, filled by prepare
    argv: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.input.name}/{self.model}"


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1 << 32)


def _recent(writers: int) -> int:
    """With several writers per location a release-acquire run can break
    causal memory's observed-order axiom, so multi-writer runs read the
    newest message only: they are then sequentially consistent, and
    consistent under all six models."""
    return 2 if writers == 1 else 1


def _all(consistent: bool) -> dict[str, bool]:
    return {m: consistent for m in MODELS}


def _pair(k: int, expect: dict[str, bool]) -> dict[str, bool]:
    """Input k runs under two of the six models, in turn (sra, rlx),
    (ra, rlx-acyclic), (wra, cm): every op is then a different input for
    the price of two, which steadies quantiles of op time."""
    return {m: expect[m] for m in (MODELS[k % 3], MODELS[k % 3 + 3])}


def sizes(count: int, lo: int, hi: int, power: float) -> list[int]:
    """`count` event counts from `lo` to `hi`, denser towards `lo`.  Op
    times then spread without gaps, so a quantile of them does not jump
    when noise swaps two ops, and most of them rest on small inputs."""
    return [lo + round((hi - lo) * (k / (count - 1)) ** power) for k in range(count)]


ONEWRITER_SIZES = sizes(48, 100, 300, 1.5)


def _onewriter(seed: int) -> list[Input]:
    seeds = _seeds("onewriter-check", seed)
    out: list[Input] = []
    base: list[Execution] = []
    for k, n in enumerate(ONEWRITER_SIZES):
        ex = gen.generate(GenParams(next(seeds), 4, 8, n, 3, 1))
        base.append(ex)
        out.append(Input(f"sync{k}-n{n}", "check", _pair(k, _all(True)), gen.render(ex), execution=ex))
    # scaling shape, each size under one RA-family model and one relaxed one
    for n, models in ((250, ("wra", "cm")), (500, ("sra", "rlx-acyclic")), (1000, ("ra", "rlx"))):
        out.append(Input(f"scaling-n{n}", "check", {m: True for m in models}, gen.render(gen.scaling(n))))
    read_cycle = _all(False)
    read_cycle["rlx"] = True
    # Enough cheap, early-stopping ops that the median op time falls
    # among them, where op times rise slowly with rank, rather than at the
    # step up to the RA-family solves.
    for k, ex in enumerate(base[:18]):
        stale = gen.stale_pair(ex, next(seeds))
        out.append(Input(f"stale-pair{k}", "check", _pair(k, _all(False)), gen.render(stale)))
        cycle = gen.read_cycle(ex, next(seeds))
        out.append(Input(f"read-cycle{k}", "check", _pair(k, read_cycle), gen.render(cycle)))
    return out


def _small_multiwriter(s: int, n: int, writers: int) -> Execution:
    """A generated sequentially consistent execution (see `_recent`) of `n`
    events that has a location with two or more writer threads and no
    location with more than four writes (the oracle's mo search must stay
    inside its budget on every seed)."""
    rng = random.Random(s)
    while True:
        ex = gen.generate(GenParams(rng.randrange(1 << 32), 3, 4, n, 3, writers, recent=1))
        if ex.max_writers() >= 2 and max(len(o) for o in ex.mo.values()) <= 4:
            return ex


def _multiwriter(seed: int) -> list[Input]:
    seeds = _seeds("multiwriter-check", seed)
    out: list[Input] = []
    formulas = []
    rng = random.Random(next(seeds))
    while len(formulas) < 12:
        clauses = gen.random_formula(rng, 3, 3)
        if gen.satisfiable(3, clauses):
            formulas.append((3, clauses))
    # The oracle's cost on an unsatisfiable cnf2w-rlx gadget under
    # rlx-acyclic depends some 30-fold on the slot of b's literal, and
    # hardly on the clause order: so every round has each (a, b, slot)
    # layout twice, and the seed orders the clauses.
    formulas += [
        (2, gen.unsat_formula(rng, a, b, pos)) for a, b in ((1, 2), (2, 1)) for pos in range(3) for _ in range(2)
    ]
    for i, (k, clauses) in enumerate(formulas):
        sat = gen.satisfiable(k, clauses)
        tag = "sat" if sat else "unsat"
        text = gen.dimacs(k, clauses)
        for kind in ("cnf3w", "cnf2w"):
            out.append(Input(f"{kind}-{tag}{i}", "check", {m: sat for m in RA_FAMILY}, gadget=(kind, text)))
        # Under rlx the gadget is consistent for every formula: both rlx
        # axioms relate events of one location, and every per-location
        # restriction of this gadget is consistent.
        expect = {"rlx-acyclic": sat, "rlx": True}
        out.append(Input(f"cnf2w-rlx-{tag}{i}", "check", expect, gadget=("cnf2w-rlx", text)))
    for i in range(144):
        n = 12 + (i % 5) * 2
        ex = _small_multiwriter(next(seeds), n, 2 + i % 2)
        out.append(Input(f"mw{i}-n{n}-w{2 + i % 2}", "check", _pair(i, _all(True)), gen.render(ex)))
    for s in WRITE_HEAVY_SEEDS:
        ex = gen.generate(GenParams(s, 3, 1, 16, 3, 3, write_share=0.6))
        out.append(
            Input(f"write-heavy{s}", "check", {m: True for m in MO_MODELS}, gen.render(ex), budget_ok=True)
        )
    return out


VERIFY_SIZES = {1: sizes(18, 100, 300, 3), 2: sizes(18, 100, 250, 3)}


def _verify(seed: int) -> list[Input]:
    seeds = _seeds("verify-annotated", seed)
    out: list[Input] = []
    for writers, ns in VERIFY_SIZES.items():
        for k, n in enumerate(ns):
            ex = gen.generate(GenParams(next(seeds), 6, 12, n, 3, writers, recent=_recent(writers)))
            out.append(Input(f"witness-w{writers}-{k}-n{n}", "verify", _pair(k, _all(True)), gen.render(ex, True)))
    mo_swap = {m: m not in MO_MODELS for m in MODELS}
    for writers, ns in VERIFY_SIZES.items():
        for k, n in enumerate(ns[:6]):
            # the first execution from this seed's stream that has both
            # mutation points
            while True:
                ex = gen.generate(GenParams(next(seeds), 6, 12, n, 3, writers, recent=_recent(writers)))
                stale, swapped = gen.stale_rf(ex, next(seeds)), gen.mo_swap(ex, next(seeds))
                if stale is not None and swapped is not None:
                    break
            name = f"w{writers}-{k}-n{n}"
            out.append(Input(f"stale-rf-{name}", "verify", _pair(k, _all(False)), gen.render(stale, True)))
            out.append(Input(f"mo-swap-{name}", "verify", _pair(k, mo_swap), gen.render(swapped, True)))
    return out


WORKLOADS = {
    "onewriter-check": _onewriter,
    "multiwriter-check": _multiwriter,
    "verify-annotated": _verify,
}


def build(workload: str, seed: int) -> list[Input]:
    return WORKLOADS[workload](seed)


def prepare(inputs: list[Input], span) -> list[Op]:
    """Build the gadgets and parse every input once; return one round of
    ops.  `span(name)` is a context manager that times a layer call."""
    from racheck import cli, reductions

    makers = {
        "cnf3w": reductions.cnf_to_threewriter,
        "cnf2w": reductions.cnf_to_twowriter,
        "cnf2w-rlx": reductions.cnf_to_twowriter_relaxed,
    }
    ops: list[Op] = []
    for inp in inputs:
        if inp.gadget is not None:
            kind, dimacs = inp.gadget
            with span("reductions.gadget"):
                graph = makers[kind](cli.parse_dimacs(dimacs))
            inp.text = cli.serialize_trace(cli.TraceDocument(graph))
        graph = cli.parse_trace(inp.text).graph
        for model, _ in sorted(inp.expect.items(), key=lambda kv: MODELS.index(kv[0])):
            argv = [inp.command, "--model", model, "--input", "-"]
            if inp.command == "check":
                argv += ["--witness", "-"]
            ops.append(Op(inp, model, graph, argv))
    return ops
