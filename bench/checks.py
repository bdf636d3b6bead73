"""Output checks for every op, against answers known apart from racheck.

* The verdict must be the one the input was built to have (see
  `workloads` and `gen`).
* A consistent `check` verdict must carry a witness for the same graph
  that passes `verify` under the queried model; on a generated
  single-writer execution the witness rf must be `rf_leq` the
  generator's rf, because the solver returns the pointwise least coherent
  rf and the generator's rf is coherent.
* An inconsistent verdict's certificate must pass `replay_certificate`:
  for `verify` against the input's own rf/mo, for the solver against the
  rf it ended on, and for the oracle (which certifies only an unmatched
  read) with no rf.
* A `verify` report must list a FAIL exactly for the axiom it names.

`self_test` feeds each check a wrong output and requires it to be
flagged.
"""

from __future__ import annotations

import re
from dataclasses import replace

import gen

from racheck import (
    EventId,
    MemoryModel,
    ReadsFrom,
    derive_mo,
    max_writers,
    parse_trace,
    replay_certificate,
    rf_leq,
    solve,
    verify,
)

EXIT_BUDGET = 3
_CERT_RE = re.compile(r"(\S+) --(\S+)--> (\S+)$", re.MULTILINE)


class CheckFailed(Exception):
    pass


def _eid(token: str) -> EventId:
    thread, _, idx = token.rpartition(":")
    return EventId(thread, int(idx))


def _certificate(lines: list[str]) -> list[tuple[EventId, str]]:
    cert = []
    for line in lines:
        m = _CERT_RE.match(line.strip())
        if m is None:
            raise CheckFailed(f"malformed certificate line {line!r}")
        cert.append((_eid(m.group(1)), m.group(2)))
    return cert


def _rf_of(gen_rf: dict) -> ReadsFrom:
    return ReadsFrom({EventId(*r): EventId(*w) for r, w in gen_rf.items()})


def is_known_failure(op, code: int, err: str) -> bool:
    """The one failure kept in the workloads: exit 3 on the mo budget."""
    return op.input.budget_ok and code == EXIT_BUDGET and "max_mo_permutations" in err


def check(op, code: int, out: str) -> None:
    """Raise CheckFailed unless (exit code, stdout) is a right answer."""
    if code not in (0, 1):
        raise CheckFailed(f"exit code {code}")
    expected = op.input.expect[op.model]
    if (code == 0) != expected:
        raise CheckFailed(f"verdict {'consistent' if code == 0 else 'inconsistent'}, expected the other")
    try:
        if op.input.command == "check":
            _check_check(op, code, out)
        else:
            _check_verify(op, code, out)
    except CheckFailed:
        raise
    except Exception as exc:  # a witness or report racheck cannot read back
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from exc


def _check_check(op, code: int, out: str) -> None:
    g, model = op.graph, MemoryModel(op.model)
    head, _, rest = out.partition("\n")
    if code == 0:
        if head != "CONSISTENT":
            raise CheckFailed(f"exit 0 with {head!r}")
        witness = parse_trace(rest)
        if witness.graph != g:
            raise CheckFailed("witness is for another graph")
        rf = witness.rf if witness.rf is not None else ReadsFrom({})
        if not verify(g, rf, witness.mo, model).is_consistent:
            raise CheckFailed("witness fails verify")
        ex = op.input.execution
        if ex is not None and not rf_leq(rf, _rf_of(ex.rf), g):
            raise CheckFailed("witness rf is not below the generator's rf")
        return
    if not head.startswith("INCONSISTENT "):
        raise CheckFailed(f"exit 1 with {head!r}")
    cert = _certificate([line for line in rest.splitlines() if line])
    rf = mo = None
    if max_writers(g) <= 1:
        rf = solve(g, model)[1].final_rf
        mo = derive_mo(g)
    if cert and not replay_certificate(g, cert, rf, mo):
        raise CheckFailed("certificate does not replay")


def _check_verify(op, code: int, out: str) -> None:
    lines = out.splitlines()
    verdicts = [i for i, line in enumerate(lines) if line.split(" ")[0] in ("CONSISTENT", "INCONSISTENT")]
    if len(verdicts) != 1:
        raise CheckFailed("no single verdict line")
    at = verdicts[0]
    if not all(": " in line for line in lines[:at]):
        raise CheckFailed("malformed axiom report")
    report = dict(line.rsplit(": ", 1) for line in lines[:at])
    failed = sorted(ax for ax, res in report.items() if res == "FAIL")
    head = lines[at]
    if code == 0:
        if head != "CONSISTENT" or failed or at + 1 != len(lines):
            raise CheckFailed("consistent report lists a failure")
        return
    axiom = head.split(" ", 1)[1] if " " in head else ""
    if axiom not in failed:
        raise CheckFailed(f"verdict names {axiom!r}, report fails {failed}")
    doc = parse_trace(op.input.text)
    cert = _certificate(lines[at + 1 :])
    if not cert or not replay_certificate(op.graph, cert, doc.rf, doc.mo):
        raise CheckFailed("certificate does not replay")


def self_test(ops, outputs: dict[int, tuple[int, str]]) -> list[str]:
    """Feed the checks wrong answers; return those that were not flagged.

    `outputs` maps an op's index to its checked (exit code, stdout).
    """
    missed = []

    def flags(what: str, op, code: int, out: str) -> None:
        try:
            check(op, code, out)
        except CheckFailed:
            return
        missed.append(what)

    def pick(pred):
        return next(((ops[i], *outputs[i]) for i in sorted(outputs) if pred(ops[i], outputs[i][1])), None)

    for command in ("check", "verify"):
        for consistent in (True, False):
            found = pick(lambda op, _: op.input.command == command and op.input.expect[op.model] == consistent)
            if found is not None:
                op, code, _ = found
                wrong = "INCONSISTENT porf-acyclicity\n" if consistent else "CONSISTENT\n"
                flags(f"{command}: flipped verdict", op, 1 - code, wrong)
        found = pick(
            lambda op, out: op.input.command == command
            and not op.input.expect[op.model]
            and len(_CERT_RE.findall(out)) > 1
        )
        if found is not None:
            op, code, out = found
            flags(f"{command}: relabelled certificate edge", op, code, _relabel_first_edge(out))

    found = pick(lambda op, _: op.input.execution is not None and op.model == "ra")
    if found is not None:
        op, code, out = found
        ex = op.input.execution
        stale = gen.stale_rf(ex, 0)
        if stale is not None:
            flags("check: witness that fails verify", op, 0, "CONSISTENT\n" + gen.render(stale, True))
        flags("check: unreadable witness", op, 0, "CONSISTENT\nthread\n")
        # The generator's rf is coherent but, where the solver had to
        # repair, not least: against the solver's rf as the bound it is
        # not rf_leq.
        least = parse_trace(out.partition("\n")[2]).rf
        if least != _rf_of(ex.rf):
            lowered = gen.Execution(ex.threads, {(r.thread, r.index): (w.thread, w.index) for r, w in least.items()})
            bound = replace(op, input=replace(op.input, execution=lowered))
            flags("check: witness above the least rf", bound, 0, "CONSISTENT\n" + gen.render(ex, True))

    found = pick(lambda op, _: not op.input.budget_ok)
    if found is not None and is_known_failure(found[0], EXIT_BUDGET, "max_mo_permutations"):
        missed.append("budget failure accepted on an op that must decide")
    return missed


def _relabel_first_edge(out: str) -> str:
    lines = out.splitlines()
    for k, line in enumerate(lines):
        m = _CERT_RE.match(line.strip())
        if m is not None:
            label = "rf" if m.group(2) != "rf" else "po"
            lines[k] = f"  {m.group(1)} --{label}--> {m.group(3)}"
            break
    return "\n".join(lines) + "\n"
