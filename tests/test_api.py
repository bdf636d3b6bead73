"""The public names of `racheck`, listed so that an export change is deliberate."""

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import racheck

PUBLIC_NAMES = [
    "Axiom",
    "BudgetExceeded",
    "CnfFormula",
    "DuplicateThreadId",
    "Event",
    "EventId",
    "FuzzParams",
    "IncomparableWrites",
    "InvalidParams",
    "InvalidRf",
    "MemoryModel",
    "MissingMo",
    "ModelError",
    "ModificationOrder",
    "NotOneWriter",
    "NotThreeCnf",
    "ObRelation",
    "OracleLimits",
    "ParseError",
    "PartialExecutionGraph",
    "ReadsFrom",
    "Report",
    "SelfLoop",
    "SolverTrace",
    "TooManyVariables",
    "TraceDocument",
    "UndirectedGraph",
    "UnknownEvent",
    "Verdict",
    "Violation",
    "all_consistent_rfs",
    "axioms",
    "brute_sat",
    "build_graph",
    "check_axiom",
    "cnf_to_threewriter",
    "cnf_to_twowriter",
    "cnf_to_twowriter_relaxed",
    "compute_ob",
    "derive_mo",
    "differential_run",
    "graph_to_onewriter",
    "harness",
    "hb_reaches",
    "max_writers",
    "model",
    "oracle",
    "oracle_consistent",
    "parse_dimacs",
    "parse_edgelist",
    "parse_trace",
    "random_graph",
    "reductions",
    "replay_certificate",
    "rf_leq",
    "rf_min",
    "serialize_dimacs",
    "serialize_edgelist",
    "serialize_trace",
    "solve",
    "solver",
    "traceio",
    "verify",
    "writer_profile",
]


def test_public_names():
    assert sorted(racheck.__all__) == PUBLIC_NAMES


def test_oracle_limits_fields():
    fields = [f.name for f in dataclasses.fields(racheck.OracleLimits)]
    assert fields == ["max_rf_candidates"]


def test_solve_parameters():
    assert list(inspect.signature(racheck.solve).parameters) == ["g", "m"]


# `bench/run.py` wraps both by name and calls them with these arguments:
# the tracer's per-axiom detail takes (g, rf, mo, ax), and the oracle's mo
# synthesis is timed as `_first_mo(g, enc, rf, model)`, where rf is the
# leaf's rf on the numbering (`number_rf`'s form), not a ReadsFrom.
def test_check_axiom_parameters():
    assert list(inspect.signature(racheck.check_axiom).parameters) == ["g", "rf", "mo", "ax"]


def test_first_mo_parameters():
    params = inspect.signature(racheck.oracle._first_mo).parameters
    assert list(params) == ["g", "enc", "rf", "model"]


# `bench/run.py` counts `solver.repairs` from `solve(...)[1].update_count`,
# and `bench/checks.py` checks the solver against `solve(...)[1].final_rf`.
def test_solver_trace_names():
    g = racheck.build_graph(
        [
            ("t1", [("w", "x", 1), ("w", "x", 1), ("w", "y", 1)]),
            ("t2", [("r", "y", 1), ("r", "x", 1)]),
        ]
    )
    trace = racheck.solve(g, racheck.MemoryModel.WRA)[1]
    assert trace.update_count == 1
    assert trace.final_rf is not None
    fields = ("read", "write", "blocker", "via_read", "replacement")
    assert racheck.Violation._fields == fields


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (a name only in a string,
    such as a quoted annotation, counts as unread)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


# No linter is assumed; `__init__.py` is exempt, as its imports re-export.
def test_no_unused_imports():
    src = Path(racheck.__file__).parent
    unused = {
        path.name: names
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


# The engines' import graph, listed so that a new edge is deliberate: the
# model below everything, the axioms on it, the two engines side by side.
LAYERS = {
    "model": set(),
    "axioms": {"model"},
    "solver": {"model", "axioms"},
    "oracle": {"model", "axioms"},
    "reductions": {"model"},
    "traceio": {"model", "reductions"},
}


def _racheck_imports(source: str) -> set[str]:
    """The `racheck` modules a module imports, relatively or by name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["racheck" if node.level else "", node.module]))
            if module == "racheck":  # from . import x
                names += [f"racheck.{alias.name}" for alias in node.names]
            else:
                names.append(module)
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return {name.split(".")[1] for name in names if name.startswith("racheck.")}


def test_module_layering():
    src = Path(racheck.__file__).parent
    imports = {name: _racheck_imports((src / f"{name}.py").read_text()) for name in LAYERS}
    assert imports == LAYERS


def _reads(node: ast.AST) -> Counter:
    """Names read under node: loaded names and attribute names."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
    return names


# A helper that loses its last caller goes with it: every module-level
# function or class that `racheck` does not export, private or public, is
# read somewhere in `src/racheck` outside its own body.
def test_no_unread_private_definitions():
    src = Path(racheck.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    unread = {
        name: defs
        for name, tree in trees.items()
        if (
            defs := [
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in racheck.__all__
                and reads[node.name] == _reads(node)[node.name]
            ]
        )
    }
    assert unread == {}


def _defined(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [target.id for target in targets if isinstance(target, ast.Name)]


# A reference that loses its last reader goes with it: every top-level
# definition of `tests/reference_*.py` is read somewhere in `tests/`
# outside its own body.
def test_no_unread_reference_definitions():
    tests = Path(__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(tests.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    unread = {
        name: defs
        for name, tree in trees.items()
        if name.startswith("reference_")
        and (
            defs := [
                defined
                for node in tree.body
                for defined in _defined(node)
                if reads[defined] == _reads(node)[defined]
            ]
        )
    }
    assert unread == {}
