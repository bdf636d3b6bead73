"""Consistency testing of multi-threaded execution graphs.

Decides whether an observed partial execution (per-thread read/write
sequences) can be explained by some reads-from relation and modification
order under the release-acquire family of memory models (SRA, RA, WRA),
the relaxed models, and the causal-consistency models (CC, CM, CCv).
Single-writer inputs get a polynomial synthesis procedure; everything
else falls back to an exhaustive oracle.
"""

from .axioms import (
    Axiom,
    MissingMo,
    ObRelation,
    check_axiom,
    compute_ob,
    hb_reaches,
    replay_certificate,
    verify,
)
from .harness import FuzzParams, InvalidParams, Report, differential_run, random_graph
from .model import (
    DuplicateThreadId,
    Event,
    EventId,
    IncomparableWrites,
    InvalidRf,
    MemoryModel,
    ModelError,
    ModificationOrder,
    PartialExecutionGraph,
    ReadsFrom,
    UnknownEvent,
    Verdict,
    build_graph,
    max_writers,
    rf_leq,
    rf_min,
    writer_profile,
)
from .oracle import (
    BudgetExceeded,
    OracleLimits,
    all_consistent_rfs,
    oracle_consistent,
)
from .reductions import (
    CnfFormula,
    NotThreeCnf,
    SelfLoop,
    TooManyVariables,
    UndirectedGraph,
    brute_sat,
    cnf_to_threewriter,
    cnf_to_twowriter,
    cnf_to_twowriter_relaxed,
    graph_to_onewriter,
)
from .solver import (
    NotOneWriter,
    SolverTrace,
    Violation,
    derive_mo,
    solve,
)
from .traceio import (
    ParseError,
    TraceDocument,
    parse_dimacs,
    parse_edgelist,
    parse_trace,
    serialize_dimacs,
    serialize_edgelist,
    serialize_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
