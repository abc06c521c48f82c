"""Symbolic Boolean algebra with cofactor intervals, cube projections,
and a chained-decomposition SAT solver.

The engine gives canonical function objects, the cofactor and
projection modules expose the interval algebra and region-pinning cube
maps built on top of it, the solver decides CNF satisfiability by
chained closed-form projective cofactors, building each step's target
from its clause and the earlier steps' maps, into a final factor equal
to the whole conjunction, and the oracle cross-checks all of it
against exhaustive truth tables.  Witnesses and solution sets are
read from that final factor; above the oracle's variable cap,
solver.oracle_check compares it with the direct conjunction instead.
"""

from .engine import (
    DEFAULT_ENUM_CAP,
    BoolFunc,
    BoolSpace,
    EnumerationCapError,
    PointRows,
)
from .cnf import (
    Clause,
    CnfFormula,
    DimacsParseError,
    Literal,
    clause_to_func,
    emit_dimacs,
    formula_to_func,
    parse_dimacs,
)
from .cofactors import (
    CofactorInterval,
    cofactor_interval,
    expand,
    general_cofactor,
    is_cofactor,
)
from .projections import (
    Projection,
    compose_projections,
    identity_projection,
    point_projection,
    projection_for,
    verify_projection,
)
from .solver import (
    SolveResult,
    SolveStatus,
    StepRecord,
    oracle_check,
    solve,
)
from .oracle import (
    MAX_TABLE_VARS,
    TruthTable,
    formula_satisfied,
    index_to_point,
    point_to_index,
    tt_equal,
    tt_of_formula,
    tt_of_func,
)

__version__ = "0.1.0"

__all__ = [
    "BoolFunc",
    "BoolSpace",
    "Clause",
    "CnfFormula",
    "CofactorInterval",
    "DEFAULT_ENUM_CAP",
    "DimacsParseError",
    "EnumerationCapError",
    "Literal",
    "MAX_TABLE_VARS",
    "PointRows",
    "Projection",
    "SolveResult",
    "SolveStatus",
    "StepRecord",
    "TruthTable",
    "clause_to_func",
    "cofactor_interval",
    "compose_projections",
    "emit_dimacs",
    "expand",
    "formula_satisfied",
    "formula_to_func",
    "general_cofactor",
    "identity_projection",
    "index_to_point",
    "is_cofactor",
    "oracle_check",
    "parse_dimacs",
    "point_projection",
    "point_to_index",
    "projection_for",
    "solve",
    "tt_equal",
    "tt_of_formula",
    "tt_of_func",
    "verify_projection",
]
