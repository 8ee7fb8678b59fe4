"""Gradually typed IR workbench: monotonic and guarded reference semantics."""

from .lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    BoolT,
    CastError,
    DynT,
    IntT,
    PairT,
    RefT,
    Stuck,
    consistent,
    ground,
    is_static,
    lesseq,
    meet,
    typeof_const,
    typeof_opr,
)
from .machine import run, steps
from .guarded import run_g, steps_g
from .surface import elaborate, parse_surface, typecheck_surface
from .typecheck import check_expr, check_stmt

__all__ = [
    "ArrowT", "BOOL", "BoolT", "CastError", "DYN", "DynT", "INT", "IntT",
    "PairT", "RefT", "Stuck",
    "check_expr", "check_stmt", "consistent", "elaborate", "ground",
    "is_static", "lesseq", "meet", "parse_surface", "run", "run_g", "steps",
    "steps_g", "typecheck_surface", "typeof_const", "typeof_opr",
]
