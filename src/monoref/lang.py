"""Core language definitions.

The type language has integers, Booleans, pairs, functions, references,
and the unknown type `dyn`. The IR separates pure expressions from
effectful statements; every control path through a statement ends in a
return or a tail call. Runtime values, heap cell contents, and the
observables produced by a finished run live here too, together with the
type algebra (the less-or-equally-dynamic order, its meet, staticness,
and ground types).
"""

from __future__ import annotations

from dataclasses import dataclass


class Stuck(Exception):
    """Internal invariant violation; unreachable from well-typed programs."""


class CastError(Exception):
    """Runtime cast failure; the user-visible error of the language."""


# ---------------------------------------------------------------------------
# Types

class Ty:
    """Base class of the type language."""


@dataclass(frozen=True)
class IntT(Ty):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class BoolT(Ty):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class PairT(Ty):
    left: Ty
    right: Ty

    def __str__(self) -> str:
        return f"(pair-ty {self.left} {self.right})"


@dataclass(frozen=True)
class ArrowT(Ty):
    dom: Ty
    cod: Ty

    def __str__(self) -> str:
        return f"(-> {self.dom} {self.cod})"


@dataclass(frozen=True)
class RefT(Ty):
    cell: Ty

    def __str__(self) -> str:
        return f"(ref-ty {self.cell})"


@dataclass(frozen=True)
class DynT(Ty):
    def __str__(self) -> str:
        return "dyn"


INT = IntT()
BOOL = BoolT()
DYN = DynT()


# ---------------------------------------------------------------------------
# Constants and primitive operators

class Const:
    pass


@dataclass(frozen=True)
class IntC(Const):
    value: int


@dataclass(frozen=True)
class BoolC(Const):
    value: bool


class Opr:
    pass


@dataclass(frozen=True)
class Succ(Opr):
    pass


@dataclass(frozen=True)
class Prev(Opr):
    pass


@dataclass(frozen=True)
class IsZero(Opr):
    pass


@dataclass(frozen=True)
class Fst(Opr):
    left: Ty
    right: Ty


@dataclass(frozen=True)
class Snd(Opr):
    left: Ty
    right: Ty


SUCC = Succ()
PREV = Prev()
ISZERO = IsZero()


# ---------------------------------------------------------------------------
# IR syntax. Names are strings; identifiers starting with `$` are reserved
# for generated temporaries and the bindings of wrapper closures.

class Expr:
    pass


class Stmt:
    pass


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class EConst(Expr):
    const: Const


@dataclass(frozen=True)
class PrimApp(Expr):
    op: Opr
    arg: Expr


@dataclass(frozen=True)
class MkPair(Expr):
    fst: Expr
    snd: Expr


@dataclass(frozen=True)
class Lam(Expr):
    param: str
    param_ty: Ty
    body: Stmt


@dataclass(frozen=True)
class Deref(Expr):
    ref: Expr


@dataclass(frozen=True)
class SLet(Stmt):
    name: str
    rhs: Expr
    body: Stmt


@dataclass(frozen=True)
class SRet(Stmt):
    expr: Expr


@dataclass(frozen=True)
class SCall(Stmt):
    name: str
    fn: Expr
    arg: Expr
    body: Stmt


@dataclass(frozen=True)
class STailCall(Stmt):
    fn: Expr
    arg: Expr


@dataclass(frozen=True)
class SAlloc(Stmt):
    name: str
    cell_ty: Ty
    init: Expr
    body: Stmt


@dataclass(frozen=True)
class SUpdate(Stmt):
    ref: Expr
    rhs: Expr
    body: Stmt


@dataclass(frozen=True)
class SDynUpdate(Stmt):
    ref: Expr
    rhs: Expr
    ann: Ty
    body: Stmt


@dataclass(frozen=True)
class SCast(Stmt):
    name: str
    expr: Expr
    src: Ty
    tgt: Ty
    body: Stmt


@dataclass(frozen=True)
class SDynDeref(Stmt):
    name: str
    ref: Expr
    ann: Ty
    body: Stmt


# ---------------------------------------------------------------------------
# Runtime values. Environments are association sequences, newest binding
# first; closures capture them whole. Type environments have the same shape.

def lookup(key, pairs):
    """First match in an association sequence, or Stuck."""
    for name, value in pairs:
        if name == key:
            return value
    raise Stuck(f"unbound name {key!r}")


class Val:
    pass


@dataclass(frozen=True)
class VConst(Val):
    const: Const


@dataclass(frozen=True)
class VPair(Val):
    fst: Val
    snd: Val


@dataclass(frozen=True)
class Closure(Val):
    param: str
    param_ty: Ty
    body: Stmt
    env: tuple


@dataclass(frozen=True)
class VRef(Val):
    addr: int


@dataclass(frozen=True)
class Inject(Val):
    payload: Val
    src_ty: Ty  # never DYN; injections box a value of known non-dyn type


class CastedVal:
    """Heap cell content: a settled value or a value with a pending cast."""


@dataclass(frozen=True)
class Plain(CastedVal):
    value: Val


@dataclass(frozen=True)
class Pending(CastedVal):
    value: Val
    src: Ty
    tgt: Ty


# ---------------------------------------------------------------------------
# Observables

class Observable:
    pass


@dataclass(frozen=True)
class OPair(Observable):
    fst: Observable
    snd: Observable


@dataclass(frozen=True)
class OFun(Observable):
    pass


@dataclass(frozen=True)
class OCon(Observable):
    const: Const


@dataclass(frozen=True)
class OAddr(Observable):
    pass


@dataclass(frozen=True)
class OInj(Observable):
    pass


@dataclass(frozen=True)
class OStuck(Observable):
    pass


@dataclass(frozen=True)
class OTimeOut(Observable):
    pass


@dataclass(frozen=True)
class OCastError(Observable):
    pass


O_FUN = OFun()
O_ADDR = OAddr()
O_INJ = OInj()
O_STUCK = OStuck()
O_TIMEOUT = OTimeOut()
O_CASTERROR = OCastError()


# ---------------------------------------------------------------------------
# Type algebra

def lesseq(a: Ty, b: Ty) -> bool:
    """Less-or-equally-dynamic order on types (naive subtyping).

    Everything is below `dyn`; base types relate to themselves; pairs,
    arrows, and references are covariant in every position.
    """
    if isinstance(b, DynT):
        return True
    if isinstance(a, IntT) and isinstance(b, IntT):
        return True
    if isinstance(a, BoolT) and isinstance(b, BoolT):
        return True
    if isinstance(a, PairT) and isinstance(b, PairT):
        return lesseq(a.left, b.left) and lesseq(a.right, b.right)
    if isinstance(a, ArrowT) and isinstance(b, ArrowT):
        return lesseq(a.dom, b.dom) and lesseq(a.cod, b.cod)
    if isinstance(a, RefT) and isinstance(b, RefT):
        return lesseq(a.cell, b.cell)
    return False


def meet(a: Ty, b: Ty) -> Ty:
    """Greatest lower bound under `lesseq`, when it exists.

    Raises CastError when the head constructors clash and neither side
    is `dyn`; such a cast can never be satisfied.
    """
    if isinstance(a, DynT):
        return b
    if isinstance(b, DynT):
        return a
    if isinstance(a, IntT) and isinstance(b, IntT):
        return INT
    if isinstance(a, BoolT) and isinstance(b, BoolT):
        return BOOL
    if isinstance(a, PairT) and isinstance(b, PairT):
        return PairT(meet(a.left, b.left), meet(a.right, b.right))
    if isinstance(a, ArrowT) and isinstance(b, ArrowT):
        return ArrowT(meet(a.dom, b.dom), meet(a.cod, b.cod))
    if isinstance(a, RefT) and isinstance(b, RefT):
        return RefT(meet(a.cell, b.cell))
    raise CastError(f"no meet of {a} and {b}")


def consistent(a: Ty, b: Ty) -> bool:
    """Standard gradual-typing consistency: dyn matches everything."""
    if isinstance(a, DynT) or isinstance(b, DynT):
        return True
    if isinstance(a, (IntT, BoolT)):
        return a == b
    if isinstance(a, PairT) and isinstance(b, PairT):
        return consistent(a.left, b.left) and consistent(a.right, b.right)
    if isinstance(a, ArrowT) and isinstance(b, ArrowT):
        return consistent(a.dom, b.dom) and consistent(a.cod, b.cod)
    if isinstance(a, RefT) and isinstance(b, RefT):
        return consistent(a.cell, b.cell)
    return False


def is_static(a: Ty) -> bool:
    """True when `dyn` occurs nowhere in the type."""
    if isinstance(a, DynT):
        return False
    if isinstance(a, (IntT, BoolT)):
        return True
    if isinstance(a, PairT):
        return is_static(a.left) and is_static(a.right)
    if isinstance(a, ArrowT):
        return is_static(a.dom) and is_static(a.cod)
    if isinstance(a, RefT):
        return is_static(a.cell)
    raise TypeError(f"not a type: {a!r}")


def ground(a: Ty) -> Ty:
    """Collapse a type to its head constructor with `dyn` arguments."""
    if isinstance(a, (IntT, BoolT, DynT)):
        return a
    if isinstance(a, PairT):
        return PairT(DYN, DYN)
    if isinstance(a, ArrowT):
        return ArrowT(DYN, DYN)
    if isinstance(a, RefT):
        return RefT(DYN)
    raise TypeError(f"not a type: {a!r}")


def typeof_const(c: Const) -> Ty:
    if isinstance(c, IntC):
        return INT
    if isinstance(c, BoolC):
        return BOOL
    raise TypeError(f"not a constant: {c!r}")


def typeof_opr(f: Opr) -> ArrowT:
    """The arrow type of a primitive operator."""
    if isinstance(f, (Succ, Prev)):
        return ArrowT(INT, INT)
    if isinstance(f, IsZero):
        return ArrowT(INT, BOOL)
    if isinstance(f, Fst):
        return ArrowT(PairT(f.left, f.right), f.left)
    if isinstance(f, Snd):
        return ArrowT(PairT(f.left, f.right), f.right)
    raise TypeError(f"not an operator: {f!r}")
