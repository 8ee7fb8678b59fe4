"""Static typechecking of the IR and runtime typing predicates.

`check_expr` and `check_stmt` synthesize the unique type of a term or
report a structured diagnostic (`TypeCheckError` with a path into the
AST). The `wt_*` predicates decide whether runtime structures (values,
heap cells, whole heaps) are well typed against a store typing; they are
used as oracles by the test suite.
"""

from __future__ import annotations

from .lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    Closure,
    Deref,
    EConst,
    Expr,
    FunCast,
    Inject,
    Lam,
    MkPair,
    PairT,
    Pending,
    PrimApp,
    RefT,
    SAlloc,
    SCall,
    SCast,
    SDynDeref,
    SDynUpdate,
    SLet,
    SRet,
    STailCall,
    SUpdate,
    Stmt,
    Stuck,
    Ty,
    VPair,
    VRef,
    Val,
    Var,
    consistent,
    is_static,
    lesseq,
    lookup,
    typeof_const,
    typeof_opr,
)

TyEnv = tuple  # sequence of (name, Ty), newest binding first
StoreTy = dict  # address -> Ty


class TypeCheckError(Exception):
    """A failed typing premise, with the path to the offending node."""

    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.message = message
        self.path = path

    def __str__(self) -> str:
        if self.path:
            return f"{'/'.join(self.path)}: {self.message}"
        return self.message


def check_expr(gamma, e: Expr, path: tuple = ()) -> Ty:
    """Synthesize the type of a pure expression under `gamma`."""
    if isinstance(e, Var):
        try:
            return lookup(e.name, gamma)
        except Stuck:
            raise TypeCheckError(f"unbound variable {e.name!r}", path) from None
    if isinstance(e, EConst):
        return typeof_const(e.const)
    if isinstance(e, PrimApp):
        arrow = typeof_opr(e.op)
        arg_ty = check_expr(gamma, e.arg, path + ("arg",))
        if arg_ty != arrow.dom:
            raise TypeCheckError(
                f"operator expects {arrow.dom}, argument has type {arg_ty}", path)
        return arrow.cod
    if isinstance(e, MkPair):
        return PairT(check_expr(gamma, e.fst, path + ("fst",)),
                     check_expr(gamma, e.snd, path + ("snd",)))
    if isinstance(e, Lam):
        body_ty = check_stmt(((e.param, e.param_ty),) + tuple(gamma),
                             e.body, path + ("body",))
        return ArrowT(e.param_ty, body_ty)
    if isinstance(e, Deref):
        ref_ty = check_expr(gamma, e.ref, path + ("ref",))
        if not isinstance(ref_ty, RefT):
            raise TypeCheckError(f"dereference of non-reference type {ref_ty}", path)
        if not is_static(ref_ty.cell):
            raise TypeCheckError(
                f"dereference of non-static reference type {ref_ty}", path)
        return ref_ty.cell
    raise TypeCheckError(f"unknown expression form {e!r}", path)


def check_stmt(gamma, s: Stmt, path: tuple = ()) -> Ty:
    """Synthesize the type of a statement under `gamma`.

    Follows each statement's body in a loop; only a `Lam` body nested in
    an expression costs a Python frame.
    """
    gamma = tuple(gamma)
    while True:
        if isinstance(s, SLet):
            rhs_ty = check_expr(gamma, s.rhs, path + ("let-rhs",))
            gamma = ((s.name, rhs_ty),) + gamma
            s, path = s.body, path + ("let-body",)
        elif isinstance(s, SRet):
            return check_expr(gamma, s.expr, path + ("return",))
        elif isinstance(s, (SCall, STailCall)):
            fn_ty = check_expr(gamma, s.fn, path + ("fn",))
            if not isinstance(fn_ty, ArrowT):
                raise TypeCheckError(f"call of non-function type {fn_ty}", path)
            arg_ty = check_expr(gamma, s.arg, path + ("call-arg",))
            if arg_ty != fn_ty.dom:
                raise TypeCheckError(
                    f"call expects {fn_ty.dom}, argument has type {arg_ty}", path)
            if isinstance(s, STailCall):
                return fn_ty.cod
            gamma = ((s.name, fn_ty.cod),) + gamma
            s, path = s.body, path + ("call-body",)
        elif isinstance(s, SAlloc):
            init_ty = check_expr(gamma, s.init, path + ("alloc-init",))
            if init_ty != s.cell_ty:
                raise TypeCheckError(
                    f"allocation at {s.cell_ty} initialized with {init_ty}", path)
            gamma = ((s.name, RefT(s.cell_ty)),) + gamma
            s, path = s.body, path + ("alloc-body",)
        elif isinstance(s, SUpdate):
            ref_ty = check_expr(gamma, s.ref, path + ("update-ref",))
            if not isinstance(ref_ty, RefT):
                raise TypeCheckError(
                    f"update through non-reference type {ref_ty}", path)
            if not is_static(ref_ty.cell):
                raise TypeCheckError(
                    f"update through non-static reference type {ref_ty}", path)
            rhs_ty = check_expr(gamma, s.rhs, path + ("update-rhs",))
            if rhs_ty != ref_ty.cell:
                raise TypeCheckError(
                    f"update expects {ref_ty.cell}, value has type {rhs_ty}",
                    path)
            s, path = s.body, path + ("update-body",)
        elif isinstance(s, SDynUpdate):
            ref_ty = check_expr(gamma, s.ref, path + ("dyn-update-ref",))
            if ref_ty != RefT(s.ann):
                raise TypeCheckError(
                    f"annotated update at {s.ann} through reference of type "
                    f"{ref_ty}", path)
            rhs_ty = check_expr(gamma, s.rhs, path + ("dyn-update-rhs",))
            if rhs_ty != s.ann:
                raise TypeCheckError(
                    f"annotated update expects {s.ann}, value has type {rhs_ty}",
                    path)
            s, path = s.body, path + ("dyn-update-body",)
        elif isinstance(s, SCast):
            src_ty = check_expr(gamma, s.expr, path + ("cast-expr",))
            if src_ty != s.src:
                raise TypeCheckError(
                    f"cast source annotated {s.src}, expression has type "
                    f"{src_ty}", path)
            if not consistent(s.src, s.tgt):
                raise TypeCheckError(
                    f"cast from {s.src} to inconsistent {s.tgt}", path)
            gamma = ((s.name, s.tgt),) + gamma
            s, path = s.body, path + ("cast-body",)
        elif isinstance(s, SDynDeref):
            ref_ty = check_expr(gamma, s.ref, path + ("dyn-deref-ref",))
            if ref_ty != RefT(s.ann):
                raise TypeCheckError(
                    f"annotated dereference at {s.ann} through reference of "
                    f"type {ref_ty}", path)
            gamma = ((s.name, s.ann),) + gamma
            s, path = s.body, path + ("dyn-deref-body",)
        else:
            raise TypeCheckError(f"unknown statement form {s!r}", path)


# ---------------------------------------------------------------------------
# Runtime typing oracles

def derive_store_typing(heap) -> StoreTy:
    """Read off the store typing from the heap's type tags."""
    return {addr: tag for addr, (_, tag) in heap.items()}


def environment_typing(sigma: StoreTy, env) -> TyEnv:
    """Canonical typing of a runtime environment.

    Each captured value is assigned its canonical runtime type: a host
    `int` at int and a `bool` at bool, pairs structurally, references at
    the heap tag of their address (the minimal type the reference rule
    allows), injections at dyn, closures at the arrow type their body
    synthesizes under the canonical typing of the captured environment,
    and function casts (`FunCast`) at their target arrow.
    """
    return tuple((name, value_type(sigma, v)) for name, v in env)


def value_type(sigma: StoreTy, v: Val) -> Ty:
    """Canonical runtime type of a value; raises on untypable values."""
    t = type(v)
    if t is int:
        return INT
    if t is bool:
        return BOOL
    if isinstance(v, VPair):
        return PairT(value_type(sigma, v.fst), value_type(sigma, v.snd))
    if isinstance(v, VRef):
        if v.addr not in sigma:
            raise TypeCheckError(f"dangling reference to address {v.addr}")
        return RefT(sigma[v.addr])
    if isinstance(v, Inject):
        return DYN
    if isinstance(v, FunCast):
        # `src` and `tgt` may agree only in their heads: a projection out
        # of dyn casts a payload from the type it was injected at.
        if not wt_val(sigma, v.fn, v.src):
            raise TypeCheckError(f"cast of a function not of type {v.src}")
        return v.tgt
    if isinstance(v, Closure):
        gamma = ((v.param, v.param_ty),) + environment_typing(sigma, v.env)
        return ArrowT(v.param_ty, check_stmt(gamma, v.body))
    raise TypeCheckError(f"not a value: {v!r}")


def wt_val(sigma: StoreTy, v: Val, ty: Ty) -> bool:
    """Decide the value typing judgment against the store typing `sigma`."""
    t = type(v)
    if t is int:
        return ty == INT
    if t is bool:
        return ty == BOOL
    if isinstance(v, VPair):
        return (isinstance(ty, PairT)
                and wt_val(sigma, v.fst, ty.left)
                and wt_val(sigma, v.snd, ty.right))
    if isinstance(v, VRef):
        return (isinstance(ty, RefT)
                and v.addr in sigma
                and lesseq(sigma[v.addr], ty.cell))
    if isinstance(v, Inject):
        return ty == DYN and wt_val(sigma, v.payload, v.src_ty)
    if isinstance(v, (Closure, FunCast)):
        try:
            return value_type(sigma, v) == ty
        except TypeCheckError:
            return False
    return False


def wt_casted(sigma: StoreTy, content, ty: Ty) -> bool:
    """Decide the typing judgment of a heap cell's content at `ty`.

    A settled cell holds its value, which types at `ty`. A `Pending`
    cast types at its target, which must be less or equally dynamic
    than the source the payload types at.
    """
    if isinstance(content, Pending):
        return (wt_val(sigma, content.value, content.src)
                and lesseq(content.tgt, content.src)
                and ty == content.tgt)
    return wt_val(sigma, content, ty)


def wt_heap(sigma: StoreTy, heap, active) -> bool:
    """Decide heap well-formedness against `sigma` and an active set.

    Every typed address must hold a cell tagged with exactly the store
    type whose content typechecks there; cells outside the active set
    must be settled values; all addresses sit below the allocation
    counter; and the active set only names typed addresses.
    """
    active = set(active)
    for addr, ty in sigma.items():
        if addr not in heap:
            return False
        content, tag = heap[addr]
        if tag != ty or not wt_casted(sigma, content, ty):
            return False
        if addr not in active and isinstance(content, Pending):
            return False
    if any(addr >= len(heap) for addr in heap):
        return False
    return active <= set(sigma)


def store_typing_lesseq(new: StoreTy, old: StoreTy) -> bool:
    """Pointwise less-or-equally-dynamic order on store typings."""
    if set(new) != set(old):
        return False
    return all(lesseq(new[addr], old[addr]) for addr in old)
