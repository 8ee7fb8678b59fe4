"""Static typechecking of the IR and runtime typing predicates.

`check_expr` and `check_stmt` synthesize the unique type of a term or
raise a `TypeCheckError` naming the failed premise: an operand that is
not an atom (see `lang`), a context entry or a type field that holds no
type, checked first, and an operator field that holds no operator. The
`wt_*` predicates decide whether runtime structures (values, heap cells,
whole heaps) are well typed against a store typing; they are used as
oracles by the test suite.
"""

from __future__ import annotations

from .lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    Closure,
    Deref,
    Expr,
    FunCast,
    Inject,
    Lam,
    MkPair,
    PairT,
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
    bindings,
    consistent,
    is_static,
    lesseq,
    link,
    lookup,
    typeof_const,
    typeof_opr,
)

TyEnv = tuple  # sequence of (name, Ty), newest binding first
StoreTy = dict  # address -> Ty


class TypeCheckError(Exception):
    """A failed typing premise. `pos` is the `(line, col)` of the
    offending surface node, or None: the IR checker has no positions,
    and a surface node built without one sits at (0, 0)."""

    def __init__(self, message: str, pos: tuple | None = None):
        super().__init__(message)
        self.message = message
        self.pos = None if pos == (0, 0) else pos

    def __str__(self) -> str:
        if self.pos:
            return f"{self.pos[0]}:{self.pos[1]}: {self.message}"
        return self.message


def check_expr(gamma, e: Expr) -> Ty:
    """Synthesize the type of a `let` right-hand side, an atom, a `Lam`,
    or a `PrimApp`, `MkPair` or `Deref` of atoms, under `gamma`, a
    sequence of (name, type) pairs, newest first."""
    return _rhs(link(typing_context(gamma)), e)


def check_stmt(gamma, s: Stmt) -> Ty:
    """Synthesize the type of a statement under `gamma`, a sequence of
    (name, type) pairs, newest first. The statement must be in A-normal
    form: an operand that is not an atom is a `TypeCheckError`."""
    return _stmt(link(typing_context(gamma)), s)


def typing_context(gamma) -> tuple:
    """The (name, type) pairs of `gamma`, once each holds a type."""
    return tuple((name, _ty(ty, f" of {name!r}")) for name, ty in gamma)


# The checker's own scope is a linked environment: a statement extends
# it without copying.

def _atom(gamma, x) -> Ty:
    """The type of an operand: a name, a `str`, or an `int` or `bool`."""
    t = type(x)
    if t is str:
        try:
            return lookup(x, gamma)
        except Stuck:
            raise TypeCheckError(f"unbound variable {x!r}") from None
    if t is int or t is bool:
        return typeof_const(x)
    raise TypeCheckError(f"operand {t.__name__} is not a name or a literal")


def _ty(t, of: str = "") -> Ty:
    """A type field's value, or a context entry's, which must be a type."""
    if not isinstance(t, Ty):
        raise TypeCheckError(f"annotation {t!r}{of} is not a type")
    return t


def _rhs(gamma, e: Expr) -> Ty:
    """The type of a `let` right-hand side (see `check_expr`)."""
    t = type(e)
    if t is PrimApp:
        try:  # an operator, whose own fields, if any, are types
            arrow = typeof_opr(e.op)
        except TypeError as err:
            raise TypeCheckError(str(err)) from None
        arg_ty = _atom(gamma, e.arg)
        if arg_ty != arrow.dom:
            raise TypeCheckError(
                f"operator expects {arrow.dom}, argument has type {arg_ty}")
        return arrow.cod
    if t is Lam:
        body_ty = _stmt((e.param, _ty(e.param_ty), gamma), e.body)
        return ArrowT(e.param_ty, body_ty)
    if t is Deref:
        ref_ty = _atom(gamma, e.ref)
        if not isinstance(ref_ty, RefT):
            raise TypeCheckError(f"dereference of non-reference type {ref_ty}")
        if not is_static(ref_ty.cell):
            raise TypeCheckError(
                f"dereference of non-static reference type {ref_ty}")
        return ref_ty.cell
    if t is MkPair:
        return PairT(_atom(gamma, e.fst), _atom(gamma, e.snd))
    return _atom(gamma, e)


def _stmt(gamma, s: Stmt) -> Ty:
    """Follows each statement's body in a loop; only the body of a `Lam`
    costs a Python frame."""
    while True:
        if isinstance(s, SLet):
            rhs_ty = _rhs(gamma, s.rhs)
            gamma = (s.name, rhs_ty, gamma)
            s = s.body
        elif isinstance(s, SRet):
            return _atom(gamma, s.expr)
        elif isinstance(s, (SCall, STailCall)):
            fn_ty = _atom(gamma, s.fn)
            if not isinstance(fn_ty, ArrowT):
                raise TypeCheckError(f"call of non-function type {fn_ty}")
            arg_ty = _atom(gamma, s.arg)
            if arg_ty != fn_ty.dom:
                raise TypeCheckError(
                    f"call expects {fn_ty.dom}, argument has type {arg_ty}")
            if isinstance(s, STailCall):
                return fn_ty.cod
            gamma = (s.name, fn_ty.cod, gamma)
            s = s.body
        elif isinstance(s, SAlloc):
            init_ty = _atom(gamma, s.init)
            if init_ty != _ty(s.cell_ty):
                raise TypeCheckError(
                    f"allocation at {s.cell_ty} initialized with {init_ty}")
            gamma = (s.name, RefT(s.cell_ty), gamma)
            s = s.body
        elif isinstance(s, SUpdate):
            ref_ty = _atom(gamma, s.ref)
            if not isinstance(ref_ty, RefT):
                raise TypeCheckError(
                    f"update through non-reference type {ref_ty}")
            if not is_static(ref_ty.cell):
                raise TypeCheckError(
                    f"update through non-static reference type {ref_ty}")
            rhs_ty = _atom(gamma, s.rhs)
            if rhs_ty != ref_ty.cell:
                raise TypeCheckError(
                    f"update expects {ref_ty.cell}, value has type {rhs_ty}")
            s = s.body
        elif isinstance(s, SDynUpdate):
            ref_ty = _atom(gamma, s.ref)
            if ref_ty != RefT(_ty(s.ann)):
                raise TypeCheckError(
                    f"annotated update at {s.ann} through reference of type "
                    f"{ref_ty}")
            rhs_ty = _atom(gamma, s.rhs)
            if rhs_ty != s.ann:
                raise TypeCheckError(
                    f"annotated update expects {s.ann}, value has type "
                    f"{rhs_ty}")
            s = s.body
        elif isinstance(s, SCast):
            src_ty = _atom(gamma, s.expr)
            if src_ty != _ty(s.src):
                raise TypeCheckError(
                    f"cast source annotated {s.src}, expression has type "
                    f"{src_ty}")
            if not consistent(s.src, _ty(s.tgt)):
                raise TypeCheckError(
                    f"cast from {s.src} to inconsistent {s.tgt}")
            gamma = (s.name, s.tgt, gamma)
            s = s.body
        elif isinstance(s, SDynDeref):
            ref_ty = _atom(gamma, s.ref)
            if ref_ty != RefT(_ty(s.ann)):
                raise TypeCheckError(
                    f"annotated dereference at {s.ann} through reference of "
                    f"type {ref_ty}")
            gamma = (s.name, s.ann, gamma)
            s = s.body
        else:
            raise TypeCheckError(f"unknown statement form {s!r}")


# ---------------------------------------------------------------------------
# Runtime typing oracles

def derive_store_typing(heap) -> StoreTy:
    """Read off the store typing from the heap's type tags."""
    return {addr: cell[1] for addr, cell in heap.items()}


def environment_typing(sigma: StoreTy, env) -> TyEnv:
    """Canonical typing of a linked runtime environment, as (name, type)
    pairs, newest first.

    Each captured value is assigned its canonical runtime type: a host
    `int` at int and a `bool` at bool, pairs structurally, references at
    the heap tag of their address (the minimal type the reference rule
    allows), injections at dyn, closures at the arrow type their body
    synthesizes under the canonical typing of the captured environment,
    and function casts (`FunCast`) at their target arrow.
    """
    return tuple(bindings(_scope_type(sigma, env, {})))


def value_type(sigma: StoreTy, v: Val) -> Ty:
    """Canonical runtime type of a value; raises on untypable values."""
    return _value_type(sigma, v, {})


def wt_val(sigma: StoreTy, v: Val, ty: Ty) -> bool:
    """Decide the value typing judgment against the store typing `sigma`."""
    return _wt_val(sigma, v, ty, {})


# `memo` maps each function value and each environment cell typed in one
# top-level call, by identity, to its type or its typed cell: closures
# made in one scope share the cells it captured, and typing each once
# keeps a chain of k closures linear in k.

def _scope_type(sigma: StoreTy, env, memo: dict):
    """The linked type scope of a linked environment: each binding at its
    value's canonical type. Cells are typed oldest first, so the scope a
    closure captured in `env` is typed before the closure, and typing it
    recurses no deeper."""
    fresh = []
    while env and id(env) not in memo:
        fresh.append(env)
        env = env[2]
    scope = memo[id(env)] if env else ()
    for cell in reversed(fresh):
        scope = (cell[0], _value_type(sigma, cell[1], memo), scope)
        memo[id(cell)] = scope
    return scope


_PAIR_UP = object()  # on `_value_type`'s stack: type the pair below


def _value_type(sigma: StoreTy, v: Val, memo: dict) -> Ty:
    """A pair is walked with an explicit stack, so its depth costs no
    Python frames."""
    done, todo = [], [v]
    while todo:
        v = todo.pop()
        t = type(v)
        if v is _PAIR_UP:
            done[-2:] = [PairT(*done[-2:])]
        elif isinstance(v, VPair):
            todo += (_PAIR_UP, v.snd, v.fst)
        elif t is int:
            done.append(INT)
        elif t is bool:
            done.append(BOOL)
        elif isinstance(v, VRef):
            if v.addr not in sigma:
                raise TypeCheckError(f"dangling reference to address {v.addr}")
            done.append(RefT(sigma[v.addr]))
        elif isinstance(v, Inject):
            done.append(DYN)
        elif id(v) in memo:
            done.append(memo[id(v)])
        else:
            if isinstance(v, FunCast):
                ty = _fun_cast_type(sigma, v, memo)
            elif isinstance(v, Closure):
                scope = (v.param, v.param_ty, _scope_type(sigma, v.env, memo))
                ty = ArrowT(v.param_ty, _stmt(scope, v.body))
            else:
                raise TypeCheckError(f"not a value: {v!r}")
            memo[id(v)] = ty
            done.append(ty)
    return done[0]


def _fun_cast_type(sigma: StoreTy, cast: FunCast, memo: dict) -> Ty:
    """A function cast's target, once the function it casts types at its
    source. A cast of a cast is walked in a loop down to the first
    function not yet typed, which is typed once; each layer's `src` is
    then checked against the `tgt` of the layer below on the way back up,
    so the chain's depth costs no Python frames."""
    layers, v = [], cast
    while isinstance(v, FunCast) and id(v) not in memo:
        layers.append(v)
        v = v.fn
    # `src` and `tgt` may agree only in their heads: a projection out of
    # dyn casts a payload from the type it was injected at.
    below = layers.pop()
    typed = _wt_val(sigma, v, below.src, memo)
    while typed and layers:
        memo[id(below)] = below.tgt
        above = layers.pop()
        typed = below.tgt == above.src
        below = above
    if not typed:
        raise TypeCheckError(f"cast of a function not of type {cast.src}")
    return cast.tgt


def _wt_val(sigma: StoreTy, v: Val, ty: Ty, memo: dict) -> bool:
    """Pairs and injections are walked with an explicit stack, fst before
    snd, so their depth costs no Python frames. A reference types at a
    reference to any cell type above its cell's tag, any other value at
    its canonical type."""
    todo = [(v, ty)]
    while todo:
        v, ty = todo.pop()
        if isinstance(v, VPair) and isinstance(ty, PairT):
            todo += ((v.snd, ty.right), (v.fst, ty.left))
        elif isinstance(v, Inject) and ty == DYN:
            todo.append((v.payload, v.src_ty))
        elif isinstance(v, VRef):
            if not (isinstance(ty, RefT) and v.addr in sigma
                    and lesseq(sigma[v.addr], ty.cell)):
                return False
        else:
            try:
                if _value_type(sigma, v, memo) != ty:
                    return False
            except TypeCheckError:
                return False
    return True


def wt_cell(sigma: StoreTy, cell) -> bool:
    """Decide the typing judgment of a heap cell.

    A cell's value types at its last field: the tag of a settled cell
    `(value, tag)`, the source of a cell `(value, tag, src)` with a
    pending cast, whose tag must be less or equally dynamic than `src`.
    """
    return wt_val(sigma, cell[0], cell[-1]) and lesseq(cell[1], cell[-1])


def wt_heap(sigma: StoreTy, heap, active) -> bool:
    """Decide heap well-formedness against `sigma` and an active set.

    Every typed address must hold a well-typed cell (`wt_cell`) whose
    tag, `cell[1]`, is exactly the store type; cells outside the active
    set must be settled, `(value, tag)`; all addresses sit below the
    allocation counter; and the active set only names typed addresses.
    """
    active = set(active)
    for addr, ty in sigma.items():
        cell = heap.get(addr)
        if cell is None or not wt_cell(sigma, cell) or cell[1] != ty:
            return False
        if addr not in active and len(cell) != 2:
            return False
    if any(addr >= len(heap) for addr in heap):
        return False
    return active <= set(sigma)


def store_typing_lesseq(new: StoreTy, old: StoreTy) -> bool:
    """Pointwise less-or-equally-dynamic order on store typings."""
    if set(new) != set(old):
        return False
    return all(lesseq(new[addr], old[addr]) for addr in old)
