"""The monotonic-reference abstract machine, and the driver of both semantics.

A machine state is a statement, an environment, a procedure call stack,
a tagged heap, and a worklist of active addresses. An environment is a
linked cell `(name, value, rest)`, `()` when empty (Dybvig, "Three
Implementation Models for Scheme", 1987): a binding builds one 3-tuple
and copies nothing, and a closure or a stack frame shares its scope's
tail. Each runtime value is one object whose class is its runtime tag:
an integer or Boolean is the host `int` or `bool`, so a base-type result
builds no node. A heap cell is a tuple whose index 1 is its tag:
`(value, tag)` when settled, `(value, tag, src)` while the value awaits
a cast from `src` to the tag, so a pending cast builds no node either.
A stack frame is the tuple `(name, cont, env)` of a call's result name,
continuation and saved environment cell. A cast between equal base,
dyn or arrow types returns its value, ⟨T⇐T⟩v → v (the `id` coercion of
Herman, Tomb and Flanagan, "Space-Efficient Gradual Typing", TFP 2007),
and so does the monotonic cast between equal reference types. Types are
interned, so "equal" is a pointer test. Casting a function between two
unequal arrow types makes a `FunCast`, whose body the call rule runs
just as it runs a closure's; the body depends only on the two arrows, so
it is built the first time that pair is cast and shared after that.
Casting a reference lowers the pointed-to heap cell's tag to the meet of
the tag and the target cell type, leaving the value pending a cast from
the old tag; statement execution resumes only once the worklist has
drained. An annotated write leaves its value pending a cast from the
annotation to the tag in the same way, unless both are base types or
dyn: such a cast touches no cell, so the write makes it at once. Heap
tags only ever become less dynamic, and a cell whose meet with the
target is its tag is left alone, which is what keeps casts over heap
cycles from diverging. That test is a pointer test, and so is the
worklist's: a pending cast commits while its target is still the tag.

`run` owns a private, mutable heap dict and stack, updated in place;
fresh addresses are allocated at the heap's size and never reclaimed.
`step`, `cast` and the guarded `gwrite` copy at the boundary: they
return new heaps and never mutate a `State` or a heap handed to them.
`State.env` alone lists its bindings as (name, value) pairs, newest
first: the driver links it on entry and `step` lists it again.
A `Semantics` is how a reference is read, written and cast, plus the
worklist rule. The driver reads and writes a plain reference itself,
which is all that statically typed code does with the heap: a static
access calls a semantics' `read` or `write` only through a proxy, on a
cell with a pending cast or in a malformed state. It also makes an
annotated access whose cast is an identity under both semantics: a read
or write through a `VRef` to a cell with no pending cast whose tag is
the annotation itself, when that tag is a base type or dyn, or, for a
read, an arrow. A monotonic arrow write still goes through the worklist.
The IR is in A-normal form (see `lang`): a transition looks a name
operand, a host `str`, up in place, a return to a caller's frame
included, and a literal is its own value. A `let` also builds a closure
or a pair, reads a cell (`Deref`) and takes a successor or predecessor
of an integer (`PrimApp`) in place, so static loop code calls nothing;
`_operand` serves only a pair's two atoms and the final state's result.
"""

from __future__ import annotations

from collections.abc import Callable

from .lang import (
    ArrowT,
    CastError,
    Closure,
    Deref,
    DynT,
    Fst,
    FunCast,
    GProxy,
    IDENTITY_HEADS,
    Inject,
    IsZero,
    Lam,
    MkPair,
    Node,
    OCon,
    OPair,
    Observable,
    O_ADDR,
    O_CASTERROR,
    O_FUN,
    O_INJ,
    O_STUCK,
    O_TIMEOUT,
    Opr,
    PairT,
    Prev,
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
    Snd,
    Stmt,
    Stuck,
    Succ,
    Ty,
    VPair,
    VRef,
    Val,
    bindings,
    link,
    lookup,
    meet,
)

DEFAULT_FUEL = 1_000_000

# The type classes whose cast from a type to itself returns the value
# untouched, under both semantics: base types, dyn and arrows. Such a
# cast on a pair rebuilds the pair, and on a reference it is `cast_ref`,
# which may retype a cell. `guarded.gread` and `guarded.write_in_place`
# inline the projection shortcut that `cast_value` takes with it.
_SELF_IDENTITY_HEADS = IDENTITY_HEADS | {ArrowT}

Env = tuple  # linked cell (name, Val, rest), newest binding first; () is empty
Heap = dict  # address -> (Val, tag), or (Val, tag, src) with a cast pending
Active = tuple  # worklist of addresses, head processed first


class State(Node):
    """A machine configuration. `env` lists the bindings as (name, value)
    pairs, newest first. `stack` holds one `(name, cont, env)` tuple per
    pending call, innermost first: the name the call's result binds, the
    statement that resumes, and the caller's linked environment cell.
    The heap is the one mutable field, so a deep copy copies it alone."""
    stmt: Stmt
    env: tuple
    stack: tuple
    heap: Heap
    active: Active

    def __deepcopy__(self, memo=None):
        return State(**{**vars(self), "heap": dict(self.heap)})


class TraceRecord(Node):
    index: int
    rule: str
    active_len: int
    heap_size: int


def format_trace(rec: TraceRecord) -> str:
    return f"{rec.index}\t{rec.rule}\t{rec.active_len}\t{rec.heap_size}"


def heap_cell(heap: Heap, addr: int):
    try:
        return heap[addr]
    except KeyError:
        raise Stuck(f"unallocated address {addr}") from None


def delta(f: Opr, v: Val) -> Val:
    """Primitive operators; any other operator/value shape is Stuck.

    The checks are exact: `bool` subclasses `int`, but a Boolean is no
    integer here."""
    tf, tv = type(f), type(v)
    if tv is int:
        if tf is Succ:
            return v + 1
        if tf is Prev:
            return v - 1
        if tf is IsZero:
            return v == 0
    elif tv is VPair:
        if tf is Fst:
            return v.fst
        if tf is Snd:
            return v.snd
    raise Stuck(f"delta undefined on {f!r} and {v!r}")


def to_addr(v: Val) -> int:
    if isinstance(v, VRef):
        return v.addr
    raise Stuck(f"not a reference: {v!r}")


def to_val(cell: tuple) -> Val:
    """A heap cell's value; Stuck while a cast on the cell is pending."""
    if len(cell) != 2:
        raise Stuck("read of a heap cell with a pending cast")
    return cell[0]


def read_cell(ref: Val, heap: Heap) -> Val:
    """A static read: the value of a cell with no pending cast."""
    return to_val(heap_cell(heap, to_addr(ref)))


def _operand(x, env: Env) -> Val:
    """An operand's value: a name's newest binding, else the operand."""
    if type(x) is not str:
        return x
    while env and env[0] != x:
        env = env[2]
    return env[1] if env else lookup(x, env)


# The body of each function cast made so far, by its pair of arrows.
# Types are interned, so the key hashes two pointers, and a body is
# built once per pair of arrows; the pairs a run meets come from its
# program's types and their meets, so the table stays small.
_BODIES = {}


def fun_cast(fn: Val, src: ArrowT, tgt: ArrowT) -> FunCast:
    """`fn` cast from `src` to `tgt`: the body casts the argument `$w0`
    back, calls `$w1` and casts the result out."""
    body = _BODIES.get((src, tgt))
    if body is None:
        body = _BODIES[src, tgt] = SCast(
            "$w3", "$w0", tgt.dom, src.dom,
            SCall("$w2", "$w1", "$w3",
                  SCast("$w4", "$w2", src.cod, tgt.cod, SRet("$w4"))))
    return FunCast(fn, src, tgt, body)


def cast_value(v: Val, src: Ty, tgt: Ty, heap, work, cast_ref) -> Val:
    """Cast `v` from `src` to `tgt`, as both semantics do.

    The cast's shape decides, as in Grift (Kuhlenschmidt, Almahallawi
    and Siek, "An Efficient Compiler for the Gradually Typed Lambda
    Calculus", PLDI 2019). Between two types with the same head: the
    identity on base types and dyn (`IDENTITY_HEADS`), ⟨T⇐T⟩v → v;
    `cast_ref(v, src, tgt, heap, work)` between reference types, equal
    ones included, which may update `heap` and the worklist `work` (head
    last) in place; the identity between equal arrows, which interned
    types tell by identity, and a `FunCast` between unequal ones; pairs
    componentwise, fst before snd, walking nested pairs on an explicit
    stack, so a pair's depth costs no Python frames. Between two heads,
    the shapes dynamic code casts most: injection into dyn, then
    projection out of it, which requires the injected type and the
    target to have the same head, which is equality of their ground
    types, since neither is dyn. A projection whose injected type is the
    target itself, a base type or an arrow, returns the payload at once:
    the cast it would recurse into is an identity.
    """
    ts, tt = type(src), type(tgt)
    if ts is tt:
        if ts in IDENTITY_HEADS:
            return v
        if ts is RefT:
            return cast_ref(v, src, tgt, heap, work)
        if ts is ArrowT:
            return v if src is tgt else fun_cast(v, src, tgt)
        if type(v) is VPair:
            # Fst before snd, on `observe`'s stack: a component cast to
            # a pair type from a pair, or from a pair injected into dyn,
            # is walked into; any other is one `cast_value` call.
            done, todo = [], [(v, src, tgt)]
            while todo:
                if (item := todo.pop()) is _PAIR_UP:
                    done[-2:] = [VPair(*done[-2:])]
                    continue
                v, src, tgt = item
                if (type(tgt) is PairT and type(v) is Inject
                        and type(src) is DynT and type(v.src_ty) is PairT):
                    v, src = v.payload, v.src_ty
                if type(v) is VPair and type(src) is type(tgt) is PairT:
                    todo += (_PAIR_UP, (v.snd, src.right, tgt.right),
                             (v.fst, src.left, tgt.left))
                else:
                    done.append(cast_value(v, src, tgt, heap, work, cast_ref))
            return done[0]
    elif tt is DynT:
        return Inject(v, src)
    elif ts is DynT:
        if type(v) is not Inject:
            raise CastError("no cast from {} to {}", src, tgt)
        if type(inner := v.src_ty) is not tt:
            raise CastError("projection of {} payload to {}", inner, tgt)
        if inner is tgt and tt in _SELF_IDENTITY_HEADS:
            return v.payload
        return cast_value(v.payload, inner, tgt, heap, work, cast_ref)
    raise CastError("no cast from {} to {}", src, tgt)


def retag(v: Val, src: RefT, tgt: RefT, heap: Heap, work: list) -> Val:
    """The monotonic reference cast: if the meet of the target cell type
    and the cell's tag is another type, it lies below the tag, so lower
    the tag to it and make the address the worklist's head. The value
    then awaits a cast from the type it has, a cell's last field: the old
    tag, or on a cell already pending, its source, so pending casts never
    stack."""
    if type(v) is not VRef:
        raise CastError("no cast from {} to {}", src, tgt)
    cell = heap_cell(heap, v.addr)
    lowered = meet(tgt.cell, cell[1])
    if lowered is not cell[1]:
        heap[v.addr] = (cell[0], lowered, cell[-1])
        work.append(v.addr)
    return v


def cast(v: Val, src: Ty, tgt: Ty, heap: Heap, active: Active):
    """The monotonic cast on a copy: returns (value, new heap, new worklist)."""
    heap = dict(heap)
    work = list(reversed(active))
    v = cast_value(v, src, tgt, heap, work, retag)
    return v, heap, tuple(reversed(work))


def update_cell(ref: Val, v: Val, heap: Heap) -> None:
    """Store `v` in the cell `ref` names, keeping the cell's tag."""
    addr = to_addr(ref)
    heap[addr] = (v, heap_cell(heap, addr)[1])


def _dyn_deref(ref: Val, heap: Heap, ann=None, work=None) -> Val:
    """The monotonic read: the cell's value, cast from its tag to `ann`."""
    cell = heap_cell(heap, to_addr(ref))
    v = to_val(cell)
    return v if ann is None else cast_value(v, cell[1], ann, heap, work, retag)


def _dyn_update(ref: Val, v: Val, heap: Heap, ann=None, work=None) -> None:
    """The monotonic write: with an annotation, `v` is cast from `ann`
    to the cell's tag. When both are base types or dyn (`IDENTITY_HEADS`)
    the cast is an identity, an injection or a projection, which touches
    no cell, so it is made at once and a failed projection raises here.
    Otherwise `v` awaits the cast in the cell and the address heads the
    worklist; the driver runs a statement only on an empty worklist, so
    no other cast is pending then."""
    if ann is None:
        return update_cell(ref, v, heap)
    addr = to_addr(ref)
    tag = heap_cell(heap, addr)[1]
    if type(ann) in IDENTITY_HEADS and type(tag) in IDENTITY_HEADS:
        heap[addr] = (cast_value(v, ann, tag, heap, work, retag), tag)
    else:
        heap[addr] = (v, tag, ann)
        work.append(addr)


def _active_step(heap: Heap, work: list) -> str:
    """Process the worklist's head; returns the rule's name. The cast
    commits while the cell's tag is still its target: tags only go down,
    so another tag is one a nested cast lowered."""
    addr = work[-1]
    cell = heap_cell(heap, addr)
    if len(cell) == 2:
        work.pop()
        return "active-discard"
    value, tag, src = cell
    new_val = cast_value(value, src, tag, heap, work, retag)
    if heap[addr][1] is tag:
        heap[addr] = (new_val, tag)
        work[:] = [a for a in work if a != addr]
        return "active-commit"
    # The tag moved below this cast's target: a nested cast superseded
    # it, so the produced value is dropped.
    return "active-supersede"


# Each value class that observes as an atom, and its atom.
_ATOMS = {Closure: O_FUN, FunCast: O_FUN, VRef: O_ADDR, GProxy: O_ADDR,
          Inject: O_INJ}
_PAIR_UP = object()  # on both pair walks' stacks: pair the last two results


def observe(v: Val) -> Observable:
    """Externally visible summary of a value; pairs keep their structure.
    A pair is walked with an explicit stack, so its depth costs no Python
    frames."""
    done, todo = [], [v]
    while todo:
        v = todo.pop()
        t = type(v)
        if v is _PAIR_UP:
            done[-2:] = [OPair(*done[-2:])]
        elif t is VPair:
            todo += (_PAIR_UP, v.snd, v.fst)
        elif t is int or t is bool:
            done.append(OCon(v))
        elif t in _ATOMS:
            done.append(_ATOMS[t])
        else:
            raise Stuck(f"not a value: {v!r}")
    return done[0]


class Semantics(Node):
    """What differs between the reference semantics the driver runs.

    `read(ref, heap, ann, work)` serves an `SDynDeref` and `write(ref,
    v, heap, ann, work)` an `SDynUpdate`, each but an identity at the
    cell's tag, which the driver makes itself. Without `ann` and `work`
    they serve a `Deref` or `SUpdate` the driver does not do itself:
    through anything but a `VRef` to an allocated cell, or a read of a
    pending cell. `cast_ref` is the reference case of `cast_value`. All
    three update the heap and the worklist (head last) in place;
    `active_step` is the worklist rule, None without a worklist.
    """
    read: Callable
    write: Callable
    cast_ref: Callable
    active_step: Callable | None


MONOTONIC = Semantics(_dyn_deref, _dyn_update, retag, _active_step)


def _transitions(sem: Semantics, fuel: int, stmt: Stmt, env: Env,
                 stack: list, heap: Heap, work: list, trace):
    """Run at most `fuel` transitions (none when `fuel` <= 0), updating
    `stack`, `heap` and `work` (each top last) in place; returns (stmt,
    env, fuel left), the fuel left 0 once it runs out. Stops early at a
    final state. Stuck and CastError propagate to the caller.

    Each operand that is a name is looked up where it is used, a return
    to a caller's frame included, and any other operand is its own
    value. A `let` of a `Lam` or a `MkPair` builds its closure or pair
    here, a `let` of a `Deref` reads a settled cell of a `VRef` here,
    and a `let` of `succ` or `prev` on a host `int` computes it here;
    any other reference goes to `sem.read` and any other primitive to
    `delta`. A static access through a `VRef` and an annotated one whose
    cast is an identity under both semantics (see the module docstring)
    are made here; every other access calls `sem.read` or `sem.write`, so each
    transition is the one the semantics' own rules would make.
    """
    read, write, cast_ref, active_step = (
        sem.read, sem.write, sem.cast_ref, sem.active_step)
    start = fuel
    for fuel in range(fuel, 0, -1):
        if work:
            rule = active_step(heap, work)
        else:
            t = type(stmt)
            if t is SLet:
                if (tr := type(v := stmt.rhs)) is Deref:
                    if type(ref := v.ref) is str:
                        scope = env
                        while scope and scope[0] != ref:
                            scope = scope[2]
                        ref = scope[1] if scope else lookup(ref, scope)
                    cell = heap.get(ref.addr) if type(ref) is VRef else None
                    if cell is not None and len(cell) == 2:
                        v = cell[0]
                    else:
                        v = read(ref, heap)
                elif tr is PrimApp:
                    op, v = v.op, v.arg
                    if type(v) is str:
                        scope = env
                        while scope and scope[0] != v:
                            scope = scope[2]
                        v = scope[1] if scope else lookup(v, scope)
                    if type(v) is int and type(op) is Succ:
                        v = v + 1
                    elif type(v) is int and type(op) is Prev:
                        v = v - 1
                    else:
                        v = delta(op, v)
                elif tr is str:
                    scope = env
                    while scope and scope[0] != v:
                        scope = scope[2]
                    v = scope[1] if scope else lookup(v, scope)
                elif tr is Lam:
                    v = Closure(v.param, v.param_ty, v.body, env)
                elif tr is MkPair:
                    v = VPair(_operand(v.fst, env), _operand(v.snd, env))
                env = (stmt.name, v, env)
                stmt = stmt.body
                rule = "let"
            elif t is STailCall or t is SCall:
                if type(fn := stmt.fn) is str:
                    scope = env
                    while scope and scope[0] != fn:
                        scope = scope[2]
                    fn = scope[1] if scope else lookup(fn, scope)
                if type(arg := stmt.arg) is str:
                    scope = env
                    while scope and scope[0] != arg:
                        scope = scope[2]
                    arg = scope[1] if scope else lookup(arg, scope)
                if t is SCall:
                    stack.append((stmt.name, stmt.body, env))
                    rule = "call"
                else:
                    rule = "tailcall"
                if type(fn) is Closure:
                    env = (fn.param, arg, fn.env)
                elif type(fn) is FunCast:
                    env = ("$w0", arg, ("$w1", fn.fn, ()))
                else:
                    raise Stuck(f"call of non-function {fn!r}")
                stmt = fn.body
            elif t is SRet:
                if not stack:
                    break
                if type(v := stmt.expr) is str:
                    scope = env
                    while scope and scope[0] != v:
                        scope = scope[2]
                    v = scope[1] if scope else lookup(v, scope)
                name, stmt, env = stack.pop()
                env = (name, v, env)
                rule = "return"
            elif t is SAlloc:
                if type(v := stmt.init) is str:
                    scope = env
                    while scope and scope[0] != v:
                        scope = scope[2]
                    v = scope[1] if scope else lookup(v, scope)
                addr = len(heap)
                heap[addr] = (v, stmt.cell_ty)
                env = (stmt.name, VRef(addr), env)
                stmt = stmt.body
                rule = "alloc"
            elif t is SUpdate:
                if type(ref := stmt.ref) is str:
                    scope = env
                    while scope and scope[0] != ref:
                        scope = scope[2]
                    ref = scope[1] if scope else lookup(ref, scope)
                if type(v := stmt.rhs) is str:
                    scope = env
                    while scope and scope[0] != v:
                        scope = scope[2]
                    v = scope[1] if scope else lookup(v, scope)
                cell = heap.get(ref.addr) if type(ref) is VRef else None
                if cell is not None:
                    heap[ref.addr] = (v, cell[1])
                else:
                    write(ref, v, heap)
                stmt = stmt.body
                rule = "update"
            elif t is SCast:
                if type(v := stmt.expr) is str:
                    scope = env
                    while scope and scope[0] != v:
                        scope = scope[2]
                    v = scope[1] if scope else lookup(v, scope)
                v = cast_value(v, stmt.src, stmt.tgt, heap, work, cast_ref)
                env = (stmt.name, v, env)
                stmt = stmt.body
                rule = "cast"
            elif t is SDynDeref:
                if type(ref := stmt.ref) is str:
                    scope = env
                    while scope and scope[0] != ref:
                        scope = scope[2]
                    ref = scope[1] if scope else lookup(ref, scope)
                cell = heap.get(ref.addr) if type(ref) is VRef else None
                if (cell is not None and len(cell) == 2
                        and cell[1] is stmt.ann
                        and type(cell[1]) in _SELF_IDENTITY_HEADS):
                    v = cell[0]
                else:
                    v = read(ref, heap, stmt.ann, work)
                env = (stmt.name, v, env)
                stmt = stmt.body
                rule = "dyn-deref"
            elif t is SDynUpdate:
                if type(ref := stmt.ref) is str:
                    scope = env
                    while scope and scope[0] != ref:
                        scope = scope[2]
                    ref = scope[1] if scope else lookup(ref, scope)
                if type(v := stmt.rhs) is str:
                    scope = env
                    while scope and scope[0] != v:
                        scope = scope[2]
                    v = scope[1] if scope else lookup(v, scope)
                cell = heap.get(ref.addr) if type(ref) is VRef else None
                if (cell is not None and len(cell) == 2
                        and cell[1] is stmt.ann
                        and type(cell[1]) in IDENTITY_HEADS):
                    heap[ref.addr] = (v, cell[1])
                else:
                    write(ref, v, heap, stmt.ann, work)
                stmt = stmt.body
                rule = "dyn-update"
            else:
                raise Stuck(f"no transition from {stmt!r}")
        if trace is not None:
            trace(TraceRecord(start - fuel, rule, len(work), len(heap)))
    else:
        fuel = 0
    return stmt, env, fuel


def _unpack(sem: Semantics, state: State):
    """A state's environment as a linked cell, and private copies of its
    stack, heap and worklist, tops last."""
    if state.active and sem.active_step is None:
        raise Stuck("a worklist in a state of a semantics without one")
    return (link(state.env), list(reversed(state.stack)), dict(state.heap),
            list(reversed(state.active)))


def step_with(sem: Semantics, state: State) -> State:
    """One transition on a copy of `state`; Stuck at a final state."""
    env, stack, heap, work = _unpack(sem, state)
    stmt, env, left = _transitions(sem, 1, state.stmt, env, stack, heap,
                                   work, None)
    if left:
        raise Stuck("return from the outermost statement")
    return State(stmt, tuple(bindings(env)), tuple(reversed(stack)), heap,
                 tuple(reversed(work)))


def steps_with(sem: Semantics, fuel: int, state: State,
               trace: Callable[[TraceRecord], None] | None) -> Observable:
    """Drive `sem` from `state` for at most `fuel` transitions.

    Exhausted fuel reports a timeout, and so does `fuel` <= 0, which lets
    no transition run; a final state observes the value of its return
    operand; Stuck and cast failures map to their observables, a final
    value that is no value included. The optional `trace` callback
    receives one record per completed transition.
    """
    try:
        env, stack, heap, work = _unpack(sem, state)
        stmt, env, left = _transitions(sem, fuel, state.stmt, env, stack,
                                       heap, work, trace)
        if left <= 0:
            return O_TIMEOUT
        return observe(_operand(stmt.expr, env))
    except Stuck:
        return O_STUCK
    except CastError:
        return O_CASTERROR


def step(state: State) -> State:
    """One machine transition; Stuck on shape violations and final states."""
    return step_with(MONOTONIC, state)


def final(state: State) -> bool:
    """A return statement with no pending frames and an empty worklist."""
    return isinstance(state.stmt, SRet) and not state.stack and not state.active


def initial_state(stmt: Stmt) -> State:
    return State(stmt, (), (), {}, ())


def steps(fuel: int, state: State,
          trace: Callable[[TraceRecord], None] | None = None) -> Observable:
    """Drive the monotonic machine for at most `fuel` transitions."""
    return steps_with(MONOTONIC, fuel, state, trace)


def run(stmt: Stmt, fuel: int = DEFAULT_FUEL,
        trace: Callable[[TraceRecord], None] | None = None) -> Observable:
    """Run a whole program from the empty configuration."""
    return steps(fuel, initial_state(stmt), trace)
