"""Proxy-based ("guarded") reference semantics for the same IR.

Used for differential comparison against the monotonic machine. Here a
cast on a reference never touches the heap: it wraps the reference in a
proxy carrying the two cell types it mediates between. Reads apply each
layer's cast on the way out (innermost first); writes apply the casts in
reverse on the way in (outermost first) and store the result at the
underlying address. Every heap cell stays settled, `(value, tag)`, under
its allocation tag, which is never consulted, and there is no worklist.
The driver in `machine` runs `GUARDED`: `run_g` owns a private, mutable
heap and stack, while `step_g` and `gwrite` copy the heap they are
given. `gread` and `write_in_place` are its read and write hooks. They
ignore an access's annotation, since the proxies carry the casts, and
the driver reads and writes a plain reference itself, so they serve a
static access only when it goes through a proxy.

The proxies' cost is kept naive on purpose: every reference cast makes
one more proxy, even between equal types, every read or write visits
every layer, and nothing is fused, so an `int→dyn` layer under a
`dyn→int` one still builds an `Inject` and takes it apart again on each
access. Each layer is walked with as little work as `cast_value` itself
would do, though, so that what the two semantics cost differs by their
rules, not by their tuning. Types are interned, so a walk tells an
identity layer, whose two cell types are the same base type or both
dyn, by pointer tests (`src_cell is tgt_cell`, and that object is
`INT`, `BOOL` or `DYN`) and steps over it without a call. A layer into
dyn builds its `Inject` in place, and a layer out of dyn whose value
was injected from its target type, a base type or an arrow, returns the
payload in place: these are the two shapes `cast_value` would make.
Every other layer casts through `cast_value`, so failed casts raise the
same errors and reference and pair layers take the shared cases.
`cast_value` is shared, so a function cast between equal arrows returns
the function here too, and a layer between equal arrow cell types casts
each value it passes through to itself; only a reference cast always
makes a proxy.

Values are the ordinary runtime values, host `int` and `bool` for the
base types, plus `lang.GProxy`, which `machine.observe` sees as an
address; pairs, injections, and closure environments may contain
proxies.
"""

from __future__ import annotations

from collections.abc import Callable

from .lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    CastError,
    GProxy,
    Inject,
    Observable,
    RefT,
    Stmt,
    Ty,
    VRef,
)
from .machine import (
    DEFAULT_FUEL,
    Heap,
    Semantics,
    State,
    TraceRecord,
    cast_value,
    initial_state,
    read_cell,
    step_with,
    steps_with,
    update_cell,
)


def proxy(v, src: RefT, tgt: RefT, heap, work) -> GProxy:
    """The guarded reference cast: one more proxy layer, no heap effects."""
    if type(v) is VRef or type(v) is GProxy:
        return GProxy(v, src.cell, tgt.cell)
    raise CastError("no cast from {} to {}", src, tgt)


def cast_g(v, src: Ty, tgt: Ty):
    """Pure value cast: no heap effects, proxies instead of cell rewrites."""
    return cast_value(v, src, tgt, None, None, proxy)


def gread(v, heap: Heap, ann=None, work=None):
    """Read through a proxy chain, casting each layer innermost first.

    The chain is walked in a loop, so its depth costs no Python frames.
    An identity layer is stepped over on the way down; the others are
    kept and cast on the way back up, an injection or a projection of
    its own payload type in place and any other cast by `cast_value`.
    """
    layers = []  # the casting layers, outermost first
    while type(v) is GProxy:
        s = v.src_cell
        if s is not v.tgt_cell or (s is not DYN and s is not INT
                                   and s is not BOOL):
            layers.append(v)
        v = v.inner
    w = read_cell(v, heap)
    for layer in reversed(layers):
        s, t = layer.src_cell, layer.tgt_cell
        if t is DYN:
            w = Inject(w, s)
        elif (s is DYN and type(w) is Inject and w.src_ty is t
              and (t is INT or t is BOOL or type(t) is ArrowT)):
            w = w.payload
        else:
            w = cast_value(w, s, t, None, None, proxy)
    return w


def write_in_place(v, w, heap: Heap, ann=None, work=None) -> None:
    """Write through a proxy chain, casting each layer outermost first
    while descending to the underlying reference, from its target cell
    type back to its source: an identity layer is stepped over, an
    injection or a projection of its own payload type is made in place,
    and any other cast goes through `cast_value`: the same identity test
    and the same three casts as in `gread`.

    The cell then holds the cast value under its original allocation
    tag; guarded reads never consult the tag.
    """
    while type(v) is GProxy:
        s, t = v.tgt_cell, v.src_cell
        if s is not t or (s is not DYN and s is not INT and s is not BOOL):
            if t is DYN:
                w = Inject(w, s)
            elif (s is DYN and type(w) is Inject and w.src_ty is t
                  and (t is INT or t is BOOL or type(t) is ArrowT)):
                w = w.payload
            else:
                w = cast_value(w, s, t, None, None, proxy)
        v = v.inner
    update_cell(v, w, heap)


def gwrite(v, w, heap: Heap) -> Heap:
    """`write_in_place` on a copy of `heap`; returns the new heap."""
    heap = dict(heap)
    write_in_place(v, w, heap)
    return heap


GUARDED = Semantics(gread, write_in_place, proxy, None)


def step_g(state: State) -> State:
    """One guarded transition; Stuck on a state with a worklist."""
    return step_with(GUARDED, state)


def steps_g(fuel: int, state: State,
            trace: Callable[[TraceRecord], None] | None = None) -> Observable:
    """Drive the guarded semantics for at most `fuel` transitions."""
    return steps_with(GUARDED, fuel, state, trace)


def run_g(stmt: Stmt, fuel: int = DEFAULT_FUEL,
          trace: Callable[[TraceRecord], None] | None = None) -> Observable:
    """Run a whole program under guarded semantics."""
    return steps_g(fuel, initial_state(stmt), trace)
