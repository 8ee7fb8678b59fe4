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
one more proxy, even between equal types, and every read or write visits
every layer. A walk steps over an identity layer, one whose two cell
types are the same base type or both dyn, without a call, since
`cast_value` would return the value unchanged; every other layer casts
through `cast_value` directly. `cast_value` is shared, so a function
cast between equal arrows returns the function here too, and a layer
between equal arrow cell types casts each value it passes through to
itself; only a reference cast always makes a proxy.

Values are the ordinary runtime values, host `int` and `bool` for the
base types, plus `lang.GProxy`, which `machine.observe` sees as an
address; pairs, injections, and closure environments may contain
proxies.
"""

from __future__ import annotations

from collections.abc import Callable

from .lang import (
    CastError,
    GProxy,
    IDENTITY_HEADS,
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
    if isinstance(v, (VRef, GProxy)):
        return GProxy(v, src.cell, tgt.cell)
    raise CastError("no cast from {} to {}", src, tgt)


def cast_g(v, src: Ty, tgt: Ty):
    """Pure value cast: no heap effects, proxies instead of cell rewrites."""
    return cast_value(v, src, tgt, None, None, proxy)


def gread(v, heap: Heap, ann=None, work=None):
    """Read through a proxy chain, casting each layer innermost first.

    The chain is walked in a loop, so its depth costs no Python frames.
    An identity layer is stepped over on the way down; the others are
    kept and cast on the way back up.
    """
    layers = ()  # (casting layer, further layers), innermost first
    while type(v) is GProxy:
        s = type(v.src_cell)
        if s is not type(v.tgt_cell) or s not in IDENTITY_HEADS:
            layers = (v, layers)
        v = v.inner
    w = read_cell(v, heap)
    while layers:
        layer, layers = layers
        w = cast_value(w, layer.src_cell, layer.tgt_cell, None, None, proxy)
    return w


def write_in_place(v, w, heap: Heap, ann=None, work=None) -> None:
    """Write through a proxy chain, casting each layer outermost first
    while descending to the underlying reference; identity layers are
    stepped over.

    The cell then holds the cast value under its original allocation
    tag; guarded reads never consult the tag.
    """
    while type(v) is GProxy:
        t = type(v.tgt_cell)
        if t is not type(v.src_cell) or t not in IDENTITY_HEADS:
            w = cast_value(w, v.tgt_cell, v.src_cell, None, None, proxy)
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
