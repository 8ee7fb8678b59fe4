"""Identity casts are free.

A cast between equal types returns its value, ⟨T⇐T⟩v → v: the `id`
coercion of Herman, Tomb and Flanagan, "Space-Efficient Gradual Typing"
(TFP 2007). So `cast_value` makes no `FunCast` between equal arrows,
under either semantics; a reference cast is no arrow cast, and the
guarded `proxy` still adds a layer even between equal types. A monotonic
annotated write whose annotation and cell tag are both base types or
`dyn` casts the value at once, since such a cast touches no cell, and
leaves nothing pending.

Together these make the monotonic semantics pay nowhere the guarded one
does not on the benchmark's ref-passing loop: over every configuration
of the `lattice` kernel, and the `dyn-call` and `ref-cast` kernels,
monotonic's call stack never grows past guarded's, and both take the
same number of transitions per loop iteration.
"""

import pytest

from kernels import lattice_kernels
from monoref.guarded import GUARDED, proxy
from monoref.lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    CastError,
    Closure,
    FunCast,
    GProxy,
    Inject,
    RefT,
    SRet,
    VRef,
)
from monoref.machine import (
    MONOTONIC,
    cast_value,
    initial_state,
    retag,
    steps_with,
)

FUEL = 10_000
CAST_REFS = pytest.mark.parametrize("cast_ref", [retag, proxy],
                                    ids=["retag", "proxy"])
ARROWS = [ArrowT(INT, INT), ArrowT(DYN, DYN), ArrowT(RefT(INT), INT)]


def closure(dom):
    return Closure("x", dom, SRet("x"), ())


@CAST_REFS
@pytest.mark.parametrize("arrow", ARROWS,
                         ids=["int-int", "dyn-dyn", "ref-int"])
def test_an_identity_arrow_cast_returns_the_function_itself(
        arrow, cast_ref, monkeypatch):
    def built(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")
    monkeypatch.setattr(FunCast, "__init__", built)
    monkeypatch.setattr(GProxy, "__init__", built)
    f, heap, work = closure(arrow.dom), {0: (7, INT)}, []
    # An equal but distinct arrow takes the same rule.
    again = ArrowT(arrow.dom, arrow.cod)
    assert cast_value(f, arrow, again, heap, work, cast_ref) is f
    assert heap == {0: (7, INT)} and work == []


@CAST_REFS
def test_unequal_arrows_still_make_a_function_cast(cast_ref):
    f = closure(INT)
    v = cast_value(f, ArrowT(INT, INT), ArrowT(DYN, DYN), {}, [], cast_ref)
    assert type(v) is FunCast and v.fn is f
    assert (v.src, v.tgt) == (ArrowT(INT, INT), ArrowT(DYN, DYN))


@pytest.mark.parametrize("ann, tag, v, stored", [
    (INT, INT, 5, 5),
    (DYN, DYN, Inject(5, INT), Inject(5, INT)),
    (INT, DYN, 5, Inject(5, INT)),
    (BOOL, DYN, True, Inject(True, BOOL)),
    (DYN, INT, Inject(5, INT), 5),
], ids=["int-int", "dyn-dyn", "inject-int", "inject-bool", "project-int"])
def test_a_base_or_dyn_write_settles_at_once(ann, tag, v, stored):
    heap, work = {0: (7 if tag == INT else Inject(7, INT), tag)}, []
    MONOTONIC.write(VRef(0), v, heap, ann, work)
    assert work == []
    assert heap[0] == (stored, tag) and type(heap[0][0]) is type(stored)


def test_a_failed_projection_raises_at_the_write():
    heap, work = {0: (7, INT)}, []
    with pytest.raises(CastError):
        MONOTONIC.write(VRef(0), Inject(True, BOOL), heap, DYN, work)
    assert heap == {0: (7, INT)} and work == []


@pytest.mark.parametrize("ann, tag, v", [
    (ArrowT(DYN, DYN), ArrowT(INT, INT), closure(DYN)),
    (ArrowT(INT, INT), ArrowT(INT, INT), closure(INT)),
    (DYN, ArrowT(INT, INT), Inject(closure(INT), ArrowT(INT, INT))),
    (RefT(DYN), RefT(INT), VRef(0)),
], ids=["arrow", "equal-arrows", "dyn-into-arrow", "ref"])
def test_any_other_write_leaves_the_cast_pending(ann, tag, v):
    heap, work = {0: (7, INT), 1: (None, tag)}, []
    MONOTONIC.write(VRef(1), v, heap, ann, work)
    assert heap[1] == (v, tag, ann) and work == [1]


# The loop's back edge: a lattice iteration writes the counter once, and
# dyn-call and ref-cast, which write no counter, tail-call once.
MARKS = {"dyn-call": ("tailcall",), "ref-cast": ("tailcall",)}
COUNTER_WRITES = ("update", "dyn-update")


def loop_profile(stmt, sem, marks):
    """The peak of calls minus returns over a run, and the transitions
    from the 11th record whose rule is in `marks` to the 12th, when the
    loop runs in its steady state."""
    depth = peak = 0
    at = []

    def record(rec):
        nonlocal depth, peak
        if rec.rule == "call":
            depth += 1
            peak = max(peak, depth)
        elif rec.rule == "return":
            depth -= 1
        if rec.rule in marks:
            at.append(rec.index)

    steps_with(sem, FUEL, initial_state(stmt), record)
    assert len(at) > 11, "the loop did not reach a steady state"
    return peak, at[11] - at[10]


KERNELS = list(lattice_kernels())


@pytest.mark.parametrize("name, stmt", KERNELS,
                         ids=[name for name, _ in KERNELS])
def test_monotonic_pays_nowhere_guarded_does_not(name, stmt):
    marks = MARKS.get(name, COUNTER_WRITES)
    mono_peak, mono_period = loop_profile(stmt, MONOTONIC, marks)
    guarded_peak, guarded_period = loop_profile(stmt, GUARDED, marks)
    assert mono_peak <= guarded_peak
    assert mono_period == guarded_period
