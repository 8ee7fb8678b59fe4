"""Machine semantics: evaluation, casting, transitions, and the driver."""

import pytest
from hypothesis import given, strategies as st

from monoref.guarded import run_g
from monoref.lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    CastError,
    Closure,
    Deref,
    Inject,
    ISZERO,
    MkPair,
    OCon,
    O_CASTERROR,
    O_INJ,
    O_STUCK,
    O_TIMEOUT,
    OPair,
    PairT,
    PrimApp,
    RefT,
    SCast,
    SLet,
    SRet,
    STailCall,
    SUCC,
    Stuck,
    VPair,
    VRef,
    link,
    lookup,
    typeof_const,
)
from monoref.machine import (
    State,
    _operand,
    cast,
    delta,
    final,
    fun_cast,
    initial_state,
    observe,
    run,
    step,
    steps,
    to_addr,
    to_val,
)
from monoref.surface import Lit, elaborate, parse_surface

INT4 = 4
TRUE = True


def run_to_value(stmt, env=(), heap=None):
    """Drive a statement to its final value; test helper."""
    state = State(stmt, env, (), heap if heap is not None else {}, ())
    for _ in range(10_000):
        if final(state):
            return (_operand(state.stmt.expr, link(state.env)),
                    state.heap)
        state = step(state)
    raise AssertionError("no final state within 10000 steps")


def test_lookup():
    assert lookup("x", ("x", 1, ("x", 2, ()))) == 1
    assert lookup("y", ("x", 1, ("y", 2, ()))) == 2
    with pytest.raises(Stuck):
        lookup("y", ())


def test_delta():
    assert delta(SUCC, INT4) == 5
    zero = delta(SUCC, -1)
    assert zero == 0 and type(zero) is int
    from monoref.lang import IsZero, Prev
    assert delta(IsZero(), 0) is TRUE
    assert delta(Prev(), INT4) == 3
    with pytest.raises(Stuck):
        delta(SUCC, TRUE)


def test_one_and_true_stay_apart():
    # `bool` subclasses `int`, but the machine checks types exactly: a
    # Boolean is no integer, and a projection tells them apart.
    with pytest.raises(Stuck):
        delta(ISZERO, False)
    with pytest.raises(CastError):
        cast(Inject(TRUE, BOOL), DYN, INT, {}, ())
    assert run(SLet("x", PrimApp(SUCC, True), SRet("x"))) == O_STUCK
    # A literal is the host value itself, and a node tells its leaves
    # apart by exact class.
    for one, true in ((OCon(1), OCon(True)), (Lit(0), Lit(False)),
                      (SRet(1), SRet(True))):
        assert one != true and hash(one) != hash(true)
    assert run(SRet(1)) == OCon(1) and run(SRet(True)) == OCon(True)
    assert typeof_const(True) is BOOL and typeof_const(1) is INT
    with pytest.raises(TypeError):
        typeof_const(1.0)


@given(st.integers(), st.booleans())
def test_a_pair_of_literals_observes_at_their_exact_types(n, b):
    program = elaborate(parse_surface(f"(pair {n} {'#t' if b else '#f'})"))
    for runner in (run, run_g):
        obs = runner(program)
        assert obs == OPair(OCon(n), OCon(b))
        assert type(obs.fst.const) is int and type(obs.snd.const) is bool


def test_to_addr():
    assert to_addr(VRef(3)) == 3
    with pytest.raises(Stuck):
        to_addr(3)
    with pytest.raises(Stuck):
        to_addr(Inject(VRef(3), RefT(INT)))


def test_to_val():
    assert to_val((7, INT)) == 7
    assert to_val((VRef(0), RefT(INT))) == VRef(0)
    with pytest.raises(Stuck):
        to_val((7, INT, INT))


def test_let_binds_each_right_hand_side():
    def bound(rhs, env=(("x", 9),), heap=None):
        state = State(SLet("v", rhs, SRet("v")), env, (),
                      heap or {}, ())
        return step(state).env[0][1]

    assert _operand("x", ("x", 9, ())) == 9
    assert _operand(3, ()) == 3 and _operand(False, ()) is False
    assert bound("x") == 9 and bound(7) == 7
    with pytest.raises(Stuck, match="unbound name 'y'"):
        bound("y")
    r = (("r", VRef(0)),)
    assert bound(Deref("r"), r, {0: (7, INT)}) == 7
    with pytest.raises(Stuck):
        bound(Deref("r"), r, {0: (7, INT, INT)})
    pair = bound(MkPair(1, True))
    assert pair == VPair(1, TRUE)
    assert type(pair.fst) is int and type(pair.snd) is bool


def identity_closure():
    return Closure("x", INT, SRet("x"), ())


def apply_value(fn, arg, heap=None):
    stmt = STailCall("$fn", "$arg")
    env = (("$fn", fn), ("$arg", arg))
    return run_to_value(stmt, env, heap)


INT_INT = ArrowT(INT, INT)


def test_wrap_identity_through_dyn():
    wrapped = fun_cast(identity_closure(), INT_INT, ArrowT(DYN, DYN))
    value, _ = apply_value(wrapped, Inject(INT4, INT))
    assert value == Inject(INT4, INT)


def test_wrap_same_types_behaves_as_wrapped():
    wrapped = fun_cast(identity_closure(), INT_INT, INT_INT)
    value, _ = apply_value(wrapped, INT4)
    direct, _ = apply_value(identity_closure(), INT4)
    assert value == direct == INT4


def test_wrap_bad_argument_cast_errors():
    wrapped = fun_cast(identity_closure(), INT_INT, ArrowT(BOOL, BOOL))
    stmt = STailCall("$fn", "$arg")
    env = (("$fn", wrapped), ("$arg", TRUE))
    assert steps(1_000, State(stmt, env, (), {}, ())) == O_CASTERROR


def test_cast_retargets_a_pending_cell():
    # A cell already pending a cast keeps its value and source, and only
    # its tag is lowered: pending casts never stack.
    pair = Inject(VPair(Inject(INT4, INT), Inject(TRUE, BOOL)),
                  PairT(DYN, DYN))
    heap = {0: (pair, PairT(DYN, DYN), DYN)}
    v, new_heap, active = cast(VRef(0), RefT(PairT(DYN, DYN)),
                               RefT(PairT(INT, DYN)), heap, ())
    assert v == VRef(0) and active == (0,)
    assert new_heap == {0: (pair, PairT(INT, DYN), DYN)}
    assert heap == {0: (pair, PairT(DYN, DYN), DYN)}  # input unchanged
    # A settled cell's value awaits a cast from its old tag.
    inj = Inject(INT4, INT)
    _, new_heap, _ = cast(VRef(0), RefT(DYN), RefT(INT), {0: (inj, DYN)}, ())
    assert new_heap == {0: (inj, INT, DYN)}


def test_cast_identity_and_injection():
    assert cast(INT4, INT, INT, {}, ()) == (INT4, {}, ())
    v, heap, active = cast(INT4, INT, DYN, {}, ())
    assert v == Inject(INT4, INT) and heap == {} and active == ()


def test_cast_bad_projection():
    with pytest.raises(CastError):
        cast(Inject(TRUE, BOOL), DYN, INT, {}, ())


def test_cast_reference_strong_update():
    heap = {0: (Inject(INT4, INT), DYN)}
    v, new_heap, active = cast(VRef(0), RefT(DYN), RefT(INT), heap, ())
    assert v == VRef(0)
    assert new_heap == {0: (Inject(INT4, INT), INT, DYN)}
    assert active == (0,)
    assert heap == {0: (Inject(INT4, INT), DYN)}  # input unchanged


def test_cast_reference_already_low_enough():
    heap = {0: (INT4, INT)}
    v, new_heap, active = cast(VRef(0), RefT(INT), RefT(DYN), heap, ())
    assert v == VRef(0) and new_heap == heap and active == ()


def test_cast_reference_meet_failure():
    heap = {0: (INT4, INT)}
    with pytest.raises(CastError):
        cast(VRef(0), RefT(DYN), RefT(BOOL), heap, ())


def test_step_active_discard():
    heap = {0: (INT4, INT)}
    state = State(SRet(1), (), (), heap, (0,))
    after = step(state)
    assert after.active == () and after.heap == heap


def test_step_active_commit():
    heap = {0: (Inject(INT4, INT), INT, DYN)}
    state = State(SRet(1), (), (), heap, (0,))
    after = step(state)
    assert after.heap == {0: (INT4, INT)}
    assert after.active == ()


def test_step_alloc_fresh_address_is_heap_size():
    from monoref.lang import SAlloc
    heap = {0: (INT4, INT), 1: (TRUE, BOOL)}
    stmt = SAlloc("x", INT, 4, SRet("x"))
    after = step(State(stmt, (), (), heap, ()))
    assert after.env[0] == ("x", VRef(2))
    assert after.heap[2] == (INT4, INT)


def test_final():
    assert final(State(SRet(4), (), (), {}, ()))
    frame = ("x", SRet("x"), ())
    assert not final(State(SRet(4), (), (frame,), {}, ()))
    assert not final(State(SRet(4), (), (), {}, (0,)))


def test_step_on_final_state_is_stuck():
    with pytest.raises(Stuck):
        step(State(SRet(4), (), (), {}, ()))


def test_observe():
    assert observe(42) == OCon(42)
    assert observe(Inject(INT4, INT)) == O_INJ
    assert observe(VPair(1, TRUE)) == \
        OPair(OCon(1), OCon(True))


def test_steps_fuel_and_return():
    state = State(SRet(4), (), (), {}, ())
    assert steps(0, state) == O_TIMEOUT
    assert steps(1, state) == OCon(4)


def test_steps_cast_error():
    stmt = SCast("x", 4, INT, BOOL, SRet("x"))
    assert steps(10, initial_state(stmt)) == O_CASTERROR


def test_steps_stuck():
    assert steps(10, initial_state(SRet("missing"))) == O_STUCK


def test_shape_violations_are_stuck_not_crashes():
    call_non_closure = STailCall(1, 2)
    assert steps(10, initial_state(call_non_closure)) == O_STUCK

    from monoref.lang import SUpdate
    dangling = SUpdate("r", 1, SRet(0))
    state = State(dangling, (("r", VRef(9)),), (), {}, ())
    assert steps(10, state) == O_STUCK


def test_run():
    assert run(SRet(4)) == OCon(4)


def test_step_deterministic():
    heap = {0: (Inject(INT4, INT), INT, DYN)}
    state = State(SRet(1), (), (), heap, (0,))
    assert step(state) == step(state)


def test_worklist_drains_preserving_heap_well_formedness():
    # From any well-typed (heap, active) configuration the active phase
    # must drain without getting stuck, keeping the heap well typed
    # against its derived store typing and only ever lowering tags.
    # Cast errors are legitimate outcomes.
    import random

    from generators import HeapGen
    from monoref.typecheck import (
        derive_store_typing,
        store_typing_lesseq,
        wt_heap,
    )

    rng = random.Random(321)
    drained = errored = 0
    for i in range(300):
        hg = HeapGen(rng)
        heap, active = hg.config(rng.randint(1, 5))
        sigma = derive_store_typing(heap)
        assert wt_heap(sigma, heap, set(active))
        state = State(SRet(0), (), (), heap, active)
        previous = sigma
        budget = 1_000
        while state.active:
            budget -= 1
            assert budget > 0, f"config {i}: worklist failed to drain"
            try:
                state = step(state)
            except CastError:
                errored += 1
                break
            current = derive_store_typing(state.heap)
            assert wt_heap(current, state.heap, set(state.active)), \
                f"config {i}: heap ill-typed mid-drain"
            assert store_typing_lesseq(current, previous), \
                f"config {i}: store typing rose"
            previous = current
        else:
            drained += 1
    assert drained > 0 and drained + errored == 300


def test_step_supersede_then_commit_with_duplicate_worklist_entries():
    # A pending cast whose own nested projection lowers the same cell's
    # tag: the first processing round is superseded (its result discarded,
    # the address re-queued), the second commits and clears every
    # remaining occurrence from the worklist.
    inner = PairT(RefT(DYN), INT)
    tag0 = PairT(RefT(inner), DYN)
    content = VPair(Inject(VRef(0), RefT(DYN)), Inject(INT4, INT))
    heap = {0: (content, tag0, PairT(DYN, DYN))}
    state = State(SRet(0), (), (), heap, (0,))

    lowered = PairT(RefT(inner), INT)
    mid = step(state)
    assert mid.heap[0] == (content, lowered, PairT(DYN, DYN))
    assert mid.active == (0, 0)

    done = step(mid)
    assert done.heap[0] == (VPair(VRef(0), INT4), lowered)
    assert done.active == ()
