"""The shared driver: `steps`/`steps_g` against `step`/`step_g`, copying at
the boundary, and which exceptions the driver maps to observables."""

import gc
import random
import tracemalloc
from pathlib import Path

import pytest

from generators import ProgramGen
from monoref.guarded import GUARDED, GProxy, run_g, step_g, steps_g
from monoref.lang import (
    DYN,
    INT,
    CastError,
    Closure,
    Inject,
    Lam,
    OCon,
    O_CASTERROR,
    O_STUCK,
    O_TIMEOUT,
    PairT,
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
    Stuck,
    VPair,
    VRef,
    link,
)
from monoref.machine import (
    Semantics,
    State,
    TraceRecord,
    _operand,
    final,
    initial_state,
    run,
    observe,
    step,
    steps,
    steps_with,
)
from monoref.surface import ParseError, elaborate, parse_surface, typecheck_surface
from monoref.typecheck import TypeCheckError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
INT4 = 4

RULES = {SLet: "let", SRet: "return", SCall: "call", STailCall: "tailcall",
         SAlloc: "alloc", SUpdate: "update", SDynUpdate: "dyn-update",
         SCast: "cast", SDynDeref: "dyn-deref"}

SEMANTICS = [(steps, step), (steps_g, step_g)]


def rule_of(before: State, after: State) -> str:
    """The rule a transition used, told from the states on either side."""
    if not before.active:
        return RULES[type(before.stmt)]
    head = before.active[0]
    if len(before.heap[head]) == 2:
        return "active-discard"
    if len(after.heap[head]) == 2:
        return "active-commit"
    return "active-supersede"


def iterate(stepper, state, fuel):
    """Observable and trace of `fuel` transitions taken one `step` at a time."""
    records = []
    for index in range(fuel):
        if final(state):
            try:
                obs = observe(_operand(state.stmt.expr, link(state.env)))
            except Stuck:
                return O_STUCK, records
            return obs, records
        try:
            after = stepper(state)
        except Stuck:
            return O_STUCK, records
        except CastError:
            return O_CASTERROR, records
        records.append(TraceRecord(index, rule_of(state, after),
                                   len(after.active), len(after.heap)))
        state = after
    return O_TIMEOUT, records


def cell(v, ty=INT):
    return (v, ty)


def start_states():
    """Every corpus program that compiles, generated programs, and two
    worklists that generated programs do not reach (stuck under guarded
    semantics, which has no worklist)."""
    for path in sorted(CORPUS.glob("*.gtlc")):
        try:
            ast = parse_surface(path.read_text())
            typecheck_surface((), ast)
        except (ParseError, TypeCheckError):
            continue
        yield path.name, initial_state(elaborate(ast))
    rng = random.Random(4242)
    for i in range(40):
        gen = ProgramGen(rng, allow_ref_casts=i % 4 != 0)
        ast = gen.program(size=rng.randint(3, 10))
        typecheck_surface((), ast)
        yield f"generated {i}", initial_state(elaborate(ast))
    yield "discard", State(SRet(1), (), (), {0: cell(INT4)}, (0,))
    # A pending cast whose nested projection lowers the same cell's tag.
    inner = PairT(RefT(DYN), INT)
    tag = PairT(RefT(inner), DYN)
    content = VPair(Inject(VRef(0), RefT(DYN)), Inject(INT4, INT))
    yield "supersede", State(SRet(0), (), (),
                             {0: (content, tag, PairT(DYN, DYN))},
                             (0,))


def test_steps_matches_iterated_step():
    seen = set()
    for name, state in start_states():
        for driver, stepper in SEMANTICS:
            for fuel in (10_000, 7):
                records = []
                obs = driver(fuel, state, trace=records.append)
                expected_obs, expected_records = iterate(stepper, state, fuel)
                assert obs == expected_obs, name
                assert records == expected_records, name
                seen.update(r.rule for r in records)
    # Every rule of both semantics took part in the comparison.
    assert seen == set(RULES.values()) | {
        "active-commit", "active-discard", "active-supersede"}


FRAME = ("k", SRet("k"), ())


@pytest.mark.parametrize("stepper, state", [
    (step, State(SAlloc("x", INT, 4, SRet("x")),
                 (), (FRAME,), {0: cell(INT4)}, ())),
    (step, State(SUpdate("r", 5, SRet("r")),
                 (("r", VRef(0)),), (FRAME,), {0: cell(INT4)}, ())),
    (step, State(SDynUpdate("r", 5, INT, SRet("r")),
                 (("r", VRef(0)),), (FRAME,), {0: cell(INT4)}, ())),
    (step, State(SCast("y", "r", RefT(DYN), RefT(INT), SRet("y")),
                 (("r", VRef(0)),), (FRAME,),
                 {0: cell(Inject(INT4, INT), DYN)}, ())),
    (step, State(SRet(1), (), (FRAME,),
                 {0: (Inject(INT4, INT), INT, DYN)}, (0,))),
    (step, State(SCall("k", "f", 1, SRet("k")),
                 (("f", Closure("x", INT, SRet("x"), ())),), (FRAME,),
                 {}, ())),
    (step_g, State(SAlloc("x", INT, 4, SRet("x")),
                   (), (FRAME,), {0: cell(INT4)}, ())),
    (step_g, State(SUpdate("r", 5, SRet("r")),
                   (("r", GProxy(VRef(0), INT, INT)),), (FRAME,),
                   {0: cell(INT4)}, ())),
    (step_g, State(SDynUpdate("r", 5, INT, SRet("r")),
                   (("r", VRef(0)),), (FRAME,), {0: cell(INT4)}, ())),
    (step_g, State(SCast("y", "r", RefT(DYN), RefT(INT), SRet("y")),
                   (("r", VRef(0)),), (FRAME,),
                   {0: cell(Inject(INT4, INT), DYN)}, ())),
], ids=["alloc", "update", "dyn-update", "cast", "active-commit", "call",
        "guarded-alloc", "guarded-update", "guarded-dyn-update",
        "guarded-cast"])
def test_step_leaves_its_input_unchanged(stepper, state):
    heap, stack = dict(state.heap), state.stack
    after = stepper(state)
    assert state.heap == heap and state.stack is stack == (FRAME,)
    assert after.heap is not state.heap
    # The stack keeps its innermost frame first.
    assert after.stack[-1] == FRAME
    if len(after.stack) == 2:
        assert after.stack[0] == ("k", SRet("k"), link(state.env))
    # Stepping the same input again gives the same state.
    assert stepper(state) == after


def test_step_return_pops_the_innermost_frame():
    outer = ("a", SRet("a"), ())
    state = State(SRet(3), (), (FRAME, outer), {}, ())
    after = step_g(state)
    assert after.stack == (outer,) and after.stmt == FRAME[1]
    assert after.env == (("k", 3),)
    assert state.stack == (FRAME, outer)


@pytest.mark.parametrize("stepper", [step, step_g])
def test_step_lists_the_environment_as_pairs(stepper):
    # `State.env` lists (name, value) pairs, newest first, although the
    # driver keeps a linked cell; a closure and a frame hold the cell.
    identity = Lam("y", INT, SRet("y"))
    stmt = SLet("x", 1, SLet("f", identity, SCall(
        "z", "f", "x",
        SAlloc("r", INT, "z", SRet("r")))))
    closure = Closure("y", INT, identity.body, ("x", 1, ()))
    state, envs = initial_state(stmt), []
    while not final(state):
        state = stepper(state)
        assert type(state.env) is tuple
        assert all(type(b) is tuple and len(b) == 2 for b in state.env)
        envs.append(state.env)
        if state.stack:
            assert state.stack[0][2] == ("f", closure, ("x", 1, ()))
    assert envs == [
        (("x", 1),),
        (("f", closure), ("x", 1)),
        (("y", 1), ("x", 1)),
        (("z", 1), ("f", closure), ("x", 1)),
        (("r", VRef(0)), ("z", 1), ("f", closure), ("x", 1)),
    ]


@pytest.mark.parametrize("runner", [run, run_g])
def test_closures_share_their_scope(runner):
    # Each of n `let`s binds a closure, which holds the scope it was made
    # in. Linked cells share that scope's tail, so the memory a run holds
    # grows linearly with n; copying each scope would make it quadratic
    # (about 4x from n = 400 to 800). The cyclic collector stays off
    # while a run is measured, so whether a collection falls inside it,
    # which depends on the tests run before, does not move the peak.
    def peak_bytes(n):
        stmt = SRet(0)
        for i in range(n):
            stmt = SLet(f"f{i}", Lam("x", INT, SRet("x")), stmt)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            assert runner(stmt) == OCon(0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    peak_bytes(800)  # a first run also makes one-time allocations
    assert peak_bytes(800) < 2.5 * peak_bytes(400)


REF_CAST_LOOP = """
(let (c (ref int 7))
  (let (loop (ref (-> (ref-ty int) int) (lambda (r : (ref-ty int)) 0)))
    (begin
      (:= loop (lambda (r : (ref-ty int))
                 (let (r2 (cast (cast r (ref-ty dyn)) (ref-ty int)))
                   (begin (! r2)
                          ((! loop) r2)))))
      ((! loop) c))))
"""


def test_driver_maps_only_stuck_and_cast_errors():
    # Guarded proxies pile up two per iteration; reads and writes walk
    # the chain in a loop, so both semantics run out of fuel.
    stmt = elaborate(parse_surface(REF_CAST_LOOP))
    assert run(stmt, fuel=10_000) == O_TIMEOUT
    assert run_g(stmt, fuel=10_000) == O_TIMEOUT

    # Any other exception is not an observable and escapes the driver.
    def overflow(v, src, tgt, heap, work):
        raise RecursionError

    failing = Semantics(**{**vars(GUARDED), "cast_ref": overflow})
    with pytest.raises(RecursionError):
        steps_with(failing, 10_000, initial_state(stmt), None)


@pytest.mark.parametrize("driver", [steps, steps_g])
def test_a_final_value_that_is_no_value_is_stuck(driver):
    # The final state's result is observed inside the driver's mapping of
    # Stuck, so a result that is no runtime value ends as an observable.
    state = State(SRet("x"), (("x", "junk"),), (), {}, ())
    assert driver(10, state) == O_STUCK
    assert driver(10, State(SRet("junk"), (), (), {}, ())) == O_STUCK


def no_transition(record):
    raise AssertionError(f"transition {record} ran without fuel")


@pytest.mark.parametrize("fuel", [0, -1, -10**9])
def test_fuel_at_most_zero_runs_no_transition(fuel):
    loop = elaborate(parse_surface(REF_CAST_LOOP))
    assert run(loop, fuel=fuel, trace=no_transition) == O_TIMEOUT
    assert run_g(loop, fuel=fuel, trace=no_transition) == O_TIMEOUT
    done = State(SRet(4), (), (), {}, ())
    for driver in (steps, steps_g):
        assert driver(fuel, initial_state(loop), no_transition) == O_TIMEOUT
        assert driver(fuel, done, no_transition) == O_TIMEOUT
