"""Proxy semantics: casts, reads, writes, and differential behavior."""

import random
from pathlib import Path

import pytest

from generators import ProgramGen
from monoref.lang import (
    BOOL,
    DYN,
    INT,
    CastError,
    Inject,
    OCon,
    O_CASTERROR,
    O_INJ,
    O_STUCK,
    O_TIMEOUT,
    RefT,
    Stuck,
    VRef,
)
from monoref.guarded import GProxy, cast_g, gread, gwrite, run_g
from monoref.machine import observe, run
from monoref.surface import elaborate, parse_surface, typecheck_surface

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

INT4 = 4
TRUE = True
ERRORS = (O_CASTERROR, O_STUCK, O_TIMEOUT)


def corpus_program(name):
    ast = parse_surface((CORPUS / f"{name}.gtlc").read_text())
    typecheck_surface((), ast)
    return elaborate(ast)


def test_cast_g_reference_builds_proxy():
    assert cast_g(VRef(0), RefT(DYN), RefT(INT)) == GProxy(VRef(0), DYN, INT)


def test_cast_g_injection_and_projection():
    assert cast_g(INT4, INT, DYN) == Inject(INT4, INT)
    with pytest.raises(CastError):
        cast_g(Inject(TRUE, BOOL), DYN, INT)


def test_cast_g_stacks_proxies():
    once = cast_g(VRef(0), RefT(INT), RefT(DYN))
    twice = cast_g(once, RefT(DYN), RefT(BOOL))
    assert twice == GProxy(GProxy(VRef(0), INT, DYN), DYN, BOOL)


def test_gread():
    heap = {0: (7, DYN)}
    assert gread(VRef(0), heap) == 7
    inj_heap = {0: (Inject(INT4, INT), DYN)}
    assert gread(GProxy(VRef(0), DYN, INT), inj_heap) == INT4
    bad_heap = {0: (Inject(TRUE, BOOL), DYN)}
    with pytest.raises(CastError):
        gread(GProxy(VRef(0), DYN, INT), bad_heap)
    with pytest.raises(Stuck):
        gread(INT4, heap)


def test_cast_g_base_mismatch():
    with pytest.raises(CastError):
        cast_g(INT4, INT, BOOL)


def test_gwrite_non_reference_is_stuck():
    with pytest.raises(Stuck):
        gwrite(INT4, TRUE, {})


def test_run_g_shape_violation_is_stuck():
    from monoref.lang import STailCall

    program = STailCall(1, 2)
    assert run_g(program, fuel=10) == O_STUCK


def test_run_g_timeout():
    looping = elaborate(parse_surface("""
        (let (r (ref (-> int int) (lambda (x : int) x)))
          (begin
            (:= r (lambda (x : int) ((! r) x)))
            ((! r) 0)))
        """))
    assert run_g(looping, fuel=200) == O_TIMEOUT


def test_steps_g_final_read_through_failing_proxy():
    # A proxied read can fail in the `let` whose value the final return
    # returns: the driver maps the failure to the run's observable.
    from monoref.guarded import steps_g
    from monoref.lang import Deref, SLet, SRet
    from monoref.machine import State

    heap = {0: (Inject(TRUE, BOOL), DYN)}
    env = (("r", GProxy(VRef(0), DYN, INT)),)
    state = State(SLet("v", Deref("r"), SRet("v")), env, (), heap,
                  ())
    assert steps_g(10, state) == O_CASTERROR
    missing = State(SRet("missing"), (), (), {}, ())
    assert steps_g(10, missing) == O_STUCK


def test_gwrite():
    heap = {0: (INT4, INT)}
    assert gwrite(VRef(0), 5, heap) == {0: (5, INT)}
    assert heap == {0: (INT4, INT)}  # input untouched
    dyn_heap = {0: (Inject(INT4, INT), DYN)}
    written = gwrite(GProxy(VRef(0), DYN, BOOL), TRUE, dyn_heap)
    assert written[0] == (Inject(TRUE, BOOL), DYN)
    written_int = gwrite(GProxy(VRef(0), DYN, INT), INT4, dyn_heap)
    assert written_int[0] == (Inject(INT4, INT), DYN)


def test_observe_proxy_is_address():
    assert observe(GProxy(VRef(0), DYN, INT)) == observe(VRef(0))


def test_read_and_write_through_a_deep_proxy_chain():
    # The chain is walked in a loop: its depth costs no Python frames.
    ref = VRef(0)
    for _ in range(100_000):
        ref = GProxy(ref, INT, INT)
    heap = {0: (INT4, INT)}
    assert gread(ref, heap) == INT4
    five = 5
    assert gwrite(ref, five, heap) == {0: (five, INT)}


def test_boolean_cell_viewed_as_int_reference():
    # A dyn cell holding an injected boolean, cast to an int reference:
    # the monotonic cast fails up front trying to retype the cell, and
    # the guarded proxy fails later, on the read inside the callee.
    source = """
    (let (f (lambda (x : (ref-ty int)) (! x)))
      (begin (f (ref int 4))
             (f (cast (ref dyn (cast #t dyn)) (ref-ty int)))))
    """
    ast = parse_surface(source)
    typecheck_surface((), ast)
    program = elaborate(ast)
    assert run(program) == O_CASTERROR
    assert run_g(program) == O_CASTERROR


def test_corpus_differential_outcomes():
    ex1 = corpus_program("ex1")
    assert run(ex1) == O_CASTERROR
    assert run_g(ex1) == OCon(True)

    ex1r = corpus_program("ex1r")
    assert run_g(ex1r) == O_CASTERROR

    ex2 = corpus_program("ex2")
    assert run(ex2) == run_g(ex2) == OCon(4)

    ex3 = corpus_program("ex3")
    assert run(ex3) == O_CASTERROR
    assert run_g(ex3) not in ERRORS
    assert run_g(ex3) == O_INJ

    cycle = corpus_program("cycle")
    assert run(cycle) == run_g(cycle) == OCon(42)


def test_agreement_without_reference_casts():
    rng = random.Random(56)
    gen = ProgramGen(rng, allow_ref_casts=False)
    for i in range(150):
        prog = gen.program(size=rng.randint(3, 10))
        typecheck_surface((), prog)
        ir = elaborate(prog)
        mono = run(ir, fuel=10_000)
        guard = run_g(ir, fuel=10_000)
        assert mono == guard, f"program {i}: {mono} vs {guard}"


def test_monotonic_is_more_restrictive_than_guarded():
    """Monotonic references allow fewer programs, never other results:
    where the monotonic run gives a value, the guarded run gives the same
    observable, and where the two differ, the monotonic run failed a cast.
    """
    values = only_monotonic_failed = 0
    for seed in range(1000):
        rng = random.Random(seed)
        prog = ProgramGen(rng, allow_ref_casts=True).program(
            size=rng.randint(3, 14))
        typecheck_surface((), prog)
        ir = elaborate(prog)
        mono = run(ir, fuel=20_000)
        guard = run_g(ir, fuel=20_000)
        # A timeout on either side would make the property vacuous.
        assert O_TIMEOUT not in (mono, guard), f"program {seed} timed out"
        if mono not in ERRORS:
            values += 1
            assert guard == mono, f"program {seed}: {mono} vs {guard}"
        elif guard != mono:
            only_monotonic_failed += 1
            assert mono == O_CASTERROR, f"program {seed}: {mono} vs {guard}"
    assert values > 0 and only_monotonic_failed > 0


def test_pickiness_statistics():
    """Explore, never assert: how often is the guarded run the only failure?

    Counterexamples (guarded errs, monotonic succeeds) are reported, not
    failed; the relationship is a conjecture, not a theorem.
    """
    rng = random.Random(77)
    gen = ProgramGen(rng)
    guarded_errors = both_errors = counterexamples = 0
    for i in range(250):
        prog = gen.program(size=rng.randint(3, 12))
        typecheck_surface((), prog)
        ir = elaborate(prog)
        guard = run_g(ir, fuel=10_000)
        if guard != O_CASTERROR:
            continue
        guarded_errors += 1
        mono = run(ir, fuel=10_000)
        if mono == O_CASTERROR:
            both_errors += 1
        else:
            counterexamples += 1
            print(f"pickiness counterexample at program {i}: "
                  f"guarded error, monotonic {mono}")
    print(f"pickiness: {guarded_errors} guarded errors, "
          f"{both_errors} shared, {counterexamples} counterexamples")
    assert guarded_errors > 0  # the corpus must actually exercise failures


def test_step_g_never_touches_active_list():
    from monoref.guarded import step_g
    from monoref.machine import initial_state, final

    state = initial_state(corpus_program("cycle"))
    for _ in range(10_000):
        if final(state):
            break
        state = step_g(state)
        assert state.active == ()
