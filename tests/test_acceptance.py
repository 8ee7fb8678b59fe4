"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import random
import time
from pathlib import Path

import pytest

from generators import HeapGen, ProgramGen, all_types, dynamize, random_ty, staticize
from monoref.lang import (
    CastError,
    OCon,
    O_CASTERROR,
    O_STUCK,
    O_TIMEOUT,
    is_static,
    lesseq,
    meet,
)
from monoref.guarded import run_g
from monoref.machine import cast, final, initial_state, run, step, steps
from monoref.surface import elaborate, parse_surface, typecheck_surface
from monoref.typecheck import (
    check_stmt,
    derive_store_typing,
    store_typing_lesseq,
    wt_heap,
    wt_val,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
ERROR_OBSERVABLES = (O_CASTERROR, O_STUCK, O_TIMEOUT)


def report(number: int, description: str, ok: bool):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def corpus_program(name):
    ast = parse_surface((CORPUS / f"{name}.gtlc").read_text())
    typecheck_surface((), ast)
    return elaborate(ast)


def test_criterion_1_first_example_diverges_between_semantics():
    start = time.time()
    program = corpus_program("ex1")
    mono = run(program)
    guard = run_g(program)
    elapsed = time.time() - start
    report(1, "read-int-then-write-bool views: monotonic cast error, "
              "guarded value",
           mono == O_CASTERROR and guard == OCon(True)
           and elapsed < 1.0)


def test_criterion_2_reordered_example_fails_guarded():
    program = corpus_program("ex1r")
    report(2, "write-bool-then-read-int: guarded cast error",
           run_g(program) == O_CASTERROR)


def test_criterion_3_integer_both_ways_terminates():
    program = corpus_program("ex2")
    report(3, "integer through both routes: monotonic yields 4",
           run(program) == OCon(4))


def test_criterion_4_write_after_return_fails_monotonic():
    program = corpus_program("ex3")
    mono = run(program)
    guard = run_g(program)
    report(4, "write after callee retyped the cell: monotonic cast error, "
              "guarded value",
           mono == O_CASTERROR and guard not in ERROR_OBSERVABLES)


def test_criterion_5_cycle_terminates_with_42():
    program = corpus_program("cycle")
    obs = steps(10_000, initial_state(program))
    report(5, "self-referential pair: 42 within 10000 steps",
           obs == OCon(42))


def test_criterion_6_type_algebra_lemmas():
    start = time.time()
    depth3 = all_types(3)
    depth2 = all_types(2)
    failures = 0

    for a in depth3:
        if not lesseq(a, a):
            failures += 1
        try:
            if meet(a, a) != a:
                failures += 1
        except CastError:
            failures += 1

    statics = [a for a in depth3 if is_static(a)]
    for a in statics:
        for b in depth3:
            if lesseq(b, a) and a != b:
                failures += 1

    for i, a in enumerate(depth3):
        for b in depth3[i:]:
            try:
                m1 = meet(a, b)
            except CastError:
                m1 = None
            try:
                m2 = meet(b, a)
            except CastError:
                m2 = None
            if m1 != m2:
                failures += 1
            elif m1 is not None and not (lesseq(m1, a) and lesseq(m1, b)):
                failures += 1

    for a in depth2:
        for b in depth2:
            if not lesseq(a, b):
                continue
            for c in depth2:
                if lesseq(b, c) and not lesseq(a, c):
                    failures += 1

    rng = random.Random(606)
    for _ in range(5_000):
        a, b, c = (random_ty(rng, 4) for _ in range(3))
        if lesseq(a, b) and lesseq(b, c) and not lesseq(a, c):
            failures += 1

    elapsed = time.time() - start
    report(6, f"type-algebra lemmas, exhaustive to depth 3 "
              f"({len(depth3)} types, {elapsed:.1f}s)",
           failures == 0 and elapsed < 10.0)


@pytest.fixture(scope="module")
def monotonic_runs():
    """500 well-typed generated programs run under monotonic semantics.

    Each entry carries the final observable and the per-address tag
    history collected while stepping; the time spent generating and
    running is recorded so the criterion budget covers the whole batch.
    """
    started = time.time()
    rng = random.Random(20250810)
    gen = ProgramGen(rng, allow_ref_casts=True)
    results = []
    for _ in range(500):
        prog = gen.program(size=rng.randint(3, 12))
        surface_ty = typecheck_surface((), prog)
        program = elaborate(prog)
        assert check_stmt((), program) == surface_ty

        state = initial_state(program)
        histories = {}
        observable = None
        for _step in range(10_000):
            for addr, cell in state.heap.items():
                tag = cell[1]
                history = histories.setdefault(addr, [])
                if not history or history[-1] != tag:
                    history.append(tag)
            if final(state):
                observable = steps(1, state)
                break
            try:
                state = step(state)
            except Exception:
                observable = steps(1, state)
                break
        if observable is None:
            observable = O_TIMEOUT
        results.append((prog, program, surface_ty, observable, histories))
    return results, time.time() - started


def test_criterion_7_no_stuck_outcomes(monotonic_runs):
    runs, elapsed = monotonic_runs
    stuck = [obs for _, _, _, obs, _ in runs if obs == O_STUCK]
    counts = {}
    for _, _, _, obs, _ in runs:
        counts[type(obs).__name__] = counts.get(type(obs).__name__, 0) + 1
    report(7, f"500 generated programs, no stuck states "
              f"(outcomes {counts}, {elapsed:.1f}s)",
           len(runs) == 500 and not stuck and elapsed < 60.0)


def test_criterion_8_heap_tags_only_descend(monotonic_runs):
    runs, _ = monotonic_runs
    violations = 0
    for _, _, _, _, histories in runs:
        for history in histories.values():
            for earlier, later in zip(history, history[1:]):
                if not lesseq(later, earlier):
                    violations += 1
    report(8, "per-address tag sequences are descending across 500 runs",
           violations == 0)


def test_criterion_9_cast_safety():
    start = time.time()
    rng = random.Random(4096)
    triples = successes = failures = 0
    while triples < 1_000:
        hg = HeapGen(rng)
        heap, active = hg.config(rng.randint(1, 4))
        src_ty = random_ty(rng, rng.choice((2, 3)))
        value = hg.value_of(src_ty)
        heap = hg.heap()
        sigma = derive_store_typing(heap)
        if not (wt_val(sigma, value, src_ty)
                and wt_heap(sigma, heap, set(active))):
            continue  # generator failed the precondition; do not count it
        roll = rng.random()
        if roll < 0.35:
            tgt_ty = dynamize(rng, src_ty)
        elif roll < 0.70:
            tgt_ty = staticize(rng, src_ty)
        elif roll < 0.85:
            tgt_ty = src_ty
        else:
            tgt_ty = random_ty(rng, 2)
        triples += 1
        try:
            new_value, new_heap, new_active = cast(value, src_ty, tgt_ty,
                                                   heap, active)
        except CastError:
            continue
        successes += 1
        new_sigma = derive_store_typing(new_heap)
        if not wt_val(new_sigma, new_value, tgt_ty):
            failures += 1
        if not wt_heap(new_sigma, new_heap, set(new_active)):
            failures += 1
        if not store_typing_lesseq(new_sigma, sigma):
            failures += 1
    elapsed = time.time() - start
    report(9, f"cast safety on {triples} triples "
              f"({successes} successful casts, {elapsed:.1f}s)",
           failures == 0 and successes > 0 and elapsed < 30.0)


def test_criterion_10_elaboration_preserves_types(monotonic_runs):
    runs, _ = monotonic_runs
    mismatches = 0
    for name in ("ex1", "ex1r", "ex2", "ex3", "cycle"):
        ast = parse_surface((CORPUS / f"{name}.gtlc").read_text())
        if check_stmt((), elaborate(ast)) != typecheck_surface((), ast):
            mismatches += 1
    for prog, program, surface_ty, _, _ in runs:
        if check_stmt((), program) != surface_ty:
            mismatches += 1
    report(10, "elaboration preserves types on corpus and 500 generated "
               "programs",
           mismatches == 0)
