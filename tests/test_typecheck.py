"""Checker rules, runtime typing oracles, and evaluation safety."""

import random
from pathlib import Path

import pytest

from generators import HeapGen, ProgramGen, random_ty
from monoref.lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    Closure,
    Deref,
    Inject,
    MkPair,
    PairT,
    PrimApp,
    RefT,
    SLet,
    SRet,
    SUCC,
    SUpdate,
    VPair,
    VRef,
    is_static,
    lesseq,
    link,
)
from monoref.machine import (
    State,
    _operand,
    final,
    fun_cast,
    initial_state,
    step,
)
from monoref.surface import elaborate, parse_surface, typecheck_surface
from monoref.typecheck import (
    TypeCheckError,
    check_expr,
    check_stmt,
    derive_store_typing,
    environment_typing,
    store_typing_lesseq,
    wt_cell,
    wt_heap,
    wt_val,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

INT4 = 4


def corpus_ir(name):
    ast = parse_surface((CORPUS / f"{name}.gtlc").read_text())
    return typecheck_surface((), ast), elaborate(ast)


def test_check_expr_const():
    assert check_expr((), 4) == INT


def test_check_expr_deref_requires_static():
    with pytest.raises(TypeCheckError, match="static"):
        check_expr((("r", RefT(DYN)),), Deref("r"))


def test_check_expr_deref_static():
    assert check_expr((("x", RefT(INT)),), Deref("x")) == INT


def test_check_expr_unbound():
    with pytest.raises(TypeCheckError, match="unbound"):
        check_expr((), "x")


def test_check_expr_operator_mismatch():
    with pytest.raises(TypeCheckError):
        check_expr((), PrimApp(SUCC, True))


def test_check_expr_deref_non_reference():
    with pytest.raises(TypeCheckError):
        check_expr((), Deref(4))


def test_check_stmt_return():
    assert check_stmt((), SRet(4)) == INT


def test_check_stmt_corpus_ex2():
    ty, program = corpus_ir("ex2")
    assert ty == INT
    assert check_stmt((), program) == INT


def test_check_stmt_update_requires_static():
    stmt = SUpdate("r", 4, SRet(0))
    with pytest.raises(TypeCheckError, match="static"):
        check_stmt((("r", RefT(DYN)),), stmt)


def test_check_stmt_deterministic():
    _, program = corpus_ir("cycle")
    assert check_stmt((), program) == check_stmt((), program)


def test_check_stmt_error_paths():
    from monoref.lang import (
        SAlloc,
        SCall,
        SCast,
        SDynDeref,
        SDynUpdate,
        STailCall,
    )

    ret0 = SRet(0)
    bad = [
        ((), SCall("x", 1, 2, ret0)),
        ((("f", ArrowT(INT, INT)),),
         STailCall("f", True)),
        ((), SAlloc("x", INT, True, ret0)),
        ((("r", RefT(INT)),),
         SDynUpdate("r", 1, BOOL, ret0)),
        ((("r", RefT(INT)),),
         SDynUpdate("r", True, INT, ret0)),
        ((), SCast("x", 1, BOOL, INT, ret0)),
        ((), SCast("x", 1, INT, BOOL, ret0)),
        ((), SCast("x", 1, INT, RefT(INT), ret0)),
        ((("r", RefT(INT)),), SDynDeref("x", "r", BOOL, ret0)),
        ((), SDynDeref("x", 1, INT, ret0)),
        ((("r", BOOL),), SUpdate("r", 1, ret0)),
        ((("r", RefT(INT)),),
         SUpdate("r", True, ret0)),
    ]
    for gamma, stmt in bad:
        with pytest.raises(TypeCheckError):
            check_stmt(gamma, stmt)
    with pytest.raises(TypeCheckError) as err:
        check_stmt((), SCast("x", 1, INT, BOOL, SRet("x")))
    assert err.value.message == "cast from int to inconsistent bool"


def test_derive_store_typing():
    assert derive_store_typing({}) == {}
    assert derive_store_typing({0: (INT4, INT)}) == {0: INT}
    heap = {0: (Inject(INT4, INT), INT, DYN)}
    assert derive_store_typing(heap) == {0: INT}


def test_wt_val():
    assert wt_val({}, INT4, INT)
    assert wt_val({0: INT}, VRef(0), RefT(DYN))
    assert not wt_val({0: DYN}, VRef(0), RefT(INT))
    assert wt_val({}, VPair(INT4, True), PairT(INT, BOOL))
    assert not wt_val({}, INT4, BOOL)


def test_one_and_true_type_apart():
    from monoref.typecheck import value_type

    # `bool` subclasses `int`, but a Boolean types only at bool.
    assert not wt_val({}, True, INT)
    assert not wt_val({}, 1, BOOL)
    assert wt_val({}, True, BOOL) and wt_val({}, 1, INT)
    assert value_type({}, True) == BOOL
    assert value_type({}, 1) == INT


def test_wt_val_closure():
    identity = Closure("x", INT, SRet("x"), ())
    assert wt_val({}, identity, ArrowT(INT, INT))
    assert not wt_val({}, identity, ArrowT(INT, BOOL))
    assert not wt_val({}, identity, ArrowT(BOOL, INT))


def test_wt_cell():
    assert wt_cell({}, (INT4, INT))
    assert wt_cell({}, (Inject(INT4, INT), INT, DYN))
    assert not wt_cell({}, (INT4, DYN, INT))  # the tag lies above the source
    assert not wt_cell({}, (INT4, BOOL))
    assert not wt_cell({}, (INT, INT))  # a type is not a value


def test_value_type_failures():
    from monoref.typecheck import value_type

    with pytest.raises(TypeCheckError):
        value_type({}, VRef(3))  # dangling reference
    ill_closure = Closure("x", INT, SRet("missing"), ())
    with pytest.raises(TypeCheckError):
        value_type({}, ill_closure)
    assert not wt_val({}, ill_closure, ArrowT(INT, INT))


def test_value_type_of_a_wrapper_is_its_target_arrow():
    from monoref.typecheck import value_type

    identity = Closure("x", INT, SRet("x"), ())
    # A projection out of dyn can cast a function between arrows that
    # agree only in their head; the cast still types at its target.
    int_int = ArrowT(INT, INT)
    for new_dom, new_cod in [(DYN, INT), (BOOL, BOOL), (INT, RefT(INT))]:
        cast_fn = fun_cast(identity, int_int, ArrowT(new_dom, new_cod))
        assert value_type({}, cast_fn) == ArrowT(new_dom, new_cod)
        assert wt_val({}, cast_fn, ArrowT(new_dom, new_cod))
    wrong_source = fun_cast(identity, ArrowT(BOOL, INT), ArrowT(DYN, DYN))
    with pytest.raises(TypeCheckError):
        value_type({}, wrong_source)
    assert not wt_val({}, fun_cast(VRef(0), int_int, int_int), int_int)


def test_a_cast_of_a_cast_function_types_at_its_target():
    from monoref.typecheck import value_type

    identity = Closure("x", INT, SRet("x"), ())
    dyn_dyn = ArrowT(DYN, DYN)
    once = fun_cast(identity, ArrowT(INT, INT), dyn_dyn)
    twice = fun_cast(once, dyn_dyn, ArrowT(INT, BOOL))
    assert value_type({}, twice) == ArrowT(INT, BOOL)
    assert wt_val({}, twice, ArrowT(INT, BOOL))
    assert not wt_val({}, twice, dyn_dyn)
    # The inner cast types at its target, not at its source.
    misread = fun_cast(once, ArrowT(INT, INT), dyn_dyn)
    with pytest.raises(TypeCheckError):
        value_type({}, misread)
    assert not wt_val({}, misread, dyn_dyn)


def test_a_chain_of_function_casts_types_without_recursion():
    # A loop that passes a function through dyn on every iteration casts
    # it back and forth between two arrows: typing the chain walks it in a
    # loop, so its depth costs no Python frames.
    from monoref.typecheck import value_type

    int_int, dyn_dyn = ArrowT(INT, INT), ArrowT(DYN, DYN)
    chain = Closure("x", INT, SRet("x"), ())
    for i in range(2_000):
        src, tgt = (int_int, dyn_dyn) if i % 2 == 0 else (dyn_dyn, int_int)
        chain = fun_cast(chain, src, tgt)
    assert value_type({}, chain) == int_int
    assert wt_val({}, chain, int_int)
    assert not wt_val({}, chain, dyn_dyn)
    # One layer that misreads the layer below breaks the whole chain.
    broken = fun_cast(chain, dyn_dyn, int_int)
    for _ in range(2_000):
        broken = fun_cast(broken, int_int, int_int)
    with pytest.raises(TypeCheckError):
        value_type({}, broken)
    assert not wt_val({}, broken, int_int)


def test_a_field_that_holds_no_type_or_operator_is_a_type_error():
    from monoref.lang import Fst, Lam, SAlloc, SCast, SDynDeref, SDynUpdate

    ret0 = SRet(0)
    cases = [
        (SLet("x", PrimApp("junk", 1), SRet("x")), "not an operator"),
        (SLet("x", PrimApp(Fst("int", INT), 1), ret0), "not a type"),
        (SLet("f", Lam("y", "int", SRet("y")), ret0), "not a type"),
        (SCast("x", 1, "int", DYN, SRet("x")), "not a type"),
        (SCast("x", 1, INT, "dyn", SRet("x")), "not a type"),
        (SAlloc("r", "int", 1, ret0), "not a type"),
        (SDynDeref("x", 1, "int", ret0), "not a type"),
        (SDynUpdate(1, 1, "int", ret0), "not a type"),
    ]
    for stmt, message in cases:
        with pytest.raises(TypeCheckError, match=message):
            check_stmt((), stmt)


def test_a_context_entry_that_is_no_type_is_a_type_error_of_check_stmt():
    for stmt in (SRet("x"), SRet(1)):
        with pytest.raises(TypeCheckError) as err:
            check_stmt((("x", "int"),), stmt)
        assert str(err.value) == "annotation 'int' of 'x' is not a type"


def test_a_context_entry_that_is_no_type_is_a_type_error_of_check_expr():
    for expr in ("x", MkPair(1, 2)):
        with pytest.raises(TypeCheckError) as err:
            check_expr([("y", INT), ("x", 3)], expr)
        assert str(err.value) == "annotation 3 of 'x' is not a type"


def test_a_deep_pair_types_without_recursion():
    # Pairs nest on either side, and through injections, 10,000 deep.
    from monoref.typecheck import value_type

    left = right = 1
    left_ty = right_ty = INT
    for _ in range(10_000):
        left, left_ty = VPair(left, True), PairT(left_ty, BOOL)
        right, right_ty = VPair(True, right), PairT(BOOL, right_ty)
    for v, ty in ((left, left_ty), (right, right_ty)):
        assert value_type({}, v) is ty
        assert wt_val({}, v, ty)
        assert not wt_val({}, v, PairT(BOOL, BOOL))
    boxed = Inject(1, INT)
    for _ in range(10_000):
        boxed = Inject(VPair(boxed, 2), PairT(DYN, INT))
    assert value_type({}, boxed) is DYN
    assert wt_val({}, boxed, DYN)
    assert not wt_val({}, VPair(boxed, 2), PairT(INT, INT))


def test_wt_heap_missing_address():
    assert not wt_heap({0: INT}, {}, set())
    # allocation counter bound: addresses must sit below the heap size
    assert not wt_heap({5: INT}, {5: (INT4, INT)}, set())


def test_wt_heap():
    assert wt_heap({}, {}, set())
    assert wt_heap({0: INT}, {0: (INT4, INT)}, set())
    pending = {0: (Inject(INT4, INT), INT, DYN)}
    assert not wt_heap({0: INT}, pending, set())
    assert wt_heap({0: INT}, pending, {0})


def test_wt_heap_rejects_tag_mismatch():
    assert not wt_heap({0: BOOL}, {0: (INT4, INT)}, set())


def test_environment_typing_canonical():
    sigma = {0: INT}
    env = (("r", VRef(0)), ("n", INT4), ("d", Inject(INT4, INT)))
    assert environment_typing(sigma, link(env)) == \
        (("r", RefT(INT)), ("n", INT), ("d", DYN))


def test_a_chain_of_closures_types_each_closure_once(monkeypatch):
    # Each closure is made in the scope of the earlier ones, so typing
    # the last reaches closure i through every later one: without a memo
    # that is 2^n typings of bodies, and typing a captured scope newest
    # first nests a Python frame per closure.
    import monoref.typecheck as typecheck
    from monoref.typecheck import value_type

    calls = []
    stmt = typecheck._stmt

    def counting(gamma, s):
        calls.append(s)
        if len(calls) > 10 * n:
            raise AssertionError("a closure's body was typed again")
        return stmt(gamma, s)

    monkeypatch.setattr(typecheck, "_stmt", counting)
    for n in (40, 2_000):
        env = ()
        for i in range(n):
            last = Closure("x", INT, SRet("x"), env)
            env = (f"f{i}", last, env)
        calls.clear()
        assert value_type({}, last) == ArrowT(INT, INT)
        assert len(calls) == n
        calls.clear()
        assert wt_val({}, last, ArrowT(INT, INT))
        assert len(calls) == n
        calls.clear()
        typing = environment_typing({}, env)
        assert [ty for _, ty in typing] == [ArrowT(INT, INT)] * n
        assert len(calls) == n


def test_store_typing_lesseq():
    assert store_typing_lesseq({0: INT}, {0: DYN})
    assert not store_typing_lesseq({0: DYN}, {0: INT})
    assert not store_typing_lesseq({0: INT}, {0: INT, 1: INT})


# ---------------------------------------------------------------------------
# Evaluation safety: each well-typed `let` binds a well-typed value when
# no cast is pending.

def _bind(lets, rhs):
    name = f"e{len(lets)}"
    lets.append((name, rhs))
    return name


def _random_atom(rng, gamma, ty, depth, lets):
    """An atom of type `ty` over `gamma`, or None. The `let`s that compute
    it, each a name and an A-normal right-hand side, go on `lets`."""
    candidates = [n for n, t in gamma if t == ty]
    deref_candidates = [n for n, t in gamma
                        if t == RefT(ty) and is_static(ty)]
    if depth > 0 and deref_candidates and rng.random() < 0.3:
        return _bind(lets, Deref(rng.choice(deref_candidates)))
    if depth <= 0 or (candidates and rng.random() < 0.4):
        if candidates:
            return rng.choice(candidates)
        if ty == INT:
            return rng.randint(0, 9)
        if ty == BOOL:
            return True
        return None
    if ty == INT and rng.random() < 0.5:
        sub = _random_atom(rng, gamma, INT, depth - 1, lets)
        return _bind(lets, PrimApp(SUCC, sub)) if sub is not None else None
    if isinstance(ty, PairT):
        left = _random_atom(rng, gamma, ty.left, depth - 1, lets)
        right = _random_atom(rng, gamma, ty.right, depth - 1, lets)
        if left is not None and right is not None:
            return _bind(lets, MkPair(left, right))
        return None
    return _random_atom(rng, gamma, ty, 0, lets)


def test_evaluation_safety_on_generated_expressions():
    # Values allocated through HeapGen only create settled cells, which
    # is the empty-worklist precondition this property needs. Each
    # generated chain of `let`s is stepped through the driver, and every
    # value it binds, the result included, types at its checked type.
    rng = random.Random(4242)
    checked = 0
    for _ in range(300):
        hg = HeapGen(rng)
        env = []
        for i in range(rng.randint(1, 3)):
            vty = random_ty(rng, 2)
            env.append((f"x{i}", hg.value_of(vty, exact=True)))
        heap = hg.heap()
        sigma = derive_store_typing(heap)
        gamma = environment_typing(sigma, link(env))
        target = random_ty(rng, 2)
        lets = []
        atom = _random_atom(rng, gamma, target, 2, lets)
        if atom is None:
            continue
        stmt = SRet(atom)
        for name, rhs in reversed(lets):
            stmt = SLet(name, rhs, stmt)
        assert check_stmt(gamma, stmt) == target
        state = State(stmt, tuple(env), (), heap, ())
        scope = gamma
        for name, rhs in lets:
            ty = check_expr(scope, rhs)
            scope = ((name, ty),) + scope
            state = step(state)
            assert state.env[0][0] == name
            assert wt_val(sigma, state.env[0][1], ty)
        assert final(state)
        assert wt_val(sigma, _operand(atom, link(state.env)), target)
        checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# Store typings only move down the order as the machine runs.

def _tag_monotone_over_run(program, fuel=10_000):
    state = initial_state(program)
    previous = derive_store_typing(state.heap)
    for _ in range(fuel):
        if final(state):
            break
        try:
            state = step(state)
        except Exception:
            break
        current = derive_store_typing(state.heap)
        for addr, tag in previous.items():
            assert lesseq(current[addr], tag), f"tag rose at {addr}"
        previous = current


def test_store_typing_monotone_on_corpus():
    for name in ("ex1", "ex1r", "ex2", "ex3", "cycle"):
        _, program = corpus_ir(name)
        _tag_monotone_over_run(program)


def test_store_typing_monotone_on_generated():
    rng = random.Random(11)
    gen = ProgramGen(rng)
    for _ in range(60):
        prog = gen.program(size=rng.randint(4, 10))
        typecheck_surface((), prog)
        _tag_monotone_over_run(elaborate(prog), fuel=3_000)
