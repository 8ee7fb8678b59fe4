"""The lemma behind static code's speed.

A `Deref` or `SUpdate` in the IR has a fully static cell type; the
elaborator sends every other access through `SDynDeref`/`SDynUpdate`.
Under the monotonic semantics such an access always meets a `VRef` to
a cell with no pending cast whose tag is fully static: the tag lies
below the static cell type, and pending casts exist only while the
worklist is non-empty, when no statement runs. Probing records count
the static accesses, calls without an annotation, that reach the
`read` and `write` hooks over the corpus, every benchmark kernel
configuration and generated programs. The driver reads and writes such
a cell without calling either semantics, and only proxies and malformed
states reach the hooks.

An integer or Boolean is the host `int` or `bool`, and every other
runtime value is one object, so a static loop builds only the
references it allocates: counting node constructions over a window of
steps shows no node per arithmetic result, none around a cell's value,
and none per stack frame.

The IR is in A-normal form, so an operand is a name or a literal. A
static transition looks a name operand up where it is used, and calls
`evaluate` only for a `let`'s compound right-hand side (and a return to
a caller's frame, which no loop kernel makes): counting the calls over a
window of steps, casts on names included, shows no call on a bare name
and fewer calls than transitions.
"""

import random
from collections import Counter
from pathlib import Path

import pytest

from generators import ProgramGen
from kernels import all_kernels, kernel, lattice_kernels
from monoref import machine
from monoref.guarded import GUARDED
from monoref.lang import (
    BOOL,
    INT,
    Deref,
    EConst,
    Fst,
    FunCast,
    IntC,
    IsZero,
    Node,
    PairT,
    Prev,
    SCall,
    SLet,
    SRet,
    STailCall,
    SUpdate,
    Snd,
    Stuck,
    Succ,
    VPair,
    VRef,
    Var,
    _TYPES,
    is_static,
    link,
)
from monoref.machine import (
    MONOTONIC,
    Semantics,
    State,
    delta,
    evaluate,
    initial_state,
    step_with,
    steps_with,
)
from monoref.surface import (
    ParseError,
    elaborate,
    parse_surface,
    typecheck_surface,
)
from monoref.typecheck import TypeCheckError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEVEN = 7
TRUE = True


def probing(sem, calls):
    """`sem` with `read` and `write` that record what each call without
    an annotation meets."""
    def meets(ref, heap):
        if type(ref) is not VRef:
            return type(ref).__name__
        if ref.addr not in heap:
            return "unallocated"
        cell = heap[ref.addr]
        if len(cell) == 3:
            return "pending"
        return "static" if is_static(cell[1]) else "dyn tag"

    def read(ref, heap, ann=None, work=None):
        if ann is None:
            calls.append(meets(ref, heap))
        return sem.read(ref, heap, ann, work)

    def write(ref, v, heap, ann=None, work=None):
        if ann is None:
            calls.append(meets(ref, heap))
        return sem.write(ref, v, heap, ann, work)

    return Semantics(**{**vars(sem), "read": read, "write": write})


def programs():
    """The corpus files that compile, every kernel configuration and
    300 generated programs, with the fuel each runs for."""
    for path in sorted(CORPUS.glob("*.gtlc")):
        try:
            ast = parse_surface(path.read_text(encoding="utf-8"))
            typecheck_surface((), ast)
        except (ParseError, TypeCheckError):
            continue
        yield elaborate(ast), 20_000
    for _, stmt in all_kernels():
        yield stmt, 2_000
    rng = random.Random(5050)
    for _ in range(300):
        ast = ProgramGen(rng, allow_ref_casts=True).program(rng.randint(3, 20))
        typecheck_surface((), ast)
        yield elaborate(ast), 20_000


def hook_calls(sem):
    calls = []
    probe = probing(sem, calls)
    for stmt, fuel in programs():
        steps_with(probe, fuel, initial_state(stmt), None)
    return calls


def test_monotonic_static_access_meets_a_plain_static_cell():
    calls = hook_calls(MONOTONIC)
    assert set(calls) <= {"static"}


def test_static_access_stays_in_the_driver():
    # The driver reads and writes a plain cell itself, so static code
    # never calls the monotonic hooks, and the guarded hooks see only
    # the proxies that reference casts made.
    assert hook_calls(MONOTONIC) == []
    calls = hook_calls(GUARDED)
    assert calls and set(calls) == {"GProxy"}


SEMANTICS = pytest.mark.parametrize("sem", [MONOTONIC, GUARDED],
                                    ids=["monotonic", "guarded"])
READ = SLet("x", Deref(Var("r")), SRet(Var("x")))
WRITE = SUpdate(Var("r"), EConst(IntC(1)), SRet(Var("r")))
MALFORMED = [
    ((), {}, "unbound name 'r'"),
    ((("r", SEVEN),), {}, f"not a reference: {SEVEN!r}"),
    ((("r", VRef(0)),), {}, "unallocated address 0"),
]


@SEMANTICS
@pytest.mark.parametrize("stmt", [READ, WRITE], ids=["read", "write"])
@pytest.mark.parametrize("env, heap, message", MALFORMED)
def test_malformed_static_access_is_stuck(sem, stmt, env, heap, message):
    with pytest.raises(Stuck) as err:
        step_with(sem, State(stmt, env, (), heap, ()))
    assert str(err.value) == message


@SEMANTICS
def test_static_read_of_a_pending_cell_is_stuck(sem):
    heap = {0: (SEVEN, INT, INT)}
    with pytest.raises(Stuck) as err:
        step_with(sem, State(READ, (("r", VRef(0)),), (), heap, ()))
    assert str(err.value) == "read of a heap cell with a pending cast"


@SEMANTICS
def test_static_write_replaces_a_pending_cell(sem):
    heap = {0: (SEVEN, INT, INT)}
    after = step_with(sem, State(WRITE, (("r", VRef(0)),), (), heap, ()))
    assert after.heap == {0: (1, INT)}
    assert type(after.heap[0][0]) is int
    assert heap == {0: (SEVEN, INT, INT)}


def test_primitive_shape_errors_name_operator_and_value():
    pair = VPair(SEVEN, TRUE)
    fst, snd = Fst(INT, BOOL), Snd(INT, BOOL)
    for op, arg in [(Succ(), TRUE), (Prev(), pair), (IsZero(), VRef(0)),
                    (fst, SEVEN), (snd, TRUE), (Succ(), pair)]:
        with pytest.raises(Stuck) as err:
            delta(op, arg)
        assert str(err.value) == f"delta undefined on {op!r} and {arg!r}"
    assert delta(fst, pair) == SEVEN
    assert delta(snd, pair) is TRUE


def node_classes(cls=Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from node_classes(sub)


@pytest.fixture
def built(monkeypatch):
    """A Counter of the nodes built, by class name, while the test runs.
    A node counts when its `__init__` runs. A type's constructor is its
    interning `__new__`, which counts only when it makes a new object,
    not when it returns the one already interned. Every patched method
    is restored afterwards."""
    counts = Counter()
    for cls in set(node_classes()):
        if "__new__" in vars(cls):
            def interning(cls, *args, _new=cls.__new__, **kwargs):
                known = len(_TYPES)
                ty = _new(cls, *args, **kwargs)
                if len(_TYPES) > known:
                    counts[cls.__name__] += 1
                return ty
            monkeypatch.setattr(cls, "__new__", staticmethod(interning))
            continue

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_a_type_counts_only_when_its_constructor_makes_it(built):
    # Past 12 leaves, more than the suite's generators give a type, each
    # level of the chain is new the first time and interned the second.
    base = INT
    for _ in range(12):
        base = PairT(BOOL, base)
    for expected in ({"PairT": 40}, {}):
        built.clear()
        t = base
        for _ in range(40):
            t = PairT(BOOL, t)
        assert dict(built) == expected


def built_per_window(sem, stmt, built, window=3_000):
    """Nodes built by steps `window` to `2 * window` of a run: the
    difference between runs of both lengths, so set-up cancels."""
    counts = []
    for fuel in (window, 2 * window):
        built.clear()
        steps_with(sem, fuel, initial_state(stmt), None)
        counts.append(Counter(built))
    return dict(counts[1] - counts[0])


@SEMANTICS
@pytest.mark.parametrize("name, nodes", [
    ("pure", {}),
    ("counter", {}),
    ("alloc", {"VRef": 500}),
])
def test_static_loop_builds_only_the_values_it_computes(sem, name, nodes,
                                                        built):
    # pure computes one successor per 3-step iteration and counter one
    # per 5 steps, each a host int; alloc also allocates one reference
    # per 6 steps, which is the only node any of them builds.
    assert built_per_window(sem, kernel(name), built) == nodes


@SEMANTICS
def test_a_call_pushes_no_node(sem, built):
    stmt = kernel("dyn-call")
    nodes = built_per_window(sem, stmt, built)
    # Each iteration casts the loop function, a `FunCast` whose body was
    # built by the first cast between the same two arrows, and injects
    # its result; its successor is a host int and the frame its non-tail
    # call pushes is a tuple.
    assert set(nodes) == {"FunCast", "Inject"}
    rules = Counter()
    steps_with(sem, 3_000, initial_state(stmt),
               lambda record: rules.update((record.rule,)))
    assert rules["call"] > 400


@pytest.mark.parametrize("name", ["lattice-010", "lattice-110"])
def test_a_pending_cast_builds_no_node(name, built):
    # Each iteration's annotated write, dyn into an int cell, casts the
    # value at once and leaves no cast pending; a pending cast would live
    # in the cell's own third field. The nodes built are the injections
    # alone, with no cast of the loop function, which its cell and the
    # reads of it agree on.
    stmt = dict(lattice_kernels())[name]
    rules = Counter()
    steps_with(MONOTONIC, 3_000, initial_state(stmt),
               lambda record: rules.update((record.rule,)))
    assert rules["dyn-update"] > 0
    nodes = built_per_window(MONOTONIC, stmt, built)
    assert set(nodes) == {"Inject"}


def calls_of_function_casts(sem, stmt, window=3_000):
    """Calls of a `FunCast` among steps `window` to `2 * window` of a run."""
    state, calls = initial_state(stmt), 0
    for n in range(2 * window):
        s = state.stmt
        if n >= window and not state.active and type(s) in (SCall, STailCall):
            fn = evaluate(s.fn, link(state.env), state.heap, sem.read)
            calls += type(fn) is FunCast
        state = step_with(sem, state)
    return calls


@SEMANTICS
def test_a_function_cast_builds_its_body_once(sem, built):
    # The first cast between two arrows builds the body, two casts and a
    # call, and every later cast between them shares it; a call of it
    # builds nothing. dyn-call casts its loop function on every iteration
    # between the same two arrows, so its window builds a `FunCast` per
    # iteration and no body. lattice-001 casts its loop function once,
    # when it stores it in its `(-> dyn dyn)` cell, and under both
    # semantics calls that cast throughout: a read of the cell at its own
    # type is an identity cast, so the window builds no function cast at
    # all.
    kernels = dict(lattice_kernels())
    nodes = built_per_window(sem, kernels["dyn-call"], built)
    assert nodes["FunCast"] > 400
    assert "SCast" not in nodes and "SCall" not in nodes
    stmt = kernels["lattice-001"]
    nodes = built_per_window(sem, stmt, built)
    assert not {"FunCast", "SCast", "SCall"} & set(nodes)
    assert calls_of_function_casts(sem, stmt) > 300


@pytest.fixture
def evaluated(monkeypatch):
    """The expressions `machine.evaluate` is called on while the test
    runs, its calls of itself included, in call order."""
    exprs = []

    def counting(e, env, heap, read, _evaluate=machine.evaluate):
        exprs.append(e)
        return _evaluate(e, env, heap, read)
    monkeypatch.setattr(machine, "evaluate", counting)
    return exprs


@SEMANTICS
@pytest.mark.parametrize("name", ["pure", "counter", "alloc", "ref-cast"])
def test_a_static_transition_looks_its_names_up_in_place(sem, name,
                                                         evaluated):
    # Steps `window` to `2 * window` of a run: a run is deterministic, so
    # the longer run's calls start with the shorter run's, and set-up
    # cancels. Every kernel loops until its fuel is out; `ref-cast` also
    # fires a cast transition on a name every few steps.
    stmt, window, runs = kernel(name), 3_000, []
    for fuel in (window, 2 * window):
        evaluated.clear()
        records = []
        steps_with(sem, fuel, initial_state(stmt), records.append)
        runs.append((records, list(evaluated)))
    (steps, calls), (more_steps, more_calls) = runs
    assert len(more_steps) - len(steps) == window
    if name == "ref-cast":
        assert sum(r.rule == "cast" for r in more_steps[len(steps):]) > 300
    in_window = more_calls[len(calls):]
    assert [e for e in in_window if type(e) is Var] == []
    assert 0 < len(in_window) <= window
