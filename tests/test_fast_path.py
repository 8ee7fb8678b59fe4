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
static transition looks a name operand up where it is used, a return
to a caller's frame included, and a `let` reads a cell or takes a
successor in place: counting the calls of the driver's `_operand` over
a window of static loop steps, casts on names included, shows none at
all. A `let` of a lambda builds its closure in place, and a literal
operand is its own value: a transition of such a program calls
`_operand` never, while a `let` of a pair calls it once per part. An
annotated read or write looks its names up in place too.

The driver also makes an annotated access itself when its reference is
a `VRef` to a cell with no pending cast whose tag is the annotation, and
a cast from that tag to itself returns the value untouched: a read at a
base, dyn or arrow tag, a write at a base or dyn tag. Counting the
semantics' `read` and `write` calls shows none for such an access, and
one for every other, among them a monotonic arrow write, which still
commits from the worklist.
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
    DYN,
    INT,
    ArrowT,
    Closure,
    Deref,
    Fst,
    FunCast,
    Inject,
    IsZero,
    Lam,
    MkPair,
    Node,
    OCon,
    PairT,
    Prev,
    PrimApp,
    RefT,
    SCall,
    SDynDeref,
    SDynUpdate,
    SLet,
    SRet,
    STailCall,
    SUpdate,
    Snd,
    Stuck,
    Succ,
    VPair,
    VRef,
    _TYPES,
    is_static,
    link,
)
from monoref.machine import (
    MONOTONIC,
    Semantics,
    State,
    delta,
    final,
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
READ = SLet("x", Deref("r"), SRet("x"))
WRITE = SUpdate("r", 1, SRet("r"))
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
            fn = machine._operand(s.fn, link(state.env))
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
    """The atoms `machine._operand` is called on while the test runs, in
    call order: a pair's two parts, and a final state's result."""
    atoms = []

    def counting(x, env, _operand=machine._operand):
        atoms.append(x)
        return _operand(x, env)
    monkeypatch.setattr(machine, "_operand", counting)
    return atoms


def calls_in_window(sem, stmt, evaluated, window=3_000):
    """The trace records of steps `window` to `2 * window` of a run, and
    the atoms `_operand` was called on meanwhile. A run is
    deterministic, so the longer run's calls start with the shorter
    run's, and set-up cancels."""
    runs = []
    for fuel in (window, 2 * window):
        evaluated.clear()
        records = []
        steps_with(sem, fuel, initial_state(stmt), records.append)
        runs.append((records, list(evaluated)))
    (steps, calls), (more_steps, more_calls) = runs
    assert len(more_steps) - len(steps) == window
    return more_steps[len(steps):], more_calls[len(calls):]


IDENTITY_LAM = Lam("x", INT, SRet("x"))


@SEMANTICS
@pytest.mark.parametrize("name", ["pure", "counter", "alloc", "ref-cast"])
def test_a_static_transition_looks_its_names_up_in_place(sem, name,
                                                         evaluated):
    # Every kernel loops until its fuel is out; `ref-cast` also fires a
    # cast transition on a name every few steps.
    records, calls = calls_in_window(sem, kernel(name), evaluated)
    if name == "ref-cast":
        assert sum(r.rule == "cast" for r in records) > 300
    assert calls == []
    # The fixture does see calls: a `let` of a pair makes one per part.
    evaluated.clear()
    pair = MkPair(1, True)
    step_with(sem, State(SLet("p", pair, SRet("p")), (), (), {}, ()))
    assert evaluated == [1, True]
    assert [type(x) for x in evaluated] == [int, bool]


# A lambda bound by a `let`, and a literal operand of an allocation, an
# update and a non-tail call.
LITERAL_OPERANDS = ("(let (r (ref int 1)) (begin (:= r 3)"
                    " (let (f (lambda (x : int) (succ x))) (succ (f 4)))))")


def test_lambdas_and_literal_operands_are_made_in_place(evaluated):
    ast = parse_surface(LITERAL_OPERANDS)
    typecheck_surface((), ast)
    stmt = elaborate(ast)
    for sem in (MONOTONIC, GUARDED):
        assert steps_with(sem, 100, initial_state(stmt), None) == OCon(6)
        evaluated.clear()
        state = initial_state(stmt)
        while not final(state):
            state = step_with(sem, state)
        assert evaluated == []
    evaluated.clear()
    state = step_with(GUARDED, State(SLet("f", IDENTITY_LAM, SRet("f")),
                                     (), (), {}, ()))
    assert evaluated == [] and state.env[0][1] == Closure(
        "x", INT, IDENTITY_LAM.body, ())


# A non-tail call whose result returns through a frame: `(f 1)` pushes
# one, and the return of `(succ x)` pops it.
RETURN_SITE = ("((lambda (f : (-> int int)) (succ (f 1)))"
               " (lambda (x : int) (succ x)))")


def test_a_return_to_a_frame_looks_its_name_up_in_place(evaluated):
    ast = parse_surface(RETURN_SITE)
    typecheck_surface((), ast)
    stmt = elaborate(ast)
    traces = []
    for sem in (MONOTONIC, GUARDED):
        records = []
        assert steps_with(sem, 100, initial_state(stmt),
                          records.append) == OCon(3)
        traces.append(records)
        # One transition at a time, so the final state's result, which
        # `steps_with` looks up with `_operand`, is left out.
        evaluated.clear()
        state = initial_state(stmt)
        while not final(state):
            state = step_with(sem, state)
        assert evaluated == []
    assert traces[0] == traces[1]
    assert [r.rule for r in traces[0]].count("return") == 1


@SEMANTICS
@pytest.mark.parametrize("name", ["lattice-012", "lattice-122", "dyn-call"])
def test_a_dyn_transition_looks_its_names_up_in_place(sem, name, evaluated):
    # Annotated reads and writes of names fill these loops: an
    # `SDynDeref`'s reference and an `SDynUpdate`'s reference and value
    # are looked up where they are used, like a static transition's.
    records, calls = calls_in_window(sem, dict(lattice_kernels())[name],
                                     evaluated)
    assert sum(r.rule in ("dyn-deref", "dyn-update") for r in records) > 300
    assert [e for e in calls if type(e) is str] == []


def counting_hooks(sem, calls):
    """`sem` with `read` and `write` that count their calls in the
    Counter `calls`, by hook, annotation and the tag of the cell met."""
    def tag(ref, heap):
        return heap[ref.addr][1] if type(ref) is VRef else None

    def read(ref, heap, ann=None, work=None):
        calls["read", ann, tag(ref, heap)] += 1
        return sem.read(ref, heap, ann, work)

    def write(ref, v, heap, ann=None, work=None):
        calls["write", ann, tag(ref, heap)] += 1
        return sem.write(ref, v, heap, ann, work)

    return Semantics(**{**vars(sem), "read": read, "write": write})


ARROW = ArrowT(INT, INT)
IDENTITY = Closure("x", INT, SRet("x"), ())
SUCC = Closure("x", INT, SLet("y", PrimApp(Succ(), "x"),
                               SRet("y")), ())
# A cell's tag, its value and another value of that type, by cell type.
TAGGED = {"int": (INT, SEVEN, 8), "bool": (BOOL, TRUE, False),
          "dyn": (DYN, Inject(SEVEN, INT), Inject(TRUE, BOOL)),
          "arrow": (ARROW, IDENTITY, SUCC)}


def dyn_read(ann):
    """Read the cell `r` names at `ann` into `x`, and return `x`."""
    return SDynDeref("x", "r", ann, SRet("x"))


def dyn_write(ann):
    """Write `v` at `ann` into the cell `r` names, and return `r`."""
    return SDynUpdate("r", "v", ann, SRet("r"))


@SEMANTICS
@pytest.mark.parametrize("cell", ["int", "bool", "dyn", "arrow"])
def test_a_read_at_its_cell_tag_calls_no_hook(sem, cell):
    # The driver reads the cell itself and gets what the hook would.
    ann, value, _ = TAGGED[cell]
    heap, calls = {0: (value, ann)}, Counter()
    state = State(dyn_read(ann), (("r", VRef(0)),), (), heap, ())
    after = step_with(counting_hooks(sem, calls), state)
    assert calls == Counter()
    assert after.env[0] == ("x", value) and after.env[0][1] is value
    assert sem.read(VRef(0), dict(heap), ann, []) is value
    assert after.heap == heap and after.active == ()


@SEMANTICS
@pytest.mark.parametrize("cell", ["int", "bool", "dyn"])
def test_a_write_at_its_base_or_dyn_cell_tag_calls_no_hook(sem, cell):
    ann, old, new = TAGGED[cell]
    heap, calls = {0: (old, ann)}, Counter()
    state = State(dyn_write(ann), (("v", new), ("r", VRef(0))),
                  (), heap, ())
    after = step_with(counting_hooks(sem, calls), state)
    assert calls == Counter()
    by_hook, work = dict(heap), []
    sem.write(VRef(0), new, by_hook, ann, work)
    assert after.heap == by_hook == {0: (new, ann)}
    assert after.heap[0][0] is new
    assert after.active == () and work == []


def test_a_monotonic_dyn_read_of_an_int_cell_calls_its_hook():
    # lattice-012 reads its int cell through a (ref-ty dyn) parameter:
    # the read injects, so the semantics makes it.
    calls = Counter()
    steps_with(counting_hooks(MONOTONIC, calls), 3_000,
               initial_state(dict(lattice_kernels())["lattice-012"]), None)
    assert calls["read", DYN, INT] > 200


@SEMANTICS
def test_an_arrow_write_at_its_cell_tag_calls_its_hook(sem):
    # A monotonic arrow write leaves its value pending and commits it
    # from the worklist, even when the cast is an identity.
    calls, rules = Counter(), []
    state = State(dyn_write(ARROW),
                  (("v", SUCC), ("r", VRef(0))), (), {0: (IDENTITY, ARROW)},
                  ())
    steps_with(counting_hooks(sem, calls), 10, state,
               lambda record: rules.append(record.rule))
    assert calls == Counter({("write", ARROW, ARROW): 1})
    assert rules == (["dyn-update", "active-commit"] if sem is MONOTONIC
                     else ["dyn-update"])


@SEMANTICS
@pytest.mark.parametrize("ann, heap", [
    (PairT(INT, INT), {0: (VPair(SEVEN, 8), PairT(INT, INT))}),
    (RefT(INT), {0: (VRef(1), RefT(INT)), 1: (SEVEN, INT)}),
], ids=["pair", "ref"])
def test_a_pair_or_reference_read_calls_its_hook(sem, ann, heap):
    # A pair's cast rebuilds the pair and a reference's may retype a
    # cell, so such reads stay with the semantics.
    calls = Counter()
    state = State(dyn_read(ann), (("r", VRef(0)),), (), heap, ())
    step_with(counting_hooks(sem, calls), state)
    assert calls == Counter({("read", ann, ann): 1})
