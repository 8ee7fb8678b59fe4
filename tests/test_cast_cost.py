"""The guarded cast path against a reference that casts every proxy layer.

`SLOW` reads and writes through a proxy chain by folding `cast_g` over
every layer, identity layers included, the plainest statement of the
guarded semantics. `GUARDED` must agree with it on every observable and
every trace record, on chains of a few layers and of more than a
thousand. The ref-cast loop must still pile up two proxies per
iteration, and a read through k `int→dyn→int` layer pairs must still
build k injections: the guarded baseline stays naive.

`cast_value` dispatches on the cast's shape, and returns a projection's
payload without a further cast when its injected type is the target.
`ordered_cast` is the same cast with one test per rule, identity first,
then arrows, pairs and references, then projection and injection, and no
shortcut; the two must agree on every value, pair of types and heap.
"""

import random

import pytest

from generators import (
    HeapGen,
    ProgramGen,
    all_types,
    consistent_variant,
    random_ty,
)
from kernels import kernel, lattice_kernels
from monoref.guarded import GUARDED, GProxy, cast_g, gread, gwrite, step_g
from monoref.guarded import proxy
from monoref.lang import (
    BOOL,
    DYN,
    IDENTITY_HEADS,
    INT,
    ArrowT,
    CastError,
    DynT,
    Inject,
    PairT,
    RefT,
    STailCall,
    Stuck,
    VPair,
    VRef,
    ground,
    link,
    lookup,
)
from monoref.machine import (
    Semantics,
    cast,
    cast_value,
    fun_cast,
    initial_state,
    read_cell,
    retag,
    steps_with,
    update_cell,
)
from monoref.surface import elaborate, parse_surface, typecheck_surface

FUEL = 2_500


def slow_read(v, heap, ann=None, work=None):
    layers = []
    while isinstance(v, GProxy):
        layers.append(v)
        v = v.inner
    w = read_cell(v, heap)
    for layer in reversed(layers):
        w = cast_g(w, layer.src_cell, layer.tgt_cell)
    return w


def slow_write(v, w, heap, ann=None, work=None):
    while isinstance(v, GProxy):
        w = cast_g(w, v.tgt_cell, v.src_cell)
        v = v.inner
    update_cell(v, w, heap)


SLOW = Semantics(**{**vars(GUARDED), "read": slow_read, "write": slow_write})


def observe_and_trace(sem, stmt, fuel):
    records = []
    result = steps_with(sem, fuel, initial_state(stmt), records.append)
    return result, records


@pytest.mark.parametrize("stmt", [pytest.param(stmt, id=name)
                                  for name, stmt in lattice_kernels()])
def test_guarded_kernels_match_casting_every_layer(stmt):
    fast = observe_and_trace(GUARDED, stmt, FUEL)
    assert fast == observe_and_trace(SLOW, stmt, FUEL)
    assert len(fast[1]) == FUEL


def test_guarded_programs_match_casting_every_layer():
    rng = random.Random(8080)
    for _ in range(200):
        ast = ProgramGen(rng, allow_ref_casts=True).program(rng.randint(8, 20))
        typecheck_surface((), ast)
        stmt = elaborate(ast)
        assert observe_and_trace(GUARDED, stmt, 20_000) == \
            observe_and_trace(SLOW, stmt, 20_000)


def outcome(f, *args):
    try:
        return f(*args)
    except (CastError, Stuck) as err:
        return type(err), str(err)


def slow_gwrite(v, w, heap):
    heap = dict(heap)
    slow_write(v, w, heap)
    return heap


def test_random_proxy_chains_match_casting_every_layer():
    # Chains over a random cell whose layers are identities (the same
    # type object, or an equal one), consistent variants, dyn, or
    # arbitrary types that may make a layer's cast fail.
    rng = random.Random(9090)
    for _ in range(400):
        gen = HeapGen(rng)
        heap, _ = gen.config(n_cells=3)
        ref, cell = VRef(0), gen.tags[0]
        for _ in range(rng.randint(0, 6)):
            choice = rng.random()
            if choice < 0.3:
                tgt = cell
            elif choice < 0.4:
                tgt = type(cell)(*[getattr(cell, f) for f in cell._fields])
            elif choice < 0.8:
                tgt = consistent_variant(rng, cell, allow_ref=True)
            else:
                tgt = random_ty(rng, 2)
            ref, cell = GProxy(ref, cell, tgt), tgt
        assert outcome(gread, ref, heap) == outcome(slow_read, ref, heap)
        value = gen.value_of(cell)
        assert outcome(gwrite, ref, value, heap) == \
            outcome(slow_gwrite, ref, value, heap)


# Layer moves for the deep chains below: a reference, pair or arrow cell
# type and the one its layer casts to, each back again. A reference
# layer wraps the value it passes in one more proxy, a pair layer
# injects or projects a component, an arrow layer makes a `FunCast`.
SWITCHES = {RefT(INT): RefT(DYN), PairT(INT, DYN): PairT(DYN, DYN),
            ArrowT(INT, INT): ArrowT(DYN, DYN)}
SWITCHES.update({b: a for a, b in SWITCHES.items()})
DEEP_CELLS = [INT, BOOL, *SWITCHES]


def deep_chain(rng, ref, cell, depth, fail):
    """A chain of at least `depth` proxy layers over `ref`, whose cell
    type is `cell`, and the chain's outermost cell type. It is made of
    runs of identity layers, `cell→dyn→cell` pairs and reference, pair
    and arrow layers; with `fail`, one `cell→dyn→X` pair at a random
    depth projects to an `X` of another head, which fails both ways."""
    layers, fail_at = 0, rng.randrange(depth) if fail else -1
    while layers < depth:
        choice = rng.random()
        if 0 <= fail_at < layers + 2:
            wrong = INT if cell is BOOL else BOOL
            ref, cell = GProxy(GProxy(ref, cell, DYN), DYN, wrong), wrong
            layers, fail_at = layers + 2, -1
        elif choice < 0.35:
            for _ in range(rng.randint(1, 20)):
                ref = GProxy(ref, cell, cell)
                layers += 1
        elif choice < 0.7:
            ref = GProxy(GProxy(ref, cell, DYN), DYN, cell)
            layers += 2
        elif cell in SWITCHES:
            ref, cell = GProxy(ref, cell, SWITCHES[cell]), SWITCHES[cell]
            layers += 1
        else:
            # An identity run over dyn, between an injection and its
            # projection.
            ref = GProxy(ref, cell, DYN)
            for _ in range(rng.randint(1, 20)):
                ref = GProxy(ref, DYN, DYN)
            ref = GProxy(ref, DYN, cell)
            layers += 2
    return ref, cell


def test_deep_proxy_chains_match_casting_every_layer():
    # Chains of 1,000 to 1,200 layers, a third of them with a failing
    # projection; each is read, written back with the value read, and
    # written with a fresh value of its outermost cell type.
    rng = random.Random(1212)
    read = 0
    for trial in range(36):
        gen = HeapGen(rng)
        cell = rng.choice(DEEP_CELLS)
        addr = gen.alloc(cell)
        heap = gen.heap()
        fail = trial % 3 == 0
        ref, cell = deep_chain(rng, VRef(addr), cell,
                               rng.randint(1000, 1200), fail)
        result = outcome(gread, ref, heap)
        assert result == outcome(slow_read, ref, heap)
        if fail:
            assert result[0] is CastError
            assert result[1].startswith("projection of ")
        elif type(result) is not tuple:
            read += 1
            assert outcome(gwrite, ref, result, heap) == \
                outcome(slow_gwrite, ref, result, heap)
        value = gen.value_of(cell)
        assert outcome(gwrite, ref, value, heap) == \
            outcome(slow_gwrite, ref, value, heap)
    assert read >= 20


def test_deep_ref_cast_loop_matches_casting_every_layer():
    # At fuel 5,000 the ref-cast loop reads through up to about 1,660
    # proxies.
    stmt = kernel("ref-cast")
    fast = observe_and_trace(GUARDED, stmt, 5_000)
    assert fast == observe_and_trace(SLOW, stmt, 5_000)
    assert len(fast[1]) == 5_000


@pytest.mark.parametrize("pairs", [1, 10, 500])
def test_a_read_builds_one_inject_per_layer_pair(pairs, monkeypatch):
    # Nothing is fused: each `int→dyn` layer under a `dyn→int` one
    # injects the value on every access, and its partner projects it.
    built = []
    init = Inject.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Inject, "__init__", counted)
    ref = VRef(0)
    for _ in range(pairs):
        ref = GProxy(GProxy(ref, INT, DYN), DYN, INT)
    heap = {0: (7, INT)}
    assert gread(ref, heap) == 7
    assert len(built) == pairs
    assert gwrite(ref, 8, heap) == {0: (8, INT)}
    assert len(built) == 2 * pairs


def test_head_constructor_decides_projection():
    # A projection out of dyn compares the injected type's head
    # constructor with the target's: equal heads are equal grounds.
    types = [t for t in all_types(3) if t != DYN]
    grounds = [ground(t) for t in types]
    for a, ga in zip(types, grounds):
        ta = type(a)
        for b, gb in zip(types, grounds):
            assert (ta is type(b)) == (ga == gb), (a, b)


def test_projection_casts_the_payload_exactly_on_equal_grounds():
    gen = HeapGen(random.Random(7070))
    types = [t for t in all_types(2) if t != DYN]
    for a in types:
        payload = gen.value_of(a)
        for b in types:
            expected = outcome(cast_g, payload, a, b) \
                if ground(a) == ground(b) else \
                (CastError, f"projection of {a} payload to {b}")
            assert outcome(cast_g, Inject(payload, a), DYN, b) == expected, \
                (a, b)


@pytest.mark.parametrize("iterations", [1, 5, 40])
def test_ref_cast_loop_piles_up_proxies(iterations):
    # Each iteration casts its reference to (ref-ty dyn) and back; the
    # guarded semantics keeps both layers, so after k iterations the
    # loop is entered with a chain of 2k proxies over the cell.
    stmt = kernel("ref-cast")
    state = initial_state(stmt)
    entries = 0
    while True:
        entering = type(state.stmt) is STailCall
        state = step_g(state)
        if entering:
            entries += 1
            if entries == iterations + 1:
                break
    ref = lookup("r", link(state.env))
    depth = 0
    v = ref
    while type(v) is GProxy:
        depth += 1
        v = v.inner
    assert depth == 2 * iterations
    assert type(v) is VRef
    assert gread(ref, state.heap) == 7


def reaches_a_proxy(stmt):
    """Whether a guarded run of `stmt` reads or writes through a proxy."""
    seen = []

    def note(ref):
        if type(ref) is GProxy:
            seen.append(ref)

    def read(ref, heap, ann=None, work=None):
        note(ref)
        return gread(ref, heap)

    def write(ref, v, heap, ann=None, work=None):
        note(ref)
        return GUARDED.write(ref, v, heap)

    probe = Semantics(**{**vars(GUARDED), "read": read, "write": write})
    steps_with(probe, 20_000, initial_state(stmt), None)
    return bool(seen)


def test_generated_programs_read_and_write_through_proxies():
    # The generated-program suites only cover the proxy walks if the
    # programs use the references their casts make.
    reached = 0
    for seed in range(200):
        rng = random.Random(seed)
        ast = ProgramGen(rng, allow_ref_casts=True).program(rng.randint(3, 12))
        typecheck_surface((), ast)
        reached += reaches_a_proxy(elaborate(ast))
    assert reached >= 25


def ordered_cast(v, src, tgt, heap, work, cast_ref):
    """`cast_value` as one test per rule, dyn last, with a projection
    that always casts its payload."""
    ts, tt = type(src), type(tgt)
    if ts is tt and ts in IDENTITY_HEADS:
        return v
    if ts is ArrowT and tt is ArrowT:
        return v if src is tgt else fun_cast(v, src, tgt)
    tv = type(v)
    if tv is VPair and ts is PairT and tt is PairT:
        fst = ordered_cast(v.fst, src.left, tgt.left, heap, work, cast_ref)
        return VPair(fst, ordered_cast(v.snd, src.right, tgt.right, heap,
                                       work, cast_ref))
    if ts is RefT and tt is RefT:
        return cast_ref(v, src, tgt, heap, work)
    if tv is Inject and ts is DynT:
        if type(v.src_ty) is tt:
            return ordered_cast(v.payload, v.src_ty, tgt, heap, work,
                                cast_ref)
        raise CastError("projection of {} payload to {}", v.src_ty, tgt)
    if tt is DynT:
        return Inject(v, src)
    raise CastError("no cast from {} to {}", src, tgt)


def cast_outcome(cast, v, src, tgt, heap, active, cast_ref):
    """The result with its class, or the error's class and text, then
    the heap and the worklist a cast on copies of them leaves."""
    heap = None if heap is None else dict(heap)
    work = None if active is None else list(reversed(active))
    try:
        result = cast(v, src, tgt, heap, work, cast_ref)
        result = type(result), result
    except (CastError, Stuck) as err:
        result = type(err), str(err)
    return result, heap, work


def test_cast_value_agrees_with_the_cast_in_rule_order():
    # Every type of depth 2 as source and target, a value of the source
    # (an injection of a random payload for dyn) and, as dyn values, an
    # injection of a value of each of those types and a bare integer,
    # over heaps with cells pending, under the monotonic and the guarded
    # reference cast.
    types = all_types(2)
    rng = random.Random(6060)
    compared = 0
    for _ in range(12):
        gen = HeapGen(rng)
        _, active = gen.config(n_cells=3)
        values = [(gen.value_of(t), t) for t in types]
        values += [(Inject(gen.value_of(t), t), DYN)
                   for t in types if t is not DYN]
        values.append((7, DYN))
        heap = gen.heap()
        for v, src in values:
            for tgt in types:
                for cells, pending, cast_ref in ((heap, active, retag),
                                                 (None, None, proxy)):
                    new = cast_outcome(cast_value, v, src, tgt, cells,
                                       pending, cast_ref)
                    assert new == cast_outcome(ordered_cast, v, src, tgt,
                                               cells, pending, cast_ref), \
                        (v, src, tgt)
                    compared += 1
    assert compared > 20_000


DEPTH = 3_000


@pytest.mark.parametrize("semantics", ["monotonic", "guarded"])
def test_a_deep_pair_casts_without_recursion(semantics):
    # A pair nested 3,000 deep, level i into its fst when i is even and
    # into its snd when i is odd, its other component a reference to
    # dyn cell i cast to a reference to int; the innermost component is
    # an int injected into dyn. Fst before snd meets the odd cells
    # outermost first, then the even ones innermost first: the
    # monotonic cast lowers every cell's tag and lists the cells on the
    # worklist last met first; the guarded one wraps each reference in
    # a proxy.
    v, src, tgt, want = 0, INT, DYN, Inject(0, INT)
    for addr in reversed(range(DEPTH)):
        ref = VRef(addr) if semantics == "monotonic" else \
            GProxy(VRef(addr), DYN, INT)
        if addr % 2:
            v, want = VPair(VRef(addr), v), VPair(ref, want)
            src, tgt = PairT(RefT(DYN), src), PairT(RefT(INT), tgt)
        else:
            v, want = VPair(v, VRef(addr)), VPair(want, ref)
            src, tgt = PairT(src, RefT(DYN)), PairT(tgt, RefT(INT))
    met = [*range(1, DEPTH, 2), *reversed(range(0, DEPTH, 2))]
    heap = {addr: (Inject(addr, INT), DYN) for addr in range(DEPTH)}
    if semantics == "monotonic":
        w, new_heap, active = cast(v, src, tgt, heap, ())
        assert new_heap == {addr: (Inject(addr, INT), INT, DYN)
                            for addr in range(DEPTH)}
        assert active == tuple(reversed(met))
    else:
        w = cast_g(v, src, tgt)
    assert w == want


@pytest.mark.parametrize("cast_ref", [retag, proxy], ids=["retag", "proxy"])
def test_a_deep_injected_pair_projects_without_recursion(cast_ref):
    # A dyn value nested 3,000 deep: each level a pair of an int and
    # the next level, injected into dyn; projected to the pair type it
    # was built from, it comes back out level by level.
    v, want, tgt = Inject(0, INT), 0, INT
    for i in range(DEPTH):
        v = Inject(VPair(i, v), PairT(INT, DYN))
        want, tgt = VPair(i, want), PairT(INT, tgt)
    assert cast_value(v, DYN, tgt, {}, [], cast_ref) == want
    wrong = Inject(VPair(0, Inject(True, BOOL)), PairT(INT, DYN))
    for i in range(DEPTH):
        wrong = Inject(VPair(i, wrong), PairT(INT, DYN))
    assert outcome(cast_value, wrong, DYN, PairT(INT, tgt), {}, [],
                   cast_ref) == (CastError, "projection of bool payload to int")


def alternating_injected_pair(bottom):
    """A dyn value nested `DEPTH` deep around `bottom`, an int at the
    bottom of the target: level i is a pair of i and the next level, in
    its fst when i is even and in its snd when i is odd, injected into
    dyn at that pair over dyn. Returns the value, the pair type it
    projects to, and what that projection gives when `bottom` is 0."""
    v, want, tgt = bottom, 0, INT
    for i in range(DEPTH):
        if i % 2:
            v = Inject(VPair(i, v), PairT(INT, DYN))
            want, tgt = VPair(i, want), PairT(INT, tgt)
        else:
            v = Inject(VPair(v, i), PairT(DYN, INT))
            want, tgt = VPair(want, i), PairT(tgt, INT)
    return v, tgt, want


@pytest.mark.parametrize("cast_ref", [retag, proxy], ids=["retag", "proxy"])
def test_a_deep_injected_pair_nesting_on_both_sides_projects(cast_ref):
    # The walk goes into an injected fst as well as an injected snd, and
    # a failed projection at the bottom raises the error it raises alone.
    v, tgt, want = alternating_injected_pair(Inject(0, INT))
    assert cast_value(v, DYN, tgt, {}, [], cast_ref) == want
    wrong, tgt, _ = alternating_injected_pair(Inject(True, BOOL))
    error = (CastError, "projection of bool payload to int")
    assert outcome(cast_value, Inject(True, BOOL), DYN, INT, {}, [],
                   cast_ref) == error
    assert outcome(cast_value, wrong, DYN, tgt, {}, [], cast_ref) == error
