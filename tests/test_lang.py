"""Type algebra: table cases and the order/meet lemmas, and the order and
consistency against their own rule-by-rule definitions; the Node
contract; linked environments."""

import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from generators import all_types, hypothesis_types
from monoref.lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    BoolT,
    CastError,
    Closure,
    DynT,
    Fst,
    Inject,
    IntT,
    IsZero,
    Node,
    OAtom,
    OCon,
    PairT,
    RefT,
    SCast,
    SLet,
    SRet,
    SUCC,
    Stuck,
    VPair,
    VRef,
    bindings,
    consistent,
    ground,
    is_static,
    lesseq,
    link,
    lookup,
    meet,
    typeof_const,
    typeof_opr,
)
from monoref.guarded import GProxy
from monoref.machine import MONOTONIC, State, fun_cast, initial_state, retag
from monoref.surface import Lit, SApp, SVar, elaborate, parse_surface

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

types = hypothesis_types()


# The order and consistency, each written as its own rule over a type's
# fields: the references the library's relations, read off `meet`, must
# agree with.

def ref_lesseq(a, b):
    """Everything is below `dyn`; every other constructor relates to
    itself, covariantly in every component."""
    if a is b or type(b) is DynT:
        return True
    if type(a) is not type(b):
        return False
    return all(map(ref_lesseq, a._key(), b._key()))


def ref_consistent(a, b):
    """`dyn` matches everything; every other constructor matches itself,
    componentwise."""
    if a is b or type(a) is DynT or type(b) is DynT:
        return True
    if type(a) is not type(b):
        return False
    return all(map(ref_consistent, a._key(), b._key()))


def assert_relations_agree(a, b):
    for x, y in ((a, b), (b, a)):
        assert lesseq(x, y) is ref_lesseq(x, y), (x, y)
        assert consistent(x, y) is ref_consistent(x, y), (x, y)


def test_the_relations_agree_with_their_rules_exhaustive():
    small = all_types(2)
    for a in small:
        for b in small:
            assert_relations_agree(a, b)
    for a in all_types(3):
        for b in small:
            assert_relations_agree(a, b)


@given(types, types)
def test_the_relations_agree_with_their_rules_random(a, b):
    assert_relations_agree(a, b)


def test_the_relations_take_types_800_deep():
    # A chain of 800 `ref-ty`s, and one of 800 arrow domains, over `int`
    # against the same chain over `dyn`: one frame per level.
    for wrap in (RefT, lambda t: ArrowT(t, INT)):
        low, high = INT, DYN
        for _ in range(800):
            low, high = wrap(low), wrap(high)
        assert lesseq(low, high) and not lesseq(high, low)
        assert consistent(low, high) and consistent(high, low)
        assert meet(high, low) is low


def test_retag_lowers_a_tag_exactly_when_the_meet_lies_strictly_below():
    # Every tag and target cell type of depth 2, on a settled cell and on
    # one already pending a cast from dyn: the cell is retagged and
    # queued exactly when the meet lies strictly below the tag in the
    # reference order; with no meet the cast fails and changes nothing.
    universe = all_types(2)
    for tag in universe:
        for cell_ty in universe:
            for cell in ((1, tag), (1, tag, DYN)):
                heap, work = {0: cell}, []
                if not ref_consistent(cell_ty, tag):
                    with pytest.raises(CastError):
                        retag(VRef(0), RefT(tag), RefT(cell_ty), heap, work)
                    assert heap[0] is cell and work == []
                    continue
                retag(VRef(0), RefT(tag), RefT(cell_ty), heap, work)
                lowered = meet(cell_ty, tag)
                assert ref_lesseq(lowered, tag)
                if ref_lesseq(tag, lowered):
                    assert lowered is tag
                    assert heap[0] is cell and work == []
                else:
                    assert heap[0] == (1, lowered, cell[-1]) and work == [0]


def test_lesseq_table():
    assert lesseq(INT, DYN)
    assert not lesseq(DYN, INT)
    assert lesseq(RefT(INT), RefT(DYN))
    assert lesseq(DYN, DYN)
    assert lesseq(PairT(INT, DYN), PairT(DYN, DYN))
    assert not lesseq(PairT(INT, INT), ArrowT(INT, INT))
    # arrows are covariant in both positions under this order
    assert lesseq(ArrowT(INT, BOOL), ArrowT(DYN, DYN))
    assert not lesseq(ArrowT(DYN, BOOL), ArrowT(INT, BOOL))


def test_meet_table():
    assert meet(DYN, ArrowT(INT, BOOL)) == ArrowT(INT, BOOL)
    assert meet(RefT(DYN), RefT(INT)) == RefT(INT)
    assert meet(PairT(DYN, BOOL), PairT(INT, DYN)) == PairT(INT, BOOL)
    with pytest.raises(CastError):
        meet(INT, BOOL)
    with pytest.raises(CastError):
        meet(RefT(INT), ArrowT(INT, INT))
    with pytest.raises(CastError):
        meet(PairT(INT, INT), PairT(INT, BOOL))


# A non-type operand is a TypeError naming it, as for `is_static` and
# `ground`, on each path of `meet`: the dyn and identity shortcuts too.
# `lesseq` and `consistent` let it through.
NOT_TYPES = [
    (meet, 3, DYN, 3),
    (meet, DYN, 3, 3),
    (lesseq, 3, DYN, 3),
    (consistent, "x", DYN, "x"),
    (meet, 3, 4, 3),
    (meet, INT, "x", "x"),
]


@pytest.mark.parametrize("relation, a, b, culprit", NOT_TYPES,
                         ids=[f"{r.__name__}({a!r}, {b!r})"
                              for r, a, b, _ in NOT_TYPES])
def test_a_non_type_operand_is_a_type_error(relation, a, b, culprit):
    with pytest.raises(TypeError) as err:
        relation(a, b)
    assert str(err.value) == f"not a type: {culprit!r}"


def test_is_static_table():
    assert not is_static(DYN)
    assert is_static(ArrowT(INT, BOOL))
    assert not is_static(RefT(DYN))
    assert not is_static(PairT(INT, PairT(BOOL, DYN)))
    with pytest.raises(TypeError):
        is_static(1)


def test_is_static_reads_a_fact_stored_when_the_type_was_made():
    # A 10,000-deep arrow: staticness takes no recursion, whichever side
    # the depth is on and wherever the one dyn sits.
    for leaf, static in ((BOOL, True), (DYN, False)):
        right = left = leaf
        for _ in range(10_000):
            right, left = ArrowT(INT, right), ArrowT(left, INT)
        assert is_static(right) is static and is_static(left) is static
        assert is_static(RefT(PairT(INT, right))) is static


def test_ground_table():
    assert ground(ArrowT(INT, BOOL)) == ArrowT(DYN, DYN)
    assert ground(INT) == INT
    assert ground(RefT(PairT(INT, BOOL))) == RefT(DYN)
    assert ground(DYN) == DYN
    assert ground(PairT(RefT(INT), DYN)) == PairT(DYN, DYN)


def test_typeof_const():
    assert typeof_const(4) == INT
    assert typeof_const(True) == BOOL
    assert typeof_const(-3) == INT


def test_typeof_opr():
    assert typeof_opr(SUCC) == ArrowT(INT, INT)
    assert typeof_opr(IsZero()) == ArrowT(INT, BOOL)
    assert typeof_opr(Fst(INT, BOOL)) == ArrowT(PairT(INT, BOOL), INT)


def test_reflexivity_exhaustive():
    for a in all_types(3):
        assert lesseq(a, a)


def test_transitivity_exhaustive_depth2():
    universe = all_types(2)
    for a in universe:
        for b in universe:
            if not lesseq(a, b):
                continue
            for c in universe:
                if lesseq(b, c):
                    assert lesseq(a, c)


def test_static_least_dynamic_exhaustive():
    universe = all_types(3)
    for a in universe:
        if not is_static(a):
            continue
        for b in universe:
            if lesseq(b, a):
                assert a == b


def test_meet_lemmas_exhaustive():
    universe = all_types(3)
    for i, a in enumerate(universe):
        for b in universe[i:]:
            try:
                m1 = meet(a, b)
            except CastError:
                m1 = None
            try:
                m2 = meet(b, a)
            except CastError:
                m2 = None
            assert m1 == m2  # symmetric definedness and result
            if m1 is not None:
                assert lesseq(m1, a) and lesseq(m1, b)


def test_meet_idempotent_exhaustive():
    for a in all_types(3):
        assert meet(a, a) == a


def has_meet(a, b):
    try:
        meet(a, b)
    except CastError:
        return False
    return True


def test_consistent_is_the_existence_of_a_meet_exhaustive():
    universe = all_types(2)
    for a in universe:
        for b in universe:
            assert ref_consistent(a, b) == ref_consistent(b, a)
            assert ref_consistent(a, b) == has_meet(a, b), (a, b)


@given(types, types)
def test_consistent_is_the_existence_of_a_meet_random(a, b):
    assert ref_consistent(a, b) == ref_consistent(b, a)
    assert ref_consistent(a, b) == has_meet(a, b)


@given(types)
def test_reflexivity_random(a):
    assert lesseq(a, a)


@given(types, types, types)
def test_transitivity_random(a, b, c):
    if lesseq(a, b) and lesseq(b, c):
        assert lesseq(a, c)


@given(types, types)
def test_meet_random(a, b):
    try:
        m = meet(a, b)
    except CastError:
        with pytest.raises(CastError):
            meet(b, a)
        return
    assert meet(b, a) == m
    assert lesseq(m, a) and lesseq(m, b)


@given(types, types)
def test_static_least_dynamic_random(a, b):
    if is_static(a) and lesseq(b, a):
        assert a == b


@given(types)
def test_ground_is_upper_approximation(a):
    assert lesseq(a, ground(a))


# ---------------------------------------------------------------------------
# The Node contract: what every record class of the package inherits.

def test_nodes_of_different_classes_are_unequal():
    assert IntT() != BoolT()
    assert OCon(1) != OCon(True)
    assert OAtom("x") != SVar("x")
    assert OAtom("x") == OAtom("x")
    assert OAtom("x") != OAtom("y")


def test_equal_nodes_hash_equal():
    a = SLet("x", "y", SRet("x"))
    b = SLet("x", "y", SRet("x"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(PairT(INT, DYN)) == hash(PairT(INT, DYN))
    assert len({INT, INT, DYN, RefT(INT), RefT(INT)}) == 3


def test_nodes_of_another_class_are_unequal_without_reflection():
    # A node of another class is unequal outright; anything but a node
    # is left to its own equality.
    assert OAtom("x").__eq__(SVar("x")) is False
    assert OAtom("x").__eq__("x") is NotImplemented
    assert VPair(1, 2) != (1, 2)
    assert SRet("x") != SRet(1)


def test_deep_values_compare_hash_and_print_without_recursion():
    # A closure's linked environment nests as a chain of tuples, and a
    # statement as a chain of bodies; both are walked with a stack.
    env, body = (), SRet("x")
    for i in range(5_000):
        env = ("x", VPair(i, i), env)
        body = SLet("x", "x", body)
    a, b = (Closure("x", INT, body, env) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert Closure("x", INT, body, ("y", 0, env)) != a
    assert repr(a) == repr(b)
    assert repr(Closure("x", INT, SRet("x"), ("y", (1,), ()))) == (
        "Closure(param='x', param_ty=IntT(), body=SRet(expr='x'),"
        " env=('y', (1,), ()))")


class Uncomparable:
    """A leaf that fails the test if equality ever compares it."""

    def __eq__(self, other):
        raise AssertionError("compared a leaf past the first difference")

    __ne__ = __eq__
    __hash__ = object.__hash__


def test_equality_stops_at_the_first_difference_and_skips_shared_parts():
    a = SLet("x", "y", SRet(Uncomparable()))
    b = SLet("z", "y", SRet(Uncomparable()))
    assert a != b and not a == b
    assert SLet("x", "y", SRet("x")) != SLet("x", 1, a)
    shared = SRet(Uncomparable())
    assert SLet("x", "y", shared) == SLet("x", "y", shared)


def test_equality_tells_an_int_leaf_from_a_boolean_one():
    # bool subclasses int and 1 == True in Python, but a value node
    # compares its leaves by class as well.
    assert VPair(1, 0) != VPair(True, False)
    assert VPair(1, 0) == VPair(1, 0)
    assert VPair(True, False) == VPair(True, False)
    body = SRet("x")
    one = Closure("y", INT, body, ("x", 1, ()))
    true = Closure("y", INT, body, ("x", True, ()))
    assert one != true
    assert one == Closure("y", INT, body, ("x", 1, ()))
    for a, b in ((VPair(1, 0), VPair(1, 0)), (one, Closure(
            "y", INT, SRet("x"), ("x", 1, ())))):
        assert hash(a) == hash(b)
    # A heap is a dict of plain tuples, so it keeps Python's comparison.
    assert {0: (1, INT)} == {0: (True, INT)}


def test_surface_positions_take_no_part_in_equality():
    a = SApp(SVar("f", (1, 2)), SVar("x", (1, 4)), (1, 1))
    b = SApp(SVar("f", (7, 8)), SVar("x", (9, 9)), (3, 3))
    assert a == b and hash(a) == hash(b)
    assert a != SApp(SVar("g", (1, 2)), SVar("x", (1, 4)), (1, 1))


def test_nodes_take_keyword_arguments_and_defaults():
    assert SVar(name="x").pos == (0, 0)
    assert SVar("x", pos=(2, 3)).pos == (2, 3)
    stmt = SCast(name="y", expr="x", src=INT, tgt=DYN,
                 body=SRet("y"))
    assert stmt == SCast("y", "x", INT, DYN, SRet("y"))
    with pytest.raises(TypeError):
        SRet()
    with pytest.raises(TypeError):
        SRet("x", "y")


def test_nodes_are_frozen():
    for node, name in ((SRet("x"), "expr"), (SVar("x"), "pos"),
                       (RefT(INT), "cell")):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
        with pytest.raises(AttributeError):
            setattr(node, "extra", None)
    assert SRet("x").expr == "x"


def test_node_repr_keeps_the_record_format():
    stmt = SLet("x", "y",
                SCast("z", "x", INT, DYN, SRet("z")))
    assert repr(stmt) == (
        "SLet(name='x', rhs='y', body=SCast(name='z', "
        "expr='x', src=IntT(), tgt=DynT(), body=SRet(expr='z')))")
    app = SApp(SVar("f", (1, 2)), Lit(3, (1, 5)), (1, 1))
    assert repr(app) == (
        "SApp(fn=SVar(name='f', pos=(1, 2)), "
        "arg=Lit(const=3, pos=(1, 5)), pos=(1, 1))")


def node_classes(cls=Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from node_classes(sub)


def fields_of(node):
    return dict(zip(node._fields, (getattr(node, f) for f in node._fields)))


def test_every_node_class_keeps_its_fields_in_slots():
    classes = set(node_classes())
    assert {SVar, SRet, RefT, Inject, GProxy, State} <= classes
    for cls in classes:
        assert cls.__dictoffset__ == 0, cls


def test_vars_gives_a_nodes_fields():
    ast = parse_surface((CORPUS / "ex1.gtlc").read_text())
    body = SRet("x")
    for node in (ast, SApp(SVar("f", (1, 2)), Lit(3)), elaborate(ast),
                 SCast("y", "x", INT, DYN, body), RefT(INT),
                 Inject(1, INT), Closure("x", INT, body, ("y", 2, ())),
                 initial_state(body), MONOTONIC):
        assert vars(node) == node.__dict__ == fields_of(node)
        assert list(vars(node)) == list(node._fields)
    assert vars(RefT(INT)) == {"cell": INT}  # `_static` is no field


def test_writing_into_vars_changes_neither_the_node_nor_its_type():
    ref, var = RefT(INT), SVar("x")
    vars(ref)["cell"] = "junk"
    ref.__dict__["cell"] = "junk"
    vars(var)["name"] = "y"
    var.__dict__["extra"] = 1
    assert RefT(INT) is ref and ref.cell is INT and RefT(INT).cell is INT
    assert var.name == "x" and not hasattr(var, "extra")
    with pytest.raises(AttributeError):
        var.__dict__ = {}


def test_copies_and_pickles_rebuild_equal_nodes():
    ast = parse_surface((CORPUS / "ex3.gtlc").read_text())
    identity = Closure("x", INT, SRet("x"), ("y", VPair(1, True), ()))
    cast = fun_cast(identity, ArrowT(INT, INT), ArrowT(DYN, DYN))
    nodes = (ast, elaborate(ast), Inject(VPair(1, True), PairT(INT, BOOL)),
             GProxy(GProxy(VRef(0), INT, DYN), DYN, INT), identity, cast)
    for node in nodes:
        copies = [copy.copy(node), copy.deepcopy(node)]
        copies += (pickle.loads(pickle.dumps(node, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1))
        for twin in copies:
            assert type(twin) is type(node) and twin == node
            # A `FunCast`'s uncompared body is rebuilt too.
            assert fields_of(twin) == fields_of(node)


def test_a_copy_of_a_node_is_the_node_itself_however_deep():
    # Nodes are immutable, so copying one walks nothing: a 5,000-`let`
    # statement and a closure over a 5,000-deep environment copy at once.
    env, body = (), SRet("x")
    for i in range(5_000):
        env = ("x", VPair(i, i), env)
        body = SLet("x", "x", body)
    closure = Closure("x", INT, body, env)
    for node in (body, closure, INT, VPair(1, True)):
        assert copy.copy(node) is node and copy.deepcopy(node) is node
    assert copy.deepcopy([closure, closure]) == [closure, closure]
    # A state's heap is its one mutable field: a deep copy copies it.
    state = State(body, (("x", VRef(0)),), (), {0: (closure, INT)}, ())
    twin = copy.deepcopy(state)
    assert type(twin) is State and twin == state and twin.stmt is body
    assert twin.heap == state.heap and twin.heap is not state.heap
    twin.heap[1] = (1, INT)
    assert 1 not in state.heap
    assert copy.copy(state) is state


def test_a_subclass_adding_a_defaulted_field_keeps_keywords_and_defaults():
    class Tagged(SVar):
        tag: str = "t"

    class Placed(SVar):
        pos: tuple = (5, 5)  # a new default for an inherited field

    assert Tagged._fields == ("name", "pos", "tag")
    assert Tagged.__slots__ == ("tag",) and Placed.__slots__ == ()
    assert Tagged.__dictoffset__ == Placed.__dictoffset__ == 0
    tagged = Tagged("x")
    assert (tagged.name, tagged.pos, tagged.tag) == ("x", (0, 0), "t")
    assert Tagged(tag="u", name="x", pos=(1, 2)).tag == "u"
    assert Tagged("x", (1, 2), "u") == Tagged("x", tag="u")  # pos uncompared
    assert Tagged("x") != Tagged("x", tag="u")
    assert Placed("x").pos == (5, 5) and SVar("x").pos == (0, 0)
    with pytest.raises(AttributeError):
        tagged.tag = "v"


def test_link_and_bindings_on_the_empty_environment():
    assert link(()) == () and link([]) == ()
    assert tuple(bindings(())) == ()
    assert link([("x", 1), ("y", 2)]) == ("x", 1, ("y", 2, ()))


@given(st.lists(st.tuples(st.sampled_from("xyz"), st.integers()), max_size=8))
def test_link_and_bindings_round_trip(pairs):
    env = link(pairs)
    assert tuple(bindings(env)) == tuple(pairs)
    assert link(bindings(env)) == env
    for name in "xyz":
        found = [value for key, value in pairs if key == name]
        if found:
            assert lookup(name, env) == found[0]
        else:
            with pytest.raises(Stuck):
                lookup(name, env)
