"""Interned types: a type is the one object with its class and fields.

Every type constructor returns the object it made the first time it was
given that class and those fields, so two types are equal exactly when
they are the same object. These properties hold that against a
test-local structural oracle, which reads a type as a tree of
constructor names, and check that the type algebra still agrees with
the same rules stated over those trees.
"""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from generators import hypothesis_types
from monoref.lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    BoolT,
    CastError,
    DynT,
    IntT,
    Node,
    PairT,
    RefT,
    _TYPES,
    consistent,
    lesseq,
    meet,
)

TYPES = hypothesis_types()


def tree(t):
    """The oracle's view of a type: its class name and its fields' trees."""
    return (type(t).__name__, *map(tree, t._key()))


def rebuild(t):
    """A type built again from the bottom up, through its constructors."""
    return type(t)(*map(rebuild, t._key()))


def tree_lesseq(a, b):
    if b == ("DynT",):
        return True
    return a[0] == b[0] and all(map(tree_lesseq, a[1:], b[1:]))


def tree_meet(a, b):
    """The meet of two trees, or None when their heads clash."""
    if a == ("DynT",):
        return b
    if b == ("DynT",):
        return a
    if a[0] != b[0]:
        return None
    fields = [tree_meet(x, y) for x, y in zip(a[1:], b[1:])]
    return None if None in fields else (a[0], *fields)


def tree_consistent(a, b):
    return tree_meet(a, b) is not None


@given(TYPES)
def test_a_type_built_twice_is_the_same_object(t):
    assert rebuild(t) is t
    assert hash(rebuild(t)) == hash(t)


@given(TYPES, TYPES)
def test_equality_is_identity_is_structural_equality(a, b):
    same = tree(a) == tree(b)
    assert (a == b) is (a is b) is same
    assert (a != b) is not same
    assert (hash(a) == hash(b)) or not same


@given(TYPES, TYPES)
def test_keyword_construction_returns_the_interned_type(a, b):
    assert ArrowT(dom=a, cod=b) is ArrowT(a, b)
    assert PairT(a, right=b) is PairT(a, b)
    assert RefT(cell=a) is RefT(a)
    assert IntT() is INT and BoolT() is BOOL and DynT() is DYN


@given(TYPES)
def test_copies_and_pickles_return_the_interned_type(t):
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert copy.deepcopy([t, t])[0] is t
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(t, protocol)) is t


def test_a_constructor_checks_its_arguments():
    with pytest.raises(TypeError):
        ArrowT(INT)
    with pytest.raises(TypeError):
        RefT(INT, INT)
    with pytest.raises(TypeError):
        ArrowT(INT, dom=INT)
    with pytest.raises(AttributeError):
        RefT(INT).cell = BOOL
    # A field that is no type fails, wherever it stands, before anything
    # enters the table.
    known = len(_TYPES)
    for make in (lambda: RefT(3), lambda: ArrowT(DYN, 3),
                 lambda: ArrowT(3, INT), lambda: PairT(DYN, 3)):
        for _ in range(2):
            with pytest.raises(TypeError, match="not a type: 3"):
                make()
    assert len(_TYPES) == known


@given(TYPES, TYPES)
def test_the_type_algebra_agrees_with_the_oracle(a, b):
    assert lesseq(a, b) is tree_lesseq(tree(a), tree(b))
    assert consistent(a, b) is tree_consistent(tree(a), tree(b))
    expected = tree_meet(tree(a), tree(b))
    if expected is None:
        with pytest.raises(CastError):
            meet(a, b)
    else:
        assert tree(meet(a, b)) == expected
        assert meet(a, b) is rebuild(meet(a, b))


def test_unequal_arrows_compare_without_walking_their_fields(monkeypatch):
    # Comparing two types never reaches the structural equality of
    # `Node`: unequal arrows are two pointers that differ.
    def walk(self, other):
        raise AssertionError("structural comparison of a type")

    monkeypatch.setattr(Node, "__eq__", walk)
    assert (ArrowT(INT, INT) == ArrowT(DYN, DYN)) is False
    assert (ArrowT(INT, INT) != ArrowT(DYN, DYN)) is True
    assert ArrowT(INT, INT) == ArrowT(INT, INT)
    assert PairT(INT, RefT(DYN)) in {PairT(INT, RefT(DYN))}
