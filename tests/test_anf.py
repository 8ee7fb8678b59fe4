"""The IR's grammar is A-normal form, and the checker enforces it.

An atom is a name, a host `str`, or a literal, a host `int` or `bool`.
Every operand of a statement is an atom, and so is every operand of a
`let`'s `PrimApp`, `MkPair` or `Deref`. `check_stmt` accepts every
program the elaborator makes and rejects any other operand with a
`TypeCheckError`, without recursing through it; the driver, which takes
any operand but a `str` as its own value, still ends any run of such a
statement in an observable.
"""

from collections import Counter
from pathlib import Path

import pytest

from kernels import all_kernels
from monoref.guarded import run_g
from monoref import lang
from monoref.lang import (
    DYN,
    INT,
    SUCC,
    Deref,
    Expr,
    Lam,
    MkPair,
    Observable,
    PrimApp,
    SAlloc,
    SCall,
    SCast,
    SDynDeref,
    SDynUpdate,
    SLet,
    SRet,
    STailCall,
    SUpdate,
    Stmt,
)
from monoref.machine import run
from monoref.surface import ParseError, elaborate, parse_surface
from monoref.typecheck import TypeCheckError, check_expr, check_stmt
from test_golden_traces import generated_programs
from test_lang import node_classes

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

IDENTITY = Lam("x", INT, SRet("x"))

# Each operand site: a statement with a hole, and an atom that fills the
# hole well typed. `r` names a reference to an int cell, `f` the
# identity on ints.
SITES = {
    "call fn": (lambda x: SCall("y", x, 1, SRet("y")), "f"),
    "call arg": (lambda x: SCall("y", "f", x, SRet("y")), 1),
    "tailcall fn": (lambda x: STailCall(x, 1), "f"),
    "tailcall arg": (lambda x: STailCall("f", x), 1),
    "alloc init": (lambda x: SAlloc("s", INT, x, SRet("s")), 1),
    "update ref": (lambda x: SUpdate(x, 1, SRet(0)), "r"),
    "update rhs": (lambda x: SUpdate("r", x, SRet(0)), 1),
    "dyn-update ref": (lambda x: SDynUpdate(x, 1, INT, SRet(0)), "r"),
    "dyn-update rhs": (lambda x: SDynUpdate("r", x, INT, SRet(0)), 1),
    "cast expr": (lambda x: SCast("y", x, INT, DYN, SRet("y")), 1),
    "dyn-deref ref": (lambda x: SDynDeref("y", x, INT, SRet("y")),
                      "r"),
    "return expr": (SRet, 1),
    "primitive arg": (lambda x: SLet("y", PrimApp(SUCC, x), SRet("y")),
                      1),
    "pair fst": (lambda x: SLet("y", MkPair(x, 1), SRet("y")), 1),
    "pair snd": (lambda x: SLet("y", MkPair(1, x), SRet("y")), 1),
    "deref ref": (lambda x: SLet("y", Deref(x), SRet("y")), "r"),
}

class Name(str):
    """A `str` subclass: only an exact `str` is a name."""


NON_ATOMS = {
    "PrimApp": PrimApp(SUCC, 1),
    "MkPair": MkPair(1, 2),
    "Deref": Deref("r"),
    "Lam": IDENTITY,
    "str": Name("r"),  # a string, but not exactly a `str`: no name
    "float": 1.0,
    "None": None,
    "type": INT,
}


def program(site, operand):
    """The statement of `site` with `operand` in its hole, under the
    bindings of `r` and `f`."""
    hole, _ = SITES[site]
    return SAlloc("r", INT, 1, SLet("f", IDENTITY, hole(operand)))


@pytest.mark.parametrize("site", list(SITES))
def test_each_site_checks_with_an_atom(site):
    check_stmt((), program(site, SITES[site][1]))


@pytest.mark.parametrize("site", list(SITES))
@pytest.mark.parametrize("kind", list(NON_ATOMS))
def test_a_non_atom_operand_is_rejected_and_runs_to_an_observable(site, kind):
    stmt = program(site, NON_ATOMS[kind])
    with pytest.raises(TypeCheckError, match="name or a literal"):
        check_stmt((), stmt)
    for runner in (run, run_g):
        assert isinstance(runner(stmt, fuel=100), Observable)


def test_a_deep_expression_is_rejected_without_recursion():
    deep = 1
    for _ in range(5_000):
        deep = PrimApp(SUCC, deep)
    with pytest.raises(TypeCheckError, match="name or a literal"):
        check_expr((), deep)
    stmt = SLet("x", deep, SRet("x"))
    with pytest.raises(TypeCheckError, match="name or a literal"):
        check_stmt((), stmt)
    for runner in (run, run_g):
        assert isinstance(runner(stmt), Observable)
        assert isinstance(runner(SRet(deep)), Observable)


def elaborated():
    """Every corpus program that compiles, every benchmark kernel, and
    the generated programs the golden traces pin."""
    for path in sorted(CORPUS.glob("*.gtlc")):
        try:
            yield path.stem, elaborate(parse_surface(
                path.read_text(encoding="utf-8")))
        except (ParseError, TypeCheckError):
            continue
    yield from all_kernels()
    yield from generated_programs()


def test_every_elaborated_program_checks():
    count = 0
    for _, stmt in elaborated():
        check_stmt((), stmt)
        count += 1
    assert count > 500


# The operand fields of each IR class; a `let`'s right-hand side is an
# operand unless it is a `Lam`, `PrimApp`, `MkPair` or `Deref`.
OPERANDS = {
    SLet: ("rhs",), PrimApp: ("arg",), MkPair: ("fst", "snd"),
    Deref: ("ref",), SRet: ("expr",), SCall: ("fn", "arg"),
    STailCall: ("fn", "arg"), SAlloc: ("init",), SUpdate: ("ref", "rhs"),
    SDynUpdate: ("ref", "rhs"), SCast: ("expr",), SDynDeref: ("ref",),
}


def operands(stmt):
    """Every operand in `stmt`, lambda bodies included."""
    todo = [stmt]
    while todo:
        x = todo.pop()
        for field in OPERANDS.get(type(x), ()):
            if not isinstance(operand := getattr(x, field), Expr):
                yield operand
        todo += (part for part in x._key() if isinstance(part, (Expr, Stmt)))


def test_an_operand_is_exactly_a_host_str_int_or_bool():
    assert "Var" not in {cls.__name__ for cls in node_classes()}
    assert not hasattr(lang, "Var")
    kinds = Counter()
    for _, stmt in elaborated():
        kinds.update(type(x) for x in operands(stmt))
    assert set(kinds) == {str, int, bool}
    assert kinds[str] > 5_000
