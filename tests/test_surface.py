"""Parser, consistency, surface checking, and elaboration properties."""

import gc
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given

from generators import ProgramGen, hypothesis_types
from monoref.lang import (
    BOOL,
    DYN,
    INT,
    ISZERO,
    PREV,
    SUCC,
    ArrowT,
    Deref,
    Fst,
    Lam,
    MkPair,
    Node,
    PairT,
    PrimApp,
    RefT,
    SCall,
    SCast,
    SDynDeref,
    SDynUpdate,
    SLet,
    SRet,
    STailCall,
    SAlloc,
    SUpdate,
    Snd,
    Ty,
)
from monoref.surface import (
    Lit,
    ParseError,
    SCastE,
    SPrim,
    SRefNew,
    SVar,
    consistent,
    elaborate,
    parse_surface,
    stmt_to_sexpr,
    typecheck_surface,
)
from monoref.typecheck import TypeCheckError, check_stmt

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_NAMES = ("ex1", "ex1r", "ex2", "ex3", "cycle")
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_parse_examples():
    assert parse_surface("(succ 4)") == SPrim("succ", Lit(4))
    assert parse_surface("(ref int 4)") == SRefNew(INT, Lit(4))
    assert parse_surface("(cast x (ref dyn))") == SCastE(SVar("x"), RefT(DYN))
    assert parse_surface("(cast x (ref-ty dyn))") == SCastE(SVar("x"), RefT(DYN))


def test_integer_literals_are_ascii_digits():
    assert parse_surface("(succ -12)") == SPrim("succ", Lit(-12))
    assert parse_surface("(succ \u0663\u0663)") == \
        SPrim("succ", SVar("\u0663\u0663"))


def test_parse_positions():
    ast = parse_surface("\n  (succ 4)")
    assert ast.pos == (2, 3)


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_surface("(succ 4")
    assert err.value.line == 1 and err.value.col == 1
    with pytest.raises(ParseError):
        parse_surface("(succ 4))")
    with pytest.raises(ParseError):
        parse_surface("")
    with pytest.raises(ParseError):
        parse_surface(")")
    with pytest.raises(ParseError):
        parse_surface("(snd)")
    with pytest.raises(ParseError):
        parse_surface("(lambda (x : int bool) x)")


def test_parse_lambda_without_colon():
    assert parse_surface("(lambda (x int) x)") == \
        parse_surface("(lambda (x : int) x)")


def test_parse_malformed_inputs():
    malformed = [
        "()",                      # empty application
        "(cast 4 zzz)",            # unknown type name
        "(cast 4 (-> int))",       # arrow type arity
        "(cast 4 (4 int))",        # non-keyword type head
        "(let (cast 4) 5)",        # keyword as binder
        "(let (4 5) 6)",           # number as binder
        "(lambda ((x) : int) x)",  # binder is not an atom
        "(ref int)",               # allocation arity
        "(begin 1)",               # begin arity
    ]
    for source in malformed:
        with pytest.raises(ParseError):
            parse_surface(source)


# Malformed programs, each with its first error and where it is.
PARSE_ERRORS = [
    ("", "empty input", (1, 1)),
    ("; only a comment\n  ; and another\n", "empty input", (1, 1)),
    (")", "unexpected ')'", (1, 1)),
    ("(a (b\n (c d)", "unclosed parenthesis", (1, 4)),
    ("(succ 4) 5", "unexpected trailing input '5'", (1, 10)),
    ("(succ 4)\n)", "unexpected trailing input ')'", (2, 1)),
    ("(succ 4) (", "unexpected trailing input '('", (1, 10)),
    ("(ref int)", "expected (ref T e)", (1, 1)),
    ("(! 1 2)", "expected (! e)", (1, 1)),
    ("(:= x)", "expected (:= target value)", (1, 1)),
    ("(cast 4)", "expected (cast e T)", (1, 1)),
    ("(pair 1)", "expected (pair e e)", (1, 1)),
    ("(fst)", "expected (fst e)", (1, 1)),
    ("(snd 1 2)", "expected (snd e)", (1, 1)),
    ("(succ)", "expected (succ e)", (1, 1)),
    ("(cast 4 (-> int))", "malformed type starting with '->'", (1, 9)),
    ("(cast 4 (pair-ty int))", "malformed type starting with 'pair-ty'",
     (1, 9)),
    ("(cast 4 (× int int int))", "malformed type starting with '×'", (1, 9)),
    ("(cast 4 (ref-ty))", "malformed type starting with 'ref-ty'", (1, 9)),
    ("(cast 4 (ref int int))", "malformed type starting with 'ref'", (1, 9)),
    ("(cast 4 (int))", "malformed type starting with 'int'", (1, 9)),
    ("(cast 4 ())", "malformed type", (1, 9)),
    ("(cast 4 zzz)", "unknown type 'zzz'", (1, 9)),
    ("(succ\r4)\r)", "unexpected trailing input ')'", (3, 1)),
    ("(succ\x0c  4)\x0c x", "unexpected trailing input 'x'", (3, 2)),
    ("(succ\xa04)\xa0x", "unexpected trailing input 'x'", (1, 10)),
]


@pytest.mark.parametrize("source, message, pos", PARSE_ERRORS)
def test_parse_error_messages_and_positions(source, message, pos):
    with pytest.raises(ParseError) as err:
        parse_surface(source)
    assert (err.value.message, err.value.line, err.value.col) == \
        (message, *pos)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\v", "\f", "\x1c",
                                     "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
def test_parse_line_breaks(newline):
    ast = parse_surface(f"(pair{newline}1{newline}  #t)")
    assert ast == parse_surface("(pair 1 #t)")
    assert (ast.pos, ast.fst.pos, ast.snd.pos) == ((1, 1), (2, 1), (3, 3))


def test_parse_non_breaking_space_separates_tokens():
    ast = parse_surface("(succ\xa04)\x1f")
    assert ast == SPrim("succ", Lit(4))
    assert ast.arg.pos == (1, 7)


KEYWORDS = ("lambda let begin ref ! := cast pair fst snd succ prev zero? int "
            "bool dyn -> pair-ty ref-ty × : #t #f true false").split()


@pytest.mark.parametrize("keyword", KEYWORDS)
def test_keywords_are_not_binders(keyword):
    with pytest.raises(ParseError) as err:
        parse_surface(f"(let ({keyword} 1) 2)")
    assert (err.value.message, err.value.line, err.value.col) == \
        (f"keyword {keyword!r} used as an identifier", 1, 7)


# Ill-typed programs, each with its first type error.
TYPE_ERRORS = [
    ("(let (f 4) (f 1))", "1:12: application of non-function type int"),
    ("(fst (lambda (x : int) x))",
     "1:1: projection from non-pair type (-> int int)"),
    ("(snd #t)", "1:1: projection from non-pair type bool"),
    ("(! (pair 1 2))",
     "1:1: dereference of non-reference type (pair-ty int int)"),
    ("(begin 1 (:= (succ 1) 5))",
     "1:10: assignment through non-reference type int"),
    ("(fst 3)", "1:1: projection from non-pair type int"),
    ("(succ #t)", "1:1: succ expects int, argument has type bool"),
    ("(zero? #f)", "1:1: zero? expects int, argument has type bool"),
    ("(cast 4 bool)", "1:1: cast from int to inconsistent bool"),
    ("(ref int #t)",
     "1:1: initializer type bool not consistent with cell type int"),
    ("((lambda (y : int) y) #t)",
     "1:1: argument type bool not consistent with int"),
    ("(let (r (ref int 1)) (:= r #t))",
     "1:22: assignment of bool not consistent with cell type int"),
    ("x", "1:1: unbound variable 'x'"),
    ("nope", "1:1: unbound variable 'nope'"),
    # Both operands are typed before the first is seen as a function or
    # a reference, so the error inside the second comes first.
    ("(#t (succ #f))", "1:5: succ expects int, argument has type bool"),
    ("(:= 4 (succ #f))", "1:7: succ expects int, argument has type bool"),
]


@pytest.mark.parametrize("source, message", TYPE_ERRORS)
def test_dyn_view_type_errors(source, message):
    # Typechecking and elaboration are one pass, so both entry points
    # reject each program with the same first error, at the form.
    ast = parse_surface(source)
    for stage in (lambda: typecheck_surface((), ast), lambda: elaborate(ast)):
        with pytest.raises(TypeCheckError) as err:
            stage()
        assert str(err.value) == message
        line, col = err.value.pos
        assert message.startswith(f"{line}:{col}: ")


def test_elaborate_after_check_returns_its_own_ir():
    a, b = parse_surface("(succ 1)"), parse_surface("(zero? (prev 1))")
    fresh = stmt_to_sexpr(elaborate(b))
    assert typecheck_surface((), a) == INT
    assert stmt_to_sexpr(elaborate(b)) == fresh
    assert typecheck_surface((), a) == INT
    assert stmt_to_sexpr(elaborate(a)) == "(let $t0 (succ 1)\n  (return $t0))"


def test_a_context_entry_that_is_no_type_is_a_type_error():
    # Checked before anything is typed: a use of the name would
    # otherwise return the entry, or report it as the type it spells.
    for text in ("x", "(succ x)", "1"):
        with pytest.raises(TypeCheckError) as err:
            typecheck_surface((("y", INT), ("x", "int")), parse_surface(text))
        assert str(err.value) == "annotation 'int' of 'x' is not a type"


def test_typecheck_in_a_context_and_elaborate_closed():
    ast = parse_surface("(succ x)")
    assert typecheck_surface((("x", INT),), ast) == INT
    with pytest.raises(TypeCheckError, match="unbound variable 'x'"):
        elaborate(ast)
    with pytest.raises(TypeCheckError, match="succ expects int"):
        typecheck_surface([("x", BOOL)], ast)
    # A node built without a position reports none.
    with pytest.raises(TypeCheckError) as err:
        elaborate(SPrim("succ", Lit(True)))
    assert err.value.pos is None
    assert str(err.value) == "succ expects int, argument has type bool"


def test_check_then_elaborate_is_one_pass(monkeypatch):
    import monoref.surface as surface

    built = []

    class Counting(surface._Elaborator):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(surface, "_Elaborator", Counting)
    ast = parse_surface((CORPUS / "ex1.gtlc").read_text())
    assert typecheck_surface((), ast) == BOOL
    assert check_stmt((), elaborate(ast)) == BOOL
    assert len(built) == 1


def test_parse_comments_and_bools():
    ast = parse_surface("; heading\n(pair #t false) ; trailing\n")
    ty = typecheck_surface((), ast)
    assert ty == PairT(BOOL, BOOL)


def test_reserved_dollar_names_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_surface("(let ($x 4) $x)")
    with pytest.raises(ParseError, match="reserved"):
        parse_surface("$t0")


def test_consistent():
    assert consistent(DYN, ArrowT(INT, BOOL))
    assert not consistent(INT, BOOL)
    assert consistent(RefT(INT), RefT(DYN))
    assert consistent(PairT(DYN, INT), PairT(BOOL, INT))
    assert not consistent(ArrowT(INT, INT), RefT(INT))


def test_typecheck_lambda_over_dyn():
    ast = parse_surface("(lambda (x : dyn) (succ x))")
    assert typecheck_surface((), ast) == ArrowT(DYN, INT)


def test_typecheck_application_of_non_function():
    ast = parse_surface("(4 #t)")
    with pytest.raises(TypeCheckError):
        typecheck_surface((), ast)


def test_typecheck_dyn_operator_and_target():
    # a dyn-typed operator is treated as (-> dyn dyn)
    ast = parse_surface("(let (f (cast (lambda (x : int) x) dyn)) (f 3))")
    assert typecheck_surface((), ast) == DYN
    # assignment through a dyn-typed target is treated as (ref-ty dyn)
    ast2 = parse_surface(
        "(let (r (ref int 1)) (let (d (cast r dyn)) (:= d (cast 5 dyn))))")
    assert typecheck_surface((), ast2) == DYN


def test_typecheck_error_paths():
    errors = [
        "nope",                          # unbound variable
        "((lambda (x : int) x) #t)",     # inconsistent argument
        "(fst 4)",                       # projection from non-pair
        "(ref int #t)",                  # inconsistent initializer
        "(! 4)",                         # dereference of non-reference
        "(:= 4 5)",                      # assignment through non-reference
        "(let (r (ref int 1)) (:= r #t))",  # inconsistent assignment
        "(cast 4 bool)",                 # inconsistent cast
    ]
    for source in errors:
        with pytest.raises(TypeCheckError):
            typecheck_surface((), parse_surface(source))


def test_dyn_application_runs_through_wrapper():
    from monoref.guarded import run_g
    from monoref.lang import O_CASTERROR, O_INJ
    from monoref.machine import run

    good = elaborate(parse_surface(
        "(let (f (cast (lambda (x : int) (succ x)) dyn)) (f 3))"))
    assert check_stmt((), good) == DYN
    assert run(good) == run_g(good) == O_INJ

    bad = elaborate(parse_surface(
        "(let (f (cast (lambda (x : int) (succ x)) dyn)) (f #t))"))
    assert run(bad) == run_g(bad) == O_CASTERROR

    not_a_function = elaborate(parse_surface("(let (d (cast 4 dyn)) (d 1))"))
    assert run(not_a_function) == run_g(not_a_function) == O_CASTERROR


def test_a_cast_function_observes_as_a_function():
    from monoref.guarded import run_g
    from monoref.lang import O_FUN
    from monoref.machine import run

    cast_fn = elaborate(parse_surface(
        "(cast (lambda (x : int) x) (-> dyn dyn))"))
    assert check_stmt((), cast_fn) == ArrowT(DYN, DYN)
    assert run(cast_fn) == run_g(cast_fn) == O_FUN


def test_dyn_assignment_reaches_the_underlying_cell():
    from monoref.guarded import run_g
    from monoref.lang import OCon
    from monoref.machine import run

    program = elaborate(parse_surface("""
        (let (r (ref int 1))
          (let (d (cast r dyn))
            (begin (:= d (cast 5 dyn))
                   (! r))))
        """))
    assert check_stmt((), program) == INT
    assert run(program) == run_g(program) == OCon(5)


def test_typecheck_corpus():
    expected = {"ex1": BOOL, "ex1r": BOOL, "ex2": INT, "ex3": DYN,
                "cycle": INT}
    for name in CORPUS_NAMES:
        ast = parse_surface((CORPUS / f"{name}.gtlc").read_text())
        assert typecheck_surface((), ast) == expected[name]


def _count_nodes(s, kinds):
    """Count IR nodes of the given classes in a statement tree."""
    count = 0
    stack = [s]
    while stack:
        node = stack.pop()
        if isinstance(node, kinds):
            count += 1
        for field_name in getattr(node, "_fields", ()):
            stack.append(getattr(node, field_name))
    return count


def test_elaborate_cast_to_dyn():
    ast = parse_surface("(cast 4 dyn)")
    program = elaborate(ast)
    assert check_stmt((), program) == DYN
    assert _count_nodes(program, SCast) == 1


def test_elaborate_static_deref_uses_plain_form():
    ast = parse_surface("(let (r (ref int 4)) (! r))")
    program = elaborate(ast)
    assert _count_nodes(program, Deref) == 1
    assert _count_nodes(program, SDynDeref) == 0


def test_elaborate_dyn_cell_deref_uses_annotated_form():
    ast = parse_surface("(let (r (ref dyn (cast 4 dyn))) (! r))")
    program = elaborate(ast)
    assert _count_nodes(program, Deref) == 0
    annotated = [node for node in _walk(program) if isinstance(node, SDynDeref)]
    assert len(annotated) == 1 and annotated[0].ann == DYN


def test_elaborate_static_update_uses_plain_form():
    ast = parse_surface("(let (r (ref int 4)) (:= r 5))")
    program = elaborate(ast)
    assert _count_nodes(program, SUpdate) == 1
    assert _count_nodes(program, SDynUpdate) == 0


def test_elaborate_dyn_cell_update_uses_annotated_form():
    ast = parse_surface("(let (r (ref dyn (cast 4 dyn))) (:= r (cast 5 dyn)))")
    program = elaborate(ast)
    assert _count_nodes(program, SUpdate) == 0
    assert _count_nodes(program, SDynUpdate) == 1


def _walk(s):
    stack = [s]
    while stack:
        node = stack.pop()
        yield node
        for field_name in getattr(node, "_fields", ()):
            stack.append(getattr(node, field_name))


def test_tail_position_application_becomes_tail_call():
    ast = parse_surface("((lambda (x : int) x) 4)")
    program = elaborate(ast)
    assert _count_nodes(program, STailCall) == 1
    ast2 = parse_surface("(succ ((lambda (x : int) x) 4))")
    program2 = elaborate(ast2)
    assert _count_nodes(program2, STailCall) == 0
    assert _count_nodes(program2, SCall) == 1


def test_static_programs_elaborate_without_casts():
    source = """
    (let (r (ref int 4))
      (let (f (lambda (p : (pair-ty int bool)) (fst p)))
        (begin (:= r (f (pair 7 #t)))
               (succ (! r)))))
    """
    ast = parse_surface(source)
    assert typecheck_surface((), ast) == INT
    program = elaborate(ast)
    assert _count_nodes(program, (SCast, SDynDeref, SDynUpdate)) == 0
    assert check_stmt((), program) == INT


def test_elaborated_binders_stay_out_of_user_namespace():
    ast = parse_surface((CORPUS / "cycle.gtlc").read_text())
    program = elaborate(ast)
    binders = set()
    for node in _walk(program):
        if isinstance(node, (SLet, SCall, SAlloc, SCast, SDynDeref)):
            binders.add(node.name)
        if isinstance(node, Lam):
            binders.add(node.param)
    generated = {b for b in binders if b.startswith("$")}
    user = binders - generated
    assert user == {"r1", "r2"}
    assert all(b.startswith("$t") for b in generated)


def test_elaboration_preserves_corpus_types():
    for name in CORPUS_NAMES:
        ast = parse_surface((CORPUS / f"{name}.gtlc").read_text())
        surface_ty = typecheck_surface((), ast)
        assert check_stmt((), elaborate(ast)) == surface_ty


def test_elaboration_preserves_generated_types():
    rng = random.Random(313)
    gen = ProgramGen(rng)
    for _ in range(150):
        prog = gen.program(size=rng.randint(3, 12))
        surface_ty = typecheck_surface((), prog)
        assert check_stmt((), elaborate(prog)) == surface_ty


# A `let` is emitted around the rest of its enclosing expression, so one
# that rebinds a name must not capture later references to the old one.
# The generators always pick fresh names and never exercise this.
SHADOWING_LETS = [
    ("(let (x #t) (pair (let (x 1) x) x))", "(pair 1 #t)"),
    ("(pair (let (x 1) x) (let (x #t) x))", "(pair 1 #t)"),
    ("(let (x #t) ((lambda (x : int) (pair (let (x #f) x) x)) 3))",
     "(pair #f 3)"),
]


@pytest.mark.parametrize("source,expected", SHADOWING_LETS,
                         ids=["enclosing-let", "sibling-lets", "parameter"])
def test_shadowing_let_does_not_capture_later_references(source, expected):
    from monoref.cli import render_observable
    from monoref.guarded import run_g
    from monoref.machine import run

    ast = parse_surface(source)
    program = elaborate(ast)
    assert check_stmt((), program) == typecheck_surface((), ast)
    assert render_observable(run(program)) == expected
    assert render_observable(run_g(program)) == expected


def _nested_lambda_bodies(depth: int) -> str:
    """Alternate `let` and applied-lambda levels, as the benchmark's `deep`
    programs nest them; every level adds one, and so does the innermost."""
    opening, closing = [], []
    for i in range(depth):
        if i % 2:
            opening.append(f"(let (y{i + 1} (succ y{i}))\n")
            closing.append(")")
        else:
            ann = "dyn" if i % 4 else "int"
            opening.append(f"((lambda (y{i + 1} : {ann})\n")
            closing.append(f") (succ y{i}))")
    return ("((lambda (y0 : int)\n" + "".join(opening) + f"(succ y{depth})"
            + "".join(reversed(closing)) + ") 0)")


def _let_chain(n: int, rhs: str = "(succ x{})") -> str:
    """`n` nested `let`s, each binding `x<i>` to `rhs` of `x<i - 1>`."""
    return ("(let (x0 0)\n" + "".join(
        f"(let (x{i} {rhs.format(i - 1)})\n" for i in range(1, n))
        + f"x{n - 1}" + ")" * n)


# Long statement chains and deep lambda nesting. The parser and the
# elaborator walk a `let`/`begin` chain in a loop, so a chain may be as
# long as the machine runs; lambda bodies nest within the recursion
# limit of the layers that still recurse (the parser and the surface
# checker). Each program elaborates to a chain of more than 1,000 IR
# statements or to a lambda body nested 250 levels deep.
LONG_PROGRAMS = {
    "400-lets": (_let_chain(400, "(succ (succ x{}))"), "798"),
    "400-item-begin": ("(let (r (ref int 0)) (begin\n"
                       + "(:= r (succ (! r)))\n" * 400 + "))", "400"),
    "250-nested-bodies": (_nested_lambda_bodies(250), "251"),
    "1200-lets": (_let_chain(1200), "1199"),
    "1200-item-begin": ("(let (r (ref int 0)) (begin\n"
                        + "(:= r (succ (! r)))\n" * 1200 + "))", "1200"),
}


@pytest.mark.parametrize("name", LONG_PROGRAMS)
def test_long_programs_pass_every_layer(name):
    from monoref.cli import render_observable
    from monoref.guarded import run_g
    from monoref.machine import run

    source, expected = LONG_PROGRAMS[name]
    ast = parse_surface(source)
    program = elaborate(ast)
    assert check_stmt((), program) == typecheck_surface((), ast) == INT
    assert render_observable(run(program)) == expected
    assert render_observable(run_g(program)) == expected
    # Equality, hash and repr walk the nested statements with a stack.
    again = elaborate(parse_surface(source))
    assert again is not program and again == program
    assert hash(again) == hash(program) and repr(again) == repr(program)
    other = elaborate(parse_surface(source.replace("succ", "prev", 1)))
    assert other != program


def test_a_use_far_down_a_chain_costs_what_a_near_one_does():
    # The elaborator keeps a stack of entries per name, so each of 8,000
    # `let`s that uses the chain's first binding finds it at once; a
    # linked scope walked every binding in between, about 23 times the
    # time of the chain whose items use the previous binding. Best of 3,
    # with the cyclic collector off while a pass is timed.
    def best(source):
        ast = parse_surface(source)
        times = []
        for _ in range(3):
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                typecheck_surface((), ast)
                times.append(time.perf_counter() - start)
            finally:
                gc.enable()
        return min(times)

    far, near = best(_let_chain(8000, "(succ x0)")), best(_let_chain(8000))
    assert far <= 3 * near


# A name goes out of scope where its `let` chain or lambda ends, and an
# outer binding of it, one from the context included, comes back.
OUT_OF_SCOPE = [
    ("(pair (let (x 1) x) x)", (1, 21), PairT(INT, BOOL)),
    ("(begin (let (x 1) x) x)", (1, 22), BOOL),
    ("(pair ((lambda (x : int) x) 1) x)", (1, 32), PairT(INT, BOOL)),
]


@pytest.mark.parametrize("source, pos, ty", OUT_OF_SCOPE,
                         ids=["let", "begin", "lambda"])
def test_a_name_leaves_scope_with_its_binder(source, pos, ty):
    with pytest.raises(TypeCheckError) as err:
        typecheck_surface((), parse_surface(source))
    assert str(err.value) == f"{pos[0]}:{pos[1]}: unbound variable 'x'"
    assert err.value.pos == pos
    gamma = (("x", BOOL), ("x", INT))
    assert typecheck_surface(gamma, parse_surface(source)) is ty


def _arrows(depth: int, leaf: str = "int") -> str:
    """An arrow type whose codomains nest `depth` deep, around `leaf`."""
    return "(-> int " * depth + leaf + ")" * depth


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python does not cap the digits of an int")
def test_a_literal_at_the_lowest_digit_cap_is_a_parse_error():
    # 640 is the lowest cap Python accepts other than none.
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert parse_surface("-" + "9" * 639) == Lit(-int("9" * 639))
        for literal in ("9" * 640, "-" + "9" * 640):
            with pytest.raises(ParseError) as err:
                parse_surface(literal)
            assert err.value.message == \
                "integer literal of 640 digits; at most 639 are allowed"
    finally:
        sys.set_int_max_str_digits(cap)


def test_deep_annotations_parse_without_recursion():
    # The type reader keeps its own stack: a 1,200-deep arrow annotation
    # parses, and so does one nested through domains.
    want = INT
    for _ in range(1200):
        want = ArrowT(INT, want)
    ast = parse_surface(f"(lambda (f : {_arrows(1200)}) f)")
    assert ast.ann is want
    domains = "(-> " * 1200 + "int" + " bool)" * 1200
    assert parse_surface(f"(cast 1 {domains})").ty.dom.dom.cod is BOOL


@pytest.mark.parametrize("source, message, pos", [
    # The first error in pre-order, however deep the walk has gone.
    (f"(cast 1 {_arrows(1200, 'zzz')})", "unknown type 'zzz'", (1, 9609)),
    (f"(cast 1 {_arrows(1200, '(-> int)')})",
     "malformed type starting with '->'", (1, 9609)),
    ("(cast 1 (-> (-> int zzz) yyy))", "unknown type 'zzz'", (1, 21)),
    (_let_chain(1200).replace("x1198))", "$x))"),
     "identifiers starting with '$' are reserved", (1200, 19)),
    (_let_chain(1200).replace("(succ x0)", "(succ)"), "expected (succ e)",
     (2, 10)),
    ("(begin 1 (begin 2 (let (x 3) (begin x (succ)))))", "expected (succ e)",
     (1, 39)),
], ids=["deep-unknown-type", "deep-malformed-type", "first-of-two",
        "last-let-rhs", "first-let-rhs", "nested-begin"])
def test_deep_parse_errors_keep_their_order_and_position(source, message,
                                                         pos):
    with pytest.raises(ParseError) as err:
        parse_surface(source)
    assert (err.value.message, err.value.line, err.value.col) == \
        (message, *pos)


def test_generated_static_programs_elaborate_without_casts():
    from monoref.machine import run
    from monoref.guarded import run_g

    rng = random.Random(626)
    gen = ProgramGen(rng, static_only=True)
    for i in range(120):
        prog = gen.program(size=rng.randint(3, 10))
        surface_ty = typecheck_surface((), prog)
        program = elaborate(prog)
        assert check_stmt((), program) == surface_ty
        count = _count_nodes(program, (SCast, SDynDeref, SDynUpdate))
        assert count == 0, f"static program {i} produced {count} cast nodes"
        assert run(program, fuel=10_000) == run_g(program, fuel=10_000)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_elaboration_matches_golden_ir(name):
    # tests/golden/<name>.ir is `monoref compile` output, trailing newline
    # included; temporaries must be numbered identically.
    golden = (GOLDEN / f"{name}.ir").read_bytes()
    ast = parse_surface((CORPUS / f"{name}.gtlc").read_text())
    assert (stmt_to_sexpr(elaborate(ast)) + "\n").encode("utf-8") == golden


def _temporaries(stmt) -> list:
    """The `$tN` names that `stmt` binds or uses, in a fixed order, lambda
    bodies included."""
    found, todo = [], [stmt]
    while todo:
        x = todo.pop()
        if type(x) is str:
            if x.startswith("$t"):
                found.append(x)
        elif isinstance(x, Node) and not isinstance(x, Ty):
            todo += reversed(x._key())
    return found


def _temporary_count(stmt) -> int:
    """How many temporaries `stmt` binds: one past the largest N."""
    return 1 + max(map(int, re.findall(r"\$t(\d+)", stmt_to_sexpr(stmt))),
                   default=-1)


def test_temporaries_are_interned_atoms(monkeypatch):
    from monoref import surface

    sources = [(CORPUS / f"{name}.gtlc").read_text() for name in CORPUS_NAMES]
    sources.append(LONG_PROGRAMS["400-item-begin"][0])
    # Every IR below is made while the table starts empty.
    monkeypatch.setattr(surface, "_TEMPS", [])
    firsts = [elaborate(parse_surface(text)) for text in sources]
    seconds = [elaborate(parse_surface(text)) for text in sources]
    counts = [_temporary_count(stmt) for stmt in firsts]
    assert len(surface._TEMPS) == max(counts) == counts[-1] > 400
    for name, first in zip(CORPUS_NAMES, firsts):
        assert stmt_to_sexpr(first) + "\n" == \
            (GOLDEN / f"{name}.ir").read_text(encoding="utf-8")
    for first, second in zip(firsts, seconds):
        temps = _temporaries(first)
        assert temps and all(a is b for a, b in
                             zip(temps, _temporaries(second), strict=True))
        assert all(tmp is surface._TEMPS[int(tmp[2:])] for tmp in temps)
    # A table of other names changes no IR's printing, equality or hash.
    monkeypatch.setattr(surface, "_TEMPS", [])
    for text, first in zip(sources, firsts):
        other = elaborate(parse_surface(text))
        assert all(a is not b for a, b in
                   zip(_temporaries(other), _temporaries(first)))
        assert other == first and hash(other) == hash(first)
        assert stmt_to_sexpr(other) == stmt_to_sexpr(first)
        assert repr(other) == repr(first)


def test_the_temporary_table_stays_bounded(monkeypatch):
    from monoref import surface

    monkeypatch.setattr(surface, "_TEMPS", [])
    monkeypatch.setattr(surface, "_TEMPS_MAX", 5)
    text = LONG_PROGRAMS["400-lets"][0]
    capped = elaborate(parse_surface(text))
    assert len(surface._TEMPS) == 5 < _temporary_count(capped)
    monkeypatch.setattr(surface, "_TEMPS_MAX", 1 << 16)
    assert capped == elaborate(parse_surface(text))


# One statement of every IR form: the 9 statement forms, the 6
# expression forms, the 5 operators, both Boolean literals and every type
# constructor, with a lambda at the top and one nested in a chain.
ALL_FORMS = SLet(
    "f", Lam("x", ArrowT(INT, BOOL), STailCall("x", -7)),
    SCall("a", "f", True,
    SAlloc("r", RefT(PairT(INT, DYN)),
           MkPair(0, False),
    SUpdate("r", Deref("r"),
    SDynUpdate("r", 1, DYN,
    SCast("c", "a", BOOL, DYN,
    SDynDeref("d", "r", PairT(INT, DYN),
    SLet("e", PrimApp(SUCC, "d"),
    SLet("g", PrimApp(PREV, "e"),
    SLet("h", PrimApp(ISZERO, "g"),
    SLet("k", Lam("y", DYN, SLet("z", PrimApp(Fst(INT, BOOL), "y"),
                                 SRet("z"))),
    SRet(PrimApp(Snd(RefT(DYN), ArrowT(BOOL, INT)), "d")))))))))))))

ALL_FORMS_TEXT = """\
(let f (lambda (x : (-> int bool))
  (tailcall x -7))
  (call a f #t
    (alloc r (ref-ty (pair-ty int dyn)) (pair 0 #f)
      (update r (! r)
        (dyn-update r 1 dyn
          (cast c a bool dyn
            (dyn-deref d r (pair-ty int dyn)
              (let e (succ d)
                (let g (prev e)
                  (let h (zero? g)
                    (let k (lambda (y : dyn)
                      (let z (fst int bool y)
                        (return z)))
                      (return (snd (ref-ty dyn) (-> bool int) d)))))))))))))"""


def test_printers_cover_all_forms():
    for name in CORPUS_NAMES:
        ast = parse_surface((CORPUS / f"{name}.gtlc").read_text())
        text = stmt_to_sexpr(elaborate(ast))
        assert text.count("(") == text.count(")")
    assert stmt_to_sexpr(ALL_FORMS) == ALL_FORMS_TEXT


@given(hypothesis_types())
def test_type_print_parse_roundtrip(ty):
    reparsed = parse_surface(f"(cast 4 {ty})")
    assert reparsed.ty == ty


def test_package_level_example():
    # keeps the README usage honest
    from monoref import run, run_g
    from monoref.lang import OCon

    ast = parse_surface("(let (r (ref int 4)) (succ (! r)))")
    assert typecheck_surface((), ast) == INT
    program = elaborate(ast)
    assert run(program) == OCon(5)
    assert run_g(program) == OCon(5)
