"""The front end's fingerprint: one SHA-256 over everything it produces.

For each input the digest takes the parser's AST `repr`, positions
included, or its `ParseError` message, line and column; the surface
type, or the `TypeCheckError` text and position; and the printed IR.
The inputs are the corpus, the benchmark's 23 loop kernels, 3,000
generated programs printed as source, seeded token soups, and tables of
malformed and ill-typed programs, several of them with more than one
error, so that which error comes first is part of the digest. The
digest in `golden/front_end.sha256` was recorded before the parser and
the elaborator were last optimized; a change to the front end that
keeps it keeps every AST, type, IR and error as it was.
"""

import hashlib
import random
from pathlib import Path

from generators import ProgramGen
from kernels import all_sources
from monoref.surface import (
    Lit,
    ParseError,
    SApp,
    SAssign,
    SBegin,
    SCastE,
    SDeref,
    SFst,
    SLambda,
    SLetE,
    SPair,
    SPrim,
    SRefNew,
    SSnd,
    SVar,
    elaborate,
    parse_surface,
    stmt_to_sexpr,
    typecheck_surface,
)
from monoref.typecheck import TypeCheckError
from test_cli import TOKENS
from test_surface import CORPUS, KEYWORDS, PARSE_ERRORS, TYPE_ERRORS

GOLDEN = Path(__file__).resolve().parent / "golden" / "front_end.sha256"

# Programs with more than one fault: the digest fixes which is reported.
SEVERAL_ERRORS = [
    "(lambda x (succ)",
    "(lambda x (succ))",
    "(lambda (x : zzz) (succ))",
    "(lambda (x : (-> int (ref-ty))) (succ))",
    "(lambda (x int y) (succ))",
    "(lambda ($x : int) (succ))",
    "(lambda (1 : int) (succ))",
    "(let (1 (succ)) (pair))",
    "(let ($t0 (succ)) 2)",
    "(let (x (succ)) (pair))",
    "(let ((x) 1) 2)",
    "(let x 1)",
    "(let (x 1 2) 3)",
    "(begin (succ) (pair))",
    "(begin 1)",
    "(begin (succ #t) (fst 1))",
    "(cast (succ) zzz)",
    "(cast (succ #t) (-> int zzz))",
    "(ref zzz (succ))",
    "(ref (-> int) (succ #t))",
    "((succ #t) (succ #f))",
    "((succ) (pair))",
    "(1 2 3)",
    "()",
    "(())",
    "((lambda (x : int) x))",
    "(pair (succ #t) (fst 1))",
    "(pair (succ) (fst 1 2))",
    "(:= (succ #t) (succ #f))",
    "(:= (! 1) (fst 2))",
    "(let (r (ref int 1)) (:= (fst r) #t))",
    "(let (x #t) (let (x (succ x)) x))",
    "(lambda (x : int) (lambda (x : bool) (succ x)))",
    "(#t #f",
    "(succ 4))",
    "(succ 4) ; trailing comment\n (pair",
    "(cast 4 (-> (-> (-> int zzz) bool) yyy))",
    "(cast 4 (-> (-> int) (ref-ty)))",
    "(cast 4 (-> int (pair-ty bool (ref-ty int dyn))))",
    "(cast 4 (-> int ((int) bool)))",
    "(cast 4 (-> () int))",
    "(cast (fst 4) (-> int))",
    "(zero? (succ (prev #f)))",
    "(let (f (lambda (y : dyn) (succ y))) (f (f #t)))",
    "((lambda (f : (-> int int)) (f #t)) (lambda (z : bool) z))",
    "-",
    "--1",
    "-1x",
    "#",
    "#true",
    "$t0",
    "(succ ٣)",
    "1" * 5000,
    "(succ " + "9" * 5000 + ")",
    "(lambda (x : int) " + "(succ " * 30 + "#t" + ")" * 30 + ")",
]


def to_source(e, depth: int = 0) -> str:
    """A generated AST as the text the parser reads back to it; every
    `let` and `begin` puts its body on a new line, to vary positions."""
    t = type(e)
    if t is Lit:
        return "#t" if e.const is True else "#f" if e.const is False \
            else str(e.const)
    if t is SVar:
        return e.name
    indent = "\n" + " " * depth
    sub = lambda x: to_source(x, depth + 1)  # noqa: E731
    if t is SLambda:
        return f"(lambda ({e.param} : {e.ann}) {sub(e.body)})"
    if t is SApp:
        return f"({sub(e.fn)} {sub(e.arg)})"
    if t is SLetE:
        return f"(let ({e.name} {sub(e.rhs)}){indent}{sub(e.body)})"
    if t is SBegin:
        return f"(begin {sub(e.first)}{indent}{sub(e.second)})"
    if t is SPrim:
        return f"({e.op} {sub(e.arg)})"
    if t is SRefNew:
        return f"(ref {e.cell_ty} {sub(e.init)})"
    if t is SCastE:
        return f"(cast {sub(e.expr)} {e.ty})"
    keyword = {SPair: "pair", SFst: "fst", SSnd: "snd", SDeref: "!",
               SAssign: ":="}[t]
    return f"({keyword} {' '.join(sub(x) for x in e._key())})"


def sources():
    for path in sorted(CORPUS.glob("*.gtlc")):
        yield path.read_text(encoding="utf-8")
    for _, text in all_sources():
        yield text
    gen_rng = random.Random(2025)
    gen = ProgramGen(gen_rng, allow_ref_casts=True)
    for _ in range(3000):
        yield to_source(gen.program(size=gen_rng.randint(1, 12)))
    soup_rng = random.Random(77)
    for _ in range(2000):
        yield " ".join(soup_rng.choices(TOKENS, k=soup_rng.randint(0, 40)))
    yield from (source for source, *_ in PARSE_ERRORS)
    yield from (source for source, _ in TYPE_ERRORS)
    yield from (f"(let ({keyword} 1) 2)" for keyword in KEYWORDS)
    yield from SEVERAL_ERRORS


def outcome(source: str) -> str:
    """Everything the front end makes of `source`, as text."""
    try:
        ast = parse_surface(source)
    except ParseError as err:
        return f"parse error {err.message!r} {err.line} {err.col}"
    lines = [repr(ast)]
    try:
        lines.append(f"{typecheck_surface((), ast)}")
    except TypeCheckError as err:
        lines.append(f"type error {err} {err.pos}")
        return "\n".join(lines)
    ir = stmt_to_sexpr(elaborate(ast))
    # With no check just before it, `elaborate` makes a pass of its own.
    assert stmt_to_sexpr(elaborate(ast)) == ir
    lines.append(ir)
    return "\n".join(lines)


def test_front_end_fingerprint_is_unchanged():
    digest = hashlib.sha256()
    for source in sources():
        digest.update(source.encode("utf-8", "surrogatepass") + b"\0")
        digest.update(outcome(source).encode("utf-8") + b"\0")
    assert digest.hexdigest() == GOLDEN.read_text().split()[0]


def test_generated_sources_read_back_to_their_ast():
    rng = random.Random(2025)
    gen = ProgramGen(rng, allow_ref_casts=True)
    for _ in range(200):
        ast = gen.program(size=rng.randint(1, 12))
        assert parse_surface(to_source(ast)) == ast
