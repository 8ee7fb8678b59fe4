"""Surface language: s-expression parser, and one pass that typechecks
gradually and elaborates.

Grammar (file extension .gtlc, UTF-8, `;` line comments):

    e ::= INT | #t | #f | true | false | x
        | (lambda (x : T) e)        function, annotated parameter
        | (e e)                     application
        | (pair e e) | (fst e) | (snd e)
        | (succ e) | (prev e) | (zero? e)
        | (ref T e)                 allocation at cell type T
        | (! e)                     dereference
        | (:= e e)                  assignment; its value is the value written
        | (cast e T)
        | (let (x e) e)
        | (begin e e ...)           sequencing, folds to the right

    T ::= int | bool | dyn
        | (-> T T) | (pair-ty T T) | (ref-ty T)

INT is an optional `-` followed by ASCII digits. `(× T T)` is accepted
for pair types and `(ref T)` for reference types.
Identifiers starting with `$` are reserved for generated temporaries.

The reader splits each line with `str` methods, no regular expression:
the code before the first `;`, spaced around each parenthesis, splits
at whitespace into the tokens. It makes one pass over them, with one
branch per token kind: the innermost open list is a local, a list joins
its parent when it opens, and `)` is one pop. Expressions are parsed
from the table `_SYNTAX` and types from `_TYPE_FORMS`, from which
`_KEYWORDS` is also built; the type keywords come from
`lang.TYPE_KEYWORDS`, by which types print. A `let`/`begin` chain is
parsed in a loop and a type from an explicit stack, each form checked
before its parts, so the first error in reading order is the one
reported and neither a long chain nor a deep type costs Python frames.
The IR is printed from one keyword table, `_IR_KEYWORDS`, which also names
the primitives of `_PRIMS`, and from an explicit work stack, so a
printed program may nest as deeply as it runs.

Typechecking is consistency-based: `dyn` is consistent with everything,
other types structurally with themselves. An operand of type dyn used as
a function, pair or reference is seen as that constructor over dyn
(`_view`). Typechecking and elaboration are one pass, which lowers to
the statement IR in A-normal form, inserting a cast at every boundary
accepted by consistency rather than equality, and picking the plain
dereference and update forms exactly when the reference's cell type is
static. Types are interned (`lang.Ty`), so that equality is a pointer
test. Like the cast-insertion translation of Siek and Taha (Scheme
Workshop 2006), it is type-directed: each subterm's type is computed
together with its IR, a lambda's from the type at its body's return or
tail call. It is written in direct style: each subterm appends the heads
of the statements that compute it to a list, which is folded around the
return or tail call at the end, and `let`/`begin` chains are walked in a
loop. Each intermediate value is named by a temporary `$tN`, a string
read from the table `_TEMPS` rather than formatted per binding. A
`let` that rebinds a name already bound in the program is renamed to a
fresh temporary. `typecheck_surface` returns the pass's type and
`elaborate` its IR; an ill-typed program raises the same
`TypeCheckError` from either.
"""

from __future__ import annotations

import re
import sys

from .lang import (
    BOOL,
    DYN,
    INT,
    ISZERO,
    PREV,
    SUCC,
    TYPE_KEYWORDS,
    ArrowT,
    Atom,
    Deref,
    Expr,
    Fst,
    IsZero,
    Lam,
    MkPair,
    Node,
    PairT,
    Prev,
    PrimApp,
    RefT,
    SAlloc,
    SCall,
    SCast,
    SDynDeref,
    SDynUpdate,
    SLet,
    SRet,
    STailCall,
    SUpdate,
    Snd,
    Stmt,
    Succ,
    Ty,
    consistent,
    is_static,
    typeof_const,
    typeof_opr,
)
from .typecheck import TypeCheckError, typing_context

Pos = tuple  # (line, column), 1-based


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Surface syntax

class SurfExpr(Node):
    _uncompared = ("pos",)


class Lit(SurfExpr):
    const: int  # or bool
    pos: Pos = (0, 0)


class SVar(SurfExpr):
    name: str
    pos: Pos = (0, 0)


class SLambda(SurfExpr):
    param: str
    ann: Ty
    body: SurfExpr
    pos: Pos = (0, 0)


class SApp(SurfExpr):
    fn: SurfExpr
    arg: SurfExpr
    pos: Pos = (0, 0)


class SPair(SurfExpr):
    fst: SurfExpr
    snd: SurfExpr
    pos: Pos = (0, 0)


class SFst(SurfExpr):
    pair: SurfExpr
    pos: Pos = (0, 0)


class SSnd(SurfExpr):
    pair: SurfExpr
    pos: Pos = (0, 0)


class SPrim(SurfExpr):
    op: str  # "succ" | "prev" | "zero?"
    arg: SurfExpr
    pos: Pos = (0, 0)


# The IR printer's keyword table: the keyword of each statement head, of
# the pair and dereference expressions and of each operator. A statement
# head prints as its keyword and its fields but the body, in declaration
# order; an expression as its keyword and its fields; an operator
# application as the operator's keyword, its type fields and the operand.
_IR_KEYWORDS = {
    SLet: "let", SCall: "call", SAlloc: "alloc", SUpdate: "update",
    SDynUpdate: "dyn-update", SCast: "cast", SDynDeref: "dyn-deref",
    MkPair: "pair", Deref: "!",
    Succ: "succ", Prev: "prev", IsZero: "zero?", Fst: "fst", Snd: "snd",
}

# Each primitive's IR operator and result type; every one takes an int.
_PRIMS = {_IR_KEYWORDS[type(op)]: (op, typeof_opr(op).cod)
          for op in (SUCC, PREV, ISZERO)}


class SRefNew(SurfExpr):
    cell_ty: Ty
    init: SurfExpr
    pos: Pos = (0, 0)


class SDeref(SurfExpr):
    ref: SurfExpr
    pos: Pos = (0, 0)


class SAssign(SurfExpr):
    target: SurfExpr
    value: SurfExpr
    pos: Pos = (0, 0)


class SCastE(SurfExpr):
    expr: SurfExpr
    ty: Ty
    pos: Pos = (0, 0)


class SLetE(SurfExpr):
    name: str
    rhs: SurfExpr
    body: SurfExpr
    pos: Pos = (0, 0)


class SBegin(SurfExpr):
    first: SurfExpr
    second: SurfExpr
    pos: Pos = (0, 0)


# ---------------------------------------------------------------------------
# Reader
#
# The reader's s-expressions are pairs `(payload, pos)`: an atom's payload
# is its text, a list's payload is the Python list of its items. They
# never leave this module.

_INT_RE = re.compile(r"-?[0-9]+\Z")  # ASCII digits only, unlike `\d`
# Python's cap on the digits of an int read from or printed to a string;
# 0 means no cap, as before Python 3.10.7. A literal must stay below it:
# `succ` and `prev` add at most one digit, so every result stays
# printable.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class _Top(list):
    """The reader's outermost list. It holds the input's one s-expression;
    any item after that is trailing input."""

    def append(self, item):
        if self:
            token = item[0] if type(item[0]) is str else "("
            raise ParseError(f"unexpected trailing input {token!r}", *item[1])
        list.append(self, item)


def _read(text: str):
    """Read the one s-expression of `text` in a single pass over the
    tokens of each line (as `splitlines` ends lines). A line's code ends
    at its first `;`, inside an atom too; spaced around each parenthesis,
    it splits into the tokens where `str.isspace` holds, exactly where a
    regular expression's `\\s` would. Only whitespace lies between two
    tokens, so each token's column is where its text next occurs after
    the one before. The innermost open list is the local `items`, and a
    list joins its parent when it opens, so `)` is one pop and nesting
    depth costs no Python frames."""
    top = items = _Top()
    outer = []  # the open lists enclosing `items`, innermost last
    for lineno, line in enumerate(text.splitlines(), 1):
        code = line.partition(";")[0]
        col = 0
        for token in code.replace("(", " ( ").replace(")", " ) ").split():
            col = code.find(token, col)
            if token == "(":
                inner = []
                items.append((inner, (lineno, col + 1)))
                outer.append(items)
                items = inner
            elif token == ")":
                if not outer:
                    raise ParseError("unexpected trailing input ')'" if top
                                     else "unexpected ')'", lineno, col + 1)
                items = outer.pop()
            else:
                items.append((token, (lineno, col + 1)))
            col += len(token)
    if outer:  # the innermost open list is the last item of its parent
        raise ParseError("unclosed parenthesis", *outer[-1][-1][1])
    if not top:
        raise ParseError("empty input", 1, 1)
    return top[0]


def _fail(sx, message: str):
    raise ParseError(message, *sx[1])


def _type(sx) -> Ty:
    """The type `sx` spells, built from an explicit stack: each form is
    checked before its fields, in order, and a constructor is applied
    once its fields are built, so nesting depth costs no Python frames."""
    todo, done = [sx], []  # `todo` also holds constructors to apply
    while todo:
        sx = todo.pop()
        if type(sx) is not tuple:
            n = len(sx._fields)
            done[-n:] = (sx(*done[-n:]),)
            continue
        form = sx[0]
        if type(form) is str:
            if form not in _BASE_TYPES:
                _fail(sx, f"unknown type {form!r}")
            done.append(_BASE_TYPES[form])
            continue
        if not form or type(form[0][0]) is not str:
            _fail(sx, "malformed type")
        head = form[0][0]
        cls = _TYPE_FORMS.get(head)
        if cls is None or len(form) != 1 + len(cls._fields):
            _fail(sx, f"malformed type starting with {head!r}")
        todo.append(cls)
        todo += reversed(form[1:])
    return done[0]


# The first characters of the atoms that need more than a keyword test:
# an integer's, and the reserved `#` and `$`.
_ODD_STARTS = frozenset("-0123456789#$")


def _name(sx) -> str:
    text = sx[0]
    if type(text) is not str:
        _fail(sx, "expected an identifier")
    if text in _KEYWORDS:
        _fail(sx, f"keyword {text!r} used as an identifier")
    if text[0] in _ODD_STARTS:
        if _INT_RE.match(text) or text[0] == "#":
            _fail(sx, f"{text!r} is not an identifier")
        if text[0] == "$":
            _fail(sx, "identifiers starting with '$' are reserved")
    return text


def _int(sx) -> Lit:
    form = sx[0]
    # A cap is at least 640 digits, so a shorter literal is below any.
    if len(form) >= 640:
        digits, limit = len(form.lstrip("-")), _int_max_str_digits()
        if limit and digits >= limit:
            _fail(sx, f"integer literal of {digits} digits; at most "
                      f"{limit - 1} are allowed")
    return Lit(int(form), sx[1])


def _expr(sx) -> SurfExpr:
    """The expression `sx` spells. The bodies of a `let`/`begin` chain
    are walked in a loop, the chain's links kept in `links` until its
    last expression is built, so a long chain costs no Python frames."""
    links = []  # (name, expr, pos): a let's binding, or a begin's item
    while True:
        form, pos = sx
        if type(form) is str:
            if form in _KEYWORDS:
                if form not in _BOOLS:
                    _name(sx)  # raises: a keyword is no identifier
                e = Lit(_BOOLS[form], pos)
            elif form[0] in _ODD_STARTS:
                e = _int(sx) if _INT_RE.match(form) else SVar(_name(sx), pos)
            else:
                e = SVar(form, pos)
            break
        items = form
        if not items:
            _fail(sx, "empty application")
        kw = items[0][0]
        if type(kw) is not str or kw not in _SYNTAX:
            if len(items) != 2:
                _fail(sx, "application expects exactly one argument")
            e = SApp(_expr(items[0]), _expr(items[1]), pos)
            break
        if kw == "let":
            if len(items) != 3 or type(items[1][0]) is str \
                    or len(items[1][0]) != 2:
                _fail(sx, "expected (let (x e) body)")
            name, rhs = items[1][0]
            links.append((_name(name), _expr(rhs), pos))
            sx = items[2]
            continue
        if kw == "begin":
            if len(items) < 3:
                _fail(sx, "begin needs at least two expressions")
            links += [(None, _expr(item), pos) for item in items[1:-1]]
            sx = items[-1]
            continue
        if kw == "lambda":
            if len(items) != 3 or type(items[1][0]) is str:
                _fail(sx, "expected (lambda (x : T) body)")
            params = items[1][0]
            if len(params) == 3 and params[1][0] == ":":
                param, ann = _name(params[0]), _type(params[2])
            elif len(params) == 2:
                param, ann = _name(params[0]), _type(params[1])
            else:
                _fail(items[1], "expected (x : T)")
            e = SLambda(param, ann, _expr(items[2]), pos)
            break
        cls, usage, operands = _SYNTAX[kw]
        if len(items) != 1 + len(operands):
            _fail(sx, f"expected {usage}")
        if cls is SPrim:
            e = SPrim(kw, _expr(items[1]), pos)
        elif len(operands) == 1:
            e = cls(operands[0](items[1]), pos)
        else:
            e = cls(operands[0](items[1]), operands[1](items[2]), pos)
        break
    for name, x, pos in reversed(links):
        e = SBegin(x, e, pos) if name is None else SLetE(name, x, e, pos)
    return e


# The expression keywords. A fixed-shape form has its node class, its
# usage for the arity error, and one parser per operand, in order; so has
# each primitive. `_expr` parses `let`, `begin` and `lambda` itself.
_SYNTAX = {
    "ref": (SRefNew, "(ref T e)", (_type, _expr)),
    "!": (SDeref, "(! e)", (_expr,)),
    ":=": (SAssign, "(:= target value)", (_expr, _expr)),
    "cast": (SCastE, "(cast e T)", (_expr, _type)),
    "pair": (SPair, "(pair e e)", (_expr, _expr)),
    "fst": (SFst, "(fst e)", (_expr,)),
    "snd": (SSnd, "(snd e)", (_expr,)),
    **{kw: (SPrim, f"({kw} e)", (_expr,)) for kw in _PRIMS},
    "let": None, "begin": None, "lambda": None,
}
# The type keywords of `TYPE_KEYWORDS`, plus the aliases `×` and `ref`. A
# type constructor takes one type per field.
_TYPE_FORMS = {**{kw: cls for cls, kw in TYPE_KEYWORDS.items() if cls._fields},
               "×": PairT, "ref": RefT}
_BASE_TYPES = {TYPE_KEYWORDS[type(t)]: t for t in (INT, BOOL, DYN)}
_BOOLS = {"#t": True, "true": True, "#f": False, "false": False}
_KEYWORDS = {*_SYNTAX, *_TYPE_FORMS, *_BASE_TYPES, *_BOOLS, ":"}


def parse_surface(text: str) -> SurfExpr:
    """Parse one surface program; positions are retained for diagnostics."""
    return _expr(_read(text))


# ---------------------------------------------------------------------------
# The type errors

# The type constructor each eliminating form needs of its operand, and
# the error when the operand's type has another constructor.
_VIEWS = {
    SApp: (ArrowT, "application of non-function type"),
    SFst: (PairT, "projection from non-pair type"),
    SSnd: (PairT, "projection from non-pair type"),
    SDeref: (RefT, "dereference of non-reference type"),
    SAssign: (RefT, "assignment through non-reference type"),
}


def _view(ty: Ty, e: SurfExpr) -> Ty:
    """`e`'s operand type `ty` seen as the constructor `e` needs: itself if
    it has it, that constructor over dyn if it is dyn, else an error."""
    cls, what = _VIEWS[type(e)]
    if isinstance(ty, cls):
        return ty
    if ty is DYN:
        return cls(*[DYN] * len(cls._fields))
    raise TypeCheckError(f"{what} {ty}", e.pos)


# The error of each form whose operand's type `have` is not consistent
# with the type `want` that the form needs of it; it is reported at the
# form.
_MISMATCHES = {
    SApp: "argument type {have} not consistent with {want}",
    SPrim: "{e.op} expects int, argument has type {have}",
    SRefNew: "initializer type {have} not consistent with cell type {want}",
    SAssign: "assignment of {have} not consistent with cell type {want}",
    SCastE: "cast from {have} to inconsistent {want}",
}


# ---------------------------------------------------------------------------
# Typing and elaboration to the IR

# The names of the temporaries `$t0`, `$t1`, ...: the string `$tN` is
# made the first time an elaboration needs N + 1 temporaries, and every
# later IR shares it, so a temporary costs a list read, not a format.
# The table grows to the most temporaries one elaboration has used, and
# no further than `_TEMPS_MAX`; past that an elaboration makes its own.
_TEMPS = []
_TEMPS_MAX = 1 << 16


def _temp(n: int) -> str:
    """The name of temporary `$tN` that is not in `_TEMPS` yet; N is the
    table's length or, once it is full, more."""
    tmp = f"$t{n}"
    if n < _TEMPS_MAX:
        _TEMPS.append(tmp)
    return tmp


class _Elaborator:
    """Types a surface expression and lowers it to ANF statements.

    Direct-style A-normal form (Flanagan, Sabry, Duba and Felleisen, PLDI
    1993): `atom` returns an expression's value as an atom, a name or a
    literal, with its type and appends the statements that compute it
    to `heads`. A head is a statement class with every field but its
    body, which is always the last field; `tail` folds a list of heads
    around the leaf, a return or, for an application, a tail call. Every
    intermediate value is named by the next `$tN` temporary, read from
    `_TEMPS`; casts appear exactly where an operand's type is consistent
    with, but not equal to, the type needed. `atom` dispatches on the
    exact class of its expression, the commonest forms first, and walks
    a `let`/`begin` chain only when it meets one.

    A `let` keeps its name unless a `let` or a lambda has already bound
    that name in the program; then it gets the next `$tN`, since the rest
    of the enclosing expression is emitted inside its binding. `scope`
    maps each surface name in scope to a stack of `(name, type)` entries,
    each the IR name a binding took, the innermost binding last, so a
    name is looked up in constant time however long the chain that
    bound it; a chain or a lambda pops the entries it pushed once its
    scope closes.
    """

    def __init__(self):
        self.counter = 0
        self.bound = set()  # names bound so far by a let or a lambda
        self.scope = {}  # name -> [(IR name, type), ...], innermost last

    def bind(self, heads: list, cls, *fields) -> str:
        """Append the head of a `cls` statement that binds the next
        temporary; returns its name."""
        n = self.counter
        self.counter = n + 1
        tmp = _TEMPS[n] if n < len(_TEMPS) else _temp(n)
        heads.append((cls, tmp, *fields))
        return tmp

    def coerce(self, e: SurfExpr, atom: Atom, have: Ty, want: Ty,
               heads: list) -> str:
        """`atom`, the value of an operand of `e`, cast from `have` to
        `want`, another type (callers keep an operand whose type is the
        one needed, the same interned type, as it is); an inconsistent
        pair is `e`'s type error from `_MISMATCHES`."""
        if not consistent(have, want):
            raise TypeCheckError(
                _MISMATCHES[type(e)].format(e=e, have=have, want=want),
                e.pos)
        return self.bind(heads, SCast, atom, have, want)

    def view(self, e: SurfExpr, atom: Atom, ty: Ty, heads: list,
             then: SurfExpr | None = None):
        """`atom` of type `ty` cast to `_view(ty, e)` unless that is `ty`.
        If the view fails and `e` has a second operand `then`, that is
        typed before the failure is reported, so an error inside it comes
        first."""
        try:
            want = _view(ty, e)
        except TypeCheckError:
            if then is not None:
                self.atom(then, [])
            raise
        if want is not ty:
            atom = self.bind(heads, SCast, atom, ty, want)
        return atom, want

    def chain(self, e: SurfExpr, heads: list):
        """Emit the bindings of the `let`/`begin` chain at `e` and bring
        its names into scope; returns the chain's last expression and the
        names, which the caller pops once it has elaborated that
        expression."""
        bound, scope, names = self.bound, self.scope, []
        while True:
            cls = type(e)
            if cls is SLetE:
                atom, ty = self.atom(e.rhs, heads)
                name = var = e.name
                if name in bound:
                    var = self.bind(heads, SLet, atom)
                else:
                    bound.add(name)
                    heads.append((SLet, name, atom))
                scope.setdefault(name, []).append((var, ty))
                names.append(name)
                e = e.body
            elif cls is SBegin:
                self.atom(e.first, heads)
                e = e.second
            else:
                return e, names

    def call(self, e: SApp, heads: list):
        """The callee and argument atoms of an application, and its type."""
        fn, fn_ty = self.atom(e.fn, heads)
        if type(fn_ty) is not ArrowT:
            fn, fn_ty = self.view(e, fn, fn_ty, heads, e.arg)
        arg, arg_ty = self.atom(e.arg, heads)
        if arg_ty is not fn_ty.dom:
            arg = self.coerce(e, arg, arg_ty, fn_ty.dom, heads)
        return fn, arg, fn_ty.cod

    def atom(self, e: SurfExpr, heads: list):
        """Elaborate `e` into `heads`; returns its value's atom and type."""
        cls = type(e)
        if cls is SVar:
            entries = self.scope.get(e.name)
            if entries:
                return entries[-1]
            raise TypeCheckError(f"unbound variable {e.name!r}", e.pos)
        if cls is SPrim:
            op, out = _PRIMS[e.op]
            atom, ty = self.atom(e.arg, heads)
            if ty is not INT:
                atom = self.coerce(e, atom, ty, INT, heads)
            return self.bind(heads, SLet, PrimApp(op, atom)), out
        if cls is SApp:
            fn, arg, cod = self.call(e, heads)
            return self.bind(heads, SCall, fn, arg), cod
        if cls is SLetE or cls is SBegin:
            e, names = self.chain(e, heads)
            result = self.atom(e, heads)
            for name in names:
                self.scope[name].pop()
            return result
        if cls is Lit:
            return e.const, typeof_const(e.const)
        if cls is SLambda:
            self.bound.add(e.param)
            entries = self.scope.setdefault(e.param, [])
            entries.append((e.param, e.ann))
            body, cod = self.tail(e.body)
            entries.pop()
            return (self.bind(heads, SLet, Lam(e.param, e.ann, body)),
                    ArrowT(e.ann, cod))
        if cls is SRefNew:
            atom, ty = self.atom(e.init, heads)
            if ty is not e.cell_ty:
                atom = self.coerce(e, atom, ty, e.cell_ty, heads)
            return self.bind(heads, SAlloc, e.cell_ty, atom), RefT(e.cell_ty)
        if cls is SDeref:
            atom, ty = self.atom(e.ref, heads)
            if type(ty) is not RefT:
                atom, ty = self.view(e, atom, ty, heads)
            if is_static(ty.cell):
                return self.bind(heads, SLet, Deref(atom)), ty.cell
            return self.bind(heads, SDynDeref, atom, ty.cell), ty.cell
        if cls is SAssign:
            target, ty = self.atom(e.target, heads)
            if type(ty) is not RefT:
                target, ty = self.view(e, target, ty, heads, e.value)
            value, value_ty = self.atom(e.value, heads)
            if value_ty is not ty.cell:
                value = self.coerce(e, value, value_ty, ty.cell, heads)
            if is_static(ty.cell):
                heads.append((SUpdate, target, value))
            else:
                heads.append((SDynUpdate, target, value, ty.cell))
            return value, ty.cell
        if cls is SCastE:
            atom, ty = self.atom(e.expr, heads)
            if ty is not e.ty:
                atom = self.coerce(e, atom, ty, e.ty, heads)
            return atom, e.ty
        if cls is SPair:
            a, a_ty = self.atom(e.fst, heads)
            b, b_ty = self.atom(e.snd, heads)
            return self.bind(heads, SLet, MkPair(a, b)), PairT(a_ty, b_ty)
        if cls is SFst or cls is SSnd:
            atom, ty = self.view(e, *self.atom(e.pair, heads), heads)
            if cls is SFst:
                op, out = Fst(ty.left, ty.right), ty.left
            else:
                op, out = Snd(ty.left, ty.right), ty.right
            return self.bind(heads, SLet, PrimApp(op, atom)), out
        raise TypeCheckError(f"unknown surface form {e!r}")

    def tail(self, e: SurfExpr):
        """Elaborate `e` in return position; returns the statement and
        the type of the value it returns."""
        heads, names = [], ()
        if type(e) is SLetE or type(e) is SBegin:
            e, names = self.chain(e, heads)
        if type(e) is SApp:
            fn, arg, ty = self.call(e, heads)
            stmt = STailCall(fn, arg)
        else:
            atom, ty = self.atom(e, heads)
            stmt = SRet(atom)
        for name in names:
            self.scope[name].pop()
        for head in reversed(heads):
            cls = head[0]
            if cls is SLet:
                stmt = SLet(head[1], head[2], stmt)
            else:
                stmt = cls(*head[1:], stmt)
        return stmt, ty


# The last closed program `typecheck_surface` typed, and its IR. Callers
# check a program and then elaborate that same AST; this makes the two
# calls one pass. Nodes are immutable, so an AST's identity fixes its IR;
# the entry is one tuple, so a call that replaces it between the two
# only costs `elaborate` a pass of its own.
_last = None


def typecheck_surface(gamma, e: SurfExpr) -> Ty:
    """The type of surface expression `e` in `gamma`, a sequence of (name,
    type) pairs, innermost first; an ill-typed `e` raises `TypeCheckError`.

    This is the elaborator's pass, each name in `gamma` standing for
    itself; in the empty context its IR is kept for `elaborate`."""
    global _last
    gamma = typing_context(gamma)
    elaborator = _Elaborator()
    for name, ty in reversed(gamma):
        elaborator.scope.setdefault(name, []).append((name, ty))
    stmt, ty = elaborator.tail(e)
    _last = None if gamma else (e, stmt)
    return ty


def elaborate(e: SurfExpr) -> Stmt:
    """Lower a closed surface program to the statement IR.

    The result passes `check_stmt` at exactly the surface type; fully
    static programs elaborate without any cast or dynamic access forms.
    An ill-typed program raises the same `TypeCheckError` as
    `typecheck_surface`. Right after `typecheck_surface((), e)` this
    returns the IR of that pass instead of making another.
    """
    global _last
    last, _last = _last, None
    if last is not None and last[0] is e:
        return last[1]
    return _Elaborator().tail(e)[0]


# ---------------------------------------------------------------------------
# Printers

def const_to_sexpr(c) -> str:
    """A literal, a host `bool` or `int`, as the parser reads it."""
    if type(c) is bool:
        return "#t" if c else "#f"
    if type(c) is int:
        return str(c)
    raise TypeError(f"not a constant: {c!r}")


def _field_items(fields, indent: int) -> list:
    """Names, types and expressions in order, each after a space: text,
    or an expression still to print at `indent`."""
    items = []
    for x in fields:
        items += (" ", f"{x}" if type(x) is str or isinstance(x, Ty)
                  else (x, indent, Expr))
    return items


def _to_sexpr(node, indent: int, kind) -> str:
    """`node`, an `Expr` or `Stmt` as `kind` says, printed at `indent`
    from an explicit work stack: neither a statement's body nor a
    lambda's costs a Python frame. The stack holds text to emit and
    (node, indent, kind) triples still to print, the next on top."""
    text, todo = [], [(node, indent, kind)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            text.append(item)
            continue
        x, indent, kind = item
        cls = type(x)
        if kind is Stmt:
            items, depth = [], indent
            while cls is not SRet and cls is not STailCall:
                if not isinstance(x, Stmt) or cls not in _IR_KEYWORDS:
                    raise TypeError(f"not a statement: {x!r}")
                *fields, x = x._key()
                items += (f"{'  ' * depth}({_IR_KEYWORDS[cls]}",
                          *_field_items(fields, depth), "\n")
                cls, depth = type(x), depth + 1
            leaf = "return" if cls is SRet else "tailcall"
            items += (f"{'  ' * depth}({leaf}", *_field_items(x._key(), depth),
                      ")" * (depth - indent + 1))
        elif cls is int or cls is bool:
            items = (const_to_sexpr(x),)
        elif cls is Lam:
            items = (f"(lambda ({x.param} : {x.param_ty})\n",
                     (x.body, indent + 1, Stmt), ")")
        else:
            if cls is PrimApp:
                cls, fields = type(x.op), (*x.op._key(), x.arg)
            elif isinstance(x, Expr) and cls in _IR_KEYWORDS:
                fields = x._key()
            else:
                raise TypeError(f"not an expression: {x!r}")
            items = (f"({_IR_KEYWORDS[cls]}", *_field_items(fields, indent),
                     ")")
        todo += reversed(items)
    return "".join(text)


def stmt_to_sexpr(s: Stmt, indent: int = 0) -> str:
    """Print a statement, its body indented one level per statement."""
    return _to_sexpr(s, indent, Stmt)
