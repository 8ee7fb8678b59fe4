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

The reader makes one pass, pushing each line's tokens straight onto a
stack of open lists. Fixed-shape forms are parsed from the tables
`_FORMS` and `_TYPE_FORMS`, from which `_KEYWORDS` is also built; the
type keywords come from `lang.TYPE_KEYWORDS`, by which types print. The
IR is printed from one keyword table, `_IR_KEYWORDS`, which also names
the primitives of `_PRIMS`, and from an explicit work stack, so a
printed program may nest as deeply as it runs.

Typechecking is consistency-based: `dyn` is consistent with everything,
other types structurally with themselves. An operand of type dyn used as
a function, pair or reference is seen as that constructor over dyn
(`_view`). Typechecking and elaboration are one pass, which lowers to
the statement IR, inserting a cast at every boundary accepted by
consistency rather than equality, and picking the plain dereference and
update forms exactly when the reference's cell type is static. Types are
interned (`lang.Ty`), so that equality is a pointer test. Like the
cast-insertion translation of Siek and Taha (Scheme Workshop 2006), it
is type-directed: each subterm's type is computed together with its IR,
a lambda's from the type at its body's return or tail call. It is
written in direct style: each subterm appends the heads of the
statements that compute it to a list, which is folded around the return
or tail call at the end, and `let`/`begin` chains are walked in a loop.
A `let` that rebinds a name already bound in the program is renamed to a
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
    Deref,
    EConst,
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
    Stuck,
    Succ,
    Ty,
    Var,
    consistent,
    is_static,
    link,
    lookup,
    typeof_const,
    typeof_opr,
)
from .typecheck import TypeCheckError

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

# `\s` matches exactly what `str.isspace` does; `;` starts a comment.
_TOKEN_RE = re.compile(r"[()]|[^\s();]+|;")
_INT_RE = re.compile(r"-?[0-9]+\Z")  # ASCII digits only, unlike `\d`
# Python's cap on the digits of an int read from or printed to a string;
# 0 means no cap, as before Python 3.10.7. A literal must stay below it:
# `succ` and `prev` add at most one digit, so every result stays
# printable.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _read(text: str):
    """Read the one s-expression of `text` in a single pass: each token
    of each line (as `splitlines` ends lines) goes straight onto a stack
    of open lists, so nesting depth costs no Python frames."""
    open_lists = []  # (items, pos of the open paren), innermost last
    sx = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN_RE.finditer(line):
            token = match[0]
            if token == ";":
                break
            if sx is not None:
                raise ParseError(f"unexpected trailing input {token!r}",
                                 lineno, match.start() + 1)
            if token == ")":
                if not open_lists:
                    raise ParseError("unexpected ')'", lineno, match.start() + 1)
                item = open_lists.pop()
            elif token == "(":
                open_lists.append(([], (lineno, match.start() + 1)))
                continue
            else:
                item = (token, (lineno, match.start() + 1))
            if open_lists:
                open_lists[-1][0].append(item)
            else:
                sx = item
    if open_lists:
        raise ParseError("unclosed parenthesis", *open_lists[-1][1])
    if sx is None:
        raise ParseError("empty input", 1, 1)
    return sx


def _fail(sx, message: str):
    raise ParseError(message, *sx[1])


def _type(sx) -> Ty:
    form = sx[0]
    if type(form) is str:
        if form not in _BASE_TYPES:
            _fail(sx, f"unknown type {form!r}")
        return _BASE_TYPES[form]
    if not form or type(form[0][0]) is not str:
        _fail(sx, "malformed type")
    head = form[0][0]
    cls = _TYPE_FORMS.get(head)
    if cls is None or len(form) != 1 + len(cls._fields):
        _fail(sx, f"malformed type starting with {head!r}")
    return cls(*map(_type, form[1:]))


def _name(sx) -> str:
    text = sx[0]
    if type(text) is not str:
        _fail(sx, "expected an identifier")
    if text in _KEYWORDS:
        _fail(sx, f"keyword {text!r} used as an identifier")
    if _INT_RE.match(text) or text.startswith("#"):
        _fail(sx, f"{text!r} is not an identifier")
    if text.startswith("$"):
        _fail(sx, "identifiers starting with '$' are reserved")
    return text


def _expr(sx) -> SurfExpr:
    form, pos = sx
    if type(form) is str:
        if _INT_RE.match(form):
            digits, limit = len(form.lstrip("-")), _int_max_str_digits()
            if limit and digits >= limit:
                _fail(sx, f"integer literal of {digits} digits; at most "
                          f"{limit - 1} are allowed")
            return Lit(int(form), pos)
        if form in ("#t", "true"):
            return Lit(True, pos)
        if form in ("#f", "false"):
            return Lit(False, pos)
        return SVar(_name(sx), pos)
    items = form
    if not items:
        _fail(sx, "empty application")
    kw = items[0][0]
    if type(kw) is str:
        if kw in _FORMS:
            cls, usage, operands = _FORMS[kw]
            if len(items) != 1 + len(operands):
                _fail(sx, f"expected {usage}")
            if len(operands) == 1:
                return cls(operands[0](items[1]), pos)
            return cls(operands[0](items[1]), operands[1](items[2]), pos)
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
            return SLambda(param, ann, _expr(items[2]), pos)
        if kw == "let":
            if len(items) != 3 or type(items[1][0]) is str \
                    or len(items[1][0]) != 2:
                _fail(sx, "expected (let (x e) body)")
            binding = items[1][0]
            return SLetE(_name(binding[0]), _expr(binding[1]),
                         _expr(items[2]), pos)
        if kw == "begin":
            if len(items) < 3:
                _fail(sx, "begin needs at least two expressions")
            exprs = [_expr(item) for item in items[1:]]
            result = exprs[-1]
            for e in reversed(exprs[:-1]):
                result = SBegin(e, result, pos)
            return result
        if kw in _PRIMS:
            if len(items) != 2:
                _fail(sx, f"expected ({kw} e)")
            return SPrim(kw, _expr(items[1]), pos)
    if len(items) != 2:
        _fail(sx, "application expects exactly one argument")
    return SApp(_expr(items[0]), _expr(items[1]), pos)


# The fixed-shape expression forms: each keyword's node class, its usage
# for the arity error, and one parser per operand, in order.
_FORMS = {
    "ref": (SRefNew, "(ref T e)", (_type, _expr)),
    "!": (SDeref, "(! e)", (_expr,)),
    ":=": (SAssign, "(:= target value)", (_expr, _expr)),
    "cast": (SCastE, "(cast e T)", (_expr, _type)),
    "pair": (SPair, "(pair e e)", (_expr, _expr)),
    "fst": (SFst, "(fst e)", (_expr,)),
    "snd": (SSnd, "(snd e)", (_expr,)),
}
# The type keywords of `TYPE_KEYWORDS`, plus the aliases `×` and `ref`. A
# type constructor takes one type per field.
_TYPE_FORMS = {**{kw: cls for cls, kw in TYPE_KEYWORDS.items() if cls._fields},
               "×": PairT, "ref": RefT}
_BASE_TYPES = {TYPE_KEYWORDS[type(t)]: t for t in (INT, BOOL, DYN)}
_KEYWORDS = {*_FORMS, *_TYPE_FORMS, *_BASE_TYPES, *_PRIMS, "lambda", "let",
             "begin", ":", "#t", "#f", "true", "false"}


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

class _Elaborator:
    """Types a surface expression and lowers it to ANF statements.

    Direct-style A-normal form (Flanagan, Sabry, Duba and Felleisen, PLDI
    1993): `atom` returns an expression's value as a Var/EConst atom with
    its type and appends the statements that compute it to `heads`. A
    head is a statement class with every field but its body, which is
    always the last field; `tail` folds a list of heads around the leaf,
    a return or, for an application, a tail call. Every intermediate value
    is named by a fresh `$tN` temporary; casts appear exactly where an
    operand's type is consistent with, but not equal to, the type needed.

    A `let` keeps its name unless a `let` or a lambda has already bound
    that name in the program; then it gets a fresh `$tN`, since the rest
    of the enclosing expression is emitted inside its binding. `gamma`
    is a linked environment (`lang.lookup`) that binds each surface name
    to its atom and type.
    """

    def __init__(self):
        self.counter = 0
        self.bound = set()  # names bound so far by a let or a lambda

    def fresh(self) -> str:
        name = f"$t{self.counter}"
        self.counter += 1
        return name

    def bind(self, heads: list, cls, *fields) -> Var:
        """Append the head of a `cls` statement that binds a fresh name."""
        tmp = self.fresh()
        heads.append((cls, tmp, *fields))
        return Var(tmp)

    def coerce(self, e: SurfExpr, atom: Expr, have: Ty, want: Ty,
               heads: list) -> Expr:
        """`atom`, the value of an operand of `e`, cast from `have` to
        `want` unless they are equal, that is the same interned type; an
        inconsistent pair is `e`'s type error from `_MISMATCHES`."""
        if have is want:
            return atom
        if not consistent(have, want):
            raise TypeCheckError(
                _MISMATCHES[type(e)].format(e=e, have=have, want=want),
                e.pos)
        return self.bind(heads, SCast, atom, have, want)

    def view(self, e: SurfExpr, atom: Expr, ty: Ty, heads: list,
             gamma=(), then: SurfExpr | None = None):
        """`atom` of type `ty` cast to `_view(ty, e)` unless that is `ty`.
        If the view fails and `e` has a second operand `then`, that is
        typed in `gamma` before the failure is reported, so an error
        inside it comes first."""
        try:
            want = _view(ty, e)
        except TypeCheckError:
            if then is not None:
                self.atom(then, gamma, [])
            raise
        if want is not ty:
            atom = self.bind(heads, SCast, atom, ty, want)
        return atom, want

    def chain(self, e: SurfExpr, gamma, heads: list):
        """Emit the bindings of the `let`/`begin` chain at `e`; returns the
        chain's last expression and the scope it sits in."""
        while True:
            if isinstance(e, SLetE):
                atom, ty = self.atom(e.rhs, gamma, heads)
                name = self.fresh() if e.name in self.bound else e.name
                self.bound.add(e.name)
                heads.append((SLet, name, atom))
                gamma = (e.name, (Var(name), ty), gamma)
                e = e.body
            elif isinstance(e, SBegin):
                self.atom(e.first, gamma, heads)
                e = e.second
            else:
                return e, gamma

    def call(self, e: SApp, gamma, heads: list):
        """The callee and argument atoms of an application, and its type."""
        fn, fn_ty = self.view(e, *self.atom(e.fn, gamma, heads), heads,
                              gamma, e.arg)
        arg, arg_ty = self.atom(e.arg, gamma, heads)
        return fn, self.coerce(e, arg, arg_ty, fn_ty.dom, heads), fn_ty.cod

    def atom(self, e: SurfExpr, gamma, heads: list):
        """Elaborate `e` into `heads`; returns its value's atom and type."""
        e, gamma = self.chain(e, gamma, heads)
        if isinstance(e, Lit):
            return EConst(e.const), typeof_const(e.const)
        if isinstance(e, SVar):
            try:
                return lookup(e.name, gamma)
            except Stuck:
                raise TypeCheckError(f"unbound variable {e.name!r}",
                                     e.pos) from None
        if isinstance(e, SLambda):
            self.bound.add(e.param)
            param = (e.param, (Var(e.param), e.ann), gamma)
            body, cod = self.tail(e.body, param)
            return (self.bind(heads, SLet, Lam(e.param, e.ann, body)),
                    ArrowT(e.ann, cod))
        if isinstance(e, SApp):
            fn, arg, cod = self.call(e, gamma, heads)
            return self.bind(heads, SCall, fn, arg), cod
        if isinstance(e, SPair):
            a, a_ty = self.atom(e.fst, gamma, heads)
            b, b_ty = self.atom(e.snd, gamma, heads)
            return self.bind(heads, SLet, MkPair(a, b)), PairT(a_ty, b_ty)
        if isinstance(e, (SFst, SSnd)):
            atom, ty = self.view(e, *self.atom(e.pair, gamma, heads), heads)
            if isinstance(e, SFst):
                op, out = Fst(ty.left, ty.right), ty.left
            else:
                op, out = Snd(ty.left, ty.right), ty.right
            return self.bind(heads, SLet, PrimApp(op, atom)), out
        if isinstance(e, SPrim):
            op, out = _PRIMS[e.op]
            atom, ty = self.atom(e.arg, gamma, heads)
            atom = self.coerce(e, atom, ty, INT, heads)
            return self.bind(heads, SLet, PrimApp(op, atom)), out
        if isinstance(e, SRefNew):
            atom, ty = self.atom(e.init, gamma, heads)
            atom = self.coerce(e, atom, ty, e.cell_ty, heads)
            return self.bind(heads, SAlloc, e.cell_ty, atom), RefT(e.cell_ty)
        if isinstance(e, SDeref):
            atom, ty = self.view(e, *self.atom(e.ref, gamma, heads), heads)
            if is_static(ty.cell):
                return self.bind(heads, SLet, Deref(atom)), ty.cell
            return self.bind(heads, SDynDeref, atom, ty.cell), ty.cell
        if isinstance(e, SAssign):
            target, ty = self.view(e, *self.atom(e.target, gamma, heads),
                                   heads, gamma, e.value)
            value, value_ty = self.atom(e.value, gamma, heads)
            value = self.coerce(e, value, value_ty, ty.cell, heads)
            if is_static(ty.cell):
                heads.append((SUpdate, target, value))
            else:
                heads.append((SDynUpdate, target, value, ty.cell))
            return value, ty.cell
        if isinstance(e, SCastE):
            atom, ty = self.atom(e.expr, gamma, heads)
            return self.coerce(e, atom, ty, e.ty, heads), e.ty
        raise TypeCheckError(f"unknown surface form {e!r}")

    def tail(self, e: SurfExpr, gamma):
        """Elaborate `e` in return position; returns the statement and
        the type of the value it returns."""
        heads = []
        e, gamma = self.chain(e, gamma, heads)
        if isinstance(e, SApp):
            fn, arg, ty = self.call(e, gamma, heads)
            stmt = STailCall(fn, arg)
        else:
            atom, ty = self.atom(e, gamma, heads)
            stmt = SRet(atom)
        for cls, *fields in reversed(heads):
            stmt = cls(*fields, stmt)
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
    scope = link([(name, (Var(name), ty)) for name, ty in gamma])
    stmt, ty = _Elaborator().tail(e, scope)
    _last = None if scope else (e, stmt)
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
    return _Elaborator().tail(e, ())[0]


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
        elif cls is Var:
            items = (x.name,)
        elif cls is EConst:
            items = (const_to_sexpr(x.const),)
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
