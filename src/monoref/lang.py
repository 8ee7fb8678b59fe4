"""Core language definitions.

The type language has integers, Booleans, pairs, functions, references,
and the unknown type `dyn`; a type prints, and the parser reads it, by
the keywords of `TYPE_KEYWORDS`. The IR is in A-normal form, which
`typecheck.check_stmt` enforces: every operand is an atom, a `str` or a
host `int` or `bool`, and a `let` binds an atom, a `Lam`, or a
`PrimApp`, `MkPair` or `Deref` of atoms. Every control path through a
statement ends in a return or a tail call. Runtime values and the
observables produced by a finished run live here too, together with the
type algebra: staticness, ground types, and the meet, one rule over a
type's fields that the less-or-equally-dynamic order and consistency
read off. An observable is a pair, a literal, or an `OAtom` whose text
is its rendering: an opaque value, or the end of a run that gave none.

Every runtime value is one object whose class is its runtime tag. An
integer or Boolean is the host `int` or `bool` itself, in a literal and
an observable too. The other values are pairs (`VPair`), closures
(`Closure`), functions cast between two arrow types (`FunCast`),
references (`VRef`), references seen through a guarded cast (`GProxy`)
and injections into dyn (`Inject`). A heap cell is a plain tuple whose
index 1 is its runtime type tag: `(value, tag)` when settled, and
`(value, tag, src)` while its value awaits a cast from `src` to the tag.
Identifiers starting with `$` are reserved: the elaborator's
temporaries use them, and so do the five names of a `FunCast`'s body.

Every node, value and record class of the package derives from `Node`,
an immutable record: its fields are its annotations, inherited ones
first, each kept in a slot, and a class-level value is a field's
default. `vars(node)` is a fresh dict of the fields. Nodes compare and
hash by class and fields, print as `SVar(name='x', pos=(1, 2))`, and
refuse assignment; each of the three walks nested nodes with an
explicit stack, so a program compares, hashes and prints however deeply
it nests. Types are interned instead: a constructor returns the one type
with its class and fields, so two types are equal exactly when they are
the same object, and a type test is a pointer test.
"""

from __future__ import annotations


class Stuck(Exception):
    """Internal invariant violation; unreachable from well-typed programs."""


class CastError(Exception):
    """Runtime cast failure; the user-visible error of the language.
    Raised as `CastError(template, *types)`, formatted only if printed."""

    def __str__(self) -> str:
        return self.args[0].format(*self.args[1:])


class FrozenNodeError(AttributeError):
    """An attempt to assign or delete an attribute of a `Node`."""


class _Slotted(type):
    """`Node`'s metaclass: a class's annotations not inherited become its
    `__slots__`, appended to the inherited `_fields`, and their class-level
    values move into `_defaults`, over the inherited ones."""

    def __new__(mcls, name, bases, ns):
        fields, defaults = {}, {}
        for base in reversed(bases):
            fields.update(dict.fromkeys(getattr(base, "_fields", ())))
            defaults.update(getattr(base, "_defaults", {}))
        own = ns.get("__annotations__", {})
        defaults.update({f: ns.pop(f) for f in own if f in ns})
        new = [f for f in own if f not in fields]
        ns.update(__slots__=(*ns.get("__slots__", ()), *new),
                  _fields=(*fields, *new), _defaults=defaults)
        return super().__new__(mcls, name, bases, ns)


class Node(metaclass=_Slotted):
    """Immutable record; the base of syntax, types, values and states.

    Fields are the annotations, inherited ones first, each a slot of the
    class that adds it; a class-level value is a field's default, kept in
    `_defaults`. The generated `__init__` takes them by position or
    keyword and stores each through its slot's descriptor. `vars(node)`
    and `node.__dict__` give a fresh `{field: value}` dict, so writing
    into it changes nothing, a copy is the node itself, and a pickle
    rebuilds it through its constructor. Equality needs the same class
    and equal fields, `hash` hashes those fields, and fields named in
    `_uncompared` take part in neither. Equality, `hash` and `repr` walk
    nested nodes and tuples with an explicit stack; a field whose class
    has its own equality, a type's identity, is compared whole. Equality
    walks both operands in lockstep, skips a part shared by both and
    stops at the first difference; any other leaf compares by class and
    value, so a field holding `1` differs from one holding `True`.
    """

    _uncompared = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls._fields
        params = "".join(f", {name}=_defaults[{name!r}]"
                         if name in cls._defaults else f", {name}"
                         for name in fields)
        stores = "".join(f"\n _set_{name}(self, {name})" for name in fields)
        keys = "".join(f"self.{name}, " for name in fields
                       if name not in cls._uncompared)
        namespace = {"_defaults": cls._defaults}
        namespace.update((f"_set_{name}", getattr(cls, name).__set__)
                         for name in fields)
        exec(f"def __init__(self{params}):{stores or ' pass'}\n"
             f"def _key(self): return ({keys})", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._key = namespace["_key"]

    @property
    def __dict__(self):
        return {name: getattr(self, name) for name in self._fields}

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __eq__(self, other):
        if not isinstance(other, Node):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            t = type(a)
            if t is not type(b):
                return False
            if t is tuple:
                pa, pb = a, b
            elif isinstance(a, Node) and t.__eq__ is Node.__eq__:
                pa, pb = a._key(), b._key()
            elif a != b:
                return False
            else:
                continue
            if len(pa) != len(pb):
                return False
            todo += zip(reversed(pa), reversed(pb))  # first part on top
        return True

    def __hash__(self):
        return hash(tuple(_preorder(self)))

    def __repr__(self):
        text, todo = [], [self]
        while todo:
            x = todo.pop()
            t = type(x)
            if t is _Text:
                text.append(x)
            elif t is tuple and x:
                items = [_Text("(")]
                for item in x:
                    items += (item, _Text(", "))
                items[-1] = _Text(",)" if len(x) == 1 else ")")
                todo += reversed(items)
            elif isinstance(x, Node) and t.__repr__ is Node.__repr__:
                items, sep = [_Text(t.__qualname__ + "(")], ""
                for name in x._fields:
                    items += (_Text(f"{sep}{name}="), getattr(x, name))
                    sep = ", "
                items.append(_Text(")"))
                todo += reversed(items)
            else:
                text.append(repr(x))
        return "".join(text)

    def __setattr__(self, name, value=None):
        raise FrozenNodeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__


class _Text(str):
    """A piece of `Node.__repr__`'s output, as opposed to a field value."""


def _preorder(x):
    """The nodes and tuples nested in `x`, walked with an explicit stack,
    each as its class and length followed by its parts: what `Node`'s
    hash hashes. A node's parts are its compared fields. Any other value,
    a type among them, is one leaf, hashed with its class."""
    out, todo = [], [x]
    while todo:
        x = todo.pop()
        t = type(x)
        if t is tuple:
            parts = x
        elif isinstance(x, Node) and t.__eq__ is Node.__eq__:
            parts = x._key()
        else:
            out += (t, x)
            continue
        out.append((t, len(parts)))
        todo += parts
    return out


# ---------------------------------------------------------------------------
# Types

_TYPES = {}  # (class, *fields) -> the one type with that class and fields


def is_static(a: Ty) -> bool:
    """True when `dyn` occurs nowhere in the type; read, not computed."""
    if not isinstance(a, Ty):
        raise TypeError(f"not a type: {a!r}")
    return a._static


class Ty(Node):
    """Base class of the type language.

    Types are interned (hash-consed): each constructor's generated
    `__new__` returns the one object with its class and fields, made the
    first time and kept in `_TYPES`. Its fields are types built the same
    way, so the table's key hashes each by identity, and two types are
    equal exactly when they are the same object: `==` and `hash` are
    `object`'s. A copy is the type itself, and pickling rebuilds a type
    through its constructor, which returns the interned object. A type
    is made after its fields, so `__new__` also stores whether it is
    static, `_static`: its class's `_static_class` and its fields'. A field that is no type
    raises `TypeError` before anything enters the table.
    """

    __slots__ = ("_static",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    _static_class = True

    def __init_subclass__(cls):
        super().__init_subclass__()
        args = "".join(f", {name}" for name in cls._fields)
        static = "".join(f" & _is_static({name})" for name in cls._fields)
        namespace = {"_init": cls.__init__, "_new": object.__new__,
                     "_set_static": Ty._static.__set__, "_types": _TYPES,
                     "_is_static": is_static}
        exec(f"def __new__(_cls{args}):\n"
             f" key = (_cls{args},)\n"
             f" ty = _types.get(key)\n"
             f" if ty is None:\n"
             f"  static = _cls._static_class{static}\n"
             f"  ty = _types[key] = _new(_cls)\n"
             f"  _init(ty{args})\n"
             f"  _set_static(ty, static)\n"
             f" return ty", namespace)
        namespace["__new__"].__qualname__ = f"{cls.__qualname__}.__new__"
        cls.__new__ = staticmethod(namespace["__new__"])
        cls.__init__ = object.__init__

    def __str__(self) -> str:
        """`kw` or `(kw field ...)`, `kw` from `TYPE_KEYWORDS`; a loop."""
        text, todo = [], [self]  # each type prints after a space
        while todo:
            t = todo.pop()
            if type(t) is str:
                text.append(t)
            elif t._fields:
                text.append(" (" + TYPE_KEYWORDS[type(t)])
                todo += (")", *reversed(t._key()))
            else:
                text.append(" " + TYPE_KEYWORDS[type(t)])
        return "".join(text)[1:]


class IntT(Ty):
    pass


class BoolT(Ty):
    pass


class PairT(Ty):
    left: Ty
    right: Ty


class ArrowT(Ty):
    dom: Ty
    cod: Ty


class RefT(Ty):
    cell: Ty


class DynT(Ty):
    _static_class = False


# The keyword each type constructor prints as, and the parser reads.
TYPE_KEYWORDS = {IntT: "int", BoolT: "bool", DynT: "dyn", PairT: "pair-ty",
                 ArrowT: "->", RefT: "ref-ty"}


INT = IntT()
BOOL = BoolT()
DYN = DynT()

# The type classes whose cast to a type of the same class is the
# identity: the base types and dyn.
IDENTITY_HEADS = frozenset((IntT, BoolT, DynT))


# ---------------------------------------------------------------------------
# Values and primitive operators

class Val(Node):
    """Base class of the runtime values that are nodes; integers and
    Booleans are the host `int` and `bool`."""


class Opr(Node):
    pass


class Succ(Opr):
    pass


class Prev(Opr):
    pass


class IsZero(Opr):
    pass


class Fst(Opr):
    left: Ty
    right: Ty


class Snd(Opr):
    left: Ty
    right: Ty


SUCC = Succ()
PREV = Prev()
ISZERO = IsZero()


# ---------------------------------------------------------------------------
# IR syntax. Names are strings; those starting with `$` are reserved.

class Expr(Node):
    pass


class Stmt(Node):
    pass


# An operand: a name, which is a string, or a literal, its own value.
Atom = str | int | bool


class PrimApp(Expr):
    op: Opr
    arg: Atom


class MkPair(Expr):
    fst: Atom
    snd: Atom


class Lam(Expr):
    param: str
    param_ty: Ty
    body: Stmt


class Deref(Expr):
    ref: Atom


class SLet(Stmt):
    name: str
    rhs: Expr  # an atom, a `Lam`, or a `PrimApp`, `MkPair` or `Deref`
    body: Stmt


class SRet(Stmt):
    expr: Atom


class SCall(Stmt):
    name: str
    fn: Atom
    arg: Atom
    body: Stmt


class STailCall(Stmt):
    fn: Atom
    arg: Atom


class SAlloc(Stmt):
    name: str
    cell_ty: Ty
    init: Atom
    body: Stmt


class SUpdate(Stmt):
    ref: Atom
    rhs: Atom
    body: Stmt


class SDynUpdate(Stmt):
    ref: Atom
    rhs: Atom
    ann: Ty
    body: Stmt


class SCast(Stmt):
    name: str
    expr: Atom
    src: Ty
    tgt: Ty
    body: Stmt


class SDynDeref(Stmt):
    name: str
    ref: Atom
    ann: Ty
    body: Stmt


# ---------------------------------------------------------------------------
# Runtime values beyond integers and Booleans. An environment is a linked
# cell `(name, value, rest)`, newest binding first, and `()` is the empty
# one: a binding is one 3-tuple, and a closure shares its scope's tail.
# The checker's and the elaborator's scopes have the same shape.

def lookup(key, env):
    """The value of the newest binding of `key` in a linked environment,
    or Stuck."""
    while env:
        name, value, env = env
        if name == key:
            return value
    raise Stuck(f"unbound name {key!r}")


def bindings(env):
    """The (name, value) pairs of a linked environment, newest first."""
    while env:
        name, value, env = env
        yield name, value


def link(pairs):
    """The linked environment of a sequence of (name, value) pairs, newest
    first; the inverse of `bindings`."""
    env = ()
    for name, value in reversed(tuple(pairs)):
        env = (name, value, env)
    return env


class VPair(Val):
    fst: Val
    snd: Val


class Closure(Val):
    param: str
    param_ty: Ty
    body: Stmt
    env: tuple  # linked environment cell


class VRef(Val):
    addr: int


class GProxy(Val):
    """A reference seen through a guarded cast from cell type `src_cell`
    to `tgt_cell`; observationally an address.

    `inner` is the underlying reference or a further proxy; layers stack
    without normalization.
    """
    inner: Val
    src_cell: Ty
    tgt_cell: Ty


class FunCast(Val):
    """The function `fn` cast from arrow type `src` to `tgt`. A call runs
    `body` with the argument bound to `$w0` and `fn` to `$w1`; the body
    follows from the two types, so it takes no part in equality."""
    _uncompared = ("body",)
    fn: Val
    src: Ty
    tgt: Ty
    body: Stmt


class Inject(Val):
    payload: Val
    src_ty: Ty  # never DYN; injections box a value of known non-dyn type


# ---------------------------------------------------------------------------
# Observables

class Observable(Node):
    pass


class OPair(Observable):
    fst: Observable
    snd: Observable


class OCon(Observable):
    const: int  # or bool


class OAtom(Observable):
    text: str


O_FUN = OAtom("#fun")
O_ADDR = OAtom("#addr")
O_INJ = OAtom("#inj")
O_STUCK = OAtom("error: stuck")
O_TIMEOUT = OAtom("timeout")
O_CASTERROR = OAtom("error: cast")


# ---------------------------------------------------------------------------
# Type algebra. `meet` is the one rule over a type's fields, `_key()`:
# `dyn` first, then the same constructor with every pair of components
# met. Types are interned, so the order is `meet(a, b) is a` and
# consistency is whether a meet exists. Identical and field-less types
# take a fast path: the monotonic cast asks `meet` of a cell's tag on
# every reference cast, and that tag is most often a shared base type.

def lesseq(a: Ty, b: Ty) -> bool:
    """Less-or-equally-dynamic order on types (naive subtyping): `a` is
    below `b` when it is their meet. Everything is below `dyn`; every
    other constructor relates to itself, covariantly in every component.
    """
    try:
        return meet(a, b) is a
    except CastError:
        return False


def meet(a: Ty, b: Ty) -> Ty:
    """Greatest lower bound under `lesseq`, when it exists.

    Raises CastError when the head constructors clash and neither side
    is `dyn`; such a cast can never be satisfied.
    """
    if type(a) is DynT:
        return b
    if a is b or type(b) is DynT:
        return a
    if type(a) is not type(b) or not isinstance(a, Ty):
        raise CastError("no meet of {} and {}", a, b)
    return type(a)(*map(meet, a._key(), b._key())) if a._fields else a


def consistent(a: Ty, b: Ty) -> bool:
    """Standard gradual-typing consistency: `a` and `b` have a meet."""
    try:
        meet(a, b)
    except CastError:
        return False
    return True


def ground(a: Ty) -> Ty:
    """Collapse a type to its head constructor with `dyn` arguments."""
    if not isinstance(a, Ty):
        raise TypeError(f"not a type: {a!r}")
    return type(a)(*[DYN] * len(a._fields)) if a._fields else a


def typeof_const(c) -> Ty:
    """The type of a literal, an exact host `bool` or `int`."""
    if type(c) is bool:
        return BOOL
    if type(c) is int:
        return INT
    raise TypeError(f"not a constant: {c!r}")


def typeof_opr(f: Opr) -> ArrowT:
    """The arrow type of a primitive operator."""
    if isinstance(f, (Succ, Prev)):
        return ArrowT(INT, INT)
    if isinstance(f, IsZero):
        return ArrowT(INT, BOOL)
    if isinstance(f, Fst):
        return ArrowT(PairT(f.left, f.right), f.left)
    if isinstance(f, Snd):
        return ArrowT(PairT(f.left, f.right), f.right)
    raise TypeError(f"not an operator: {f!r}")
