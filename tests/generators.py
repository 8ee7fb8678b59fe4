"""Random well-typed inputs for the property suites.

`all_types` enumerates the type language up to a depth bound for the
exhaustive lemma checks. `ProgramGen` builds closed, well-typed surface
programs, optionally biased toward reference allocation, reference
casts, and dynamic access forms. `HeapGen` builds well-typed runtime
heaps together with typed values for exercising the cast function
directly; generated closures capture values at their canonical runtime
types so the typing oracle accepts them, and some functions come cast
from a consistent arrow type (`FunCast`).
"""

from __future__ import annotations

import random

from monoref.lang import (
    BOOL,
    DYN,
    INT,
    ArrowT,
    Closure,
    DynT,
    Inject,
    PairT,
    RefT,
    SRet,
    Ty,
    VPair,
    VRef,
    lesseq,
)
from monoref.machine import fun_cast
from monoref.surface import (
    Lit,
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
    SurfExpr,
)

BASE_TYPES = (INT, BOOL, DYN)


def hypothesis_types(max_leaves: int = 12):
    """Hypothesis strategy over the type language."""
    from hypothesis import strategies as st

    return st.recursive(
        st.sampled_from(list(BASE_TYPES)),
        lambda t: st.one_of(st.builds(PairT, t, t),
                            st.builds(ArrowT, t, t),
                            st.builds(RefT, t)),
        max_leaves=max_leaves)


def all_types(max_depth: int) -> list:
    """Every type whose syntax tree is at most `max_depth` deep."""
    if max_depth <= 1:
        return list(BASE_TYPES)
    smaller = all_types(max_depth - 1)
    out = list(BASE_TYPES)
    out.extend(PairT(a, b) for a in smaller for b in smaller)
    out.extend(ArrowT(a, b) for a in smaller for b in smaller)
    out.extend(RefT(a) for a in smaller)
    return out


def random_ty(rng: random.Random, max_depth: int, dyn_weight: float = 1.0,
              allow_ref: bool = True) -> Ty:
    choices = ["int", "bool"]
    weights = [1.0, 1.0]
    if dyn_weight > 0:
        choices.append("dyn")
        weights.append(dyn_weight)
    if max_depth > 1:
        choices.extend(["pair", "arrow"])
        weights.extend([0.8, 0.6])
        if allow_ref:
            choices.append("ref")
            weights.append(0.9)
    kind = rng.choices(choices, weights)[0]
    if kind == "int":
        return INT
    if kind == "bool":
        return BOOL
    if kind == "dyn":
        return DYN
    if kind == "pair":
        return PairT(random_ty(rng, max_depth - 1, dyn_weight, allow_ref),
                     random_ty(rng, max_depth - 1, dyn_weight, allow_ref))
    if kind == "arrow":
        return ArrowT(random_ty(rng, max_depth - 1, dyn_weight, allow_ref),
                      random_ty(rng, max_depth - 1, dyn_weight, allow_ref))
    return RefT(random_ty(rng, max_depth - 1, dyn_weight, allow_ref))


def contains_ref(t: Ty) -> bool:
    if isinstance(t, RefT):
        return True
    if isinstance(t, PairT):
        return contains_ref(t.left) or contains_ref(t.right)
    if isinstance(t, ArrowT):
        return contains_ref(t.dom) or contains_ref(t.cod)
    return False


def dynamize(rng: random.Random, t: Ty, p: float = 0.5) -> Ty:
    """A type at or above `t` in the less-dynamic order."""
    if rng.random() < p:
        return DYN
    if isinstance(t, PairT):
        return PairT(dynamize(rng, t.left, p), dynamize(rng, t.right, p))
    if isinstance(t, ArrowT):
        return ArrowT(dynamize(rng, t.dom, p), dynamize(rng, t.cod, p))
    if isinstance(t, RefT):
        return RefT(dynamize(rng, t.cell, p))
    return t


def staticize(rng: random.Random, t: Ty, p: float = 0.7) -> Ty:
    """A type at or below `t`: dyn holes may be filled with static types."""
    if isinstance(t, DynT):
        if rng.random() < p:
            return random_ty(rng, 2, dyn_weight=0.0)
        return DYN
    if isinstance(t, PairT):
        return PairT(staticize(rng, t.left, p), staticize(rng, t.right, p))
    if isinstance(t, ArrowT):
        return ArrowT(staticize(rng, t.dom, p), staticize(rng, t.cod, p))
    if isinstance(t, RefT):
        return RefT(staticize(rng, t.cell, p))
    return t


def consistent_variant(rng: random.Random, t: Ty, allow_ref: bool) -> Ty:
    """A random type consistent with `t`."""
    if rng.random() < 0.2:
        return DYN
    if isinstance(t, DynT):
        return random_ty(rng, 2, allow_ref=allow_ref)
    if isinstance(t, PairT):
        return PairT(consistent_variant(rng, t.left, allow_ref),
                     consistent_variant(rng, t.right, allow_ref))
    if isinstance(t, ArrowT):
        return ArrowT(consistent_variant(rng, t.dom, allow_ref),
                      consistent_variant(rng, t.cod, allow_ref))
    if isinstance(t, RefT):
        return RefT(consistent_variant(rng, t.cell, allow_ref))
    return t


# ---------------------------------------------------------------------------
# Surface program generation

class ProgramGen:
    """Closed, well-typed surface programs.

    With `allow_ref_casts` disabled, no cast whose runtime behavior
    rewrites or proxies a reference is ever emitted: explicit casts are
    restricted to reference-free types (plus plain injection to dyn),
    and dereference or assignment through a dyn-typed target is not
    generated. Programs from that mode behave identically under both
    reference semantics.
    """

    def __init__(self, rng: random.Random, allow_ref_casts: bool = True,
                 static_only: bool = False):
        self.rng = rng
        self.allow_ref_casts = allow_ref_casts and not static_only
        self.static_only = static_only
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def ty(self, max_depth: int, dyn_weight: float = 1.0) -> Ty:
        if self.static_only:
            dyn_weight = 0.0
        return random_ty(self.rng, max_depth, dyn_weight)

    def program(self, size: int = 10) -> SurfExpr:
        rng = self.rng
        n_refs = rng.randint(1, 3)

        def build(env, remaining):
            if remaining == 0:
                result_ty = self.ty(2, dyn_weight=1.5)
                return self.expr(env, result_ty, size)
            cell = self.ty(2, dyn_weight=2.0)
            name = self.fresh()
            init = self.expr(env, cell, 2)
            body = build(((name, RefT(cell)),) + env, remaining - 1)
            return SLetE(name, SRefNew(cell, init), body)

        return build((), n_refs)

    def atom(self, env, ty: Ty) -> SurfExpr:
        rng = self.rng
        candidates = [name for name, t in env if t == ty]
        if candidates and rng.random() < 0.5:
            return SVar(rng.choice(candidates))
        if ty == INT:
            return Lit(rng.randint(-3, 9))
        if ty == BOOL:
            return Lit(rng.random() < 0.5)
        if ty == DYN:
            payloads = [INT, BOOL, ArrowT(INT, INT)]
            if self.allow_ref_casts:
                payloads.append(RefT(INT))
            return SCastE(self.atom(env, rng.choice(payloads)), DYN)
        if isinstance(ty, PairT):
            return SPair(self.atom(env, ty.left), self.atom(env, ty.right))
        if isinstance(ty, ArrowT):
            param = self.fresh()
            body = self.atom(((param, ty.dom),) + tuple(env), ty.cod)
            return SLambda(param, ty.dom, body)
        if isinstance(ty, RefT):
            return SRefNew(ty.cell, self.atom(env, ty.cell))
        raise AssertionError(ty)

    def expr(self, env, ty: Ty, size: int) -> SurfExpr:
        rng = self.rng
        if size <= 0:
            return self.atom(env, ty)

        routes = ["atom", "let", "begin", "structural", "app", "project"]
        weights = [1.0, 1.5, 2.0, 2.0, 1.0, 0.8]
        if not self.static_only and (self.allow_ref_casts
                                     or not contains_ref(ty)):
            routes.append("cast")
            weights.append(1.5)
        ref_vars = [(name, t) for name, t in env
                    if isinstance(t, RefT) and t.cell == ty]
        if ref_vars:
            routes.extend(["deref", "assign"])
            weights.extend([1.5, 1.5])
        dyn_vars = [name for name, t in env if t == DYN]
        if ty == DYN and dyn_vars and self.allow_ref_casts:
            routes.extend(["dyn-deref", "dyn-app", "dyn-assign"])
            weights.extend([1.0, 1.0, 0.8])
        route = rng.choices(routes, weights)[0]

        if route == "atom":
            return self.atom(env, ty)
        if route == "let":
            bound_ty = self.ty(2, dyn_weight=1.5)
            name = self.fresh()
            rhs = self.expr(env, bound_ty, size // 2)
            body = self.expr(((name, bound_ty),) + tuple(env), ty,
                             size - size // 2 - 1)
            return SLetE(name, rhs, body)
        if route == "begin":
            return SBegin(self.effect(env, size // 2),
                          self.expr(env, ty, size - size // 2 - 1))
        if route == "cast":
            allow = self.allow_ref_casts
            src_ty = consistent_variant(rng, ty, allow_ref=allow)
            if not allow and contains_ref(src_ty):
                src_ty = DYN if not contains_ref(ty) else ty
            if src_ty == ty:
                return self.atom(env, ty)
            return SCastE(self.expr(env, src_ty, size - 1), ty)
        if route == "deref":
            name, _ = rng.choice(ref_vars)
            return SDeref(SVar(name))
        if route == "assign":
            name, ref_ty = rng.choice(ref_vars)
            return SAssign(SVar(name), self.expr(env, ty, size - 1))
        if route == "dyn-deref":
            return SDeref(SVar(rng.choice(dyn_vars)))
        if route == "dyn-app":
            arg = self.expr(env, self.ty(1), size - 1)
            return SApp(SVar(rng.choice(dyn_vars)), arg)
        if route == "dyn-assign":
            value = self.expr(env, DYN, size - 1)
            return SAssign(SVar(rng.choice(dyn_vars)), value)
        if route == "app":
            param = self.fresh()
            param_ty = self.ty(2)
            body = self.expr(((param, param_ty),) + tuple(env), ty, size // 2)
            fn = SLambda(param, param_ty, body)
            arg = self.expr(env, param_ty, size - size // 2 - 1)
            return SApp(fn, arg)
        if route == "project":
            if ty == DYN and self.allow_ref_casts and rng.random() < 0.4:
                return SFst(self.expr(env, DYN, size - 1))
            use_fst = rng.random() < 0.5
            other = self.ty(2)
            pair_ty = PairT(ty, other) if use_fst else PairT(other, ty)
            pair_expr = self.expr(env, pair_ty, size - 1)
            return SFst(pair_expr) if use_fst else SSnd(pair_expr)
        if route == "structural":
            if ty == INT:
                op = rng.choice(("succ", "prev"))
                return SPrim(op, self.expr(env, INT, size - 1))
            if ty == BOOL:
                return SPrim("zero?", self.expr(env, INT, size - 1))
            if isinstance(ty, PairT):
                return SPair(self.expr(env, ty.left, size // 2),
                             self.expr(env, ty.right, size - size // 2 - 1))
            if isinstance(ty, ArrowT):
                param = self.fresh()
                body = self.expr(((param, ty.dom),) + tuple(env), ty.cod,
                                 size - 1)
                return SLambda(param, ty.dom, body)
            if isinstance(ty, RefT):
                return SRefNew(ty.cell, self.expr(env, ty.cell, size - 1))
            return self.atom(env, ty)
        raise AssertionError(route)

    def effect(self, env, size: int) -> SurfExpr:
        """An expression evaluated for its effect inside a begin."""
        rng = self.rng
        ref_vars = [(name, t) for name, t in env if isinstance(t, RefT)]
        routes = ["value"]
        weights = [1.0]
        if ref_vars:
            routes.extend(["deref", "assign"])
            weights.extend([2.0, 2.5])
            if self.allow_ref_casts:
                routes.append("ref-cast")
                weights.append(3.0)
        route = rng.choices(routes, weights)[0]
        if route == "value":
            return self.expr(env, self.ty(2), max(size - 1, 0))
        name, ref_ty = rng.choice(ref_vars)
        if route == "deref":
            return SDeref(SVar(name))
        if route == "assign":
            value_ty = ref_ty.cell
            if self.allow_ref_casts and rng.random() < 0.4:
                value_ty = consistent_variant(rng, ref_ty.cell, allow_ref=True)
            return SAssign(SVar(name), self.expr(env, value_ty,
                                                 max(size - 1, 0)))
        # ref-cast: view the reference at a consistent cell type, then
        # read through the view or write a value of its cell type
        new_cell = consistent_variant(rng, ref_ty.cell, allow_ref=True)
        view = SCastE(SVar(name), RefT(new_cell))
        if rng.random() < 0.5:
            return SDeref(view)
        return SAssign(view, self.expr(env, new_cell, max(size - 1, 0)))


# ---------------------------------------------------------------------------
# Runtime heap and value generation

class HeapGen:
    """Well-typed heaps and values for direct cast testing.

    Addresses are allocated on demand while values are generated, so
    references (including cyclic ones) always point at cells whose tag
    satisfies the reference typing rule. Values captured by generated
    closures use exact tags so their canonical typing matches; a value
    at an arrow type is sometimes a closure cast to it (`FunCast`).
    """

    def __init__(self, rng: random.Random, max_depth: int = 2):
        self.rng = rng
        self.max_depth = max_depth
        self.tags = []
        self.cells = {}
        self.pending_addrs = []

    def config(self, n_cells: int = 3):
        """Plan `n_cells` cells, fill them, and return (heap, active)."""
        rng = self.rng
        self.tags = [random_ty(rng, self.max_depth) for _ in range(n_cells)]
        self.cells = {}
        self.pending_addrs = []
        for addr in range(n_cells):
            tag = self.tags[addr]
            if rng.random() < 0.3:
                src = dynamize(rng, tag, 0.6)
                self.cells[addr] = (self.value_of(src), tag, src)
                self.pending_addrs.append(addr)
            else:
                self.cells[addr] = (self.value_of(tag), tag)
        active = list(self.pending_addrs)
        rng.shuffle(active)
        return dict(self.cells), tuple(active)

    def heap(self):
        return dict(self.cells)

    def alloc(self, cell_ty: Ty) -> int:
        # The tag is registered before the content is generated so that
        # nested references (including cycles back to this cell) resolve.
        addr = len(self.tags)
        self.tags.append(cell_ty)
        self.cells[addr] = (self.value_of(cell_ty), cell_ty)
        return addr

    def value_of(self, ty: Ty, exact: bool = False):
        rng = self.rng
        if ty == INT:
            return rng.randint(-5, 20)
        if ty == BOOL:
            return rng.random() < 0.5
        if ty == DYN:
            payload_ty = random_ty(rng, 2, dyn_weight=0.4)
            if isinstance(payload_ty, DynT):
                payload_ty = INT
            return Inject(self.value_of(payload_ty, exact), payload_ty)
        if isinstance(ty, PairT):
            return VPair(self.value_of(ty.left, exact),
                         self.value_of(ty.right, exact))
        if isinstance(ty, ArrowT):
            if rng.random() < 0.3:
                # A closure cast to `ty` from a consistent arrow.
                src = ArrowT(consistent_variant(rng, ty.dom, True),
                             consistent_variant(rng, ty.cod, True))
                return fun_cast(self.closure_of(src.dom, src.cod), src, ty)
            return self.closure_of(ty.dom, ty.cod)
        if isinstance(ty, RefT):
            if exact:
                candidates = [a for a, t in enumerate(self.tags)
                              if t == ty.cell]
            else:
                candidates = [a for a, t in enumerate(self.tags)
                              if lesseq(t, ty.cell)]
            if candidates and rng.random() < 0.7:
                return VRef(rng.choice(candidates))
            tag = ty.cell if exact else staticize(rng, ty.cell, 0.4)
            return VRef(self.alloc(tag))
        raise AssertionError(ty)

    def closure_of(self, dom: Ty, cod: Ty) -> Closure:
        if dom == cod and self.rng.random() < 0.5:
            return Closure("x", dom, SRet("x"), ())
        captured = self.value_of(cod, exact=True)
        return Closure("x", dom, SRet("$c"), ("$c", captured, ()))
