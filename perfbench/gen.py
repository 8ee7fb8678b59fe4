"""Seeded generator of surface programs for the `compile` workload.

A program is a sequence of let-bound items (int ref cells, lambdas whose
parameter is annotated `int` or `dyn`, applications and cell updates)
ending in an int pair. The generator tracks every value while it builds
the program, so the expected result comes from the generator, never
from monoref. It also counts the program's s-expression nodes (atoms
plus lists) and its nesting (the deepest list nesting).

Tiers run from corpus-sized programs up to and past the depths at which
monoref's recursive front end stops, either through many sequential
`let`s or through lambda bodies that nest `let` and an applied lambda.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Tier:
    name: str
    items: int  # sequential let/begin items in the program
    depth: int  # nesting of each lambda body
    past_limit: bool = False  # the seed's front end overflows its stack here


# Every tier has the same number of programs in a round. Nothing in the
# repository records how large real programs are (the corpus is seven
# files of at most ~50 nodes, the size of `tiny`), so the mix assumes no
# distribution of file sizes. `long` and `deep` sit past the seed's
# recursion limits on purpose: about 90 sequential items, or lambda bodies
# about 190 levels deep, make the elaborator raise RecursionError. Their
# programs are run once per run as known limits and counted in `ok_share`,
# but left out of the timed rounds, so that a fix that lets them compile
# does not read as a slowdown of the programs that compiled before.
TIERS = (
    Tier("tiny", 3, 1),
    Tier("small", 12, 2),
    Tier("medium", 30, 4),
    Tier("large", 60, 8),
    Tier("long", 150, 2, past_limit=True),
    Tier("deep", 3, 250, past_limit=True),
)
PER_TIER = 24  # so that the tail over programs can be p90

# After the first cell and lambda, items come in this mix, shuffled, so
# that programs of one tier differ in order but hardly in size.
_MIX = ("cell", "fun", "app", "app", "update")


@dataclass(frozen=True)
class Program:
    name: str
    tier: str
    source: str
    nodes: int
    nesting: int
    expected: str  # rendered observable, the same under both semantics


class _Builder:
    """Builds one program as a list of item prefixes closed at the end."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.prefix: list[str] = []
        self.cells: list[tuple[str, str, int]] = []  # (name, cell type, value)
        self.funs: list[tuple[str, int]] = []  # (name, amount it adds)
        self.ints: list[tuple[str, int]] = []  # (name, value)
        self.counter = 0

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    def int_arg(self) -> tuple[str, int]:
        """Text and value of an int-typed argument."""
        choice = self.rng.randrange(3)
        if choice == 0 and self.ints:
            return self.rng.choice(self.ints)
        if choice == 1 and self.cells:
            name, cell_ty, value = self.rng.choice(self.cells)
            if cell_ty == "dyn":
                return f"(cast (! {name}) int)", value
            return f"(! {name})", value
        value = self.rng.randrange(100)
        return str(value), value

    def cell(self) -> None:
        name = self.fresh("c")
        cell_ty = self.rng.choice(("int", "int", "dyn"))
        arg, value = self.int_arg()
        self.prefix.append(f"(let ({name} (ref {cell_ty} {arg}))\n")
        self.cells.append((name, cell_ty, value))

    def fun(self, depth: int) -> None:
        """Bind a lambda whose body nests `depth` levels and adds depth + 1.

        Each level is `(let (y (succ x)) ...)` or the applied lambda
        `((lambda (y : T) ...) (succ x))`; the innermost body is `(succ y)`.
        """
        name = self.fresh("f")
        var = self.fresh("x")
        opening = [f"(let ({name} (lambda ({var} : {self.ann()})\n"]
        closing = []
        for _ in range(depth):
            inner = self.fresh("y")
            if self.rng.randrange(2):
                opening.append(f"(let ({inner} (succ {var}))\n")
                closing.append(")")
            else:
                opening.append(f"((lambda ({inner} : {self.ann()})\n")
                closing.append(f") (succ {var}))")
            var = inner
        body = f"(succ {var})"
        self.prefix.append("".join(opening) + body
                           + "".join(reversed(closing)) + "))\n")
        self.funs.append((name, depth + 1))

    def ann(self) -> str:
        return self.rng.choice(("int", "dyn"))

    def app(self) -> None:
        fname, delta = self.rng.choice(self.funs)
        arg, value = self.int_arg()
        name = self.fresh("v")
        self.prefix.append(f"(let ({name} ({fname} {arg}))\n")
        self.ints.append((name, value + delta))

    def update(self) -> None:
        index = self.rng.randrange(len(self.cells))
        cname, cell_ty, value = self.cells[index]
        fname, delta = self.rng.choice(self.funs)
        read = f"(cast (! {cname}) int)" if cell_ty == "dyn" else f"(! {cname})"
        self.prefix.append(f"(begin (:= {cname} ({fname} {read}))\n")
        self.cells[index] = (cname, cell_ty, value + delta)

    def finish(self) -> tuple[str, str]:
        """Close every item around a final pair; return (source, expected)."""
        left, lvalue = self.int_arg()
        right, rvalue = self.int_arg()
        source = ("".join(self.prefix) + f"(pair {left} {right})"
                  + ")" * len(self.prefix) + "\n")
        return source, f"(pair {lvalue} {rvalue})"


def shape(source: str) -> tuple[int, int]:
    """(nodes, nesting) of an s-expression text: atoms plus lists, and the
    deepest list nesting. `;` comments are skipped."""
    nodes = nesting = depth = 0
    for line in source.splitlines():
        for token in re.findall(r"[()]|[^\s();]+|;.*", line):
            if token.startswith(";"):
                break
            if token == "(":
                nodes += 1
                depth += 1
                nesting = max(nesting, depth)
            elif token == ")":
                depth -= 1
            else:
                nodes += 1
    return nodes, nesting


def generate(rng: random.Random, tier: Tier, name: str) -> Program:
    """One program of `tier`: a cell and a lambda, then the shuffled mix."""
    b = _Builder(rng)
    b.cell()
    b.fun(tier.depth)
    kinds = [_MIX[i % len(_MIX)] for i in range(tier.items - 2)]
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "cell":
            b.cell()
        elif kind == "fun":
            b.fun(tier.depth)
        elif kind == "app":
            b.app()
        else:
            b.update()
    source, expected = b.finish()
    nodes, nesting = shape(source)
    return Program(name, tier.name, source, nodes, nesting, expected)


def programs(seed: int) -> list[Program]:
    """The seed's programs for one round, tier by tier; same seed, same bytes."""
    out = []
    for tier in TIERS:
        for i in range(PER_TIER):
            rng = random.Random(f"monoref-compile:{seed}:{tier.name}:{i}")
            out.append(generate(rng, tier, f"{tier.name}-{i}"))
    return out
