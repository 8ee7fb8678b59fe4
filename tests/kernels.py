"""The benchmark's loop kernels, compiled to IR for the test suites.

Each kernel is read from `perfbench/kernels/<name>.gtlc.in` with its
initial integer set to 7 and run through the front end; the files are
not changed.
"""

from pathlib import Path

from monoref.surface import elaborate, parse_surface, typecheck_surface

KERNELS = Path(__file__).resolve().parent.parent / "perfbench" / "kernels"


def source(name, **fields):
    """The text of kernel `name` with its template fields filled in."""
    text = (KERNELS / f"{name}.gtlc.in").read_text(encoding="utf-8")
    return text.format(init=7, **fields)


def compile_source(text):
    ast = parse_surface(text)
    typecheck_surface((), ast)
    return elaborate(ast)


def kernel(name, **fields):
    return compile_source(source(name, **fields))


def lattice_sources():
    """Every configuration of the lattice kernel's three annotation
    sites, then the dyn-call and ref-cast kernels, as (name, text)."""
    for ci, cell in enumerate(("int", "dyn")):
        for pi, param in enumerate(("(ref-ty int)", "(ref-ty dyn)", "dyn")):
            loops = (f"(-> {param} int)", "(-> dyn dyn)", "dyn")
            for li, loop in enumerate(loops):
                yield f"lattice-{ci}{pi}{li}", source(
                    "lattice", cell=cell, param=param, loop=loop,
                    type="int" if li == 0 else "dyn")
    yield "dyn-call", source("dyn-call")
    yield "ref-cast", source("ref-cast")


def all_sources():
    """The lattice kernels, then the cast-free static-loop kernels."""
    yield from lattice_sources()
    for name in ("pure", "alloc", "counter"):
        yield name, source(name)


def lattice_kernels():
    for name, text in lattice_sources():
        yield name, compile_source(text)


def all_kernels():
    for name, text in all_sources():
        yield name, compile_source(text)
