"""The benchmark's loop kernels, compiled to IR for the test suites.

Each kernel is read from `perfbench/kernels/<name>.gtlc.in` with its
initial integer set to 7 and run through the front end; the files are
not changed.
"""

from pathlib import Path

from monoref.surface import elaborate, parse_surface, typecheck_surface

KERNELS = Path(__file__).resolve().parent.parent / "perfbench" / "kernels"


def kernel(name, **fields):
    text = (KERNELS / f"{name}.gtlc.in").read_text(encoding="utf-8")
    ast = parse_surface(text.format(init=7, **fields))
    typecheck_surface((), ast)
    return elaborate(ast)


def lattice_kernels():
    """Every configuration of the lattice kernel's three annotation
    sites, then the dyn-call and ref-cast kernels."""
    for ci, cell in enumerate(("int", "dyn")):
        for pi, param in enumerate(("(ref-ty int)", "(ref-ty dyn)", "dyn")):
            loops = (f"(-> {param} int)", "(-> dyn dyn)", "dyn")
            for li, loop in enumerate(loops):
                yield f"lattice-{ci}{pi}{li}", kernel(
                    "lattice", cell=cell, param=param, loop=loop,
                    type="int" if li == 0 else "dyn")
    yield "dyn-call", kernel("dyn-call")
    yield "ref-cast", kernel("ref-cast")


def all_kernels():
    """The lattice kernels, then the cast-free static-loop kernels."""
    yield from lattice_kernels()
    for name in ("pure", "alloc", "counter"):
        yield name, kernel(name)
