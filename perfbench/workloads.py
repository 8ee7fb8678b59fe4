"""The three workloads: the programs each runs and the outcome expected.

Every expected outcome comes from outside monoref: from the generator
(`gen.py`), from the `; expect` lines written by hand at the top of each
kernel in `kernels/`, or from the corpus table below, which restates
what each corpus file's comment documents.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
KERNELS = BENCH / "kernels"
CORPUS = ROOT / "corpus"

SEMANTICS = ("monotonic", "guarded")
SMALL, LARGE = "small", "large"

# Loop kernels run at two fuels 4x apart, so superlinear cost shows as a
# ratio. The lattice's are lower: its slowest guarded configurations take
# ~20 steps/ms, and most of them stop with RecursionError between 5k and
# 10k steps at the seed, which the large fuel is chosen to reach.
LOOP_FUELS = ((10_000, SMALL), (40_000, LARGE))
LATTICE_FUELS = ((2_500, SMALL), (10_000, LARGE))
# Generated and corpus programs end in a few hundred steps; the budget is
# the CLI's default.
RUN_FUELS = ((1_000_000, None),)
# Lattice configurations whose guarded run raises RecursionError before the
# large fuel at the seed, as the ref-cast kernel's does. Each workload seed
# gives the same set: the seed picks only the initial integer.
GUARDED_LIMIT_CONFIGS = ("001", "002", "011", "101", "102", "111")

# (stdout, exit code) of `monoref run` per semantics, as each corpus file's
# comment documents it. The comment of ex1r names only the guarded outcome;
# under monotonic its second reference cast fails, exactly as in ex1.
CORPUS_EXPECTED = {
    "bad-paren": {"monotonic": ("", 5), "guarded": ("", 5)},
    "cycle": {"monotonic": ("42", 0), "guarded": ("42", 0)},
    "ex1": {"monotonic": ("error: cast", 1), "guarded": ("#t", 0)},
    "ex1r": {"monotonic": ("error: cast", 1), "guarded": ("error: cast", 1)},
    "ex2": {"monotonic": ("4", 0), "guarded": ("4", 0)},
    "ex3": {"monotonic": ("error: cast", 1), "guarded": ("#inj", 0)},
    "ill-typed": {"monotonic": ("", 4), "guarded": ("", 4)},
}
_FRONT_END_ERROR = {5: "parse", 4: "type"}
TIMEOUT_EXIT = 3

# Annotation sites of the lattice kernel; the first choice of each is the
# static one. The loop cell's static type depends on the parameter's.
LATTICE_CELL = ("int", "dyn")
LATTICE_PARAM = ("(ref-ty int)", "(ref-ty dyn)", "dyn")


def lattice_loops(param: str) -> tuple[str, ...]:
    return (f"(-> {param} int)", "(-> dyn dyn)", "dyn")


@dataclass(frozen=True)
class Job:
    """One program; each round runs it under both semantics at each fuel."""
    name: str
    source: str
    nodes: int
    expect: dict  # semantics -> rendered observable
    fuels: tuple  # (fuel, size label or None)
    compiles: str = "ok"  # or the front-end error it must raise: parse, type
    type: str | None = None  # surface type, where known
    kernel: str | None = None  # name in the per-kernel metrics
    config: str | None = None  # lattice configuration, "000" is static
    # (semantics, fuel) runs that raise RecursionError at the seed. They
    # are probed once per run instead of timed in every round.
    limits: frozenset = frozenset()


@dataclass(frozen=True)
class CliTarget:
    """One `monoref run` of a file in a fresh interpreter."""
    name: str
    source: str | None  # text to write first, or None to run `path`
    path: Path
    semantics: str
    fuel: int | None
    stdout: str
    exit: int


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    cli: tuple


def kernel(name: str, **fields) -> tuple[str, dict, str]:
    """A kernel's source with `fields` filled in, its expected result per
    semantics and its surface type, both read from its header lines."""
    text = (KERNELS / f"{name}.gtlc.in").read_text(encoding="utf-8")
    text = text.format(**fields)
    expect = dict(re.findall(r"^; expect (\w+): (.+)$", text, re.M))
    ty = re.search(r"^; type: (.+)$", text, re.M).group(1)
    if set(expect) != set(SEMANTICS):
        raise ValueError(f"kernel {name} lacks an expected result")
    return text, expect, ty


def _kernel_job(name: str, fuels, rng: random.Random, limits=frozenset(),
                **fields) -> Job:
    text, expect, ty = kernel(name, init=rng.randrange(1000), **fields)
    return Job(name, text, gen.shape(text)[0], expect, fuels, type=ty,
               kernel=name, limits=limits)


def _kernel_cli(job: Job, workdir: Path) -> list[CliTarget]:
    fuel = job.fuels[0][0]
    return [CliTarget(job.name, job.source, workdir / f"{job.name}.gtlc", s,
                      fuel, job.expect[s], TIMEOUT_EXIT) for s in SEMANTICS]


def compile_workload(seed: int, workdir: Path) -> Workload:
    """Generated programs in size tiers, then the corpus; the CLI runs
    every corpus file under both semantics."""
    tiers = {t.name: t for t in gen.TIERS}
    jobs = []
    for p in gen.programs(seed):
        size = {"tiny": SMALL, "large": LARGE}.get(p.tier)
        fuel = RUN_FUELS[0][0]
        limits = frozenset((s, fuel) for s in SEMANTICS) \
            if tiers[p.tier].past_limit else frozenset()
        jobs.append(Job(p.name, p.source, p.nodes,
                        {s: p.expected for s in SEMANTICS},
                        ((fuel, size),), type="(pair-ty int int)",
                        limits=limits))
    cli = []
    for name, outcome in CORPUS_EXPECTED.items():
        path = CORPUS / f"{name}.gtlc"
        text = path.read_text(encoding="utf-8")
        exit_code = outcome["monotonic"][1]
        jobs.append(Job(f"corpus/{name}", text, gen.shape(text)[0],
                        {s: outcome[s][0] for s in SEMANTICS}, RUN_FUELS,
                        compiles=_FRONT_END_ERROR.get(exit_code, "ok")))
        cli += [CliTarget(f"corpus/{name}", None, path, s, None, *outcome[s])
                for s in SEMANTICS]
    return Workload("compile", tuple(jobs), tuple(cli))


def static_loop_workload(seed: int, workdir: Path) -> Workload:
    """The three cast-free loop kernels; the CLI runs each at the small fuel."""
    rng = random.Random(f"monoref-static-loop:{seed}")
    jobs = [_kernel_job(name, LOOP_FUELS, rng)
            for name in ("pure", "alloc", "counter")]
    cli = [t for job in jobs for t in _kernel_cli(job, workdir)]
    return Workload("static-loop", tuple(jobs), tuple(cli))


def lattice_workload(seed: int, workdir: Path) -> Workload:
    """Every configuration of the lattice kernel's three annotation sites,
    plus the dyn-call and ref-cast kernels, which the CLI also runs."""
    rng = random.Random(f"monoref-lattice:{seed}")
    guarded_large = frozenset({("guarded", LATTICE_FUELS[-1][0])})
    jobs = []
    for (ci, cell), (pi, param) in product(enumerate(LATTICE_CELL),
                                           enumerate(LATTICE_PARAM)):
        for li, loop in enumerate(lattice_loops(param)):
            text, expect, ty = kernel(
                "lattice", init=rng.randrange(1000), cell=cell, param=param,
                loop=loop, type="int" if li == 0 else "dyn")
            config = f"{ci}{pi}{li}"
            jobs.append(Job(f"lattice-{config}", text, gen.shape(text)[0],
                            expect, LATTICE_FUELS, type=ty, config=config,
                            limits=guarded_large if config in
                            GUARDED_LIMIT_CONFIGS else frozenset()))
    extra = [_kernel_job("dyn-call", LATTICE_FUELS, rng),
             _kernel_job("ref-cast", LATTICE_FUELS, rng, limits=guarded_large)]
    cli = [t for job in extra for t in _kernel_cli(job, workdir)]
    return Workload("lattice", tuple(jobs + extra), tuple(cli))


WORKLOADS = {
    "compile": compile_workload,
    "static-loop": static_loop_workload,
    "lattice": lattice_workload,
}
