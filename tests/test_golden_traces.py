"""Machine transitions pinned byte for byte.

`tests/golden/traces.json` holds three tables:

- `cli`: for every corpus file under both semantics, the exit code,
  stdout and stderr of `monoref run --trace`, run from the repository
  root;
- `kernels`: for every benchmark kernel configuration run for at most
  2,000 transitions, per semantics, the rendered observable, the count
  of each rule and the SHA-256 of the `format_trace` lines;
- `generated`: for 500 seeded generated programs, reference casts
  allowed, run for at most 2,000 transitions, per semantics, the
  rendered observable and the SHA-256 of the `format_trace` lines.

A change that is meant to keep every transition must keep this file.
Rewrite it, for a change meant to alter transitions, with
`PYTHONPATH=src python tests/test_golden_traces.py`.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter
from pathlib import Path

import pytest

from generators import ProgramGen
from kernels import all_kernels
from monoref.cli import main, render_observable
from monoref.guarded import GUARDED
from monoref.machine import (
    MONOTONIC,
    format_trace,
    initial_state,
    steps_with,
)
from monoref.surface import elaborate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "traces.json"
CORPUS = sorted(p.stem for p in (ROOT / "corpus").glob("*.gtlc"))
SEMANTICS = {"monotonic": MONOTONIC, "guarded": GUARDED}
KERNEL_FUEL = 2_000
GENERATED = 500
GENERATED_SEED = 27


def cli_run(name, semantics):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", f"corpus/{name}.gtlc", "--semantics",
                         semantics, "--trace"])
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def traced(stmt, sem):
    """The records of a run of `stmt` for at most `KERNEL_FUEL`
    transitions, and its rendered observable and trace digest."""
    records = []
    obs = steps_with(sem, KERNEL_FUEL, initial_state(stmt), records.append)
    lines = "".join(format_trace(r) + "\n" for r in records)
    return records, {
        "observable": render_observable(obs),
        "trace_sha256": hashlib.sha256(lines.encode("utf-8")).hexdigest()}


def kernel_trace(stmt, sem):
    records, entry = traced(stmt, sem)
    entry["rules"] = dict(sorted(Counter(r.rule for r in records).items()))
    return entry


def generated_programs():
    """(key, IR) of each seeded generated program, keys in order."""
    rng = random.Random(GENERATED_SEED)
    for i in range(GENERATED):
        ast = ProgramGen(rng, allow_ref_casts=True).program(rng.randint(3, 20))
        yield f"{i:03d}", elaborate(ast)


def compute():
    return {
        "cli": {f"{name} {s}": cli_run(name, s)
                for name in CORPUS for s in SEMANTICS},
        "kernels": {f"{name} {s}": kernel_trace(stmt, sem)
                    for name, stmt in all_kernels()
                    for s, sem in SEMANTICS.items()},
        "generated": {f"{key} {s}": traced(stmt, sem)[1]
                      for key, stmt in generated_programs()
                      for s, sem in SEMANTICS.items()},
    }


def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert len(CORPUS) == 7
    table = golden()
    assert len(table["cli"]) == 14
    assert len(table["kernels"]) == 2 * 23
    assert len(table["generated"]) == 2 * GENERATED


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("semantics", list(SEMANTICS))
def test_run_trace_matches_golden(name, semantics):
    assert cli_run(name, semantics) == golden()["cli"][f"{name} {semantics}"]


@pytest.mark.parametrize("semantics", list(SEMANTICS))
def test_kernel_traces_match_golden(semantics):
    table = golden()["kernels"]
    for name, stmt in all_kernels():
        assert kernel_trace(stmt, SEMANTICS[semantics]) == \
            table[f"{name} {semantics}"], name


@pytest.mark.parametrize("semantics", list(SEMANTICS))
def test_generated_traces_match_golden(semantics):
    table = golden()["generated"]
    for key, stmt in generated_programs():
        assert traced(stmt, SEMANTICS[semantics])[1] == \
            table[f"{key} {semantics}"], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
