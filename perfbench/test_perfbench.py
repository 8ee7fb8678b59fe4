"""Tests of the benchmark itself: the metrics it prints, its generator and
what the traced static-loop run shows."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import harness  # noqa: E402
from monoref import elaborate, parse_surface, run, run_g  # noqa: E402
from monoref.cli import render_observable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def static_loop():
    """One untraced and one traced one-second static-loop run."""
    out = {}
    for trace in ("0", "1"):
        proc = _bench(ROOT, "--workload", "static-loop", "--seed", "7",
                      "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_runner_prints_every_declared_metric(static_loop):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"]
                   for name, m in static_loop[trace]["metrics"].items()}
        assert printed == declared


def test_static_loop_runs_are_correct(static_loop):
    for result in static_loop.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0


def test_traced_static_loop_fires_no_cast_rules(static_loop):
    metrics = static_loop["1"]["metrics"]
    cast_rules = {"machine": ("cast", "dyn-deref", "dyn-update",
                              "active-discard", "active-commit",
                              "active-supersede"),
                  "guarded": ("cast", "dyn-deref", "dyn-update")}
    for layer, rules in cast_rules.items():
        for rule in rules:
            assert metrics[f"{layer}.rule.{rule}"]["value"] == 0
        assert metrics[f"{layer}.rule.tailcall"]["value"] > 0


def test_runner_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _bench(tmp_path, "--workload", "compile", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generator_is_deterministic_per_seed():
    first, again, other = gen.programs(11), gen.programs(11), gen.programs(12)
    assert [p.source.encode() for p in first] == \
        [p.source.encode() for p in again]
    assert first == again
    assert [p.source for p in first] != [p.source for p in other]


def test_generator_tiers_grow():
    by_tier = {}
    for p in gen.programs(3):
        by_tier.setdefault(p.tier, []).append(p)
    sizes = [max(p.nodes for p in by_tier[t.name]) for t in gen.TIERS[:4]]
    assert sizes == sorted(sizes) and sizes[0] < 100 < 1000 < sizes[-1]
    assert min(p.nesting for p in by_tier["deep"]) > 250


def test_generator_expected_results_hold_on_small_tiers():
    for p in gen.programs(5):
        if p.tier not in ("tiny", "small"):
            continue
        program = elaborate(parse_surface(p.source))
        assert render_observable(run(program)) == p.expected, p.source
        assert render_observable(run_g(program)) == p.expected, p.source


def test_known_limits_count_once_per_pass():
    rounds = harness.Tally(attempted=20, round_s=[1.0, 1.0])
    rounds.fail("machine", "wrong")
    limits = harness.Tally(attempted=2)
    limits.fail("guarded", "RecursionError")
    failures, attempted = harness.failures_per_pass([rounds], limits)
    assert attempted == 12
    assert failures == {("machine", "wrong"): 0.5,
                        ("guarded", "RecursionError"): 1}
    assert harness.failed_share([rounds], limits) == 1.5 / 12
