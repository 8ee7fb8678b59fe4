"""Closed-loop measurement of one workload and the metrics it reports.

One client drives monoref's public functions in-process; the next
operation starts when the previous one ends. An operation is one program
taken through parse, typecheck and elaborate, checked by `check_stmt`,
then run under one semantics at one fuel, or one `monoref run` in a
fresh interpreter. Each operation has a wall-clock deadline.

A run warms up, then repeats whole rounds (every operation of the
workload once) until its time is up, with the CLI runs and set-up probes
spread over that window. Runs known to raise RecursionError at the seed
are left out of the rounds and probed once per run instead. End-to-end
metrics come from untraced rounds. With tracing on, traced rounds
alternate with untraced ones and supply the per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

from monoref import check_stmt, elaborate, parse_surface, run, run_g
from monoref import typecheck_surface
from monoref.cli import render_observable
from monoref.guarded import GProxy, step_g
from monoref.lang import (
    CastError, Inject, Lam, SCast, Stuck, VPair)
from monoref.machine import final, initial_state, step
from monoref.surface import ParseError
from monoref.typecheck import TypeCheckError

from tracing import NoTracer, RuleCounter, Tracer
from workloads import BENCH, LARGE, ROOT, SEMANTICS, SMALL, WORKLOADS

SRC = ROOT / "src"
RUNNERS = {"monotonic": run, "guarded": run_g}
STEPPERS = {"monotonic": step, "guarded": step_g}
LAYER = {"monotonic": "machine", "guarded": "guarded"}
SHORT = {"monotonic": "mono", "guarded": "guarded"}  # end-to-end metric names

OP_SECONDS = 10.0  # deadline of one operation; the slowest takes ~0.6 s
HARD_STOP = 120.0  # no operation starts this long after the run began
SETUP_PROBES = 9
CLI_SPAWNS = 24  # CLI runs per window, rounded up to whole passes over the targets
TAIL_BEYOND = 10  # the tail percentile has this many samples beyond it
# Standard percentiles only, so that the one chosen stays put when the
# sample count moves a little between runs. No p99: on `compile` it falls
# on the few slowest runs of the largest programs, which a slow spell of a
# shared machine decides, and five runs of it spread by 0.375 of their
# median (quartile distance), past any usable bound; p90 is the median
# time of a `large` program.
TAIL_PERCENTILES = (50, 90)
PROXY_SAMPLE_EVERY = 16
# End-to-end timings are scaled to a machine on which the speed gauge's
# fastest run takes GAUGE_REF_S, about its time on an idle core of the
# two-core host the benchmark was tuned on. The host slowed by up to 1.5x
# for minutes at a time: over six runs of `lattice`, the quartile distance
# of `guarded_steps_per_s` was 0.20 of its median raw and 0.10 scaled, and
# that of `compile_nodes_per_s` 0.15 raw and 0.03 scaled.
GAUGE_REF_S = 0.002
GAUGE_EVERY = 0.05  # least seconds between two runs of the gauge

FAILURE_LAYERS = ("surface", "typecheck", "machine", "guarded", "cli")
FAILURE_KINDS = ("RecursionError", "exception", "wrong", "deadline")
KERNELS = ("pure", "alloc", "counter", "dyn-call", "ref-cast")
MACHINE_RULES = ("let", "return", "call", "tailcall", "alloc", "update",
                 "dyn-update", "cast", "dyn-deref", "active-discard",
                 "active-commit", "active-supersede")
GUARDED_RULES = MACHINE_RULES[:9]


def gauge() -> None:
    """The speed gauge: a fixed loop of dict stores and tuple building,
    the kind of work monoref's interpreter does, with none of its code."""
    d, t = {}, ()
    for i in range(20_000):
        d[i & 63] = (i, t)
        t = (i, len(d))


class Deadline(Exception):
    """An operation overran its wall-clock deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


@contextmanager
def deadline(seconds: float):
    """Raise Deadline in the body once `seconds` of wall time have passed."""
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class RunSample(NamedTuple):
    job: str
    kernel: str | None
    config: str | None
    semantics: str
    fuel: int
    size: str | None
    steps: int  # 0 unless the run ended in its expected result
    seconds: float


@dataclass
class Tally:
    """What a set of rounds attempted, measured and saw fail."""
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # (layer, kind)
    errors: Counter = field(default_factory=Counter)  # exception type names
    wrong: int = 0
    # (job, nodes compiled, seconds) of each front end; nodes are 0 where
    # the front end did not finish
    compiles: list = field(default_factory=list)
    runs: list = field(default_factory=list)
    cli_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)

    def fail(self, layer: str, kind: str, detail: str = "") -> None:
        self.failures[(layer, kind)] += 1
        if kind == "wrong":
            self.wrong += 1
        if detail:
            self.errors[f"{layer}:{detail}"] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def compile_s(self) -> list:
        """Each program's fastest front end over the rounds."""
        return [seconds for _, seconds in best_by_op(self.compiles)]


@dataclass
class Counts:
    """Per-semantics sums of the `trace=` hook over traced rounds."""
    rules: Counter = field(default_factory=Counter)
    peak_heap: int = 0
    peak_worklist: int = 0

    def add(self, hook: RuleCounter) -> None:
        self.rules.update(hook.rules)
        self.peak_heap = max(self.peak_heap, hook.peak_heap)
        self.peak_worklist = max(self.peak_worklist, hook.peak_worklist)


def front_end(job, tracer, op: int):
    """Parse, typecheck and elaborate; returns (outcome, type, IR) where
    outcome is "ok" or the expected kind of front-end error."""
    try:
        with tracer.span("surface.parse", op) as attrs:
            ast = parse_surface(job.source)
            attrs["nodes"] = job.nodes
    except ParseError:
        return "parse", None, None
    try:
        with tracer.span("surface.typecheck", op):
            ty = typecheck_surface((), ast)
    except TypeCheckError:
        return "type", None, None
    with tracer.span("surface.elaborate", op) as attrs:
        ir = elaborate(ast)
        attrs["nodes"] = job.nodes
    return "ok", str(ty), ir


def ir_counts(stmt) -> tuple[int, int]:
    """(statements, casts) in an IR program, lambda bodies included."""
    stmts = casts = 0
    todo = [stmt]
    while todo:
        s = todo.pop()
        stmts += 1
        casts += isinstance(s, SCast)
        for part in vars(s).values():
            if isinstance(part, Lam):
                todo.append(part.body)
        body = getattr(s, "body", None)
        if body is not None:
            todo.append(body)
    return stmts, casts


def proxy_depth(values) -> int:
    """Deepest chain of guarded proxies among `values` and their parts."""
    best = 0
    todo = [(v, 0) for v in values]
    while todo:
        v, depth = todo.pop()
        if isinstance(v, GProxy):
            best = max(best, depth + 1)
            todo.append((v.inner, depth + 1))
        elif isinstance(v, VPair):
            todo += [(v.fst, depth), (v.snd, depth)]
        elif isinstance(v, Inject):
            todo.append((v.payload, depth))
    return best


class Bench:
    def __init__(self, workload, seed: int, started: float, tracer):
        self.workload = workload
        self.seed = seed
        self.stop_at = started + HARD_STOP
        self.plain = Tally()  # untraced rounds
        self.cli = Tally()  # every CLI run
        self.limits = Tally()  # the known-limit operations, once each
        self.cli_tracer = tracer
        self.setups = []  # (seconds, import ms) per set-up probe
        self.gauge_s = []
        self.gauge_at = 0.0
        self.due = []
        self.steps = {}  # (job, semantics, fuel) -> steps to its value
        self.op = 0
        self.env = {k: v for k, v in os.environ.items() if k != "MONOREF_FUEL"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        signal.signal(signal.SIGALRM, _on_alarm)

    def budget(self) -> float:
        return min(OP_SECONDS, self.stop_at - time.perf_counter())

    def operation(self, job, semantics, fuel, size, tally, tracer, hook):
        self.op += 1
        tally.attempted += 1
        layer = LAYER[semantics]
        if self.budget() <= 0:
            tally.fail(layer, "deadline")
            return
        layer = "surface"
        started = time.perf_counter()
        compiled = run_started = None
        with tracer.span("op", self.op) as attrs:
            attrs["job"] = job.name
            try:
                with deadline(self.budget()):
                    outcome, ty, ir = front_end(job, tracer, self.op)
                    compiled = time.perf_counter()
                    if outcome != job.compiles or (
                            job.type is not None and ty not in (None, job.type)):
                        tally.fail(layer, "wrong", f"front end gave {outcome} {ty}")
                        return
                    if outcome != "ok":
                        return
                    layer = "typecheck"
                    with tracer.span("typecheck.check_stmt", self.op):
                        checked = str(check_stmt((), ir))
                    if checked != ty:
                        tally.fail(layer, "wrong", f"check_stmt gave {checked}")
                        return
                    layer = LAYER[semantics]
                    run_started = time.perf_counter()
                    with tracer.span(f"{layer}.run", self.op):
                        obs = RUNNERS[semantics](ir, fuel=fuel, trace=hook)
                    ran = time.perf_counter()
            except RecursionError:
                tally.fail(layer, "RecursionError")
            except Deadline:
                tally.fail(layer, "deadline")
            except Exception as exc:  # any escape out of monoref is a failure
                tally.fail(layer, "exception", type(exc).__name__)
            else:
                result = render_observable(obs)
                good = result == job.expect[semantics]
                if not good:
                    tally.fail(layer, "wrong", f"{job.name} gave {result}")
                if hook is not None and good:
                    self.steps[(job.name, semantics, fuel)] = hook.steps
                steps = fuel if result == "timeout" else \
                    self.steps.get((job.name, semantics, fuel), 0)
                tally.runs.append(RunSample(
                    job.name, job.kernel, job.config, semantics, fuel, size,
                    steps if good else 0, ran - run_started))
                return
            finally:
                done = compiled is not None and layer != "surface"
                tally.compiles.append((
                    job.name, job.nodes if done else 0,
                    (compiled or time.perf_counter()) - started))
            if run_started is not None:  # the run itself failed
                tally.runs.append(RunSample(
                    job.name, job.kernel, job.config, semantics, fuel, size,
                    0, time.perf_counter() - run_started))

    def operations(self, limits: bool = False):
        """The rounds' operations, or with `limits` the known-limit ones."""
        for job in self.workload.jobs:
            for semantics in SEMANTICS:
                for fuel, size in job.fuels:
                    if ((semantics, fuel) in job.limits) == limits:
                        yield job, semantics, fuel, size

    def warm_up(self) -> None:
        """One untimed operation per program and semantics at its lowest
        fuel, which also counts the steps of runs that end in a value;
        then each known-limit operation once, into `self.limits`."""
        tally = Tally()
        for job in self.workload.jobs:
            fuel, size = job.fuels[0]
            for semantics in SEMANTICS:
                if (semantics, fuel) not in job.limits:
                    self.operation(job, semantics, fuel, size, tally,
                                   NoTracer(), RuleCounter())
        for job, semantics, fuel, size in self.operations(limits=True):
            self.operation(job, semantics, fuel, size, self.limits,
                           NoTracer(), None)

    def round(self, tally, tracer, counts) -> None:
        """Every operation once. The round's time is the operations' own,
        without the CLI runs and set-up probes interleaved with them.
        Before each operation, untimed, the collector is emptied and the
        program taken through the front end once. A long run leaves the
        caches full of its own data and the collector's counts anywhere:
        the front end after a 40k-step run took twice as long as one after
        another front end, and by up to 1.4x more or less from run to run,
        which made the loop workloads' compile timings follow the
        machine."""
        busy = 0.0
        for job, semantics, fuel, size in self.operations():
            self.tick()
            gc.collect()
            self.warm_front_end(job)
            hook = None if counts is None else RuleCounter()
            started = time.perf_counter()
            self.operation(job, semantics, fuel, size, tally, tracer, hook)
            busy += time.perf_counter() - started
            if hook is not None:
                counts[semantics].add(hook)
        tally.round_s.append(busy)

    def warm_front_end(self, job) -> None:
        try:
            with deadline(self.budget()):
                front_end(job, NoTracer(), 0)
        except Exception:
            pass  # the timed operation meets the same failure and counts it

    def schedule(self, start: float, seconds: float) -> None:
        """Spread the CLI runs and set-up probes evenly over the window, so
        that a slow spell of the machine touches few of them."""
        targets = self.workload.cli
        n = len(targets) * math.ceil(CLI_SPAWNS / len(targets))
        due = [(start + (i + 0.5) * seconds / n, i, targets[i % len(targets)])
               for i in range(n)]
        due += [(start + (i + 0.5) * seconds / SETUP_PROBES, n + i, None)
                for i in range(SETUP_PROBES)]
        self.due = sorted(due)

    def tick(self, flush: bool = False) -> None:
        """Run what the schedule has made due (everything, if `flush`),
        and the gauge if it has not run for GAUGE_EVERY."""
        if time.perf_counter() - self.gauge_at >= GAUGE_EVERY:
            started = time.perf_counter()
            gauge()
            self.gauge_s.append(time.perf_counter() - started)
            self.gauge_at = time.perf_counter()
        while self.due and (flush or self.due[0][0] <= time.perf_counter()):
            _, _, target = self.due.pop(0)
            if target is None:
                self.setups.append(setup_probe(self.workload.name, self.seed))
            else:
                self.cli_run(target, self.cli, self.cli_tracer)

    def cli_run(self, target, tally, tracer) -> None:
        self.op += 1
        tally.attempted += 1
        cmd = [sys.executable, "-m", "monoref.cli", "run", str(target.path),
               "--semantics", target.semantics]
        if target.fuel is not None:
            cmd += ["--fuel", str(target.fuel)]
        started = time.perf_counter()
        try:
            with tracer.span("cli.run", self.op):
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                      capture_output=True,
                                      timeout=max(self.budget(), 1e-3))
        except subprocess.TimeoutExpired:
            tally.fail("cli", "deadline")
            return
        except OSError as exc:
            tally.fail("cli", "exception", type(exc).__name__)
            return
        finally:
            tally.cli_s.append(time.perf_counter() - started)
        if proc.returncode == target.exit and proc.stdout.strip() == target.stdout:
            return
        if "RecursionError" in proc.stderr:
            tally.fail("cli", "RecursionError")
        elif "Traceback" in proc.stderr:
            tally.fail("cli", "exception", proc.stderr.strip().splitlines()[-1])
        else:
            tally.fail("cli", "wrong", f"{target.name} {target.semantics} gave "
                       f"{proc.stdout.strip()!r} exit {proc.returncode}")

    def sample_depths(self) -> dict:
        """Peak stack, heap and proxy depth, sampled by driving `step` and
        `step_g` from `initial_state` at each program's largest fuel."""
        peaks = Counter()
        for job in self.workload.jobs:
            if job.compiles != "ok":
                continue
            fuel = job.fuels[-1][0]
            for semantics in SEMANTICS:
                layer, stepper = LAYER[semantics], STEPPERS[semantics]
                if self.budget() <= 0:
                    return dict(peaks)
                try:
                    with deadline(self.budget()):
                        _, _, ir = front_end(job, NoTracer(), 0)
                        state = initial_state(ir)
                        for n in range(fuel):
                            if final(state):
                                break
                            state = stepper(state)
                            if len(state.stack) > peaks[f"{layer}.peak_stack"]:
                                peaks[f"{layer}.peak_stack"] = len(state.stack)
                            if layer == "guarded" and n % PROXY_SAMPLE_EVERY == 0:
                                depth = proxy_depth(v for _, v in state.env)
                                if depth > peaks[f"{layer}.peak_proxy_depth"]:
                                    peaks[f"{layer}.peak_proxy_depth"] = depth
                except (RecursionError, Deadline, Stuck, CastError):
                    pass  # the peaks up to the failure stand
        return dict(peaks)


# ---------------------------------------------------------------------------
# Set-up and interpreter probes

def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall seconds for a fresh interpreter to import monoref and build the
    workload's inputs, and the ms its `import monoref.cli` took."""
    cmd = [sys.executable, str(BENCH / "probe.py"), "--workload", workload,
           "--seed", str(seed)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    wall = time.perf_counter() - started
    return wall, json.loads(proc.stdout.splitlines()[-1])["import_ms"]


def bare_python_ms() -> float:
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - started)
    return 1e3 * statistics.median(times)


# ---------------------------------------------------------------------------
# Metrics

def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest of TAIL_PERCENTILES with at
    least TAIL_BEYOND samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND),
              default=50)
    return ordered[max(0, math.ceil(n * pct / 100) - 1)], float(pct)


def best_by_op(samples) -> list:
    """(median work, fastest wall time) of each operation or program over
    the rounds, from (key, work, seconds) samples. On a shared two-core
    machine an operation's time swings by up to 1.7x between seconds, and
    a slow spell can last a whole run: medians over the rounds followed
    it, and two runs of one seed read up to 0.3 apart. The fastest round
    is what monoref costs when it has a core to itself, and that repeats."""
    by_op = defaultdict(list)
    for key, work, seconds in samples:
        by_op[key].append((work, seconds))
    return [(statistics.median(w for w, _ in v), min(t for _, t in v))
            for v in by_op.values()]


def best_rate(samples) -> float:
    """Work per second of a round in which each operation is at its fastest."""
    best = best_by_op(samples)
    seconds = sum(t for _, t in best)
    return sum(w for w, _ in best) / seconds if seconds else 0.0


def goodput(runs) -> float:
    """Steps of runs that ended in their expected result per second of all
    the runs' wall time, each run at its fastest."""
    return best_rate(((r.job, r.semantics, r.fuel), r.steps, r.seconds)
                     for r in runs)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def known_limit(kind: str) -> bool:
    """Whether a failure of a known-limit operation is the one expected."""
    return kind == "RecursionError"


def failures_per_pass(rounds, limits: Tally) -> tuple[Counter, float]:
    """Failures by (layer, kind) and operations of one pass over the
    workload: a round, averaged over `rounds`, plus the limit probes. CLI
    runs are left out, as how many fall in a run depends on the machine."""
    n = sum(len(t.round_s) for t in rounds)
    failures = Counter(limits.failures)
    for t in rounds:
        for key, count in t.failures.items():
            failures[key] += count / n
    return failures, sum(t.attempted for t in rounds) / n + limits.attempted


def failed_share(rounds, limits: Tally) -> float:
    failures, attempted = failures_per_pass(rounds, limits)
    return sum(failures.values()) / attempted


def end_to_end(tally: Tally, cli: Tally, limits: Tally, setup_s: float,
               slowdown: float) -> dict:
    """From untraced rounds and the limit probes. Timings are divided and
    rates multiplied by `slowdown`, the gauge's best time over
    GAUGE_REF_S, so that they read as on the reference machine."""
    metrics = {
        "setup_s": (setup_s / slowdown, "s"),
        "compile_p50_us": (
            1e6 * statistics.median(tally.compile_s) / slowdown, "us"),
        "compile_tail_us": (1e6 * tail(tally.compile_s)[0] / slowdown, "us"),
        "compile_nodes_per_s": (best_rate(tally.compiles) * slowdown,
                                "nodes/s"),
        "cli_p50_ms": (1e3 * statistics.median(cli.cli_s) / slowdown, "ms"),
        "ok_share": (1 - failed_share([tally], limits), "share"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for semantics in SEMANTICS:
        runs = [r for r in tally.runs if r.semantics == semantics]
        by_size = {size: goodput([r for r in runs if r.size == size])
                   for size in (SMALL, LARGE)}
        metrics[f"{SHORT[semantics]}_steps_per_s"] = (
            goodput(runs) * slowdown, "steps/s")
        metrics[f"{SHORT[semantics]}_scaling"] = (
            _ratio(by_size[LARGE], by_size[SMALL]), "ratio")
    return metrics


def _p50_us(spans) -> float:
    return 1e6 * statistics.median([s.duration for s in spans]) if spans else 0.0


def _surface(tracer: Tracer, workload) -> dict:
    """Front-end timings from traced rounds; node, statement and cast
    counts over the workload's distinct programs."""
    parses = [s for s in tracer.named("surface.parse") if "nodes" in s.attrs]
    elaborations = [s for s in tracer.named("surface.elaborate")
                    if "nodes" in s.attrs]
    by_nodes = defaultdict(list)
    for s in elaborations:
        by_nodes[s.attrs["nodes"]].append(s.duration)
    us_per_node = {nodes: 1e6 * statistics.median(d) / nodes
                   for nodes, d in by_nodes.items()}
    growth = _ratio(us_per_node[max(us_per_node)], us_per_node[min(us_per_node)]) \
        if us_per_node else 0.0
    nodes = stmts = casts = 0
    for job in workload.jobs:
        nodes += job.nodes
        if job.compiles != "ok":
            continue
        try:
            s, c = ir_counts(elaborate(parse_surface(job.source)))
        except RecursionError:
            continue
        stmts, casts = stmts + s, casts + c
    return {
        "surface.parse_us_p50": (_p50_us(parses), "us"),
        "surface.parse_nodes_per_s": (_ratio(
            sum(s.attrs["nodes"] for s in parses),
            sum(s.duration for s in parses)), "nodes/s"),
        "surface.typecheck_us_p50": (
            _p50_us(tracer.named("surface.typecheck")), "us"),
        "surface.elaborate_us_p50": (_p50_us(elaborations), "us"),
        "surface.elaborate_growth": (growth, "ratio"),
        "surface.nodes": (nodes, "count"),
        "surface.ir_stmts": (stmts, "count"),
        "surface.casts_inserted": (casts, "count"),
        "typecheck.check_stmt_us_p50": (
            _p50_us(tracer.named("typecheck.check_stmt")), "us"),
    }


def _kernel_rates(tally: Tally) -> dict:
    out = {}
    for semantics in SEMANTICS:
        for kernel in KERNELS:
            for size in (SMALL, LARGE):
                runs = [r for r in tally.runs if r.kernel == kernel
                        and r.semantics == semantics and r.size == size]
                out[f"{LAYER[semantics]}.steps_per_s.{kernel}.{size}"] = (
                    goodput(runs), "steps/s")
    return out


def _lattice_slowdowns(tally: Tally) -> dict:
    """Wall time of each configuration at the small fuel over the static
    configuration's, per semantics."""
    out = {}
    for semantics in SEMANTICS:
        times = defaultdict(list)
        for r in tally.runs:
            if r.config is not None and r.semantics == semantics \
                    and r.size == SMALL:
                times[r.config].append(r.seconds)
        base = statistics.median(times["000"]) if times.get("000") else 0.0
        ratios = [_ratio(statistics.median(t), base) for t in times.values()]
        gmean = math.exp(statistics.fmean(map(math.log, ratios))) \
            if ratios and min(ratios) > 0 else 0.0
        out[f"lattice.{SHORT[semantics]}_slowdown_gmean"] = (gmean, "ratio")
        out[f"lattice.{SHORT[semantics]}_slowdown_max"] = (
            max(ratios, default=0.0), "ratio")
    return out


def per_layer(plain: Tally, traced: Tally, cli: Tally, limits: Tally,
              tracer: Tracer, counts: dict, peaks: dict, workload,
              import_ms: float, bare_ms: float, gauge_s: float) -> dict:
    """Raw, not scaled by the gauge; `bench.gauge_ms` is its best time."""
    metrics = _surface(tracer, workload)
    metrics.update(_kernel_rates(plain))
    metrics.update(_lattice_slowdowns(plain))
    for semantics, rules in (("monotonic", MACHINE_RULES),
                             ("guarded", GUARDED_RULES)):
        layer, c = LAYER[semantics], counts[semantics]
        for rule in rules:
            metrics[f"{layer}.rule.{rule}"] = (
                c.rules[rule] / len(traced.round_s), "count")
        metrics[f"{layer}.peak_heap"] = (c.peak_heap, "count")
        metrics[f"{layer}.peak_stack"] = (
            peaks.get(f"{layer}.peak_stack", 0), "count")
    metrics["machine.peak_worklist"] = (counts["monotonic"].peak_worklist,
                                        "count")
    metrics["guarded.peak_proxy_depth"] = (
        peaks.get("guarded.peak_proxy_depth", 0), "count")
    selves, total = tracer.self_times("op")
    for layer in ("surface", "typecheck", "machine", "guarded"):
        metrics[f"{layer}.self_share"] = (_ratio(selves.get(layer, 0), total),
                                          "share")
    metrics["bench.self_share"] = (_ratio(selves.get("op", 0), total), "share")
    per_pass, _ = failures_per_pass([plain, traced], limits)
    for layer in FAILURE_LAYERS:
        for kind in FAILURE_KINDS:
            # CLI failures per run, as their count is fixed per run; the
            # others per pass over the workload.
            n = cli.failures[(layer, kind)] if layer == "cli" \
                else per_pass[(layer, kind)]
            metrics[f"{layer}.failed.{kind}"] = (n, "count")
    metrics["bench.failed_share"] = (failed_share([plain, traced], limits),
                                     "share")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.bare_python_ms"] = (bare_ms, "ms")
    metrics["bench.gauge_ms"] = (1e3 * gauge_s, "ms")
    metrics["trace.overhead_share"] = (
        statistics.median(traced.round_s) / statistics.median(plain.round_s)
        - 1, "share")
    return metrics


# ---------------------------------------------------------------------------
# One run

def measure(name: str, seed: int, seconds: float, traced: bool):
    """Run one workload; returns (result dict, report lines)."""
    started = time.perf_counter()
    workdir = BENCH / ".work" / str(os.getpid())
    workload = WORKLOADS[name](seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for target in workload.cli:
            if target.source is not None:
                target.path.write_text(target.source, encoding="utf-8")
        tracer = Tracer()
        bench = Bench(workload, seed, started, tracer if traced else NoTracer())
        bench.warm_up()
        # Keep what exists now (modules, programs, the harness) out of the
        # collector's full passes, so that their cost inside an operation
        # does not depend on the benchmark's own state.
        gc.freeze()
        plain, traced_tally = bench.plain, Tally()
        counts = {s: Counts() for s in SEMANTICS}
        window = time.perf_counter()
        bench.schedule(window, seconds)
        while True:
            if traced and len(traced_tally.round_s) < len(plain.round_s):
                bench.round(traced_tally, tracer, counts)
            else:
                bench.round(plain, NoTracer(), None)
            done = time.perf_counter() - window >= seconds
            if (done and (traced_tally.round_s or not traced)) \
                    or time.perf_counter() >= bench.stop_at:
                break
        bench.tick(flush=True)
        window = time.perf_counter() - window
        setup_s = statistics.median(p[0] for p in bench.setups)
        slowdown = min(bench.gauge_s) / GAUGE_REF_S
        import_ms = statistics.median(p[1] for p in bench.setups)
        if traced:
            peaks = bench.sample_depths()
            metrics = per_layer(plain, traced_tally, bench.cli, bench.limits,
                                tracer, counts, peaks, workload, import_ms,
                                bare_python_ms(), min(bench.gauge_s))
        else:
            metrics = end_to_end(plain, bench.cli, bench.limits, setup_s,
                                 slowdown)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's files are still there
    # A known-limit operation that raises its known error has not failed;
    # it is counted in `ok_share` and the per-layer failures instead.
    total = Tally()
    for t in (plain, traced_tally, bench.cli, bench.limits):
        total.attempted += t.attempted
        total.failures.update(
            {k: n for k, n in t.failures.items()
             if t is not bench.limits or not known_limit(k[1])})
        total.errors.update(t.errors)
        total.wrong += t.wrong
    result = {
        "correct": total.wrong == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    report = _report(name, seed, window, plain, traced_tally, bench.cli,
                     bench.limits, total, tracer, workload, setup_s, import_ms)
    report.insert(1, f"gauge: best {1e3 * min(bench.gauge_s):.3f} ms of "
                  f"{len(bench.gauge_s)} runs, slowdown {slowdown:.3f}; the "
                  "detail lines are raw, the end-to-end metrics scaled")
    return result, report


def _report(name, seed, window, plain, traced, cli, limits, total, tracer,
            workload, setup_s, import_ms) -> list[str]:
    """Detail lines printed before the result: failures by kind, the tail
    percentile and, from traced rounds, per-file and per-kernel rows."""
    value, pct = tail(plain.compile_s)
    lines = [
        f"workload {name} seed {seed}: {len(plain.round_s)} untraced and "
        f"{len(traced.round_s)} traced rounds in {window:.1f} s; "
        f"{total.attempted} operations, {total.failed} failed",
        f"compile tail: p{pct:.2f} of {len(plain.compile_s)} programs = "
        f"{1e6 * value:.1f} us",
        f"setup {setup_s:.3f} s; import monoref.cli {import_ms:.1f} ms; "
        f"CLI p50 {1e3 * statistics.median(cli.cli_s):.1f} ms "
        f"over {len(cli.cli_s)} spawns, {cli.failed} failed",
        f"known limits: {limits.attempted} operations probed once, "
        f"{limits.failed} failed",
    ]
    for (layer, kind), n in sorted(limits.failures.items()):
        lines.append(f"known limit {layer}.{kind}: {n}")
    for (layer, kind), n in sorted(total.failures.items()):
        lines.append(f"failed {layer}.{kind}: {n}")
    for detail, n in sorted(total.errors.items()):
        lines.append(f"  {detail}: {n}")
    per_job = defaultdict(lambda: defaultdict(list))
    job_of = {}
    for s in tracer.spans:
        if s.name == "op":
            job_of[s.op] = s.attrs.get("job")
    for s in tracer.spans:
        if s.name != "op" and s.op in job_of:
            per_job[job_of[s.op]][s.name].append(s.duration)
    for job in workload.jobs:
        if job.name.startswith("corpus/") and job.name in per_job:
            cells = ", ".join(
                f"{stage} {1e6 * statistics.median(d):.0f}"
                for stage, d in per_job[job.name].items())
            lines.append(f"per-layer us {job.name}: {cells}")
    for semantics in SEMANTICS:
        for kernel in KERNELS:
            rates = {}
            for r in plain.runs:
                if r.kernel == kernel and r.semantics == semantics:
                    rates.setdefault(r.fuel, []).append(r)
            if len(rates) == 2:
                small, large = (goodput(rates[f]) for f in sorted(rates))
                lines.append(f"steps/s {kernel} {semantics}: {min(rates)}: "
                             f"{small:.0f}, {max(rates)}: {large:.0f}; "
                             f"ratio {_ratio(large, small):.3f}")
            elif rates:  # the large fuel is a known limit
                fuel, runs = rates.popitem()
                lines.append(f"steps/s {kernel} {semantics}: "
                             f"{fuel}: {goodput(runs):.0f}")
    return lines
