"""Command-line entry point.

Subcommands: `check` (typecheck and print the type), `compile` (print the
lowered IR), `run` (execute under either semantics), and `diff` (run both
semantics and report agreement).

Exit codes: 0 success or a value; 1 cast error; 2 stuck; 3 timeout;
4 type error; 5 parse error, unreadable input or a usage error;
6 resource failure: the input nests too deeply for the parser, the
elaborator (which is also the typechecker) or the type relations (one
function, `lang.meet`), or a reader closed standard output or error
early (a broken pipe, as from `| head`), which ends the command with no
traceback.
`--trace` writes one tab-separated record per machine transition to
standard error, in chunks, all before the result. The default fuel is
1000000 and can be set with --fuel, at least 1.
"""

from __future__ import annotations

import argparse
import os
import sys

from .guarded import run_g
from .lang import O_CASTERROR, O_STUCK, O_TIMEOUT, OCon, OPair, Observable
from .machine import DEFAULT_FUEL, format_trace, run
from .surface import (
    ParseError,
    const_to_sexpr,
    elaborate,
    parse_surface,
    stmt_to_sexpr,
    typecheck_surface,
)
from .typecheck import TypeCheckError

EXIT_OK = 0
EXIT_CAST_ERROR = 1
EXIT_STUCK = 2
EXIT_TIMEOUT = 3
EXIT_TYPE_ERROR = 4
EXIT_PARSE_ERROR = 5
EXIT_RESOURCE = 6


# The exit code of each observable that ends a run without a value.
_ERROR_EXITS = {O_CASTERROR: EXIT_CAST_ERROR, O_STUCK: EXIT_STUCK,
                O_TIMEOUT: EXIT_TIMEOUT}


def render_observable(obs: Observable) -> str:
    """Canonical rendering; injective up to address/function/injection
    opacity. A pair is walked with an explicit stack of observables and
    text, so its depth costs no Python frames."""
    text, todo = [], [obs]
    while todo:
        obs = todo.pop()
        if type(obs) is str:
            text.append(obs)
        elif isinstance(obs, OPair):
            todo += (")", obs.snd, " ", obs.fst, "(pair ")
        elif isinstance(obs, OCon):
            text.append(const_to_sexpr(obs.const))
        else:
            text.append(obs.text)
    return "".join(text)


def observable_exit_code(obs: Observable) -> int:
    return _ERROR_EXITS.get(obs, EXIT_OK)


def _load(path: str):
    """Parse and typecheck a source file; returns (surface AST, type)."""
    try:
        # Some editors start a file with a byte-order mark: skip it.
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE_ERROR) from None
    try:
        ast = parse_surface(text)
    except ParseError as exc:
        print(f"{path}:{exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE_ERROR) from None
    try:
        ty = typecheck_surface((), ast)
    except TypeCheckError as exc:
        print(f"{path}: type error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_TYPE_ERROR) from None
    return ast, ty


def cmd_check(args) -> int:
    _, ty = _load(args.file)
    print(ty)
    return EXIT_OK


def cmd_compile(args) -> int:
    ast, _ = _load(args.file)
    print(stmt_to_sexpr(elaborate(ast)))
    return EXIT_OK


# `--trace` writes its records this many at a time: standard error
# flushes every line, and unbuffered it writes a `print` in two calls.
_TRACE_CHUNK = 4096


def cmd_run(args) -> int:
    ast, _ = _load(args.file)
    runner = run_g if args.semantics == "guarded" else run
    lines = []

    def trace(record) -> None:
        lines.append(f"{format_trace(record)}\n")
        if len(lines) == _TRACE_CHUNK:
            sys.stderr.write("".join(lines))
            lines.clear()

    # A failed run still writes its trace, all of it before the result.
    try:
        obs = runner(elaborate(ast), fuel=args.fuel,
                     trace=trace if args.trace else None)
    finally:
        sys.stderr.write("".join(lines))
        sys.stderr.flush()
    print(render_observable(obs))
    return observable_exit_code(obs)


def cmd_diff(args) -> int:
    ast, _ = _load(args.file)
    program = elaborate(ast)
    mono = run(program, fuel=args.fuel)
    guard = run_g(program, fuel=args.fuel)
    print(f"monotonic: {render_observable(mono)}")
    print(f"guarded: {render_observable(guard)}")
    print("AGREE" if mono == guard else "DIFFER")
    return EXIT_OK


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("fuel must be at least 1")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_PARSE_ERROR; argparse's own code, 2,
    is EXIT_STUCK here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monoref",
        description="Typecheck, compile, and run gradually typed programs "
                    "under monotonic or guarded reference semantics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="typecheck a program")
    p_check.add_argument("file")
    p_check.set_defaults(handler=cmd_check)

    p_compile = sub.add_parser("compile", help="print the lowered IR")
    p_compile.add_argument("file")
    p_compile.set_defaults(handler=cmd_compile)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("file")
    p_run.add_argument("--semantics", choices=("monotonic", "guarded"),
                       default="monotonic")
    p_run.add_argument("--fuel", type=_positive_int, default=DEFAULT_FUEL)
    p_run.add_argument("--trace", action="store_true")
    p_run.set_defaults(handler=cmd_run)

    p_diff = sub.add_parser("diff", help="run both semantics and compare")
    p_diff.add_argument("file")
    p_diff.add_argument("--fuel", type=_positive_int, default=DEFAULT_FUEL)
    p_diff.set_defaults(handler=cmd_diff)

    return parser


def _dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE_ERROR
    except RecursionError:
        print(f"error: {args.file}: nesting too deep (RecursionError)",
              file=sys.stderr)
        return EXIT_RESOURCE


def _silence_output() -> None:
    """Point standard output and error at the null device, so that the
    interpreter's final flush of either cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    for stream in (sys.stdout, sys.stderr):
        try:
            os.dup2(devnull, stream.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # not a file descriptor: nothing the exit flushes to it
    os.close(devnull)


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        # Flush here rather than at exit, so that a closed pipe is
        # caught below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # A reader closed standard output or error early, as `head` does.
        _silence_output()
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
