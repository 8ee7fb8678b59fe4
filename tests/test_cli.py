"""Command-line behavior: output, exit codes, tracing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monoref.cli import (
    EXIT_CAST_ERROR,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_RESOURCE,
    EXIT_STUCK,
    EXIT_TIMEOUT,
    EXIT_TYPE_ERROR,
    build_parser,
    main,
    observable_exit_code,
    render_observable,
)
from monoref.guarded import run_g
from monoref.lang import (
    MkPair,
    OCon,
    O_ADDR,
    O_CASTERROR,
    O_FUN,
    O_INJ,
    O_STUCK,
    O_TIMEOUT,
    OPair,
    SLet,
    SRet,
)
from monoref.machine import DEFAULT_FUEL, format_trace, observe, run
from monoref.surface import elaborate, parse_surface
from test_driver import REF_CAST_LOOP
from test_surface import LONG_PROGRAMS

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

LOOPING_PROGRAM = """
(let (r (ref (-> int int) (lambda (x : int) x)))
  (begin
    (:= r (lambda (x : int) ((! r) x)))
    ((! r) 0)))
"""


def corpus(name):
    return str(CORPUS / f"{name}.gtlc")


def test_render_observable():
    assert render_observable(OCon(42)) == "42"
    assert render_observable(OCon(-3)) == "-3"
    assert render_observable(OCon(True)) == "#t"
    assert render_observable(OCon(False)) == "#f"
    assert render_observable(OPair(OCon(1), O_FUN)) == "(pair 1 #fun)"
    assert render_observable(O_ADDR) == "#addr"
    assert render_observable(O_INJ) == "#inj"
    assert render_observable(O_STUCK) == "error: stuck"
    assert render_observable(O_TIMEOUT) == "timeout"
    assert render_observable(O_CASTERROR) == "error: cast"


def test_exit_code_mapping():
    assert observable_exit_code(OCon(1)) == EXIT_OK
    assert observable_exit_code(O_FUN) == EXIT_OK
    assert observable_exit_code(O_ADDR) == EXIT_OK
    assert observable_exit_code(O_INJ) == EXIT_OK
    assert observable_exit_code(OPair(O_INJ, OCon(False))) == EXIT_OK
    assert observable_exit_code(O_CASTERROR) == EXIT_CAST_ERROR
    assert observable_exit_code(O_STUCK) == EXIT_STUCK
    assert observable_exit_code(O_TIMEOUT) == EXIT_TIMEOUT


def test_check_prints_type(capsys):
    assert main(["check", corpus("ex2")]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "int"


def test_check_parse_error(capsys):
    assert main(["check", corpus("bad-paren")]) == EXIT_PARSE_ERROR
    assert "paren" in capsys.readouterr().err


def test_check_type_error(capsys):
    assert main(["check", corpus("ill-typed")]) == EXIT_TYPE_ERROR
    assert capsys.readouterr().err == (
        f"{corpus('ill-typed')}: type error: 2:1: succ expects int, "
        "argument has type bool\n")


@pytest.mark.parametrize("command", ["check", "compile"])
def test_a_non_ascii_digit_is_not_an_integer(tmp_path, capsys, command):
    # `\d` would read the Arabic-Indic digits as the literal 33.
    source = tmp_path / "digits.gtlc"
    source.write_text("(succ \u0663\u0663)", encoding="utf-8")
    assert main([command, str(source)]) == EXIT_TYPE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{source}: type error: 1:7: unbound variable '\u0663\u0663'\n")


def test_check_missing_file(capsys):
    assert main(["check", str(CORPUS / "no-such-file.gtlc")]) == \
        EXIT_PARSE_ERROR


def test_run_monotonic_cast_error(capsys):
    assert main(["run", corpus("ex1"), "--semantics", "monotonic"]) == \
        EXIT_CAST_ERROR
    assert capsys.readouterr().out.strip() == "error: cast"


def test_run_guarded_value(capsys):
    assert main(["run", corpus("ex1"), "--semantics", "guarded"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "#t"


def test_run_cycle(capsys):
    assert main(["run", corpus("cycle")]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "42"


def test_run_timeout(tmp_path, capsys):
    path = tmp_path / "loop.gtlc"
    path.write_text(LOOPING_PROGRAM)
    assert main(["run", str(path), "--fuel", "500"]) == EXIT_TIMEOUT
    assert capsys.readouterr().out.strip() == "timeout"


def test_fuel_defaults_to_the_machine_default():
    for command in (["run", "x.gtlc"], ["diff", "x.gtlc"]):
        assert build_parser().parse_args(command).fuel == DEFAULT_FUEL


def test_fuel_must_be_positive(capsys):
    import pytest

    with pytest.raises(SystemExit) as excinfo:
        main(["run", corpus("ex2"), "--fuel", "0"])
    assert excinfo.value.code == EXIT_PARSE_ERROR


def test_usage_errors_exit_as_parse_errors(capsys):
    # argparse exits 2 on a usage error, which is EXIT_STUCK here.
    import pytest

    for argv in (["run"], ["run", corpus("ex2"), "--semantics", "lazy"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_PARSE_ERROR
        assert "usage: monoref" in capsys.readouterr().err


def test_non_utf8_file_is_unreadable(tmp_path, capsys):
    path = tmp_path / "latin1.gtlc"
    path.write_bytes(b"(succ \xff)")
    assert main(["run", str(path)]) == EXIT_PARSE_ERROR
    assert f"error: cannot read {path}:" in capsys.readouterr().err


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    path = tmp_path / "bom.gtlc"
    path.write_bytes(b"\xef\xbb\xbf(succ 1)\n")
    assert main(["run", str(path)]) == EXIT_OK
    assert capsys.readouterr() == ("2\n", "")


# Python caps the digits of an int read from or printed to a string
# (from 3.10.7 on); the child interpreter is pinned to the default cap.
DIGIT_CAP = 4300
needs_digit_cap = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python does not cap the digits of an int")


def run_capped(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONINTMAXSTRDIGITS=str(DIGIT_CAP))
    return subprocess.run(
        [sys.executable, "-m", "monoref.cli", "run", str(path)],
        capture_output=True, text=True, env=env)


@needs_digit_cap
@pytest.mark.parametrize("digits", [5000, DIGIT_CAP])
def test_an_integer_literal_at_the_digit_cap_is_a_parse_error(digits,
                                                              tmp_path):
    # 5000 digits cannot be read as an int; the successor of 4300 nines
    # could not be printed.
    path = tmp_path / "huge.gtlc"
    path.write_text(f"(succ {'9' * digits})")
    result = run_capped(path)
    assert result.returncode == EXIT_PARSE_ERROR
    assert result.stdout == ""
    assert result.stderr == (f"{path}:1:7: integer literal of {digits} "
                             f"digits; at most {DIGIT_CAP - 1} are allowed\n")


@needs_digit_cap
def test_the_successor_of_the_longest_literal_prints(tmp_path):
    path = tmp_path / "long.gtlc"
    path.write_text(f"(succ {'9' * (DIGIT_CAP - 1)})")
    result = run_capped(path)
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout == "1" + "0" * (DIGIT_CAP - 1) + "\n"


def test_one_and_true_observe_and_render_apart():
    assert observe(1) != observe(True)
    assert render_observable(observe(1)) == "1"
    assert render_observable(observe(True)) == "#t"
    assert render_observable(observe(0)) == "0"
    assert render_observable(observe(False)) == "#f"


def test_a_deep_pair_observes_and_renders_without_recursion():
    # Each `let` pairs the last pair with a literal, on alternate sides:
    # the result nests 10,000 deep, and `observe` and `render_observable`
    # walk it with a stack.
    n = 10_000
    expected, prefixes, suffixes = OCon(0), [], []
    for k in range(n):  # in the order the lets run
        if k % 2:
            expected = OPair(OCon(True), expected)
            prefixes.append("(pair #t ")
            suffixes.append(")")
        else:
            expected = OPair(expected, OCon(1))
            prefixes.append("(pair ")
            suffixes.append(" 1)")
    program = SRet("p")
    for k in reversed(range(n)):
        pair = (MkPair(True, "p") if k % 2
                else MkPair("p", 1))
        program = SLet("p", pair, program)
    program = SLet("p", 0, program)
    text = "".join(reversed(prefixes)) + "0" + "".join(suffixes)
    for runner in (run, run_g):
        obs = runner(program)
        assert obs == expected
        assert render_observable(obs) == text


def test_deep_nesting_is_a_resource_failure(tmp_path, capsys):
    path = tmp_path / "deep.gtlc"
    path.write_text("(succ " * 3000 + "1" + ")" * 3000)
    assert main(["check", str(path)]) == EXIT_RESOURCE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: nesting too deep (RecursionError)\n"


def test_check_prints_the_type_of_400_nested_lambdas(tmp_path, capsys):
    # A type prints in a loop, so `check` reaches as far as the
    # elaborator, which is also the typechecker, does.
    path = tmp_path / "lambdas.gtlc"
    path.write_text("(lambda (x : int) " * 400 + "x" + ")" * 400)
    assert main(["check", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out == "(-> int " * 400 + "int" + ")" * 400 + "\n"


def test_compile_prints_the_ir_of_400_nested_lambdas(tmp_path, capsys):
    # The IR printer works from an explicit stack, lambda bodies
    # included, so `compile` reaches as far as `check` does.
    n = 400
    path = tmp_path / "lambdas.gtlc"
    path.write_text("(lambda (x : int) " * n + "x" + ")" * n)
    assert main(["compile", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    lets = [f"{'  ' * k}(let $t{n - 1 - k} (lambda (x : int)"
            for k in range(n)]
    returns = [f"{'  ' * (k + 1)}(return $t{n - 1 - k}))" + ")" * (k > 0)
               for k in reversed(range(n))]
    assert out == "\n".join(lets + ["  " * n + "(return x))"] + returns) + "\n"


def test_deep_proxy_chain_times_out(tmp_path, capsys):
    # The guarded semantics piles up proxies two per iteration and walks
    # them in a loop, so it runs out of fuel like the monotonic one.
    path = tmp_path / "ref-cast.gtlc"
    path.write_text(REF_CAST_LOOP)
    assert main(["run", str(path), "--semantics", "guarded",
                 "--fuel", "10000"]) == EXIT_TIMEOUT
    out, err = capsys.readouterr()
    assert out.strip() == "timeout"
    assert err == ""
    # The monotonic semantics retags the cell in place and times out.
    assert main(["run", str(path), "--fuel", "10000"]) == EXIT_TIMEOUT


def test_trace_streams_records(capsys):
    assert main(["run", corpus("cycle"), "--trace"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.strip() == "42"
    lines = [line for line in err.splitlines() if line]
    assert lines, "trace must produce records"
    for line in lines:
        index, rule, active_len, heap_size = line.split("\t")
        int(index), int(active_len), int(heap_size)
        assert rule
    assert [int(line.split("\t")[0]) for line in lines] == \
        list(range(len(lines)))


def test_trace_works_under_guarded_semantics(capsys):
    assert main(["run", corpus("cycle"), "--semantics", "guarded",
                 "--trace"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.strip() == "42"
    lines = [line for line in err.splitlines() if line]
    assert lines
    assert all(len(line.split("\t")) == 4 for line in lines)


@pytest.mark.parametrize("semantics", ["monotonic", "guarded"])
def test_the_trace_is_the_records_of_the_run_byte_for_byte(semantics,
                                                          tmp_path):
    # 10,000 records fill several chunks and part of one more; merged
    # into standard output, all of them come before the result.
    path = tmp_path / "loop.gtlc"
    path.write_text(LOOPING_PROGRAM)
    records = []
    runner = run_g if semantics == "guarded" else run
    assert runner(elaborate(parse_surface(LOOPING_PROGRAM)), fuel=10_000,
                  trace=records.append) == O_TIMEOUT
    trace = "".join(format_trace(record) + "\n" for record in records)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "monoref.cli", "run", str(path),
               "--semantics", semantics, "--fuel", "10000", "--trace"]
    result = subprocess.run(command, capture_output=True, env=env)
    assert result.returncode == EXIT_TIMEOUT
    assert result.stdout == b"timeout\n"
    assert result.stderr == trace.encode()
    merged = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env)
    assert merged.stdout == trace.encode() + b"timeout\n"


def test_diff_differ(capsys):
    assert main(["diff", corpus("ex1")]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "monotonic: error: cast"
    assert out[1] == "guarded: #t"
    assert out[2] == "DIFFER"


def test_diff_agree(capsys):
    assert main(["diff", corpus("ex2")]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "monotonic: 4"
    assert out[1] == "guarded: 4"
    assert out[2] == "AGREE"


def test_diff_ex3(capsys):
    assert main(["diff", corpus("ex3")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[2] == "DIFFER"


def test_compile_roundtrip(capsys):
    assert main(["compile", corpus("ex2")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("(") == out.count(")")
    assert "(alloc" in out and "(tailcall" in out


@pytest.mark.parametrize("name", LONG_PROGRAMS)
def test_compile_prints_long_programs(name, tmp_path, capsys):
    # The IR printer follows statement chains in a loop, so `compile`
    # reaches as far as `run` does.
    source, expected = LONG_PROGRAMS[name]
    path = tmp_path / f"{name}.gtlc"
    path.write_text(source)
    assert main(["compile", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and out.endswith(")\n")
    assert out.count("(") == out.count(")")
    assert main(["run", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == expected + "\n"


def test_compile_propagates_type_error(capsys):
    assert main(["compile", corpus("ill-typed")]) == EXIT_TYPE_ERROR


def test_diff_propagates_parse_error(capsys):
    assert main(["diff", corpus("bad-paren")]) == EXIT_PARSE_ERROR
    assert main(["diff", corpus("ill-typed")]) == EXIT_TYPE_ERROR


def test_console_script_entry():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "monoref.cli", "run", corpus("ex2")],
        capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_OK
    assert result.stdout.strip() == "4"


@pytest.mark.parametrize("closed", ["stdout", "stderr", "stdout-at-exit"])
def test_a_closed_pipe_is_a_resource_failure(closed, tmp_path):
    # `monoref run --trace loop.gtlc 2>&1 | head -1` closes the pipe on
    # standard output after one record, and `2>&1 >out | head -1` the
    # one on standard error. Untraced, the only write is the result,
    # which a pipe buffers until the command flushes it.
    path = tmp_path / "loop.gtlc"
    path.write_text(LOOPING_PROGRAM)
    other = tmp_path / "other"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "monoref.cli", "run", str(path)]
    with open(other, "wb") as sink:
        if closed == "stdout":
            proc = subprocess.Popen(command + ["--trace"], env=env,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT)
            pipe = proc.stdout
        elif closed == "stderr":
            proc = subprocess.Popen(command + ["--trace"], env=env,
                                    stdout=sink, stderr=subprocess.PIPE)
            pipe = proc.stderr
        else:
            proc = subprocess.Popen(command + ["--fuel", "100"], env=env,
                                    stdout=subprocess.PIPE, stderr=sink)
            pipe = proc.stdout
        record = b"0\tlet\t0\t0\n" if closed != "stdout-at-exit" else b""
        try:
            if record:
                assert pipe.readline() == record
        finally:
            pipe.close()
            code = proc.wait(timeout=120)
    assert code == EXIT_RESOURCE
    assert other.read_bytes() == b""


def test_cli_import_skips_dataclasses_inspect_and_typing():
    # Every command pays for what importing the CLI loads.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, monoref.cli; print(sorted({'dataclasses', 'inspect', "
         "'typing'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# Grammar tokens, so that generated soups reach the parser's and the
# checker's error paths and sometimes form a program.
TOKENS = ["(", ")", "(", ")", "let", "lambda", ":", "ref", "!", ":=",
          "cast", "pair", "fst", "snd", "begin", "succ", "prev", "zero?",
          "->", "pair-ty", "ref-ty", "int", "bool", "dyn", "#t", "#f", "0",
          "1", "-3", "x", "y", "r", "$t0", ";", "\n"]
SOURCES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(TOKENS), max_size=60).map(
        lambda tokens: " ".join(tokens).encode()))
COMMANDS = [["check"], ["compile"],
            ["run", "--fuel", "500", "--semantics", "monotonic"],
            ["run", "--fuel", "500", "--semantics", "guarded"],
            ["diff", "--fuel", "500"]]


@settings(max_examples=150, deadline=None)
@given(source=SOURCES)
def test_any_input_ends_in_a_documented_exit_code(source, tmp_path_factory):
    path = tmp_path_factory.mktemp("input") / "input.gtlc"
    path.write_bytes(source)
    for command in COMMANDS:
        code = main([command[0], str(path), *command[1:]])
        assert code in range(EXIT_OK, EXIT_RESOURCE + 1), (command, code)
