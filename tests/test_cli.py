import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from conftest import CORPUS, FULL_GRAMMAR, REPO, corpus_names, fixture_source, run_cli
from minicog import ComposeError, analyze_source, cli
from minicog.generator import generate
from minicog.ledger import SiMode


def test_analyze_example1_json_reports_il_3():
    proc = run_cli("analyze", "corpus/example1.mc", "--format", "json")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["i_l"] == 3
    assert obj["escim"] == 3


def test_analyze_unit_reports_escim_1():
    proc = run_cli("analyze", "corpus/unit.mc", "--format", "json")
    assert json.loads(proc.stdout)["escim"] == 1


def test_missing_file_exits_2():
    proc = run_cli("analyze", "missing.mc")
    assert proc.returncode == 2
    assert b"cannot read" in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "weyuker"])
def test_file_that_is_not_utf8_exits_2(tmp_path, command):
    (tmp_path / "bad.mc").write_bytes(b"int main() { int a = 1; }\n\xff\n")
    args = [str(tmp_path / "bad.mc")] if command == "analyze" else ["--corpus", str(tmp_path)]
    proc = run_cli(command, *args)
    assert proc.returncode == 2
    assert b"cannot read" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_unknown_flag_exits_2():
    proc = run_cli("analyze", "corpus/unit.mc", "--bogus")
    assert proc.returncode == 2


def test_unknown_emit_section_exits_2():
    proc = run_cli("analyze", "corpus/unit.mc", "--emit", "metrics,nonsense")
    assert proc.returncode == 2
    assert b"unknown emit sections: ['nonsense']" in proc.stderr
    assert proc.stdout == b""


def test_two_inputs_without_corpus_flag_exit_2():
    proc = run_cli("analyze", "corpus/unit.mc", "corpus/example1.mc")
    assert proc.returncode == 2
    assert b"analyze expects exactly one input file" in proc.stderr
    assert proc.stdout == b""


def test_weyuker_missing_corpus_directory_exits_2():
    proc = run_cli("weyuker", "--corpus", "nowhere")
    assert proc.returncode == 2
    assert b"corpus directory not found: nowhere" in proc.stderr
    assert proc.stdout == b""


def test_analysis_diagnostics_exit_1(tmp_path):
    bad = tmp_path / "bad.mc"
    bad.write_text("int main() { z = 1; }")
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    obj = json.loads(proc.stdout)
    diag = obj["diagnostics"][0]
    assert "z" in diag["message"]
    assert diag["span"]["line_start"] == 1


@pytest.mark.parametrize("source, message", [
    ("int main() { int i = 0; top: i++; top: i++; goto nowhere; }",
     "label 'top' already defined in this function"),
    ("int main() { int i = 0; top: i++; goto nowhere; }", "no label 'nowhere' in function 'main'"),
])
def test_label_errors_exit_1(tmp_path, source, message):
    bad = tmp_path / "labels.mc"
    bad.write_text(source)
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == message
    assert (diag["span"]["line_start"], diag["span"]["col_start"]) == (1, 35)


@pytest.mark.parametrize("source, message, col", [
    # C11 6.8.4.2p3: no two case constants of one switch have the same value
    ("int main() { int x = 1; switch (x) { case 1: x = 2; case 01: x = 3; } }",
     "duplicate case value 01 in this switch", 53),
    # ...and at most one default label
    ("int main() { int x = 1; switch (x) { default: x = 2; case 1: break; default: x = 3; } }",
     "multiple 'default' labels in this switch", 69),
], ids=["case", "default"])
def test_repeated_switch_labels_exit_1(tmp_path, source, message, col):
    bad = tmp_path / "switch.mc"
    bad.write_text(source)
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == message
    assert (diag["span"]["line_start"], diag["span"]["col_start"]) == (1, col)


@pytest.mark.parametrize("label, message", [
    # C11 6.8.4.2p3: a case label is an integer constant expression
    ("1.5", "a case label must be an integer"),
    ('"a"', "a case label must be an integer"),
    ("x", "expected a literal case label"),
], ids=["float", "string", "name"])
def test_case_label_that_is_not_an_integer_exits_1(tmp_path, label, message):
    bad = tmp_path / "switch.mc"
    bad.write_text(f"int main() {{ int x = 1; switch (x) {{ case {label}: break; }} }}")
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == message
    assert (diag["span"]["line_start"], diag["span"]["col_start"]) == (1, 43)


@pytest.mark.parametrize("source, message, col", [
    # C11 6.7.2.3p1: a struct's content is defined at most once
    ("struct P { int a; }; struct P { int b; }; int main() { P p; p.b = 1; print(p.b); }",
     "struct 'P' already defined", 22),
    # C11 6.7p3: one declaration of a field name per struct
    ("struct P { int a; int a; }; int main() { P p; p.a = 1; }",
     "field 'a' already declared in struct 'P'", 19),
])
def test_duplicate_record_definitions_exit_1(tmp_path, source, message, col):
    bad = tmp_path / "records.mc"
    bad.write_text(source)
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == message
    assert (diag["span"]["line_start"], diag["span"]["col_start"]) == (1, col)


@pytest.mark.parametrize("source, col", [
    ("int f; int f() { return 1; } int main() { f(); }", 1),
    ("int f() { return 1; } int main() { f(); } int f = 2;", 43),
], ids=["global-first", "function-first"])
def test_global_variable_and_function_of_one_name_exit_1(tmp_path, source, col):
    # C11 6.7p4: in either order, the diagnostic is at the global's declaration
    bad = tmp_path / "names.mc"
    bad.write_text(source)
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == "'f' is declared as both a global variable and a function"
    assert (diag["span"]["line_start"], diag["span"]["col_start"]) == (1, col)


@pytest.mark.parametrize("call, message, col", [
    ("f(1, 2, 3)", "function 'f' takes 2 arguments, 3 given", 46),
    ("g()", "function 'g' takes 1 argument, 0 given", 46),
], ids=["too-many", "too-few"])
def test_call_with_the_wrong_argument_count_exits_1(tmp_path, call, message, col):
    # C11 6.5.2.2p2: as many arguments as the function has parameters
    bad = tmp_path / "call.mc"
    bad.write_text("int f(int a, int b) { return a; } int g(int a) { return a; }\n"
                   f"int main() {{ int x = 1; x = f(x, 2) + g(x) + {call}; print(x, 2); x = read(); }}")
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == message
    assert (diag["span"]["line_start"], diag["span"]["col_start"]) == (2, col)


@pytest.mark.parametrize("source, message, col", [
    ("int main() { int x = read(x); return x; }", "function 'read' takes 0 arguments, 1 given", 22),
    ("int read() { return 1; } int main() { return read(); }",
     "'read' is a builtin function and cannot be defined", 1),
    ("int main() { print(1); return 0; } int print(int a) { return a; }",
     "'print' is a builtin function and cannot be defined", 36),
], ids=["read-with-an-argument", "function-named-read", "function-named-print"])
def test_builtins_are_called_as_declared_and_never_defined(tmp_path, source, message, col):
    bad = tmp_path / "builtin.mc"
    bad.write_text(source)
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == message
    assert (diag["span"]["line_start"], diag["span"]["col_start"]) == (1, col)


def _first_text_diagnostic(tmp_path, source: str) -> bytes:
    (tmp_path / "m.mc").write_text(source)
    proc = run_cli("analyze", "m.mc", cwd=tmp_path)
    assert proc.returncode == 1
    return proc.stdout


def test_variables_named_like_a_builtin_exit_1(tmp_path):
    # C11 6.7p4 at file scope; stricter than C for a local that is never called
    out = _first_text_diagnostic(
        tmp_path, "int read = 1; int main() { int print = read(); print(print); return read; }")
    assert out == b"m.mc\n  error: m.mc:1:1: 'read' is a builtin function and cannot be declared as a variable\n"


@pytest.mark.parametrize("source, line", [
    # C11 6.8.6.3p1: a break only in a loop or switch body
    ("int main() { break; return 0; }", b"m.mc:1:14: 'break' is not inside a loop or switch"),
    # C11 6.8.6.2p1: a continue only in a loop body, a switch is not enough
    ("int main() { int x = 1; switch (x) { case 1: continue; } return 0; }",
     b"m.mc:1:46: 'continue' is not inside a loop"),
], ids=["break", "continue"])
def test_break_or_continue_outside_what_it_leaves_exits_1(tmp_path, source, line):
    assert _first_text_diagnostic(tmp_path, source) == b"m.mc\n  error: " + line + b"\n"


@pytest.mark.parametrize("structs, line", [
    ("struct P { int a; P q; };", b"m.mc:1:19: struct 'P' contains itself"),
    ("struct A { B b; }; struct B { A a; };", b"m.mc:1:12: struct 'A' contains itself"),
    ("struct P { int a; P[] q; };", b"m.mc:1:19: struct 'P' contains itself"),
], ids=["direct", "mutual", "array"])
def test_struct_that_contains_itself_exits_1(tmp_path, structs, line):
    # C11 6.7.2.1p3: no member of a struct has the struct's own type, directly or not
    out = _first_text_diagnostic(tmp_path, structs + " int main() { return 0; }")
    assert out == b"m.mc\n  error: " + line + b"\n"


@pytest.mark.parametrize("source, line", [
    ("int main() { int n[]; n[0] = 1; return n[0]; }", b"m.mc:1:14: array 'n' has no size and no initializer"),
    ("struct P { int x; }; int main() { P qs[]; return 0; }",
     b"m.mc:1:35: array 'qs' has no size and no initializer"),
], ids=["int", "struct"])
def test_block_scope_array_without_size_or_initializer_exits_1(tmp_path, source, line):
    # C11 6.7p7: the array's type must be complete by the end of its declarator
    assert _first_text_diagnostic(tmp_path, source) == b"m.mc\n  error: " + line + b"\n"


def test_file_scope_array_without_size_is_a_tentative_definition(tmp_path):
    # C11 6.9.2p2: at file scope `int g[];` is completed to one element
    (tmp_path / "g.mc").write_text("int g[]; int main() { return 0; }")
    assert run_cli("analyze", "g.mc", cwd=tmp_path).returncode == 0


@pytest.mark.parametrize("source, line", [
    ("int main() { int x = 0; if (x) int y = 1; return x; }", b"m.mc:1:32: a declaration cannot be the body of 'if'"),
    ("int main() { int x = 0; if (x) x = 1; else int z; return x; }",
     b"m.mc:1:44: a declaration cannot be the body of 'else'"),
    ("int main() { int x = 0; while (x) float f; return x; }",
     b"m.mc:1:35: a declaration cannot be the body of 'while'"),
    ("int main() { int x = 0; do bool b; while (x); return x; }",
     b"m.mc:1:28: a declaration cannot be the body of 'do'"),
    ("struct P { int a; }; int main() { for (;;) P p; }", b"m.mc:1:44: a declaration cannot be the body of 'for'"),
], ids=["if", "else", "while", "do", "for"])
def test_declaration_as_a_selection_or_iteration_body_exits_1(tmp_path, source, line):
    # C11 6.8.4, 6.8.5: each body is a statement, and a declaration is not one (6.8)
    assert _first_text_diagnostic(tmp_path, source) == b"m.mc\n  error: " + line + b"\n"


def test_declaration_after_a_label_or_case_analyzes(tmp_path):
    # C23 (WG14 N2508) lets a label and a case arm precede a declaration
    (tmp_path / "d.mc").write_text("int main() { int x = 0; l: int y = 1; "
                                   "switch (x) { case 0: int z = 2; } return x; }")
    assert run_cli("analyze", "d.mc", cwd=tmp_path).returncode == 0


@pytest.mark.parametrize("source, line", [
    ("int a = 1; int b = a;", b"m.mc:1:20: initializer of global 'b' is not a constant"),
    ("int c = read();", b"m.mc:1:9: initializer of global 'c' is not a constant"),
    ("int a = 1; int d[2] = {1, ::a};", b"m.mc:1:27: initializer of global 'd' is not a constant"),
    ("int b = 1 + -(2 * q);", b"m.mc:1:19: undeclared name 'q'"),
], ids=["variable", "call", "initializer-list", "undeclared-name"])
def test_global_initializer_that_is_not_a_constant_exits_1(tmp_path, source, line):
    # C11 6.7.9p4: an initializer of an object with static storage is a constant expression
    src = source + " int main() { return 0; }"
    assert _first_text_diagnostic(tmp_path, src) == b"m.mc\n  error: " + line + b"\n"


def test_constant_global_initializers_analyze(tmp_path):
    (tmp_path / "c.mc").write_text("int e = -(1 + 2) * 3; bool t = !true; int a[2] = {1, -2}; "
                                   "int main() { return e; }")
    assert run_cli("analyze", "c.mc", cwd=tmp_path).returncode == 0


def test_assignment_to_a_call_result_exits_1(tmp_path):
    (tmp_path / "target.mc").write_text("int f() { return 1; } int main() { f()[0] = 2; return 0; }")
    proc = run_cli("analyze", "target.mc", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == b"target.mc\n  error: target.mc:1:36: invalid assignment target\n"


def test_nested_member_access_exits_1(tmp_path):
    (tmp_path / "nested.mc").write_text("struct P { int a; };\nint main() { P p; p.a.b = 1; }\n")
    proc = run_cli("analyze", "nested.mc", cwd=tmp_path)
    assert proc.returncode == 1
    assert b"nested.mc:2:19: nested member access is not supported" in proc.stdout
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("source, line", [
    ("int main() { int a = 0; a.x = 1; return a; }", b"m.mc:1:25: 'x' is not a member of 'a'"),
    ("struct P { int y; };\nint main() { P p; p.x = 1; return 0; }",
     b"m.mc:2:19: 'x' is not a member of 'p'"),
    ("struct E { };\nint main() { E e; e.x = 1; return 0; }", b"m.mc:2:19: 'x' is not a member of 'e'"),
], ids=["scalar", "struct", "empty-struct"])
def test_access_to_a_member_a_variable_lacks_exits_1(tmp_path, source, line):
    assert _first_text_diagnostic(tmp_path, source) == b"m.mc\n  error: " + line + b"\n"


_EMPTY_JSON = ('{\n  "file": "empty.mc",\n  "si_mode": "delta",\n  "diagnostics": [\n    {\n'
               '      "span": null,\n      "message": "no countable lines of code"\n    }\n  ]\n}\n')
_EMPTY_IN_CORPUS_JSON = (
    '{\n  "files": [\n    {\n      "file": "empty.mc",\n      "si_mode": "delta",\n'
    '      "diagnostics": [\n        {\n          "span": null,\n'
    '          "message": "no countable lines of code"\n        }\n      ]\n    }\n  ],\n'
    '  "totals": {\n    "files": 1,\n    "analyzed": 0,\n    "loc": 0,\n    "escim": 0\n  }\n}\n')


@pytest.mark.parametrize("args, expected", [
    ([], "empty.mc\n  error: no countable lines of code\n"),
    (["--corpus"], "empty.mc\n  error: no countable lines of code\n"
                   "totals   files 1   analyzed 0   loc 0   ESCIM 0\n"),
    (["--format", "json"], _EMPTY_JSON),
    (["--corpus", "--format", "json"], _EMPTY_IN_CORPUS_JSON),
], ids=["text", "corpus-text", "json", "corpus-json"])
def test_empty_file_diagnostic_bytes(tmp_path, monkeypatch, capsys, args, expected):
    # the one diagnostic without a span: no location in the text, a null span in JSON
    (tmp_path / "empty.mc").write_text("")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "empty.mc", *args]) == 1
    assert capsys.readouterr().out == expected


def test_input_ending_inside_a_switch_body_is_a_diagnostic(tmp_path):
    bad = tmp_path / "bad.mc"
    bad.write_text("int main() { int x = 1; switch (x) {")
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == "expected 'case' or 'default'"
    # the end-of-input point, as for any other expected token
    assert diag["span"] == {"file": str(bad), "line_start": 1, "col_start": 36,
                            "line_end": 1, "col_end": 36}


def test_non_decimal_digit_is_a_lex_diagnostic(tmp_path):
    bad = tmp_path / "digit.mc"
    bad.write_text("int main() { int a[²]; }", encoding="utf-8")
    proc = run_cli("analyze", str(bad), "--format", "json")
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    diag = json.loads(proc.stdout)["diagnostics"][0]
    assert diag["message"] == "illegal character '²'"
    assert (diag["span"]["line_start"], diag["span"]["col_start"]) == (1, 20)


def test_deeply_parenthesized_expression_analyzes(tmp_path):
    deep = tmp_path / "deep.mc"
    deep.write_text("int main() { int x = 1; x = " + "(" * 100 + "x" + ")" * 100 + "; }\n")
    proc = run_cli("analyze", str(deep))
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


def test_long_operator_chain_analyzes(tmp_path):
    chain = tmp_path / "chain.mc"
    chain.write_text("int main() { int x = 1; x = " + " + ".join(["x"] * 800) + "; return x; }\n")
    proc = run_cli("analyze", str(chain))
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("statement", ["x = {};", "print({});", "a[{}] = x;"],
                         ids=["assignment", "print-argument", "index"])
def test_ten_thousand_term_chain_analyzes(tmp_path, statement):
    # the parser builds a left-associative chain as deep as it is long
    chain = tmp_path / "chain.mc"
    terms = " + ".join(["x"] * 10_000)
    chain.write_text("int main() { int x = 1; int a[3]; " + statement.format(terms) + " return x; }\n")
    proc = run_cli("analyze", str(chain), "--format", "json")
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["diagnostics"] == []


# One program per nesting limit in README, at that limit, with an undeclared
# `y` innermost: (text before the nesting's line, the nesting, the expected
# span of `y`). The diagnostic must point at `y`, not end in a traceback.
_MAIN = "int main() { int x = 0;\n"
_CALLEE = "int f(int a) { return a; }\nint main() { int x = 0;\nint a[1];\n"
NESTING_LIMITS = {
    "parentheses": (_MAIN, "x = " + "(" * 245 + "y" + ")" * 245 + ";", "2:250"),
    "initializer-parentheses": ("int main() {\n", "int x = " + "(" * 244 + "y" + ")" * 244 + ";",
                                "2:253"),
    "calls": (_CALLEE, "x = " + "f(" * 326 + "y" + ")" * 326 + ";", "4:657"),
    "subscripts": (_CALLEE, "x = " + "a[" * 326 + "y" + "]" * 326 + ";", "4:657"),
    "blocks": (_MAIN, "if (x) {" * 326 + "y = 1;" + "}" * 326, "2:2609"),
    "braceless-ifs": (_MAIN, "if (x) " * 979 + "y = 1;", "2:6854"),
    "else-if-ladder": (_MAIN, "if (x) x = 0; " + "else if (x) x = 0; " * 977 + "else if (x) y = 1;",
                       "2:18590"),
    "prefix-operators": (_MAIN, "x = " + "!" * 980 + "y;", "2:985"),
    "assignment-chain": (_MAIN, "x = " * 981 + "y;", "2:3925"),
}


@pytest.mark.parametrize("shape", NESTING_LIMITS)
def test_undeclared_name_at_each_nesting_limit_has_its_span(tmp_path, shape):
    head, nesting, where = NESTING_LIMITS[shape]
    (tmp_path / "deep.mc").write_text(head + nesting + "\n}\n")
    proc = run_cli("analyze", "deep.mc", cwd=tmp_path)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == f"deep.mc\n  error: deep.mc:{where}: undeclared name 'y'\n".encode()


@pytest.mark.parametrize("nesting", ["if (x) {" * 326 + "x = 1;" + "}" * 326,
                                     "if (x) " * 979 + "x = 1;"], ids=["blocks", "braceless-ifs"])
def test_undeclared_name_after_an_item_at_a_nesting_limit_has_its_span(tmp_path, nesting):
    # the span's re-parse passes over the items before the node's, and the
    # first of them nests to README's limit: braceless ifs leave no spare frame
    deep = "int f(int x) {\n" + nesting + "\nreturn x;\n}\n"
    (tmp_path / "deep.mc").write_text(deep + "int g() { return 1; }\nint main() { y = 1; }\n")
    proc = run_cli("analyze", "deep.mc", cwd=tmp_path)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == b"deep.mc\n  error: deep.mc:6:14: undeclared name 'y'\n"


def _run_with_closed_stdout(*args: str) -> tuple[int, bytes]:
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: the child's first flush fails with EPIPE
    try:
        proc = subprocess.Popen([sys.executable, "-m", "minicog", *args],
                                cwd=REPO, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    _, stderr = proc.communicate(timeout=60)
    return proc.returncode, stderr


def test_closed_stdout_exits_2_without_traceback():
    code, stderr = _run_with_closed_stdout("analyze", "corpus/example1.mc", "--format", "json")
    assert code == 2
    assert b"Traceback" not in stderr
    assert b"BrokenPipeError" not in stderr


def test_closed_stdout_during_a_corpus_run_exits_2_without_traceback():
    # the reports are written one file at a time, so the pipe breaks mid-corpus
    code, stderr = _run_with_closed_stdout("analyze", "corpus", "--corpus", "--format", "json",
                                           "--emit", "metrics,erm,ledger,granules")
    assert code == 2
    assert b"Traceback" not in stderr
    assert b"BrokenPipeError" not in stderr


# A ladder of `else if` arms nests an `IfStmt` per arm, and so do braceless
# `if`s; in both, the innermost `if` is the 600th and its leaf is labelled by
# the path below (a braceless `if`'s header leaf comes before its inner `if`).
DEEP_STATEMENTS = {
    "else-if-ladder": ("int main() { int x = 1; if (x) x = 0; "
                       + " ".join(f"else if (x) x = {i};" for i in range(1, 600)) + " }\n"),
    "braceless-ifs": "int main() { int x = 1; " + "if (x) " * 600 + "x = 1; }\n",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("shape", sorted(DEEP_STATEMENTS))
def test_six_hundred_nested_statements_decompose(tmp_path, capsys, shape, fmt):
    path = tmp_path / "deep.mc"
    path.write_text(DEEP_STATEMENTS[shape])
    assert cli.main(["analyze", str(path), "--emit", "erm,granules", "--format", fmt]) == 0
    assert "G(2" + ",2" * 599 + ",1)" in capsys.readouterr().out


def test_corpus_file_that_is_not_utf8_exits_2_before_any_output(tmp_path):
    # the unreadable file sorts last: every other file is read, none analyzed or written
    for name in corpus_names()[:3]:
        (tmp_path / name).write_bytes((CORPUS / name).read_bytes())
    (tmp_path / "zz_bad.mc").write_bytes(b"int main() { int a = 1; }\n\xff\n")
    for fmt in ("json", "text"):
        proc = run_cli("analyze", str(tmp_path), "--corpus", "--format", fmt)
        assert proc.returncode == 2
        assert b"cannot read" in proc.stderr and b"zz_bad.mc" in proc.stderr
        assert b"Traceback" not in proc.stderr
        assert proc.stdout == b""


def test_comment_only_file_exits_1(tmp_path):
    empty = tmp_path / "comments.mc"
    empty.write_text("// nothing here\n")
    proc = run_cli("analyze", str(empty))
    assert proc.returncode == 1


@pytest.mark.parametrize("name", corpus_names())
def test_reports_match_frozen_sidecars(name):
    proc = run_cli("analyze", f"corpus/{name}", "--format", "json")
    assert proc.returncode == 0
    sidecar = (CORPUS / name.replace(".mc", ".expected.json")).read_bytes()
    assert proc.stdout == sidecar


def test_json_report_of_a_non_ascii_file_name_is_escaped_ascii(tmp_path):
    source = tmp_path / "prüfung_ñ_\u2028.mc"
    source.write_bytes((CORPUS / "example1.mc").read_bytes())
    proc = run_cli("analyze", str(source), "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout.isascii()
    assert b"pr\\u00fcfung_\\u00f1_\\u2028.mc" in proc.stdout
    assert proc.stdout == (json.dumps(json.loads(proc.stdout), indent=2) + "\n").encode()


def test_emit_sections_appear_in_json():
    proc = run_cli("analyze", "corpus/example6.mc", "--format", "json",
                   "--emit", "metrics,erm,ledger,granules")
    obj = json.loads(proc.stdout)
    assert obj["ledger"][0]["variable"] == "numbers"
    assert obj["granule_trees"][0]["function"] == "main"
    assert obj["functions"][0]["erm"][0] == "G1 -> G2"


def test_si_mode_flag_changes_value():
    delta = json.loads(run_cli("analyze", "corpus/example6.mc", "--format", "json").stdout)
    minmax = json.loads(run_cli("analyze", "corpus/example6.mc", "--format", "json",
                                "--si-mode", "minmax").stdout)
    assert (delta["escim"], minmax["escim"]) == (14, 8)


def test_weights_flag(tmp_path):
    table = tmp_path / "weights.json"
    table.write_text(json.dumps({"while": 4}))
    obj = json.loads(run_cli("analyze", "corpus/example6.mc", "--format", "json",
                             "--weights", str(table)).stdout)
    assert obj["escim"] == 18
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"while": 0}))
    assert run_cli("analyze", "corpus/example6.mc", "--weights", str(bad)).returncode == 2


def test_weight_table_that_is_a_json_array_is_a_usage_error(tmp_path):
    table = tmp_path / "array.json"
    table.write_text("[1]")
    proc = run_cli("analyze", "corpus/example1.mc", "--weights", str(table))
    assert proc.returncode == 2
    assert proc.stderr.endswith(b"minicog analyze: error: argument --weights: bad weight table: "
                                b"weight table file must hold a JSON object\n")
    assert proc.stdout == b""


@pytest.mark.parametrize("command", [["analyze", "corpus/example1.mc"], ["weyuker", "--count", "2"]])
def test_deeply_nested_weight_table_is_a_usage_error(tmp_path, command):
    table = tmp_path / "deep.json"
    table.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli(*command, "--weights", str(table))
    assert proc.returncode == 2
    assert b"bad weight table" in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


# 15,000 calls in one leaf: its weight is 2**15000, so its ESCIM has more
# digits than the interpreter converts to text by default (4,300)
LONG_CALLS = ("int f() { return 1; }\nint main() {\n  int x = 0;\n" + "  x = f();\n" * 15_000
              + "  return x;\n}\n")

needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this Python has no limit on int digits")


@contextlib.contextmanager
def any_digits():
    """Let the test itself read and print the long numbers it checks."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@needs_digit_limit
def test_exact_numbers_longer_than_the_digit_limit_are_printed(tmp_path, capsys):
    path = tmp_path / "long_calls.mc"
    path.write_text(LONG_CALLS)
    limit = sys.get_int_max_str_digits()
    outputs = {}
    for fmt in ("json", "text"):
        assert cli.main(["analyze", str(path), "--format", fmt]) == 0
        assert sys.get_int_max_str_digits() == limit  # lifted only for the call
        outputs[fmt] = capsys.readouterr().out
    rep = analyze_source(LONG_CALLS, str(path)).report(SiMode.DELTA, None)
    with any_digits():
        assert len(str(rep.escim)) > 4300
        obj = json.loads(outputs["json"])
        assert (obj["escim"], obj["efficiency"]) == (rep.escim, str(rep.efficiency))
        assert f"ESCIM {rep.escim}   E {rep.efficiency}\n" in outputs["text"]


@needs_digit_limit
def test_weyuker_over_a_fixture_with_a_number_longer_than_the_digit_limit(tmp_path, capsys):
    (tmp_path / "long_calls.mc").write_text(LONG_CALLS)
    argv = ["weyuker", "--corpus", str(tmp_path), "--count", "2", "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert re.search(r"\d{4301}", out)
    with any_digits():
        assert json.loads(out)["corpus"] == ["long_calls.mc"]


def test_array_size_longer_than_the_digit_limit_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "sizes.mc"
    path.write_text("int a[" + "9" * 5000 + "];\nint main() { return 0; }\n")
    assert cli.main(["analyze", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"{path}\n  error: {path}:1:7: array size longer than 4300 digits\n")
    path.write_text("int a[" + "9" * 4300 + "];\nint main() { return 0; }\n")
    assert cli.main(["analyze", str(path)]) == 0


def test_corpus_mode_aggregates():
    proc = run_cli("analyze", "corpus", "--corpus", "--format", "json")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["totals"]["files"] == len(corpus_names())
    assert [r["file"] for r in obj["files"]] == sorted(r["file"] for r in obj["files"])
    assert obj["totals"]["escim"] == sum(r["escim"] for r in obj["files"])


def _write_pinned_corpus(root):
    """The fixtures, generate(0..39), and generate(40..44) each with one ';' deleted."""
    root.mkdir()
    for name in corpus_names():
        (root / name).write_bytes((CORPUS / name).read_bytes())
    for seed in range(40):
        (root / f"gen_{seed:02d}.mc").write_bytes(generate(seed).encode())
    for seed in range(40, 45):
        text = generate(seed)
        cut = text.index(";", len(text) // 2)
        (root / f"broken_{seed:02d}.mc").write_bytes((text[:cut] + text[cut + 1:]).encode())


@pytest.mark.parametrize("fmt, digest", [
    ("json", "917ab3562a3ab288d163812afb139e2c7f0bfbc87658a1a98bb5cc3c3f4fa8f0"),
    ("text", "3975cc644d70607e47dd0e02260dede1e3b8c3e85550e6709505a642c88f83c2"),
])
def test_corpus_report_bytes_with_every_section_are_pinned(tmp_path, fmt, digest):
    # Pins every place a span or a token reaches the output: diagnostics, ledger, granules.
    _write_pinned_corpus(tmp_path / "pinned")
    proc = run_cli("analyze", "pinned", "--corpus", "--emit", "metrics,erm,ledger,granules",
                   "--format", fmt, cwd=tmp_path)
    assert proc.returncode == 1  # the five broken files end in diagnostics
    assert b"Traceback" not in proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("fmt, digest", [
    ("json", "a116babecf870a57f365ed6820d94bc10f11149b0f1eaa8bcd90adcc2facbd76"),
    ("text", "cb7262734387a75d623a14627b930fed1cc26fed0da843773687d0bdf80eef9d"),
])
def test_full_grammar_report_bytes_with_every_section_are_pinned(tmp_path, fmt, digest):
    # Pins the branches no fixture or generated program reaches: records and
    # members, labels and `goto`, the empty statement, float and bool types.
    (tmp_path / "full_grammar.mc").write_text(FULL_GRAMMAR, encoding="utf-8")
    proc = run_cli("analyze", "full_grammar.mc", "--emit", "metrics,erm,ledger,granules",
                   "--format", fmt, cwd=tmp_path)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_generate_output_reanalyzes_cleanly(tmp_path):
    proc = run_cli("generate", "--seed", "1")
    assert proc.returncode == 0
    out = tmp_path / "gen.mc"
    out.write_bytes(proc.stdout)
    assert run_cli("analyze", str(out)).returncode == 0


def test_generate_requires_seed():
    assert run_cli("generate").returncode == 2


def test_weyuker_text_and_json_shapes():
    proc = run_cli("weyuker", "--corpus", "corpus", "--seed", "5", "--count", "12",
                   "--format", "json")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert [row["property"] for row in obj["rows"]] == \
        ["1", "2", "3", "4", "5", "6a", "6b", "7", "8", "9"]
    assert obj["modes"] == ["delta", "minmax", "absolute"]
    text = run_cli("weyuker", "--corpus", "corpus", "--seed", "5", "--count", "12")
    assert text.returncode == 0
    assert b"property" in text.stdout.splitlines()[0]
    # the exact bytes, as the matrix printed them before its checkers scored all modes at once
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        "2d4774d29d5c0fdfd5b796921086d4865ba88a16563c7e609043967de582d060"
    assert hashlib.sha256(text.stdout).hexdigest() == \
        "a48c8ba12bb434cc2f66b34ed7e6f96c46cb73c6720dc12e7b2316f6571dfc20"


def test_benchmark_matrix_bytes_and_transformation_counts(monkeypatch, capsys):
    # the benchmark's weyuker workload, in-process: its pinned seed-0 digest, the
    # text form's, and how many programs the checks compose, rename and permute
    from minicog import weyuker

    calls = Counter()

    def counted(name):
        real = getattr(weyuker, name)

        def call(*args):
            calls[name] += 1
            try:
                return real(*args)
            except ComposeError:
                calls["ComposeError"] += 1
                raise
        monkeypatch.setattr(weyuker, name, call)

    for name in ("compose", "rename", "permute"):
        counted(name)
    monkeypatch.chdir(REPO)
    pinned = json.loads((REPO / "perfbench" / "digests.json").read_text())["sha256"]
    argv = ["weyuker", "--corpus", "corpus", "--seed", "0", "--count", "500", "--format"]
    assert cli.main(argv + ["json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pinned["weyuker_matrix"]
    assert calls == {"compose": 313, "ComposeError": 19, "rename": 200, "permute": 6}
    assert cli.main(argv + ["text"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "f714fe407ff8ddded131dfcd490155a0aa60cd8eaa1b9e016dd6c26b495ae123"


@pytest.fixture(scope="module")
def workloads():
    # perfbench's workload builders, loaded by path: `perfbench/` is not a package
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while building Workload
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["large_file", "corpus_batch"])
def test_benchmark_analyze_bytes(workloads, name, tmp_path, monkeypatch, capsys):
    # the benchmark's two analyze workloads at seed 0, in-process: their inputs
    # built as the harness builds them, under the same relative paths
    shutil.copytree(REPO / "corpus", tmp_path / "corpus")
    work = tmp_path / ".perfbench_work"
    work.mkdir()
    monkeypatch.chdir(tmp_path)
    workload = workloads.BUILDERS[name](tmp_path, work, 0, 1.0)
    assert cli.main(workload.argv) == workload.expected_exit
    pinned = json.loads((REPO / "perfbench" / "digests.json").read_text())["sha256"]
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pinned[name]


@pytest.mark.parametrize("source, where", [
    ("int main() { x = 1; }\n", b"bad.mc:1:14: "),  # UnresolvedName, with a span
    ("// only a comment\n", b"bad.mc: "),  # EmptyProgram, without one
])
def test_weyuker_fixture_that_does_not_analyze_exits_1(tmp_path, source, where):
    (tmp_path / "bad.mc").write_text(source)
    proc = run_cli("weyuker", "--corpus", str(tmp_path), "--count", "2")
    assert proc.returncode == 1
    assert where in proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stdout == b""


def test_weyuker_fixture_without_entry_function_is_skipped(tmp_path):
    (tmp_path / "lib.mc").write_text("int f() { return 1; }\n")
    proc = run_cli("weyuker", "--corpus", str(tmp_path), "--count", "2", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["corpus"] == ["lib.mc"]


@pytest.mark.parametrize("statement", ["x = {};", "print({});", "{};"],
                         ids=["assignment", "print-argument", "bare"])
def test_weyuker_over_a_ten_thousand_term_chain(tmp_path, statement):
    # the chain fixture is composed, printed, re-parsed and fingerprinted
    terms = " + ".join(["x"] * 10_000)
    (tmp_path / "chain.mc").write_text("int main() { int x = 1; " + statement.format(terms) + " }\n")
    (tmp_path / "unit.mc").write_text(fixture_source("unit.mc"))
    proc = run_cli("weyuker", "--corpus", str(tmp_path), "--seed", "0", "--count", "2",
                   "--format", "json")
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["corpus"] == ["chain.mc", "unit.mc"]


def test_weyuker_negative_count_is_a_usage_error():
    proc = run_cli("weyuker", "--count", "-3")
    assert proc.returncode == 2
    assert b"--count" in proc.stderr
    assert proc.stdout == b""


def test_weyuker_count_of_minus_one_names_the_bound():
    proc = run_cli("weyuker", "--count", "-1")
    assert proc.returncode == 2
    assert proc.stderr.endswith(b"minicog weyuker: error: argument --count: must be >= 0, got -1\n")
    assert proc.stdout == b""


def test_importing_the_cli_loads_neither_dataclasses_nor_the_weyuker_layer():
    # in a fresh interpreter: pytest itself has imported all four modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, minicog.cli; print(sorted({'dataclasses', 'inspect', 'minicog.weyuker', "
             "'minicog.generator'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_weyuker_single_mode_flag():
    proc = run_cli("weyuker", "--corpus", "corpus", "--seed", "5", "--count", "8",
                   "--si-mode", "delta", "--format", "json")
    obj = json.loads(proc.stdout)
    assert obj["modes"] == ["delta"]


@pytest.mark.parametrize("mode", ["delta", "minmax", "absolute"])
def test_weyuker_single_mode_cells_equal_that_column_of_the_full_matrix(mode):
    # the pool scores only the modes a run asks for
    args = ("weyuker", "--corpus", "corpus", "--seed", "5", "--count", "12", "--format", "json")
    full = json.loads(run_cli(*args).stdout)
    single = json.loads(run_cli(*args, "--si-mode", mode).stdout)
    assert single["modes"] == [mode]
    assert single["rows"] == [{"property": row["property"], mode: row[mode]} for row in full["rows"]]


# ------------------------------------------------ the cycle collector
#
# `cli.main` runs each command with the cycle collector off: reference
# counting must free everything a command makes, or its cyclic garbage grows
# with the input until the command ends.

EVERY_SECTION = ",".join(cli.EMIT_CHOICES)


def _cyclic_garbage(argv: list[str]) -> int:
    """The objects the cycle collector finds after one in-process
    `cli.main(argv)` with the collector off, its output discarded."""
    gc.collect()
    gc.disable()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            cli.main(argv)
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory) -> dict[str, tuple[str, str]]:
    """A small and a large value of each input the cases below vary."""
    root = tmp_path_factory.mktemp("cli_inputs")
    folders = {}
    for n in (2, 40):
        for kind in ("corpus", "unreadable"):
            folder = folders[kind, n] = root / f"{kind}_{n}"
            folder.mkdir()
            for seed in range(n):
                text = generate(seed)
                if seed % 5 == 0:  # one file in five does not parse
                    cut = text.index(";", len(text) // 2)
                    text = text[:cut] + text[cut + 1:]
                (folder / f"gen_{seed:02d}.mc").write_text(text)
        # sorted last, so every other file is read before the run exits 2
        (folders["unreadable", n] / "zz.mc").write_bytes(b"\xff\n")
    sizes = sorted(range(40), key=lambda seed: len(generate(seed)))
    return {
        "corpus": (str(folders["corpus", 2]), str(folders["corpus", 40])),
        "unreadable": (str(folders["unreadable", 2]), str(folders["unreadable", 40])),
        "count": ("10", "60"),
        "seed": (str(sizes[0]), str(sizes[-1])),  # the shortest and the longest program
    }


@pytest.mark.parametrize("command", [
    "analyze {corpus} --corpus --format json --emit " + EVERY_SECTION,
    "analyze {corpus} --corpus --format text --emit " + EVERY_SECTION,
    "analyze {unreadable} --corpus --format json",
    "weyuker --corpus corpus --count {count} --format json",
    "weyuker --corpus corpus --count {count} --format text",
    "generate --seed {seed}",
], ids=["corpus-json", "corpus-text", "unreadable-input", "weyuker-json", "weyuker-text",
        "generate"])
def test_no_cli_path_makes_cyclic_garbage_that_grows_with_its_inputs(cli_inputs, command,
                                                                      monkeypatch):
    monkeypatch.chdir(REPO)
    small, large = ([part.format(**{key: pair[i] for key, pair in cli_inputs.items()})
                     for part in command.split()] for i in (0, 1))
    _cyclic_garbage(small)  # warm the caches, so neither measured run pays for them
    assert _cyclic_garbage(large) == _cyclic_garbage(small)


def test_a_corpus_with_diagnostics_leaves_the_cyclic_garbage_of_one_file(cli_inputs):
    # what any command leaves, argparse's own, and nothing per report
    one_file = ["analyze", str(CORPUS / "example1.mc"), "--format", "json"]
    _cyclic_garbage(one_file)
    corpus = ["analyze", cli_inputs["corpus"][1], "--corpus", "--format", "json",
              "--emit", EVERY_SECTION]
    assert _cyclic_garbage(corpus) == _cyclic_garbage(one_file)


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        pass

    def fileno(self) -> int:  # `cli.main` points it at devnull
        return self.fd


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case, code, analyzed", [
    ("report", 0, 1), ("diagnostic", 1, 1), ("unreadable", 2, 0), ("usage", 2, 0),
    ("closed-stdout", 2, 1),
])
def test_main_runs_without_the_collector_and_restores_its_state(case, code, analyzed, enabled,
                                                                tmp_path, monkeypatch):
    (tmp_path / "broken.mc").write_text("int main() { int x = 1 }\n")
    argv = {
        "report": ["analyze", str(CORPUS / "example1.mc")],
        "diagnostic": ["analyze", str(tmp_path / "broken.mc")],
        "unreadable": ["analyze", str(tmp_path / "missing.mc")],
        "usage": ["analyze", "--no-such-flag"],
        "closed-stdout": ["analyze", str(CORPUS / "example1.mc"), "--format", "json"],
    }[case]
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    if case == "closed-stdout":
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
    seen = []
    analyze = cli.analyze_source

    def analyze_and_watch(source, file):
        seen.append(gc.isenabled())
        return analyze(source, file)

    monkeypatch.setattr(cli, "analyze_source", analyze_and_watch)
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            exit_code = cli.main(argv)
        except SystemExit as exc:  # argparse ends a usage error so
            exit_code = exc.code
        after = gc.isenabled()
    finally:
        gc.enable()
        os.close(fd)
    assert (exit_code, after, seen) == (code, enabled, [False] * analyzed)
