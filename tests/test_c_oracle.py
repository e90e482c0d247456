"""The host's C compiler accepts every valid MiniC program.

Each fixture, ``FULL_GRAMMAR`` and ``generate(0..299)`` is translated by
``c_oracle.to_c`` and checked by one ``gcc -fsyntax-only -pedantic-errors``
call over all 313 files. Under ``-std=c2x`` every file compiles. Under
``-std=c11`` exactly the programs with an empty last ``switch`` arm fail, each
only with "label at end of compound statement": MiniC accepts that arm by
design, as C23 does (WG14 N2508). The tests skip when ``gcc`` is not on
``PATH``.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

from c_oracle import to_c
from conftest import FULL_GRAMMAR, corpus_pairs
from minicog import ast
from minicog.generator import generate
from minicog.parser import parse_source

pytestmark = pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not on PATH")

ERROR = re.compile(r"^(.+?\.c):\d+:\d+: error: (.*)$", re.M)


def _programs() -> list[tuple[str, str]]:
    return corpus_pairs() + [("full_grammar.mc", FULL_GRAMMAR)] + [
        (f"generate-{seed}.mc", generate(seed)) for seed in range(300)]


@pytest.fixture(scope="module")
def c_files(tmp_path_factory) -> list[Path]:
    directory = tmp_path_factory.mktemp("c_oracle")
    paths = []
    for name, source in _programs():
        path = directory / name.replace(".mc", ".c")
        path.write_text(to_c(source))
        paths.append(path)
    return paths


def _errors(paths: list[Path], std: str) -> tuple[int, dict[str, set[str]]]:
    """gcc's exit status, and each failing file's name with its error messages."""
    proc = subprocess.run(["gcc", "-fsyntax-only", f"-std={std}", "-pedantic-errors", *map(str, paths)],
                          capture_output=True, text=True)
    errors: dict[str, set[str]] = {}
    for path, message in ERROR.findall(proc.stderr):
        errors.setdefault(Path(path).name, set()).add(message)
    return proc.returncode, errors


def _ends_a_switch_with_an_empty_arm(source: str) -> bool:
    return any(node.__class__ is ast.SwitchStmt and node.arms and not node.arms[-1].body
               for node in parse_source(source).nodes)


def test_every_valid_program_compiles_as_c2x(c_files):
    assert len(c_files) == 313
    assert _errors(c_files, "c2x") == (0, {})


def test_under_c11_only_an_empty_last_switch_arm_fails(c_files):
    status, errors = _errors(c_files, "c11")
    assert status != 0 and [len(messages) for messages in errors.values()] == [1] * 14
    assert all("label at end of compound statement" in message
               for messages in errors.values() for message in messages)
    assert set(errors) == {name.replace(".mc", ".c") for name, source in _programs()
                           if _ends_a_switch_with_an_empty_arm(source)}
