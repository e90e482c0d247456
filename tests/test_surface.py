"""The package keeps no public function or class that only tests read.

Every public module-level ``def`` and ``class`` in ``src/minicog/`` is named
on some line of the package outside its own definition and outside
``__init__.py``, which only re-exports. The one exception is ``cli.main``,
the entry point that the command line calls from outside.
"""

import ast as pyast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minicog"
ENTRY_POINTS = {"cli.main"}


def _unused() -> list[str]:
    sources = {path.stem: path.read_text(encoding="utf-8").splitlines()
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    unused = []
    for module, lines in sources.items():
        for node in pyast.parse("\n".join(lines)).body:
            if not isinstance(node, (pyast.FunctionDef, pyast.ClassDef)) or node.name.startswith("_"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = range(first - 1, node.end_lineno)  # 0-based indices of its own lines
            word = re.compile(rf"(?<!\w){re.escape(node.name)}(?!\w)")
            named = any(word.search(line)
                        for other, other_lines in sources.items()
                        for i, line in enumerate(other_lines)
                        if not (other == module and i in own))
            if not named and f"{module}.{node.name}" not in ENTRY_POINTS:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_definition_is_named_by_the_package():
    assert _unused() == []
