"""The package keeps no public function, class, module-level name or method
that only tests read.

Every public module-level ``def``, ``class`` and assigned name in
``src/minicog/`` (the node classes of ``minicog.ast`` are assigned, one a
line), and every public method of a class, is named on some line of the
package outside its own definition. The one exception is ``cli.main``, the
entry point that the command line calls from outside.
"""

import ast as pyast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "minicog"
ENTRY_POINTS = {"cli.main"}


def _definitions(tree: pyast.Module):
    """(qualified name, node) of each public module-level definition and
    each public method, its name qualified by its class."""
    for node in tree.body:
        if isinstance(node, (pyast.FunctionDef, pyast.ClassDef)):
            names = [node.name]
        elif isinstance(node, pyast.Assign):
            names = [target.id for target in node.targets if isinstance(target, pyast.Name)]
        elif isinstance(node, pyast.AnnAssign) and isinstance(node.target, pyast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node
        if isinstance(node, pyast.ClassDef):
            for method in node.body:
                if isinstance(method, pyast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def _sources() -> dict[str, list[str]]:
    return {path.stem: path.read_text(encoding="utf-8").splitlines()
            for path in sorted(PACKAGE.glob("*.py"))}


def _unused(sources: dict[str, list[str]]) -> list[str]:
    unused = []
    for module, lines in sources.items():
        for qualified, node in _definitions(pyast.parse("\n".join(lines))):
            name = qualified.rpartition(".")[2]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            own = range(first - 1, node.end_lineno)  # 0-based indices of its own lines
            word = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
            named = any(word.search(line)
                        for other, other_lines in sources.items()
                        for i, line in enumerate(other_lines)
                        if not (other == module and i in own))
            if not named and f"{module}.{qualified}" not in ENTRY_POINTS:
                unused.append(f"{module}.{qualified}")
    return unused


def test_every_public_definition_is_named_by_the_package():
    sources = _sources()
    seen = {f"{module}.{qualified}" for module, lines in sources.items()
            for qualified, _ in _definitions(pyast.parse("\n".join(lines)))}
    # the view takes in the declared node classes, module constants and methods
    assert {"ast.Member", "ast.TypeRef", "ast.CHILD_FIELDS", "ledger.OccurrenceLedger.si",
            "granules.GranuleTree.walk", "analysis.Analysis.report"} <= seen
    assert _unused(sources) == []
