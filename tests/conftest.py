import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from minicog import ParseError, analyze_source, ast, cli, tokenize
from minicog.errors import AnalysisError
from minicog.parser import _Parser, node_span

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


def fixture_source(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


_ANALYSES = {}


def analyzed(name: str):
    """Analysis of a corpus fixture, cached for the whole test session."""
    if name not in _ANALYSES:
        _ANALYSES[name] = analyze_source(fixture_source(name), f"corpus/{name}")
    return _ANALYSES[name]


def corpus_names() -> list[str]:
    return sorted(p.name for p in CORPUS.glob("*.mc"))


def corpus_pairs() -> list[tuple[str, str]]:
    return [(name, fixture_source(name)) for name in corpus_names()]


def run_cli(*args: str, hash_seed: str | None = None, cwd: Path = REPO) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "minicog", *args],
        cwd=cwd, env=env, capture_output=True, text=False,
    )


def reference_ledger_rows(analysis) -> list[dict]:
    """The report's ``"ledger"`` section as objects, one dict per occurrence."""
    occ, variables = analysis.resolution.occurrences, analysis.resolution.variables
    rows = []
    for ordinal, vid, member, role, delta, icn, sicn in zip(
            range(len(occ)), occ.variable, occ.member, occ.role,
            analysis.ledger.delta, analysis.ledger.icn_after, analysis.ledger.sicn_after):
        var = variables[vid]
        rows.append(
            {
                "ordinal": ordinal,
                "variable": var.name if member is None else f"{var.name}.{member}",
                "scope": var.scope,
                "role": role,
                "delta": delta,
                "icn_after": icn,
                "sicn_after": sicn,
            }
        )
    return rows


def reference_granule_obj(granule) -> dict:
    """One granule of the report's ``"granule_trees"`` section as an object."""
    return {
        "label": granule.label,
        "kind": granule.kind,
        "stmts": list(granule.stmts),
        "children": [reference_granule_obj(c) for c in granule.children],
    }


def reference_head_obj(file: str, analysis, mode) -> dict:
    """A report's head as one object: the metrics, each function's leaf rows
    and ERM lines, and the (empty) diagnostics."""
    rep = analysis.report(mode, None)
    return {
        "file": file,
        "si_mode": mode.value,
        "loc": rep.loc,
        "i_l": rep.i_l,
        "escim": rep.escim,
        "efficiency": str(rep.efficiency),
        "functions": [
            {
                "name": fn.name,
                "recursive": fn.recursive,
                "escim": fn.escim,
                "granules": [row._asdict() for row in fn.leaves],
                "erm": list(fn.erm),
            }
            for fn in rep.functions
        ],
        "diagnostics": [],
    }


def reference_diagnostic_obj(file: str, mode, exc: AnalysisError) -> dict:
    """The report of a file that does not analyze, as one object."""
    span = exc.span
    return {
        "file": file,
        "si_mode": mode.value,
        "diagnostics": [{"span": span._asdict() if span else None, "message": str(exc)}],
    }


def reference_report_obj(file: str, analysis, mode, emit: set[str]) -> dict:
    """A whole report as one object: the head, then the sections built as
    dicts from the oracles above."""
    out = reference_head_obj(file, analysis, mode)
    if "ledger" in emit:
        out["ledger"] = reference_ledger_rows(analysis)
    if "granules" in emit:
        out["granule_trees"] = [
            {"function": gt.function, "recursive": gt.recursive,
             "granules": [reference_granule_obj(root) for root in gt.roots]}
            for gt in analysis.granules
        ]
    return out


def reference_report_text(obj: dict, emit: set[str]) -> list[str]:
    """A report's text lines, printed from the objects of
    ``reference_report_obj`` or ``reference_diagnostic_obj``: the head, then
    the ledger and granule sections."""
    lines = [obj["file"]]
    if obj.get("diagnostics"):
        for diag in obj["diagnostics"]:
            span = diag["span"]
            where = f"{span['file']}:{span['line_start']}:{span['col_start']}: " if span else ""
            lines.append(f"  error: {where}{diag['message']}")
        return lines
    lines.append(
        f"  si-mode {obj['si_mode']}   loc {obj['loc']}   I(L) {obj['i_l']}   "
        f"ESCIM {obj['escim']}   E {obj['efficiency']}"
    )
    for fn in obj["functions"]:
        flag = "  (recursive)" if fn["recursive"] else ""
        lines.append(f"  function {fn['name']}   ESCIM {fn['escim']}{flag}")
        for row in fn["granules"]:
            lines.append(
                f"    {row['label']:<12} {row['kind']:<8} w={row['weight']} si={row['si']} "
                f"anc={row['ancestor_product']} term={row['term']}"
            )
        if "erm" in emit:
            if fn["erm"]:
                lines.append("    erm:")
                lines.extend(f"      {fact}" for fact in fn["erm"])
            else:
                lines.append("    erm: (none)")
    if "ledger" in emit and "ledger" in obj:
        lines.append("  ledger:")
        for row in obj["ledger"]:
            lines.append(
                f"    #{row['ordinal']:<3} {row['variable']:<16} scope={row['scope']} "
                f"{row['role']:<17} delta={row['delta']} icn={row['icn_after']} sicn={row['sicn_after']}"
            )
    if "granules" in emit and "granule_trees" in obj:
        lines.append("  granules:")
        for gt in obj["granule_trees"]:
            lines.append(f"    {gt['function']}:")
            stack = [(root, 1) for root in reversed(gt["granules"])]
            while stack:
                node, depth = stack.pop()
                lines.append("    " + "  " * depth + f"{node['label']} [{node['kind']}] stmts={node['stmts']}")
                stack.extend((child, depth + 1) for child in reversed(node["children"]))
    return lines


def reference_analyze_output(inputs: list[str], fmt: str, mode, emit: set[str],
                              corpus: bool = True) -> str:
    """What ``analyze`` prints, assembled the old way: every file's report kept
    until the end as one object (``reference_report_obj``), then the whole
    payload through ``json.dumps(obj, indent=2)``, or each report's text lines
    (``reference_report_text``) followed by the totals line."""
    paths = map(str, cli._expand_corpus(inputs) if corpus else [Path(inputs[0])])
    reports = []
    for path in paths:
        try:
            analysis = analyze_source(Path(path).read_text(encoding="utf-8"), path)
            reports.append(reference_report_obj(path, analysis, mode, emit))
        except AnalysisError as exc:
            reports.append(reference_diagnostic_obj(path, mode, exc))
    if not corpus:
        rep = reports[0]
        if fmt == "json":
            return json.dumps(rep, indent=2) + "\n"
        return "".join(line + "\n" for line in reference_report_text(rep, emit))
    ok = [r for r in reports if not r.get("diagnostics")]
    totals = {
        "files": len(reports),
        "analyzed": len(ok),
        "loc": sum(r["loc"] for r in ok),
        "escim": sum(r["escim"] for r in ok),
    }
    if fmt == "json":
        return json.dumps({"files": reports, "totals": totals}, indent=2) + "\n"
    lines = [line for rep in reports for line in reference_report_text(rep, emit)]
    lines.append(f"totals   files {totals['files']}   analyzed {totals['analyzed']}   "
                 f"loc {totals['loc']}   ESCIM {totals['escim']}")
    return "".join(line + "\n" for line in lines)


# ------------------------------------------------ the full grammar

# One program that holds every concrete node class: a record with member
# reads and writes, an array with a `{...}` initializer and compound-assigned
# subscripts, `::` over a shadowed global, a forward and a backward `goto`,
# `switch` fallthrough, `do`, `for` and `continue`, unary `!` and `-`, calls,
# every literal kind and `float`/`bool` declarations. No fixture or generated
# program has records, members, labels, `goto` or an empty statement.
FULL_GRAMMAR = """\
struct Point {
    int x;
    int y;
};

int total = 0;
float scale = 1.5;
bool ready = true;

int sum(int[] a, int n) {
    int s = 0;
    int i = 0;
    do {
        s += a[i];
        i++;
    } while (i < n);
    return s;
}

int main() {
    Point p;
    p.x = 3;
    p.y = p.x * 2;
    int a[4] = {1, 2, 3, 4};
    a[0] += p.y;
    a[p.x - 1] -= 1;
    int total = ::total + 1;
    ::total = total;
    int k = 0;
    goto check;
top:
    k++;
check:
    if (k < 3) goto top;
    for (int j = 0; j < 4; j++) {
        if (a[j] % 2 == 0) continue;
        total = total + a[j];
    }
    switch (k) {
        case 1:
            total--;
        case 3:
            total *= 2;
            break;
        default:
            ;
    }
    while (!ready) {
        ready = !ready;
    }
    float f = -scale;
    bool done = false;
    print("total", total);
    print(sum(a, 4));
    return total;
}
"""


def reference_finalize(tree) -> list:
    """The nodes of ``tree`` in depth-first source order, found by reflection:
    every field of every node is read, and a value is a child if it is a
    ``Node`` or a list element that is one (the numbering walk before the
    child tables)."""
    nodes: list = []
    stack = tree.items[::-1]
    while stack:
        node = stack.pop()
        nodes.append(node)
        for name in reversed(type(node).__slots__):
            value = getattr(node, name)
            if isinstance(value, ast.Node):
                stack.append(value)
            elif isinstance(value, list):
                stack += [v for v in reversed(value) if isinstance(v, ast.Node)]
    return nodes


# ------------------------------------------------ reference tree queries

def parents_of(tree) -> dict[int, int]:
    """The parent nid of every node but the top-level items, derived from
    ``ast.child_nodes``: the tree itself keeps no parent links."""
    return {child.nid: nid for nid, node in enumerate(tree.nodes) for child in ast.child_nodes(node)}


def reference_occurrences(tree) -> list[tuple[int, int]]:
    """The (node nid, anchor nid) of every occurrence the resolver records, in
    ordinal order, derived from the tree alone. Walking the nodes in nid
    (pre-)order: a parameter gives two, anchored at its function; a
    declaration gives one, or two if it has an initializer or a ``{...}``
    list; each ``VarRef`` and ``GlobalRef`` gives one. The anchor is the
    nearest statement at or above the node, except that a for statement's
    init clause is anchored at the for statement."""
    parents = parents_of(tree)

    def anchor(nid: int) -> int:
        while not isinstance(tree.nodes[nid], ast.Stmt):
            nid = parents[nid]
        parent = tree.nodes[parents[nid]] if nid in parents else None
        if isinstance(parent, ast.ForStmt) and parent.init is tree.nodes[nid]:
            return parent.nid
        return nid

    out: list[tuple[int, int]] = []
    for nid, node in enumerate(tree.nodes):
        if isinstance(node, ast.Param):
            out += [(nid, parents[nid])] * 2
        elif isinstance(node, ast.DeclStmt):
            has_init = node.init is not None or node.init_list is not None
            out += [(nid, anchor(nid))] * (1 + has_init)
        elif isinstance(node, (ast.VarRef, ast.GlobalRef)):
            out.append((nid, anchor(nid)))
    return out


def occurrence_nodes(tree, resolution) -> list[int]:
    """The node nid of each occurrence, by ordinal, from
    ``reference_occurrences`` over ``tree``; asserts that the resolver
    recorded as many in ``resolution``."""
    nodes = [nid for nid, _ in reference_occurrences(tree)]
    assert len(nodes) == len(resolution.occurrences)
    return nodes


def scope_kinds(tree) -> list[str]:
    """The kind of every scope, indexed by scope id (``ScopedVariable.scope``):
    the global scope, then one per function, block, for statement (its init
    clause's scope) and switch body, in nid order. A function's own body
    block shares the function's scope."""
    bodies = {item.body.nid for item in tree.items if isinstance(item, ast.FuncDef)}
    kinds = ["global"]
    for nid, node in enumerate(tree.nodes):
        if isinstance(node, ast.FuncDef):
            kinds.append("function")
        elif isinstance(node, ast.Block) and nid not in bodies:
            kinds.append("block")
        elif isinstance(node, ast.ForStmt):
            kinds.append("for-init")
        elif isinstance(node, ast.SwitchStmt):
            kinds.append("switch-body")
    return kinds


def reference_string_literal_error(source: str, file: str = "<input>"):
    """What parsing ``source`` reports, with the string-literal rule checked
    the long way: the whole file is parsed and numbered without the rule,
    and then the first string literal in node order whose parent (from
    ``parents_of``) is not a ``print`` call is the error. Returns the
    (message, span) of the first error, or None."""
    try:
        tree = _Parser(tokenize(source, file)).parse_program().finalize()
    except ParseError as exc:
        return str(exc), exc.span
    parents = parents_of(tree)
    for nid, node in enumerate(tree.nodes):
        if isinstance(node, ast.Literal) and node.text.startswith('"'):
            parent = tree.nodes[parents[nid]] if nid in parents else None
            if not (isinstance(parent, ast.Call) and parent.callee == "print"):
                return "string literal only allowed as a print argument", node_span(tree, node)
    return None


# ------------------------------------------------ reference queries over a region
#
# A region is a range of occurrence ordinals, as ``OccurrenceLedger.si`` takes
# it. These helpers compute the paper's per-region quantities the long way.

_ANCHORS = weakref.WeakKeyDictionary()  # tree -> the anchor of each ordinal, from the oracle


def ordinals_of(analysis, anchors) -> range:
    """The ordinals of the occurrences that ``reference_occurrences`` anchors at
    any of ``anchors`` (statement ids), as a range; asserts that they are
    consecutive."""
    tree = analysis.tree
    if tree not in _ANCHORS:
        _ANCHORS[tree] = [anchor for _, anchor in reference_occurrences(tree)]
    anchors = set(anchors)
    ordinals = [i for i, anchor in enumerate(_ANCHORS[tree]) if anchor in anchors]
    if not ordinals:
        return range(0)
    region = range(ordinals[0], ordinals[-1] + 1)
    assert ordinals == list(region), "the anchors' occurrences are not consecutive"
    return region


def subtree(granule):
    """The granule and every granule below it, in pre-order."""
    stack = [granule]
    while stack:
        g = stack.pop()
        yield g
        stack += g.children[::-1]


def granule_region(analysis, granule) -> range:
    """The range spanning a granule's leaves: the ordinals of every statement
    it covers, its own header included."""
    return ordinals_of(analysis, {nid for g in subtree(granule) for nid in g.stmts})


def whole(ledger) -> range:
    return range(len(ledger.resolution.occurrences))


def sicn_max(ledger, vid, region) -> int:
    """Highest SICN among the variable's occurrences in the region; 0 if absent."""
    variable = ledger.resolution.occurrences.variable
    return max((ledger.sicn_after[i] for i in range(region.start, region.stop)
                if variable[i] == vid), default=0)


def icn_max_by_name(ledger, region) -> dict[str, int]:
    """Highest name-blind ICN per variable name in the region."""
    variable, variables = ledger.resolution.occurrences.variable, ledger.resolution.variables
    out: dict[str, int] = {}
    for i in range(region.start, region.stop):
        name = variables[variable[i]].name
        out[name] = max(out.get(name, 0), ledger.icn_after[i])
    return out


def info_icn(ledger, region) -> int:
    """The scope-blind baseline I(L): the sum over names of the highest ICN."""
    return sum(icn_max_by_name(ledger, region).values())


def reference_si(ledger, region, mode) -> int:
    """Scope information of a region, computed the long way: each variable's
    values in the region listed, and for delta mode the variable's SICN just
    before the region found by scanning every entry ahead of it."""
    from minicog.ledger import SiMode

    variable = ledger.resolution.occurrences.variable
    per_var: dict[int, list[int]] = {}
    for i in range(region.start, region.stop):
        per_var.setdefault(variable[i], []).append(ledger.sicn_after[i])
    total = 0
    for vid, values in per_var.items():
        if mode is SiMode.ABSOLUTE:
            total += max(values)
        elif mode is SiMode.MINMAX:
            total += max(values) - min(values)
        else:
            before = [ledger.sicn_after[i] for i in range(region.start) if variable[i] == vid]
            total += max(values) - (before[-1] if before else 0)
    return total


def granule_shape(granules) -> tuple:
    """Each granule as (label, arm starts, the shapes of its children)."""
    return tuple((g.label, tuple(g.arm_starts), granule_shape(g.children)) for g in granules)


def shape_from_erm(lines: list[str], leaf_labels: list[str]) -> tuple:
    """The granule tree, in ``granule_shape``'s form, rebuilt from a function's
    ERM lines and the labels of its leaf rows alone. Each ``P > C`` starts an
    arm of P at C and each ``A -> B`` puts B after A; the one granule that no
    line places is the first root. With no line, there is one root leaf or
    none, and only the leaf labels tell which."""
    arms: dict[str, list[str]] = {}
    after: dict[str, str] = {}
    placed: set[str] = set()
    labels = list(leaf_labels)
    for line in lines:
        left, rel, right = line.split(" ")
        assert right not in placed, line
        placed.add(right)
        if rel == "->":
            assert left not in after, line
            after[left] = right
        else:
            assert rel == ">", line
            arms.setdefault(left, []).append(right)
        labels += [left, right]
    firsts = [label for label in dict.fromkeys(labels) if label not in placed]
    assert len(firsts) <= 1, firsts

    def run(first: str) -> list[str]:
        out = [first]
        while out[-1] in after:
            out.append(after[out[-1]])
        return out

    def shape(run_labels: list[str]) -> tuple:
        out = []
        for label in run_labels:
            children: list[str] = []
            starts = []
            for first in arms.get(label, ()):
                starts.append(len(children))
                children += run(first)
            assert (label in leaf_labels) == (not children), label
            out.append((label, tuple(starts), shape(children)))
        return tuple(out)

    return shape(run(firsts[0])) if firsts else ()
