"""Command line front end.

Subcommands:
    analyze   — metrics report for one file, or aggregated over a corpus
    weyuker   — property conformance matrix (verdicts are data, not failures)
    generate  — emit a seeded random program

Exit codes: 0 success, 1 analysis diagnostics, 2 I/O or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .analysis import Analysis, analyze_source
from .errors import AnalysisError, EmptyProgram
from .generator import generate
from .granules import BcsKind
from .ledger import SiMode
from .metrics import MetricsReport, WeightTable
from .weyuker import MatrixResult, run_matrix

EMIT_CHOICES = ("metrics", "erm", "ledger", "granules")


def _weight_table(path: str) -> WeightTable:
    try:
        return WeightTable.from_file(path)
    # json.JSONDecodeError is a ValueError; a deeply nested file raises RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"bad weight table: {exc}") from exc


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minicog", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="compute metrics for MiniC sources")
    analyze.add_argument("inputs", nargs="+", help="source file (or directories with --corpus)")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--si-mode", choices=[m.value for m in SiMode], default="delta")
    analyze.add_argument("--weights", type=_weight_table, help="JSON weight table file")
    analyze.add_argument("--emit", default="metrics",
                         help="comma-separated sections: metrics,erm,ledger,granules")
    analyze.add_argument("--corpus", action="store_true",
                         help="treat inputs as a corpus (directories expand to *.mc) and aggregate")

    weyuker = sub.add_parser("weyuker", help="run the property conformance matrix")
    weyuker.add_argument("--corpus", default=None,
                         help="directory of fixture programs (default: ./corpus if present)")
    weyuker.add_argument("--seed", type=int, default=0)
    weyuker.add_argument("--count", type=_count, default=500, help="number of generated programs")
    weyuker.add_argument("--si-mode", choices=[m.value for m in SiMode], default=None,
                         help="restrict to one mode (default: all three)")
    weyuker.add_argument("--weights", type=_weight_table, help="JSON weight table file")
    weyuker.add_argument("--format", choices=("text", "json"), default="text")

    gen = sub.add_parser("generate", help="emit a seeded random program")
    gen.add_argument("--seed", type=int, required=True)

    return parser


# ------------------------------------------------------------------ reports

def report_obj(analysis: Analysis, mode: SiMode, weights: WeightTable | None) -> MetricsReport:
    """A report's head: the metrics, each function's leaf rows and ERM lines.
    The ledger and granule sections are written after it, straight from the
    analysis (see "sections" below). It is `analysis.report`, kept as the one
    call per analyzed file at which the benchmark's trace and the tests see
    report building start."""
    return analysis.report(mode, weights)


def _report_text(file: str, mode: SiMode, rep: MetricsReport, emit: set[str]) -> list[str]:
    lines = [file, f"  si-mode {mode.value}   loc {rep.loc}   I(L) {rep.i_l}   "
                   f"ESCIM {rep.escim}   E {rep.efficiency}"]
    for fn in rep.functions:
        flag = "  (recursive)" if fn.recursive else ""
        lines.append(f"  function {fn.name}   ESCIM {fn.escim}{flag}")
        for row in fn.leaves:
            lines.append(
                f"    {row.label:<12} {row.kind:<8} w={row.weight} si={row.si} "
                f"anc={row.ancestor_product} term={row.term}"
            )
        if "erm" in emit:
            if fn.erm:
                lines.append("    erm:")
                lines.extend(f"      {fact}" for fact in fn.erm)
            else:
                lines.append("    erm: (none)")
    return lines


# ------------------------------------------------------------------ JSON text
#
# A report's JSON is the text of `json.dumps(obj, indent=2)` on the dict it
# would be, nested `depth` levels deep in a corpus payload. Every object of a
# report, a diagnostic report or the totals is written by a template from
# `_object`, and every array by `_json_array`: with `indent` set, `json.dumps`
# runs the pure-Python encoder, whose closures make a reference cycle on every
# call. Only the Weyuker matrix, one object per command, goes through
# `json.dumps`.

@functools.cache
def _newline(depth: int) -> str:
    """A newline and the indent of an item nested `depth` levels deep."""
    return "\n" + "  " * depth


@functools.cache
def _object(depth: int, *fields: str) -> str:
    """The template of an object nested `depth` levels deep whose items are
    `fields`, each a quoted key, a colon and the `%` slot of its value."""
    key = _newline(depth + 1)
    return "{" + key + ("," + key).join(fields) + _newline(depth) + "}"


def _json_array(items: list[str], depth: int) -> str:
    """The array of the JSON texts `items`, nested `depth` levels deep."""
    if not items:
        return "[]"
    item = _newline(depth + 1)
    return "[" + item + ("," + item).join(items) + _newline(depth) + "]"


def _diagnostic_json(file: str, mode: SiMode, exc: Exception, depth: int) -> str:
    """The report of a file that does not analyze, nested `depth` levels deep:
    its one diagnostic, with the span if `exc` has one."""
    quote, span = encode_basestring_ascii, getattr(exc, "span", None)
    where = "null" if span is None else _object(
        depth + 3, '"file": %s', '"line_start": %d', '"col_start": %d', '"line_end": %d',
        '"col_end": %d') % (quote(span.file), *span[1:])
    diagnostic = _object(depth + 2, '"span": %s', '"message": %s') % (where, quote(str(exc)))
    return _object(depth, '"file": %s', '"si_mode": %s', '"diagnostics": %s') % (
        quote(file), quote(mode.value), _json_array([diagnostic], depth + 1))


def _report_json(file: str, mode: SiMode, rep: MetricsReport, sections: list[str],
                 depth: int) -> str:
    """A report nested `depth` levels deep: its head, written from `rep`,
    with the JSON text of its `sections` after the empty diagnostics."""
    quote = encode_basestring_ascii
    function = _object(depth + 2, '"name": %s', '"recursive": %s', '"escim": %d',
                       '"granules": %s', '"erm": %s')
    row = _object(depth + 4, '"label": %s', '"kind": %s', '"weight": %d', '"si": %d',
                  '"ancestor_product": %d', '"term": %d')
    functions = [
        function % (
            quote(fn.name), "true" if fn.recursive else "false", fn.escim,
            _json_array([row % (quote(r.label), quote(r.kind), *r[2:]) for r in fn.leaves],
                        depth + 3),
            _json_array(list(map(quote, fn.erm)), depth + 3))
        for fn in rep.functions
    ]
    head = _object(depth, '"file": %s', '"si_mode": %s', '"loc": %d', '"i_l": %d',
                   '"escim": %d', '"efficiency": %s', '"functions": %s', '"diagnostics": []%s')
    return head % (quote(file), quote(mode.value), rep.loc, rep.i_l, rep.escim,
                   quote(str(rep.efficiency)), _json_array(functions, depth + 1), "".join(sections))


# ------------------------------------------------------------------ sections
#
# `--emit ledger` adds one row per occurrence and `--emit granules` one object
# per granule: most of a report. They are written from the analysis's columns
# and granule trees.

_KIND_JSON = {kind: encode_basestring_ascii(kind.value) for kind in BcsKind}


def _row_name(variables: dict, vid: int, member: str | None) -> str:
    """What a ledger row shows as its variable: the name, or `name.member`."""
    name = variables[vid].name
    return name if member is None else f"{name}.{member}"


def _write_ledger(analysis: Analysis, depth: int, out: list[str]) -> None:
    """Append a report's `"ledger"` section: one row per occurrence."""
    occ, led, variables = analysis.resolution.occurrences, analysis.ledger, analysis.resolution.variables
    keys = list(zip(occ.variable, occ.member))
    names = {pair: encode_basestring_ascii(_row_name(variables, *pair)) for pair in set(keys)}
    roles = {role: encode_basestring_ascii(role) for role in set(occ.role)}
    row = _object(depth + 2, '"ordinal": %d', '"variable": %s', '"scope": %d', '"role": %s',
                  '"delta": %d', '"icn_after": %d', '"sicn_after": %d')
    rows = list(map(row.__mod__, zip(
        range(len(keys)), map(names.__getitem__, keys),
        [variables[vid].scope for vid in occ.variable], map(roles.__getitem__, occ.role),
        led.delta, led.icn_after, led.sicn_after)))
    out.append(f',{_newline(depth + 1)}"ledger": ' + _json_array(rows, depth + 1))


def _ledger_text(analysis: Analysis, lines: list[str]) -> None:
    occ, led, variables = analysis.resolution.occurrences, analysis.ledger, analysis.resolution.variables
    lines.append("  ledger:")
    for ordinal, vid, member, role, delta, icn, sicn in zip(
            range(len(occ)), occ.variable, occ.member, occ.role,
            led.delta, led.icn_after, led.sicn_after):
        lines.append(f"    #{ordinal:<3} {_row_name(variables, vid, member):<16} "
                     f"scope={variables[vid].scope} {role:<17} delta={delta} icn={icn} sicn={sicn}")


def _write_granules(granules, depth: int, out: list[str]) -> None:
    """Append the text of the list `granules` nested `depth` levels deep. The
    walk is an explicit stack of texts and of (granules, depth, closing text)
    lists still to write. An item's text is its template split at the slot of
    its children: the head before, its closing brace after."""
    stack: list = [(granules, depth, "")]
    while stack:
        top = stack.pop()
        if top.__class__ is str:
            out.append(top)
            continue
        items, depth, closing = top
        if not items:
            out.append("[]" + closing)
            continue
        head, tail = _object(depth + 1, '"label": %s', '"kind": %s', '"stmts": %s',
                             '"children": %s').rsplit("%s", 1)
        item = _newline(depth + 1)
        stack.append(_newline(depth) + "]" + closing)
        for i in range(len(items) - 1, -1, -1):
            g = items[i]
            stmts = _json_array(list(map(str, g.stmts)), depth + 2)
            stack.append((g.children, depth + 2, tail))
            stack.append(("," if i else "[") + item + head % (
                encode_basestring_ascii(g.label), _KIND_JSON[g.kind], stmts))


def _write_granule_trees(analysis: Analysis, depth: int, out: list[str]) -> None:
    """Append a report's `"granule_trees"` section: one tree per function."""
    tree = _object(depth + 2, '"function": %s', '"recursive": %s', '"granules": %s')
    trees = []
    for gt in analysis.granules:
        granules: list[str] = []
        _write_granules(gt.roots, depth + 3, granules)
        trees.append(tree % (encode_basestring_ascii(gt.function),
                             "true" if gt.recursive else "false", "".join(granules)))
    out.append(f',{_newline(depth + 1)}"granule_trees": ' + _json_array(trees, depth + 1))


def _granules_text(analysis: Analysis, lines: list[str]) -> None:
    lines.append("  granules:")
    for gt in analysis.granules:
        lines.append(f"    {gt.function}:")
        stack = [(root, 1) for root in reversed(gt.roots)]
        while stack:
            g, depth = stack.pop()
            # stmts print as a list, `[3]`, as the report's JSON has them
            lines.append("    " + "  " * depth + f"{g.label} [{g.kind.value}] stmts={list(g.stmts)}")
            stack.extend((child, depth + 1) for child in reversed(g.children))


def _sections(analysis: Analysis, emit: set[str], as_json: bool, depth: int) -> list[str]:
    """The ledger and granule sections that `emit` asks for: the JSON text to
    go before the closing brace of a report nested `depth` levels deep, or the
    text lines to follow the report's own."""
    out: list[str] = []
    if "ledger" in emit:
        if as_json:
            _write_ledger(analysis, depth, out)
        else:
            _ledger_text(analysis, out)
    if "granules" in emit:
        if as_json:
            _write_granule_trees(analysis, depth, out)
        else:
            _granules_text(analysis, out)
    return out


# ------------------------------------------------------------------ analyze

def _expand_corpus(inputs: list[str]) -> list[str]:
    """The files of a corpus, each once, sorted: the inputs that are files and
    the `*.mc` files of those that are directories."""
    paths: list[Path] = []
    for raw in inputs:
        p = Path(raw)
        if p.is_dir():
            paths.extend(p.glob("*.mc"))
        else:
            paths.append(p)
    return [str(p) for p in sorted(set(paths))]


def _read_inputs(paths: list) -> list[str] | None:
    """The text of every file in ``paths`` (names or ``Path``s), or None once
    one cannot be read (missing, or not UTF-8), after saying so on stderr."""
    texts = []
    for path in paths:
        try:
            texts.append(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"minicog: cannot read {path}: {exc}", file=sys.stderr)
            return None
    return texts


def run_analyze(args) -> int:
    emit = set(filter(None, args.emit.split(",")))
    unknown = emit - set(EMIT_CHOICES)
    if unknown:
        print(f"minicog: unknown emit sections: {sorted(unknown)}", file=sys.stderr)
        return 2
    mode = SiMode(args.si_mode)

    if args.corpus:
        paths = _expand_corpus(args.inputs)
    else:
        if len(args.inputs) != 1:
            print("minicog: analyze expects exactly one input file (use --corpus for many)",
                  file=sys.stderr)
            return 2
        paths = [str(Path(args.inputs[0]))]

    texts = _read_inputs(paths)  # every input is read before any output is written
    if texts is None:
        return 2
    sources = list(zip(paths, texts))

    # Each report is written as soon as it is built and dropped before the next
    # file is analyzed; a corpus adds the {"files": [...]} wrapper and totals.
    as_json = args.format == "json"
    write = sys.stdout.write
    sep, depth = ("\n    ", 2) if args.corpus else ("", 0)
    if args.corpus and as_json:
        write('{\n  "files": [')
    totals = {"files": len(sources), "analyzed": 0, "loc": 0, "escim": 0}
    for file, source in sources:
        try:
            analysis = analyze_source(source, file)
            # No report reads the tree, its largest part: it is freed here, so
            # the peak memory of a file is its analysis at decomposition.
            analysis.tree = None
            rep = report_obj(analysis, mode, args.weights)
            sections = _sections(analysis, emit, as_json, depth)
        except (AnalysisError, EmptyProgram) as exc:
            where = f"{exc.span}: " if getattr(exc, "span", None) else ""  # file:line:col
            write(sep + _diagnostic_json(file, mode, exc, depth) if as_json
                  else f"{file}\n  error: {where}{exc}\n")
        else:
            totals["analyzed"] += 1
            totals["loc"] += rep.loc
            totals["escim"] += rep.escim
            # The rest of the analysis is freed before the report is written:
            # the writing then neither adds to its peak memory nor makes the
            # collector walk it.
            analysis = None
            write(sep + _report_json(file, mode, rep, sections, depth) if as_json else
                  "".join(line + "\n" for line in _report_text(file, mode, rep, emit) + sections))
            del rep, sections
        sep = ",\n    "

    if args.corpus and as_json:
        closing = "\n  ]" if totals["files"] else "]"
        write(f'{closing},\n  "totals": ' + _object(1, *(f'"{key}": %d' for key in totals))
              % tuple(totals.values()) + "\n}\n")
    elif as_json:
        write("\n")
    elif args.corpus:
        write(f"totals   files {totals['files']}   analyzed {totals['analyzed']}   "
              f"loc {totals['loc']}   ESCIM {totals['escim']}\n")
    return 0 if totals["analyzed"] == totals["files"] else 1


# ------------------------------------------------------------------ weyuker

def _matrix_obj(result: MatrixResult) -> dict:
    rows = []
    for prop, by_mode in result.verdicts.items():
        row: dict = {"property": prop}
        for mode, verdict in by_mode.items():
            cell: dict = {"status": verdict.status}
            if verdict.note:
                cell["note"] = verdict.note
            if verdict.witness is not None:
                cell["witness"] = verdict.witness
            row[mode.value] = cell
        rows.append(row)
    return {
        "seed": result.seed,
        "generated": result.generated,
        "corpus": result.corpus,
        "modes": [m.value for m in result.modes],
        "rows": rows,
    }


def _matrix_text(result: MatrixResult) -> list[str]:
    width = 18
    header = "property  " + "".join(m.value.ljust(width) for m in result.modes)
    lines = [header, "-" * len(header)]
    notes: list[str] = []
    for prop, by_mode in result.verdicts.items():
        cells = []
        for mode, verdict in by_mode.items():
            status = verdict.status
            if verdict.note:
                notes.append(f"[{prop}/{mode.value}] {verdict.note}")
                status += "*"
            cells.append(status.ljust(width))
        lines.append(f"{prop:<10}" + "".join(cells))
    lines.append(f"corpus: {len(result.corpus)} programs; generated: {result.generated}; "
                 f"seed: {result.seed}")
    if notes:
        lines.append("notes:")
        lines.extend(f"  {note}" for note in notes)
    return lines


def run_weyuker(args) -> int:
    corpus_dir = args.corpus
    if corpus_dir is None and Path("corpus").is_dir():
        corpus_dir = "corpus"
    corpus: list[tuple[str, str]] = []
    if corpus_dir is not None:
        root = Path(corpus_dir)
        if not root.is_dir():
            print(f"minicog: corpus directory not found: {root}", file=sys.stderr)
            return 2
        paths = sorted(root.glob("*.mc"))
        texts = _read_inputs(paths)
        if texts is None:
            return 2
        corpus = [(path.name, text) for path, text in zip(paths, texts)]
    modes = [SiMode(args.si_mode)] if args.si_mode else None
    try:
        result = run_matrix(corpus, seed=args.seed, n_generated=args.count,
                            modes=modes, weights=args.weights)
    except (AnalysisError, EmptyProgram) as exc:
        span = getattr(exc, "span", None)
        where = f"{span}: " if span else ""
        print(f"minicog: corpus fixture does not analyze: {where}{exc}", file=sys.stderr)
        return 1
    print(json.dumps(_matrix_obj(result), indent=2) if args.format == "json"
          else "\n".join(_matrix_text(result)))
    return 0


# ------------------------------------------------------------------ generate

def run_generate(args) -> int:
    sys.stdout.write(generate(args.seed))
    return 0


def main(argv: list[str] | None = None) -> int:
    # Exact numbers may have any length: lift CPython's limit on int/text
    # conversion (3.10.7+; older releases have none) for the length of the call.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    # No analysis, report or matrix makes a reference cycle, so the cycle
    # collector would only scan: it is off for the call, and left as found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        if args.command == "analyze":
            code = run_analyze(args)
        elif args.command == "weyuker":
            code = run_weyuker(args)
        else:
            code = run_generate(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Python flushes it again at exit, so point
        # it at devnull ("Note on SIGPIPE" in the signal module docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
        if collecting:
            gc.enable()
    return code


if __name__ == "__main__":
    sys.exit(main())
