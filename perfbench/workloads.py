"""Seeded workload inputs and the checks on each workload's output.

Inputs come only from `minicog.generator.generate` and the fixtures in
`corpus/`; the same seed and scale give the same bytes. Each builder returns
the CLI arguments to time, how many operations one call performs (a file or a
matrix each count as one), and a check that counts the operations whose
output is wrong.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

LARGE_FILE_BYTES = 700_000
CORPUS_PROGRAMS = 2_000
MATRIX_PROGRAMS = 500
MUTATED_SHARE = 5  # one generated corpus file in five loses a `;` or `}`
MODES = ("delta", "minmax", "absolute")
PROPERTIES = ("1", "2", "3", "4", "5", "6a", "6b", "7", "8", "9")
STATUSES = {"witnessed", "no-witness-found", "holds-on-sample", "refuted"}

ANALYSIS_LAYERS = (
    "lexer.tokenize", "parser.parse", "scopes.resolve", "ledger.build_ledger", "ledger.si",
    "granules.decompose", "erm.serialize_erm", "metrics.loc", "metrics.escim.delta",
    "analysis.analyze_source", "analysis.report",
)
# layers each workload must reach; a traced run that records zero calls to one fails
REACHED = {
    "large_file": ANALYSIS_LAYERS + ("cli.run_analyze", "cli.report_obj"),
    "corpus_batch": ANALYSIS_LAYERS + ("cli.run_analyze", "cli.report_obj"),
    "weyuker_matrix": ANALYSIS_LAYERS + (
        "cli.run_weyuker", "metrics.escim.minmax", "metrics.escim.absolute",
        "weyuker.compose", "weyuker.rename", "weyuker.permute",
        "printer.pretty_print", "generator.generate",
        *(f"weyuker.check.{p}" for p in PROPERTIES),
    ),
}

_TOP_LEVEL = re.compile(r"^[A-Za-z_]\w*\s+([A-Za-z_]\w*)", re.M)
_TOP_LEVEL_FUNC = re.compile(r"^[A-Za-z_]\w*\s+([A-Za-z_]\w*)\s*\(", re.M)


@dataclass
class Workload:
    argv: list[str]
    ops: int  # operations in one call
    source_bytes: int  # source text the call analyzes
    expected_exit: int
    check: Callable[[bytes], int]  # output -> number of failed operations
    sizes: dict = field(default_factory=dict)


def generate(seed: int) -> str:
    """A seeded program from the checkout's own generator (put on sys.path by run.py)."""
    from minicog.generator import generate as generate_program

    return generate_program(seed)


def fixtures(root: Path) -> list[Path]:
    return sorted((root / "corpus").glob("*.mc"))


def _load(output: bytes):
    try:
        return json.loads(output)
    except ValueError:
        return None


def _passes(check: Callable, *args) -> bool:
    """Run one check; a report too malformed to inspect fails it."""
    try:
        return bool(check(*args))
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return False


def _code_lines(text: str) -> int:
    """LOC of a generated program, which has no comments: its non-blank lines."""
    return sum(1 for line in text.splitlines() if line.strip())


def _report_ok(rep: dict, loc: int) -> bool:
    """A report's totals against a LOC counted here, not by the program."""
    return (
        rep.get("diagnostics") == []
        and rep["loc"] == loc
        and rep["escim"] == sum(fn["escim"] for fn in rep["functions"])
        and Fraction(rep["efficiency"]) == Fraction(rep["escim"], loc)
    )


# ------------------------------------------------------------------ large_file

def large_file(root: Path, work: Path, seed: int, scale: float) -> Workload:
    """One file of generated programs, each top-level name suffixed `_k`."""
    target = int(LARGE_FILE_BYTES * scale)
    rng = random.Random(f"large_file:{seed}")
    parts: list[str] = []
    functions: list[str] = []
    size = 0
    while size < target:
        k = len(parts)
        text = generate(rng.randrange(1 << 30))
        functions.extend(f"{name}_{k}" for name in _TOP_LEVEL_FUNC.findall(text))
        names = "|".join(sorted(set(_TOP_LEVEL.findall(text))))
        text = re.sub(rf"\b({names})\b", rf"\1_{k}", text)
        parts.append(text)
        size += len(text.encode("utf-8"))
    path = work / "large_file.mc"
    text = "".join(parts)
    path.write_text(text, encoding="utf-8")
    rel = path.relative_to(root).as_posix()
    expected = sorted(functions)
    loc = _code_lines(text)

    def check_report(rep) -> bool:
        return (
            rep["file"] == rel
            and sorted(fn["name"] for fn in rep["functions"]) == expected
            and _report_ok(rep, loc)
        )

    def check(output: bytes) -> int:
        return 0 if _passes(check_report, _load(output)) else 1

    return Workload(["analyze", rel, "--format", "json"], 1, size, 0, check,
                    {"bytes": size, "programs": len(parts), "functions": len(expected)})


# ------------------------------------------------------------------ corpus_batch

def _mutate(text: str, rng: random.Random) -> str:
    cut = rng.choice([i for i, ch in enumerate(text) if ch in ";}"])
    return text[:cut] + text[cut + 1:]


def corpus_batch(root: Path, work: Path, seed: int, scale: float) -> Workload:
    """The fixtures plus generated programs; one generated file in five is broken."""
    count = max(MUTATED_SHARE, round(CORPUS_PROGRAMS * scale))
    rng = random.Random(f"corpus_batch:{seed}")
    program_seeds = [rng.randrange(1 << 30) for _ in range(count)]
    mutated = set(rng.sample(range(count), count // MUTATED_SHARE))
    folder = work / "corpus_batch"
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    rel = folder.relative_to(root).as_posix()
    size = 0
    sidecars: dict[str, dict] = {}
    for fixture in fixtures(root):
        data = fixture.read_bytes()
        (folder / fixture.name).write_bytes(data)
        size += len(data)
        sidecar = json.loads(fixture.with_suffix(".expected.json").read_text(encoding="utf-8"))
        sidecar.pop("file")
        sidecars[f"{rel}/{fixture.name}"] = sidecar
    broken: set[str] = set()
    loc: dict[str, int] = {}
    for k, program_seed in enumerate(program_seeds):
        text = generate(program_seed)
        name = f"{rel}/gen-{k:04d}.mc"
        if k in mutated:
            text = _mutate(text, rng)
            broken.add(name)
        else:
            loc[name] = _code_lines(text)
        data = text.encode("utf-8")
        (root / name).write_bytes(data)
        size += len(data)
    files = sorted([*sidecars, *(f"{rel}/gen-{k:04d}.mc" for k in range(count))])

    def check_file(name: str, rep: dict) -> bool:
        if name in broken:
            diags = rep.get("diagnostics") or []
            return len(diags) == 1 and (diags[0]["span"] or {}).get("file") == name
        if "ledger" not in rep or "granule_trees" not in rep:
            return False
        if name in sidecars:
            core = {k: v for k, v in rep.items() if k not in ("file", "ledger", "granule_trees")}
            return core == sidecars[name]
        return _report_ok(rep, loc[name])

    def check_totals(totals) -> bool:
        return totals["files"] == len(files) and totals["analyzed"] == len(files) - len(broken)

    def check(output: bytes) -> int:
        payload = _load(output)
        if not isinstance(payload, dict) or not isinstance(payload.get("files"), list):
            return len(files)
        by_file = {rep.get("file"): rep for rep in payload["files"] if isinstance(rep, dict)}
        failed = sum(not _passes(check_file, name, by_file.get(name)) for name in files)
        if not _passes(check_totals, payload.get("totals")):
            failed = max(failed, 1)
        return failed

    argv = ["analyze", rel, "--corpus", "--format", "json",
            "--emit", "metrics,erm,ledger,granules"]
    return Workload(argv, len(files), size, 1 if broken else 0, check,
                    {"bytes": size, "files": len(files), "broken_files": len(broken)})


# ------------------------------------------------------------------ weyuker_matrix

def weyuker_matrix(root: Path, work: Path, seed: int, scale: float) -> Workload:
    """The property matrix over the fixtures plus `count` programs from `seed`."""
    count = max(2, round(MATRIX_PROGRAMS * scale))
    names = [p.name for p in fixtures(root)]
    # the pool run_matrix builds for itself; sized here only to report kB/s
    size = sum(len(p.read_bytes()) for p in fixtures(root))
    size += sum(len(generate(seed + k).encode("utf-8")) for k in range(count))

    def check_matrix(obj) -> bool:
        return (
            obj["seed"] == seed
            and obj["generated"] == count
            and obj["corpus"] == names
            and obj["modes"] == list(MODES)
            and [row["property"] for row in obj["rows"]] == list(PROPERTIES)
            and all(row[mode]["status"] in STATUSES for row in obj["rows"] for mode in MODES)
        )

    def check(output: bytes) -> int:
        return 0 if _passes(check_matrix, _load(output)) else 1

    argv = ["weyuker", "--corpus", "corpus", "--seed", str(seed), "--count", str(count),
            "--format", "json"]
    return Workload(argv, 1, size, 0, check,
                    {"bytes": size, "pool_size": len(names) + count})


BUILDERS = {
    "large_file": large_file,
    "corpus_batch": corpus_batch,
    "weyuker_matrix": weyuker_matrix,
}


# ------------------------------------------------------------------ fixtures

def fixture_calls(root: Path, work: Path) -> list[tuple[list[str], Path, Callable[[bytes], bool]]]:
    """Sidecar byte-equality checks, and `unit.mc` measuring 1 in every mode."""
    calls = []
    for fixture in fixtures(root):
        rel = fixture.relative_to(root).as_posix()
        expected = fixture.with_suffix(".expected.json").read_bytes()
        calls.append((["analyze", rel, "--format", "json"], work / f"fixture-{fixture.stem}.json",
                      lambda out, expected=expected: out == expected))
    for mode in MODES:
        calls.append((["analyze", "corpus/unit.mc", "--format", "json", "--si-mode", mode],
                      work / f"unit-{mode}.json",
                      lambda out: _passes(lambda rep: rep["escim"] == 1, _load(out))))
    return calls
