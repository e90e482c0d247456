import os
import subprocess
import sys
from pathlib import Path

import pytest

from minicog import analyze_source

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


def reference_si(ledger, anchors, mode) -> int:
    """Scope information of a region, computed the long way: every occurrence
    in ordinal order, each variable's values listed, and for delta mode the
    variable's SICN just before the region's first occurrence."""
    from minicog.ledger import SiMode

    ordinals = sorted(o for a in anchors for o in ledger.by_anchor.get(a, ()))
    if not ordinals:
        return 0
    per_var: dict[int, list[int]] = {}
    for o in ordinals:
        entry = ledger.entries[o]
        per_var.setdefault(entry.occurrence.variable, []).append(entry.sicn_after)
    total = 0
    for vid, values in per_var.items():
        if mode is SiMode.ABSOLUTE:
            total += max(values)
        elif mode is SiMode.MINMAX:
            total += max(values) - min(values)
        else:
            before = [e.sicn_after for e in ledger.entries[:ordinals[0]]
                      if e.occurrence.variable == vid]
            total += max(values) - (before[-1] if before else 0)
    return total
