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
