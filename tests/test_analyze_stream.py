"""``analyze`` writes each file's report as soon as it is built. Its output is
checked byte for byte against the old assemble-then-print output
(``reference_analyze_output``), and its memory against the corpus size."""

import contextlib
import gc
import os
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from conftest import CORPUS, corpus_names, fixture_source, reference_analyze_output
from minicog import analyze_source, cli
from minicog.generator import generate
from minicog.ledger import SiMode


def _broken(seed: int) -> bytes:
    text = generate(seed)
    cut = text.index(";", len(text) // 2)
    return (text[:cut] + text[cut + 1:]).encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, tuple[list[str], bool]]:
    """Named CLI inputs, each with whether it runs as a corpus."""
    root = tmp_path_factory.mktemp("inputs")
    for name in ("empty", "one", "broken", "mixed"):
        (root / name).mkdir()
    (root / "one" / "example6.mc").write_bytes((CORPUS / "example6.mc").read_bytes())
    (root / "broken" / "a.mc").write_bytes(_broken(1))
    (root / "broken" / "b.mc").write_text("// only a comment\n")  # a diagnostic without a span
    (root / "broken" / "c.mc").write_text("int main() { z = 1; }\n")
    for name in corpus_names():
        (root / "mixed" / name).write_bytes((CORPUS / name).read_bytes())
    for seed in range(6):
        (root / "mixed" / f"gen_{seed}.mc").write_bytes(generate(seed).encode())
    (root / "mixed" / "gen_broken.mc").write_bytes(_broken(6))
    return {
        "empty-corpus": ([str(root / "empty")], True),
        "one-file-corpus": ([str(root / "one")], True),
        "broken-corpus": ([str(root / "broken")], True),
        "broken-fixtures-and-generated": ([str(root / "mixed")], True),
        "single-file": ([str(root / "one" / "example6.mc")], False),
        "single-broken-file": ([str(root / "broken" / "a.mc")], False),
    }


@pytest.mark.parametrize("emit", ["metrics", "ledger", "granules", "erm,granules",
                                  "metrics,erm,ledger,granules"])
@pytest.mark.parametrize("mode", [m.value for m in SiMode])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", ["empty-corpus", "one-file-corpus", "broken-corpus",
                                  "broken-fixtures-and-generated", "single-file",
                                  "single-broken-file"])
def test_streamed_output_equals_the_assembled_output(inputs, case, fmt, mode, emit, capsys):
    paths, corpus = inputs[case]
    argv = ["analyze", *paths, "--format", fmt, "--si-mode", mode, "--emit", emit]
    code = cli.main(argv + ["--corpus"] * corpus)
    out = capsys.readouterr().out
    assert out == reference_analyze_output(paths, fmt, SiMode(mode), set(emit.split(",")), corpus)
    assert code == (1 if "broken" in case else 0)


def test_empty_corpus_json_keeps_the_empty_files_array(inputs, capsys):
    assert cli.main(["analyze", *inputs["empty-corpus"][0], "--corpus", "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "files": [],\n  "totals": {\n    "files": 0,\n    "analyzed": 0,\n'
        '    "loc": 0,\n    "escim": 0\n  }\n}\n'
    )


def _peak_bytes(folder) -> int:
    """The tracemalloc peak of one in-process corpus run, stdout discarded."""
    argv = ["analyze", str(folder), "--corpus", "--format", "json",
            "--emit", "metrics,erm,ledger,granules"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _input_bytes(folder) -> int:
    """The size of the names and texts ``analyze`` reads before it writes."""
    return sum(sys.getsizeof(name) + sys.getsizeof(Path(name).read_text(encoding="utf-8"))
               for name in cli._expand_corpus([str(folder)]))


def test_corpus_memory_does_not_grow_with_the_number_of_reports(tmp_path):
    small, large = tmp_path / "small", tmp_path / "large"
    small.mkdir()
    large.mkdir()
    for seed in range(160):
        text = generate(seed).encode()
        (large / f"gen_{seed:03d}.mc").write_bytes(text)
        if seed < 20:
            (small / f"gen_{seed:03d}.mc").write_bytes(text)
    _peak_bytes(small)  # warm the caches, so neither measured run pays for them
    small_peak, large_peak = _peak_bytes(small), _peak_bytes(large)
    # Eight times the files. The inputs are all read before the first report
    # is written, so their text grows with the corpus; the reports must not.
    # (A run that keeps every report peaks near 8x.)
    small_rest = small_peak - _input_bytes(small)
    large_rest = large_peak - _input_bytes(large)
    assert large_rest < 1.5 * small_rest, (small_peak, large_peak, small_rest, large_rest)


def test_an_analysis_and_its_report_leave_no_reference_cycles():
    # so each one is freed as soon as the next file's report replaces it,
    # without waiting for the cycle collector
    every = set(cli.EMIT_CHOICES)
    gc.collect()
    gc.disable()
    try:
        for name in corpus_names():
            analysis = analyze_source(fixture_source(name), name)
            rep = cli.report_obj(analysis, SiMode.DELTA, None)
            cli._report_text(rep, every) + cli._sections(analysis, every, False, 0)
            cli._report_json(rep, cli._sections(analysis, every, True, 0), 0)
        del analysis, rep
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", ["single-file", "broken-fixtures-and-generated"])
def test_each_report_is_built_after_its_syntax_tree_is_freed(inputs, case, fmt, monkeypatch, capsys):
    # No report section reads the tree, most of an analysis, so it must be
    # unreachable, without the cycle collector's help, once report building starts.
    paths, corpus = inputs[case]
    trees, freed = [], []
    analyze, report = cli.analyze_source, cli.report_obj

    def analyze_and_watch(source, file):
        analysis = analyze(source, file)
        trees.append(weakref.ref(analysis.tree))
        return analysis

    def report_after_release(analysis, *args):
        freed.append(trees[-1]() is None)
        return report(analysis, *args)

    monkeypatch.setattr(cli, "analyze_source", analyze_and_watch)
    monkeypatch.setattr(cli, "report_obj", report_after_release)
    argv = ["analyze", *paths, "--format", fmt, "--emit", "metrics,erm,ledger,granules"]
    gc.disable()
    try:
        cli.main(argv + ["--corpus"] * corpus)
    finally:
        gc.enable()
    capsys.readouterr()
    assert len(freed) == len(trees) > 0 and all(freed), freed
