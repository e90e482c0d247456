"""The benchmark's traced run wraps minicog functions by name
(``perfbench/tracing.py``, ``LAYERS``) and reads some of their arguments by
position, and counts sizes off their results. These checks fail in the test
suite when a refactor renames a traced layer, moves a traced argument or
changes what a counted result's ``len`` means; the traced run itself is only
exercised with ``perfbench/run.py --trace 1``. ``perfbench/`` is read, never changed."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

from conftest import CORPUS, REPO, corpus_names, fixture_source

from minicog.ledger import SiMode


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while building Layer
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_layer_names_a_callable(tracing):
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        owner = importlib.import_module(layer.module)
        for part in layer.attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{layer.module}.{layer.attr} (span {layer.span})"


def test_traced_arguments_keep_their_positions(tracing):
    import minicog.metrics
    from minicog.ledger import OccurrenceLedger

    escim = list(inspect.signature(minicog.metrics.escim).parameters)
    assert escim[3] == "mode"
    assert tracing._escim_mode((None, None, None, SiMode.MINMAX), {}) == "minmax"
    assert tracing._escim_mode((None, None), {"mode": SiMode.ABSOLUTE}) == "absolute"
    assert list(inspect.signature(OccurrenceLedger.si).parameters) == ["self", "anchors", "mode"]
    check = list(inspect.signature(importlib.import_module("minicog.weyuker").check_property).parameters)
    assert check[0] == "prop"
    analyze = list(inspect.signature(importlib.import_module("minicog.analysis").analyze_source).parameters)
    assert analyze[0] == "source"


@pytest.mark.parametrize("name", corpus_names())
def test_layer_counts_measure_real_results(tracing, name, capsys):
    from minicog.cli import main
    from minicog.granules import decompose
    from minicog.ledger import build_ledger
    from minicog.lexer import tokenize
    from minicog.parser import parse
    from minicog.scopes import resolve

    measure = {layer.count: layer.measure for layer in tracing.LAYERS if layer.count}
    tree = parse(tokenize(fixture_source(name), name))
    resolution = resolve(tree)
    assert main(["analyze", str(CORPUS / name), "--format", "json", "--emit", "ledger,granules"]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = len(report["ledger"])
    assert rows > 0
    assert measure["scopes.occurrences"](resolution) == rows
    assert measure["ledger.entries"](build_ledger(resolution)) == rows
    # the benchmark counts the ledger's rows through ``entries``, the range of their ordinals
    assert build_ledger(resolution).entries == range(rows)
    assert measure["parser.nodes"](tree) == len(tree.nodes) == tree.nodes[-1].nid + 1
    # the benchmark counts granules by ``GranuleTree.walk``, which is why the walks stay
    emitted = [g for gt in report["granule_trees"] for g in gt["granules"]]
    count = 0
    while emitted:
        count += 1
        emitted += emitted.pop()["children"]
    assert count > 0
    assert measure["granules.granules"](decompose(tree, resolution)) == count


def test_each_analyzed_file_reaches_the_traced_report_layers_once(monkeypatch, capsys):
    # the benchmark's corpus run must keep reaching `cli.report_obj` and
    # `analysis.report`: the sections are written beside the report, not in place of it
    from minicog import cli
    from minicog.analysis import Analysis
    from minicog.ledger import OccurrenceLedger

    calls = {"report_obj": 0, "report": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "report_obj", counted("report_obj", cli.report_obj))
    monkeypatch.setattr(Analysis, "report", counted("report", Analysis.report))
    argv = ["analyze", str(CORPUS), "--corpus", "--format", "json",
            "--emit", "metrics,erm,ledger,granules"]
    assert cli.main(argv) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert len(files) == len(corpus_names())
    assert calls == {"report_obj": len(files), "report": len(files)}
    assert not hasattr(OccurrenceLedger, "dump")


# A small form of each benchmark workload's call, run from the repository root.
WORKLOAD_CALLS = {
    "large_file": ["analyze", "corpus/example1.mc", "--format", "json"],
    "corpus_batch": ["analyze", "corpus", "--corpus", "--format", "json",
                     "--emit", "metrics,erm,ledger,granules"],
    "weyuker_matrix": ["weyuker", "--corpus", "corpus", "--count", "20", "--format", "json"],
}

# Loads perfbench's tracer and workload list, installs the tracer, runs the
# CLI call given as its arguments and prints the exit code and the layers of
# the workload (its first argument) that recorded no call.
TRACED_CALL = """
import contextlib, importlib.util, io, json, sys

def load(name):
    spec = importlib.util.spec_from_file_location(name, f"perfbench/{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

tracing, workloads = load("tracing"), load("workloads")
from minicog import cli
tracer = tracing.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
tracer.uninstall_gc()
unreached = [layer for layer in workloads.REACHED[sys.argv[1]]
             if tracer.counts[layer + ".calls"] == 0]
print(json.dumps({"code": code, "unreached": unreached, "missing": tracer.missing}))
"""


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CALLS))
def test_each_workload_reaches_every_layer_the_benchmark_requires(workload):
    # what the benchmark's traced run checks (`workloads.REACHED`), in a fresh
    # process per workload so each tracer wraps an untouched minicog; -B keeps
    # the loaded perfbench files from leaving bytecode beside them
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-B", "-c", TRACED_CALL, workload,
                           *WORKLOAD_CALLS[workload]],
                          cwd=REPO, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"code": 0, "unreached": [], "missing": []}
