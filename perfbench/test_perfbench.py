"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("large_file", "corpus_batch", "weyuker_matrix")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "0.005")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_its_digest_repeats(workload, trace):
    result, lines = tiny(workload, trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    calls = [line for line in lines if line.startswith("call ")]
    assert len(calls) >= 2 + trace  # a traced run adds a call under another hash seed
    assert len({line.rsplit("sha256=", 1)[1] for line in calls}) == 1
    assert "sha256=None" not in calls[0]


def test_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    runner = run.Runner(ROOT, tmp_path)
    workload = workloads.Workload(["analyze", "x.mc"], ops=7, source_bytes=1,
                                  expected_exit=0, check=lambda out: 0)
    raised = {"calls": [{"wall_s": 0.1, "exit_code": None,
                         "error": "Traceback ...\nRecursionError"}], "peak_rss_mb": 1.0}
    monkeypatch.setattr(runner, "worker", lambda *a, **k: (tmp_path / "x.out").touch() or raised)
    bench_run = run.WorkloadRun(runner, "x", workload, None)
    rep = bench_run.call()
    assert rep["failed"] == 7
    assert (runner.attempted, runner.failed) == (7, 7)


def test_crashing_input_fails_every_file_of_the_call():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workload = workloads.corpus_batch(ROOT, work, seed=5, scale=0.005)
    (work / "corpus_batch" / "zz-latin1.mc").write_bytes(b"int main() { int \xe9; }\n")
    runner = run.Runner(ROOT, work)
    rep = run.WorkloadRun(runner, "corpus_batch", workload, None).call()
    assert rep["failed"] == workload.ops
    assert runner.failed == runner.attempted == workload.ops


def test_malformed_output_fails_its_operations_without_raising(tmp_path):
    large = workloads.large_file(tmp_path, tmp_path, seed=2, scale=0.005)
    diagnostic = {"file": large.argv[1], "diagnostics": [{"span": None, "message": "x"}]}
    assert large.check(json.dumps(diagnostic).encode()) == 1
    assert large.check(b"not json") == 1
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    batch = workloads.corpus_batch(ROOT, work, seed=2, scale=0.005)
    assert batch.check(json.dumps({"files": [None, 3], "totals": []}).encode()) == batch.ops


def test_self_time_never_exceeds_duration():
    spans = [  # name, start, end, parent, op
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 1),
        (2, 2.0, 3.0, 1, 1),
        (1, 3.5, 12.0, 0, 1),  # overruns its parent: only the covered part counts
        (3, 5.0, 5.0, 3, 1),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 6.0, 2.0, 1.0, 8.5, 0.0])
    for (_, start, end, _, _), value in zip(spans, own):
        assert 0.0 <= value <= end - start


def test_self_time_of_a_real_trace():
    tiny("large_file", 1)
    trace = json.loads((ROOT / ".perfbench_work" / "large_file-spans.json").read_text())
    assert trace["spans"] and not trace["missing"]
    for (_, start, end, _, _), value in zip(trace["spans"], tracing.self_times(trace["spans"])):
        assert -1e-9 <= value <= end - start + 1e-9
    summary = tracing.summarize(trace)
    assert summary["lexer.tokenize.self_s"] > 0 and summary["lexer.tokens"] > 0


def test_inputs_are_deterministic_per_seed(tmp_path):
    first = workloads.large_file(tmp_path, tmp_path, seed=9, scale=0.01)
    text = (tmp_path / "large_file.mc").read_bytes()
    again = workloads.large_file(tmp_path, tmp_path, seed=9, scale=0.01)
    assert (tmp_path / "large_file.mc").read_bytes() == text
    assert first.sizes == again.sizes
    workloads.large_file(tmp_path, tmp_path, seed=10, scale=0.01)
    assert (tmp_path / "large_file.mc").read_bytes() != text


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "large_file", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
