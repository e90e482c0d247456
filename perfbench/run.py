#!/usr/bin/env python3
"""minicog benchmark: time the public CLI on seeded workloads and check its output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see `workloads.py`): `large_file` (one ~700 kB file), `corpus_batch`
(the 12 fixtures plus 2,000 generated files, one in five broken) and
`weyuker_matrix` (the property matrix over 500 generated programs).

Inputs are generated in this process, once per run, and never timed. Every
timed call runs `minicog.cli.main` in a fresh single-threaded worker process
(`worker.py`), one worker at a time, under PYTHONHASHSEED=0, and calls repeat
until `--seconds` is used up. Each run also checks the 12 fixtures against
their `*.expected.json` sidecars and that `corpus/unit.mc` measures 1 in all
three modes. For the default seed the output digest of every workload is
pinned in `digests.json`; for any other seed the digests must agree across
calls. A failed check fails the operations it covers.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced calls, then makes one more call under another
hash seed, which must print the same bytes; it reports the per-layer metrics
with the tracing overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 0
HASH_SEED = "0"
OTHER_HASH_SEED = "1"
SETUP_PROBES = 11
CALL_TIMEOUT_S = 60
DEADLINE_S = 90  # no new repetition starts after this much of a run has passed

class LayerNotReached(Exception):
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    """Median of the calls that ran; a call whose worker died has no value."""
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else 0.0


class Runner:
    """Runs workers for one benchmark run and keeps the operation tally."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.log: list[str] = []

    def worker(self, calls: list[tuple[list[str], Path]], hash_seed: str = HASH_SEED,
               trace: Path | None = None) -> dict | None:
        job_path, result_path = self.work / "job.json", self.work / "result.json"
        result_path.unlink(missing_ok=True)
        job = {"calls": [{"argv": argv, "out": str(out)} for argv, out in calls],
               "result": str(result_path), "trace": str(trace) if trace else None}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONHASHSEED=hash_seed)
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                                  cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.log.append(f"worker timed out after {CALL_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not result_path.exists():
            self.log.append(f"worker exited {proc.returncode}: "
                            f"{proc.stderr.decode(errors='replace')[-2000:]}")
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))

    def tally(self, ops: int, failed: int) -> None:
        self.attempted += ops
        self.failed += failed


def setup_seconds(runner: Runner) -> list[float]:
    """Import time of minicog.cli in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        result = runner.worker([])
        if result is None:
            raise RuntimeError("setup probe failed: " + runner.log[-1])
        samples.append(result["import_s"])
    return samples


def check_fixtures(runner: Runner) -> None:
    calls = workloads.fixture_calls(runner.root, runner.work)
    result = runner.worker([(argv, out) for argv, out, _ in calls])
    failed = 0
    for k, (argv, out, ok) in enumerate(calls):
        good = (result is not None and result["calls"][k]["exit_code"] == 0
                and ok(out.read_bytes()))
        if not good:
            runner.log.append("fixture check failed: minicog " + " ".join(argv))
        failed += not good
    runner.tally(len(calls), failed)


class WorkloadRun:
    """Repeated calls of one workload, each checked against a reference digest."""

    def __init__(self, runner: Runner, name: str, workload, pinned: str | None):
        self.runner = runner
        self.name = name
        self.workload = workload
        self.reference = pinned
        self.checked: dict[str, int] = {}  # digest -> failed operations

    def call(self, hash_seed: str = HASH_SEED, trace: Path | None = None) -> dict:
        out = self.runner.work / f"{self.name}.out"
        result = self.runner.worker([(self.workload.argv, out)], hash_seed, trace)
        ops = self.workload.ops
        rep = {"hash_seed": hash_seed, "traced": trace is not None, "failed": ops,
               "digest": None, "wall_s": None, "peak_rss_mb": None, "worker": result}
        if result is not None:
            call = result["calls"][0]
            rep.update(wall_s=call["wall_s"], peak_rss_mb=result["peak_rss_mb"])
            output = out.read_bytes()
            rep["digest"] = hashlib.sha256(output).hexdigest()
            if call["error"] is not None:
                self.runner.log.append(f"{self.name}: uncaught exception\n{call['error']}")
            elif call["exit_code"] != self.workload.expected_exit:
                self.runner.log.append(f"{self.name}: exit {call['exit_code']}, "
                                       f"expected {self.workload.expected_exit}")
            else:
                if self.reference is None:
                    self.reference = rep["digest"]
                if rep["digest"] != self.reference:
                    self.runner.log.append(f"{self.name}: digest {rep['digest']} differs "
                                           f"from {self.reference}")
                else:
                    if rep["digest"] not in self.checked:
                        self.checked[rep["digest"]] = self.workload.check(output)
                    rep["failed"] = self.checked[rep["digest"]]
        self.runner.tally(ops, rep["failed"])
        self.runner.log.append(
            f"call hash_seed={hash_seed} traced={int(rep['traced'])} wall_s={rep['wall_s']} "
            f"peak_rss_mb={rep['peak_rss_mb']} failed={rep['failed']}/{ops} "
            f"sha256={rep['digest']}")
        return rep


def repeat(run_started: float, seconds: float, step, at_least: int) -> list:
    """Call `step` until the next call would end more than `seconds` after the
    first began, or the run has passed its deadline; at least `at_least` times."""
    done = []
    first = time.perf_counter()
    while True:
        begun = time.perf_counter()
        done.append(step())
        now = time.perf_counter()
        elapsed, last = now - first, now - begun
        if len(done) >= at_least and (elapsed + last > seconds or now - run_started > DEADLINE_S):
            return done


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    s = tracing.summarize(trace)
    g = lambda key: s.get(key, 0)  # noqa: E731
    out = {key: value for key, value in s.items() if key.endswith((".self_s", ".total_s"))}
    out.update({
        "lexer.tokens": g("lexer.tokens"),
        "lexer.tokens_per_s": _ratio(g("lexer.tokens"), g("lexer.tokenize.self_s")),
        "parser.nodes": g("parser.nodes"),
        "parser.nodes_per_s": _ratio(g("parser.nodes"), g("parser.parse.self_s")),
        "scopes.occurrences": g("scopes.occurrences"),
        "ledger.entries": g("ledger.entries"),
        "ledger.si.calls": g("ledger.si.calls"),
        "granules.granules": g("granules.granules"),
        "runtime.gc.pause_s": g("runtime.gc.pause_s"),
        "runtime.gc.collections": g("runtime.gc.collections"),
        "analysis.analyze_source.calls": g("analysis.analyze_source.calls"),
        "analysis.analyze_source.distinct_sources": g("analysis.analyze_source.distinct_sources"),
        "analysis.reanalysis_ratio": _ratio(g("analysis.analyze_source.calls"),
                                            g("analysis.analyze_source.distinct_sources")),
        "analysis.report.calls": g("analysis.report.calls"),
        "analysis.report.cache_hit_ratio": _ratio(g("analysis.report.cache_hits"),
                                                  g("analysis.report.calls")),
        "weyuker.compose.calls": g("weyuker.compose.calls"),
        "weyuker.compose.conflict_ratio": _ratio(g("weyuker.compose.raised.ComposeError"),
                                                 g("weyuker.compose.calls")),
        "printer.pretty_print.calls": g("printer.pretty_print.calls"),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    })
    return out


def check_reached(layers: tuple[str, ...], trace: dict) -> None:
    missing = trace["missing"]  # layers the program no longer defines report 0
    for layer in layers:
        if trace["counts"].get(layer + ".calls", 0) == 0 and not any(
                layer == m or layer.startswith(m + ".") for m in missing):
            raise LayerNotReached(f"traced run recorded zero calls to layer '{layer}'")


def run(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    started = time.perf_counter()

    workload = workloads.BUILDERS[args.workload](root, work, args.seed, args.scale)
    inputs_s = time.perf_counter() - started
    pinned = None
    if args.seed == DEFAULT_SEED and args.scale == 1.0:
        pinned = json.loads((BENCH / "digests.json").read_text())["sha256"][args.workload]

    runner = Runner(root, work)
    setup = setup_seconds(runner)
    check_fixtures(runner)
    bench = WorkloadRun(runner, args.workload, workload, pinned)

    metrics: dict[str, float] = {}
    sizes = dict(workload.sizes)
    if args.trace:
        spans_path = work / f"{args.workload}-spans.json"

        def traced_pair():
            spans_path.unlink(missing_ok=True)
            untraced, traced = bench.call(), bench.call(trace=spans_path)
            if not spans_path.exists():  # the worker died: no layer was seen
                return untraced, traced, {"spans": [], "names": [], "counts": {}, "missing": []}
            return untraced, traced, json.loads(spans_path.read_text(encoding="utf-8"))

        pairs = repeat(started, args.seconds, traced_pair, at_least=1)
        bench.call(OTHER_HASH_SEED)
        for _, _, trace in pairs:
            check_reached(workloads.REACHED[args.workload], trace)
        untraced = _median(u["wall_s"] for u, _, _ in pairs)
        per_call = [layer_metrics(trace, t["wall_s"] or 0.0, untraced) for _, t, trace in pairs]
        for key in {k for m in per_call for k in m}:
            metrics[key] = statistics.median(m.get(key, 0.0) for m in per_call)
        for key in ("lexer.tokens", "parser.nodes", "scopes.occurrences", "granules.granules"):
            sizes[key.split(".")[1]] = int(metrics[key])
        worker = pairs[0][1]["worker"] or {}
    else:
        reps = repeat(started, args.seconds, bench.call, at_least=2)  # the digest must repeat
        wall = _median(r["wall_s"] for r in reps)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "kb_per_s": _ratio(workload.source_bytes / 1000, wall),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
        }
        worker = reps[0]["worker"] or {}

    provenance = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gc_threshold": worker.get("gc_threshold"),
        "gc_enabled": worker.get("gc_enabled"),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "hash_seeds": [HASH_SEED, OTHER_HASH_SEED] if args.trace else [HASH_SEED],
        "seed": args.seed,
        "scale": args.scale,
        "inputs_s": inputs_s,
        "setup_samples_s": setup,
        "digest": "pinned" if pinned else "repeat",
        "sizes": sizes,
    }
    for line in runner.log:
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {}
    for entry in wanted:
        result[entry["name"]] = {"value": metrics.get(entry["name"], 0.0), "unit": entry["unit"]}
        print(f"metric {entry['name']} = {result[entry['name']]['value']} {entry['unit']}")
    print(f"failed_share = {_ratio(runner.failed, runner.attempted)} "
          f"({runner.failed} failed of {runner.attempted} attempted operations)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": result}))
    return 0


def main(argv: list[str] | None = None) -> int:
    root = BENCH.parent
    if not (root / "src" / "minicog" / "cli.py").is_file() or not (root / "corpus").is_dir():
        print(f"perfbench: no minicog checkout at {root} (src/minicog and corpus/ are missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the defined workload (tests use small values)")
    args = parser.parse_args(argv)
    try:
        return run(args, root)
    except LayerNotReached as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
