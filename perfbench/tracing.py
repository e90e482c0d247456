"""Span tracing from outside the program, for the benchmark's traced run.

`Tracer.install()` wraps the public function of each minicog layer at every
module attribute that callers resolve it through (for example
`minicog.parser.tokenize` and `minicog.weyuker.tokenize` both become the one
traced `lexer.tokenize`). Each call records a span (name, start, end, parent,
operation id) in memory; `Tracer.dump()` writes them out when the run ends.
Counts (tokens, nodes, occurrences, ...) are taken from the return values
at the same boundaries, and garbage-collector pauses from `gc.callbacks`.

`self_times()` turns spans into self time: a span's duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# A file's analysis starts a new operation when it runs directly under a root
# span such as `cli.run_analyze`; everything the matrix does is one operation.
OPERATION_START = "analysis.analyze_source"


def _granule_count(trees) -> int:
    return sum(1 for gt in trees for _ in gt.walk())


def _escim_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
    return "delta" if mode is None else mode.value


def _property(args, kwargs) -> str:
    return args[0] if args else kwargs["prop"]


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str  # "function" or "Class.method"
    span: str  # span name, or the family prefix when `variant` is set
    count: str | None = None  # counter fed by `measure(result)`
    measure: Callable | None = None
    variant: Callable | None = None  # (args, kwargs) -> last part of the span name


LAYERS = (
    Layer("minicog.lexer", "tokenize", "lexer.tokenize", "lexer.tokens", len),
    Layer("minicog.parser", "parse", "parser.parse", "parser.nodes", lambda t: len(t.nodes)),
    Layer("minicog.scopes", "resolve", "scopes.resolve", "scopes.occurrences",
          lambda r: len(r.occurrences)),
    Layer("minicog.ledger", "build_ledger", "ledger.build_ledger", "ledger.entries",
          lambda led: len(led.entries)),
    Layer("minicog.ledger", "OccurrenceLedger.si", "ledger.si"),
    Layer("minicog.granules", "decompose", "granules.decompose", "granules.granules",
          _granule_count),
    Layer("minicog.erm", "serialize_erm", "erm.serialize_erm"),
    Layer("minicog.metrics", "escim", "metrics.escim", variant=_escim_mode),
    Layer("minicog.metrics", "loc", "metrics.loc"),
    Layer("minicog.analysis", "analyze_source", "analysis.analyze_source"),
    Layer("minicog.analysis", "Analysis.report", "analysis.report"),
    Layer("minicog.weyuker", "check_property", "weyuker.check", variant=_property),
    Layer("minicog.weyuker", "compose", "weyuker.compose"),
    Layer("minicog.weyuker", "rename", "weyuker.rename"),
    Layer("minicog.weyuker", "permute", "weyuker.permute"),
    Layer("minicog.printer", "pretty_print", "printer.pretty_print"),
    Layer("minicog.generator", "generate", "generator.generate"),
    Layer("minicog.cli", "report_obj", "cli.report_obj"),
    Layer("minicog.cli", "run_analyze", "cli.run_analyze"),
    Layer("minicog.cli", "run_weyuker", "cli.run_weyuker"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []  # name, start, end, parent, op
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # span names (or families) of functions no longer defined
        self.sources: set[str] = set()
        self._stack: list[tuple[float, int]] = []  # start, index into spans
        self._op = 0
        self._gc_start: float | None = None

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> None:
        nid = self.names.setdefault(name, len(self.names))
        self.counts[name + ".calls"] += 1
        parent = self._stack[-1][1] if self._stack else -1
        if name == OPERATION_START and parent >= 0 and self.spans[parent][3] == -1:
            self._op += 1
        # a slot is reserved now so that children can point at their parent
        self.spans.append((nid, 0.0, 0.0, parent, self._op))
        self._stack.append((time.perf_counter(), len(self.spans) - 1))

    def _close(self) -> None:
        end = time.perf_counter()
        start, index = self._stack.pop()
        nid, _, _, parent, op = self.spans[index]
        self.spans[index] = (nid, start, end, parent, op)

    def _wrap(self, fn, layer: Layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer.span
            if layer.variant is not None:
                name += "." + layer.variant(args, kwargs)
            if layer.attr == "Analysis.report":  # the per-mode report cache grows on a miss
                cached = len(getattr(args[0], "_reports", ()))
            elif layer.attr == "analyze_source":
                self.sources.add(args[0] if args else kwargs["source"])
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close()
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            self._close()
            if layer.count is not None:
                self.counts[layer.count] += layer.measure(result)
            if layer.attr == "Analysis.report" and hasattr(args[0], "_reports"):
                self.counts["analysis.report.cache_hits"] += len(args[0]._reports) == cached
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every layer of the already-imported minicog package."""
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            owner_name, _, attr = layer.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(layer.span)
                continue
            traced = self._wrap(fn, layer)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "minicog" or mod_name.startswith("minicog.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counts["runtime.gc.pause_s"] += time.perf_counter() - self._gc_start
            self.counts["runtime.gc.collections"] += 1
            self._gc_start = None

    # ------------------------------------------------------------ output

    def dump(self, path) -> None:
        names = sorted(self.names, key=self.names.get)
        counts = dict(self.counts)
        counts["analysis.analyze_source.distinct_sources"] = len(self.sources)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": self.spans, "counts": counts,
                       "missing": self.missing}, fh)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(trace: dict) -> dict[str, float]:
    """Per-name self time and inclusive time, summed over spans, plus the counts.

    Inclusive time counts a span nested in a span of the same name twice; no
    traced function calls itself, so that does not arise.
    """
    names, spans = trace["names"], trace["spans"]
    totals: dict[str, float] = dict(trace["counts"])
    for (nid, start, end, _, _), own in zip(spans, self_times(spans)):
        for key, value in ((".self_s", own), (".total_s", end - start)):
            key = names[nid] + key
            totals[key] = totals.get(key, 0.0) + value
    return totals
