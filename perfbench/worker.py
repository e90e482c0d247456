"""One fresh benchmark worker: import minicog.cli, then run CLI calls in turn.

Usage: python worker.py JOB.json

JOB.json holds {"calls": [{"argv": [...], "out": PATH}, ...], "result": PATH,
"trace": SPANS_PATH or null}. Each call runs `minicog.cli.main(argv)` with
stdout written to its `out` file, the way a user redirects a report. The
result file receives the import time, each call's wall time, exit code and
uncaught exception, and the process's peak RSS.
"""

import gc
import json
import resource
import sys
import time
import traceback


def run_call(main, argv: list[str], out_path: str) -> dict:
    saved = sys.stdout
    with open(out_path, "w", encoding="utf-8") as out:
        sys.stdout = out
        error = None
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc()
        out.flush()
        wall = time.perf_counter() - start
        sys.stdout = saved
    return {"wall_s": wall, "exit_code": code, "error": error}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    start = time.perf_counter()
    import minicog.cli
    import_s = time.perf_counter() - start

    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    calls = [run_call(minicog.cli.main, c["argv"], c["out"]) for c in job["calls"]]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall_gc()
        tracer.dump(job["trace"])
    result = {
        "import_s": import_s,
        "calls": calls,
        "peak_rss_mb": peak_kb / 1024,
        "gc_threshold": list(gc.get_threshold()),
        "gc_enabled": gc.isenabled(),
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
