"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/job.py '<spec JSON>'

The spec is ``{"argvs": [[...], ...], "trace": bool}``.  The job imports
``twistnp.cli`` first and notes the monotonic time (the end of set-up), then
runs each argv through ``cli.main`` with its output captured, and prints
one JSON line: the set-up timestamp, wall and CPU time, peak RSS, each
operation's exit code and output, and with tracing on, its spans.  An empty
``argvs`` measures set-up alone.
"""

import time

import twistnp.cli as cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    if tracer:
        tracer.begin("job", at=t0)
    for argv in spec["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin("cli.main")
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # an escaped exception is one failed operation
                traceback.print_exc()
                rc = -1
        wall = time.perf_counter() - start
        if tracer:
            tracer.end()
        ops.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "wall_s": wall})
    t1 = time.perf_counter()
    if tracer:
        tracer.end(at=t1)
    result = {
        "ready": READY,
        "wall_s": t1 - t0,
        "cpu_s": _cpu() - cpu0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
    }
    if tracer:
        from twistnp.padic import make_context

        result["spans"] = tracer.spans
        result["context_misses"] = make_context.cache_info().misses
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
