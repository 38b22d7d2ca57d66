"""One fresh interpreter of the benchmark: an import timing or one timed pass.

    python3 child.py SRC import     prints the time to import tdcodes and tdcodes.cli
    python3 child.py SRC pass       reads a pickled pass from stdin, runs it

SRC is the source directory the package is imported from.  A pass prints
one JSON object: the pass wall time, each operation's time and output, the
peak RSS of this process and, when traced, the tracer's totals.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import pickle
import resource
import sys
import time
from pathlib import Path


def _import(src: Path) -> float:
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import tdcodes
    import tdcodes.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(tdcodes.__file__).resolve().parent != (src / "tdcodes").resolve():
        raise SystemExit(f"tdcodes was imported from {tdcodes.__file__}, not from {src}")
    return elapsed


def _run_pass(job: dict) -> dict:
    import tdcodes

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    scanned_key = "confusability.extended_prefix.symbols_scanned"
    op_s, outputs, errors, op_scanned = [], [], [], []
    clock = time.perf_counter
    gc.collect()
    start = clock()
    for op in job["ops"]:
        before = tracer.counts.get(scanned_key, 0) if tracer else 0
        t0 = clock()
        try:
            if job["kind"] == "decide":
                out = tdcodes.confusable(*op)
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = tdcodes.cli.main(op)
                out = [code, buf.getvalue()]
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        op_s.append(clock() - t0)
        outputs.append(out)
        errors.append(err)
        if tracer:
            op_scanned.append(tracer.counts.get(scanned_key, 0) - before)
    wall = clock() - start
    return {
        "wall_s": wall,
        "op_s": op_s,
        "outputs": outputs,
        "errors": errors,
        "op_scanned": op_scanned,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
    }


def main() -> None:
    src, mode = Path(sys.argv[1]), sys.argv[2]
    if mode == "import":
        print(json.dumps({"import_s": _import(src)}))
        return
    job = pickle.load(sys.stdin.buffer)  # pickled by run.py, our parent, so safe to load
    _import(src)
    print(json.dumps(_run_pass(job)))


if __name__ == "__main__":
    main()
