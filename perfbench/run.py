"""The tdcodes benchmark: one workload per run, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; the package is imported from ``src/`` next to this
directory.  The parent process makes the inputs from the seed and fixes
the expected outputs, then starts one child interpreter per timed pass
until the passes have measured ``--seconds`` seconds.  Every output is
checked outside the timers.  With ``--trace 1`` untraced and traced passes
alternate, and the traced ones report the per-layer metrics.  The last
line of standard output is one JSON object with the metrics; the lines
before it repeat them for people, with the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

SETUP_PER_PASS = 2  # fresh interpreters timed for setup_s before each pass
MAX_PASSES = 64
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics: (name, unit, how to read it from a tracer snapshot)
SPAN_CALLS, SPAN_SELF, COUNT = "calls", "self", "count"
PER_LAYER = (
    ("roots.root_le_k.calls", "count", SPAN_CALLS, "roots.root_le_k"),
    ("roots.root_le_k.symbols", "symbols", COUNT, "roots.root_le_k.symbols"),
    ("roots.root_le_k.self_s", "s", SPAN_SELF, "roots.root_le_k"),
    ("confusability.extended_prefix.calls", "count", SPAN_CALLS, "confusability.extended_prefix"),
    (
        "confusability.extended_prefix.symbols_scanned",
        "symbols",
        COUNT,
        "confusability.extended_prefix.symbols_scanned",
    ),
    ("confusability.extended_prefix.self_s", "s", SPAN_SELF, "confusability.extended_prefix"),
    ("confusability.confusable.calls", "count", SPAN_CALLS, "confusability.confusable"),
    ("confusability.confusable.self_s", "s", SPAN_SELF, "confusability.confusable"),
    ("confusability.count_occurrences.calls", "count", SPAN_CALLS, "confusability.count_occurrences"),
    ("confusability.count_occurrences.self_s", "s", SPAN_SELF, "confusability.count_occurrences"),
    ("confusability.compute_label.calls", "count", SPAN_CALLS, "confusability.compute_label"),
    ("confusability.compute_label.self_s", "s", SPAN_SELF, "confusability.compute_label"),
    ("confusability.labels_confusable.calls", "count", SPAN_CALLS, "confusability.labels_confusable"),
    ("confusability.count_regions.calls", "count", SPAN_CALLS, "confusability.count_regions"),
    ("confusability.count_regions.self_s", "s", SPAN_SELF, "confusability.count_regions"),
    ("confusability.main_and_region.calls", "count", SPAN_CALLS, "confusability.main_and_region"),
    ("optimal.labels_by_root.words", "count", COUNT, "optimal.labels_by_root.words"),
    ("optimal.labels_by_root.self_s", "s", SPAN_SELF, "optimal.labels_by_root"),
    ("optimal.graph_from_labels.vertices", "count", COUNT, "optimal.graph_from_labels.vertices"),
    ("optimal.graph_from_labels.edges", "count", COUNT, "optimal.graph_from_labels.edges"),
    ("optimal.graph_from_labels.self_s", "s", SPAN_SELF, "optimal.graph_from_labels"),
    ("optimal.max_clique.calls", "count", SPAN_CALLS, "optimal.max_clique"),
    ("optimal.max_clique.self_s", "s", SPAN_SELF, "optimal.max_clique"),
    ("optimal.SizeCache.hits", "count", COUNT, "optimal.SizeCache.hits"),
    ("optimal.SizeCache.misses", "count", COUNT, "optimal.SizeCache.misses"),
    ("optimal.SizeCache.writes", "count", COUNT, "optimal.SizeCache.writes"),
    ("optimal.SizeCache.put.self_s", "s", SPAN_SELF, "optimal.SizeCache.put"),
    ("oracle.enumerate_labels.self_s", "s", SPAN_SELF, "oracle.enumerate_labels"),
    ("oracle.cone_states", "count", COUNT, "oracle.cone_states"),
    ("oracle.canonical_form.calls", "count", SPAN_CALLS, "oracle.canonical_form"),
    ("oracle.irreducible_counts.self_s", "s", SPAN_SELF, "oracle.irreducible_counts"),
    ("codes.assemble_lower_bounds.self_s", "s", SPAN_SELF, "codes.assemble_lower_bounds"),
    ("bounds.refined_upper_bound.self_s", "s", SPAN_SELF, "bounds.refined_upper_bound"),
    ("cli.main.self_s", "s", SPAN_SELF, "cli.main"),
)
AMPLIFICATION_GROUPS = ("bounded", "root_1k", "root_2k", "root_4k")  # the decide groups


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _speed_probe() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never used to rescale."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TDCODES_CACHE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()

    def child(self, mode: str, stdin: bytes | None = None) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run budget exhausted")
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(SRC), mode],
            input=stdin,
            capture_output=True,
            timeout=timeout,
            env=self.env,
            cwd=str(ROOT),
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"child {mode} exited with {proc.returncode}: {proc.stderr.decode(errors='replace')[-2000:]}"
            )
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, int] | None:
    """The highest percentile with at least ten values beyond it, and which one."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], (100 * (n - 10)) // n


class Passes:
    """Runs timed passes of one workload and checks every output."""

    def __init__(self, runner: Runner, wl):
        self.runner = runner
        self.wl = wl
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.import_s: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        if wl.kind == "decide":
            self.payloads = [
                pickle.dumps({"kind": "decide", "ops": wl.ops, "trace": trace}, 5)
                for trace in (False, True)
            ]

    def run(self, seconds: float, trace: bool) -> None:
        """Untraced passes (alternating with traced ones when ``trace``) until
        the passes have measured ``seconds`` seconds; set-up samples between."""
        self.runner.child("import")  # warm-up: writes the bytecode cache once
        measured = last = 0.0
        # stop at the pass count that comes closest to ``seconds``
        while measured + last / 2 < seconds and len(self.plain) + len(self.traced) < MAX_PASSES:
            last = 0.0
            for traced in (False, True) if trace else (False,):
                for _ in range(SETUP_PER_PASS):
                    self.import_s.append(self.runner.child("import")["import_s"])
                res = self._one(traced)
                (self.traced if traced else self.plain).append(res)
                last += res["wall_s"]
            measured += last

    def _one(self, trace: bool) -> dict:
        from workloads import CACHE_SLOT, check_cli, read_cache_sizes

        wl = self.wl
        if wl.kind == "decide":
            res = self.runner.child("pass", self.payloads[trace])
            ok = [out is not None and out == want for out, want in zip(res["outputs"], wl.expect)]
        else:
            WORK.mkdir(exist_ok=True)
            cache = WORK / f"size-cache-{os.getpid()}.tsv"
            cache.unlink(missing_ok=True)
            ops = [[str(cache) if a == CACHE_SLOT else a for a in op] for op in wl.ops]
            try:
                res = self.runner.child("pass", pickle.dumps({"kind": "cli", "ops": ops, "trace": trace}, 5))
                sizes = read_cache_sizes(cache) if cache.exists() else {}
            finally:
                cache.unlink(missing_ok=True)
            ok = [
                out is not None and check_cli(want, out[0], out[1], SRC, sizes)
                for out, want in zip(res["outputs"], wl.expect)
            ]
        self.attempted += len(ok)
        self.failed += ok.count(False)
        self.errors += [err for err in res["errors"] if err]
        return res


def _layer_values(snap: dict) -> dict:
    values = {}
    for name, _, how, key in PER_LAYER:
        if how == COUNT:
            values[name] = snap["counts"].get(key, 0)
        else:
            rec = snap["spans"].get(key, [0, 0.0])
            values[name] = rec[0] if how == SPAN_CALLS else rec[1]
    return values


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _end_to_end(passes: Passes) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and report lines that add the per-op latency."""
    from workloads import GROUPS

    wl, plain = passes.wl, passes.plain
    walls = [r["wall_s"] for r in plain]
    # host slowdowns come in spells of several seconds, so the mean over all
    # passes of a run varies less between runs than any single pass
    wall_s = statistics.fmean(walls)
    e2e = {
        "setup_s": statistics.median(passes.import_s),
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
    }
    units = dict(END_TO_END)
    lines = [f"passes_s {json.dumps([round(w, 4) for w in walls])}"]
    for name, value in e2e.items():
        lines.append(f"{name:<16} {value:.6g} {units[name]}")
    for group in sorted(set(wl.groups), key=GROUPS.index):
        idx = [i for i, g in enumerate(wl.groups) if g == group]
        op_s = [r["op_s"][i] for r in plain for i in idx]
        lines.append(f"{'op_p50_ms':<16} {statistics.median(op_s) * 1000:.6g} ms  ({group}, {len(op_s)} ops)")
        tail = _tail(op_s)
        if tail:
            lines.append(f"{'op_tail_ms':<16} {tail[0] * 1000:.6g} ms  ({group}, p{tail[1]} of {len(op_s)} ops)")
        else:
            lines.append(f"{'op_tail_ms':<16} n/a  ({group}, fewer than 11 ops)")
        if wl.kind == "decide":
            symbols = sum(len(wl.ops[i][0]) + len(wl.ops[i][1]) for i in idx)
            time_s = statistics.fmean(sum(r["op_s"][i] for i in idx) for r in plain)
            lines.append(f"{'symbols_per_s':<16} {symbols / time_s:.6g} 1/s  ({group})")
    lines.append(f"{'fail_ratio':<16} {_ratio(passes.failed, passes.attempted):.6g} ratio"
                 f"  ({passes.failed} of {passes.attempted} ops)")
    return e2e, lines


def _per_layer(passes: Passes, wall_s: float) -> tuple[dict, list[str]]:
    """The per-layer metrics of the traced passes, and report lines."""
    wl, traced = passes.wl, passes.traced
    layers = [_layer_values(r["trace"]) for r in traced]
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        values = [lay[name] for lay in layers]
        metrics[name] = (statistics.median(values) if unit == "s" else values[0], unit)
    first = traced[0]
    scanned = first["trace"]["counts"].get("confusability.extended_prefix.symbols_scanned", 0)
    decided = first["trace"]["counts"].get("confusability.input_symbols", 0)
    metrics["confusability.scan_amplification"] = (_ratio(scanned, decided), "ratio")
    for group in AMPLIFICATION_GROUPS:
        idx = [i for i, g in enumerate(wl.groups) if g == group]
        part = sum(first["op_scanned"][i] for i in idx)
        whole = sum(len(wl.ops[i][0]) + len(wl.ops[i][1]) for i in idx)
        metrics[f"confusability.scan_amplification.{group}"] = (_ratio(part, whole), "ratio")
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
    lines = [f"{name:<48} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tdcodes" / "__init__.py").is_file():
        print(f"error: no tdcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tdcodes as td
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2

    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    machine = _machine()
    wl = build(args.workload, args.seed, td)
    machine["speed_probe_s"] = _speed_probe()
    passes = Passes(runner, wl)
    try:
        passes.run(args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e, lines = _end_to_end(passes)
    correct = passes.failed == 0
    if args.trace:
        metrics, layer_lines = _per_layer(passes, e2e["wall_s"])
        lines += layer_lines
        counts = [{k: v for k, v in r["trace"]["counts"].items()} for r in passes.traced]
        calls = [{k: v[0] for k, v in r["trace"]["spans"].items()} for r in passes.traced]
        if any(c != counts[0] for c in counts) or any(c != calls[0] for c in calls):
            passes.errors.append("per-layer counts differ between traced passes of one run")
            correct = False
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print("machine " + json.dumps(machine))
    print(f"workload {wl.name} seed {args.seed}: {len(passes.plain)} untraced and "
          f"{len(passes.traced)} traced passes")
    for line in lines:
        print(line)
    for err in passes.errors[:5]:
        print(f"error: {err}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
