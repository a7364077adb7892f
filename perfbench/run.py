"""The ncskew benchmark: one workload per invocation, every output checked.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload queries --seed 1 --seconds 2 --trace 1 --smoke

Run it from the root of a checkout.  A pass is one round of the workload's
fixed work; each step of a pass runs in a fresh process (`measure.py`), so
caches start cold.  Passes repeat while the next one is expected to finish
within --seconds (at least one; two with --trace 1, which alternates
untraced and traced passes).  Nothing runs concurrently except the two
workers of `verify_exhaustive(7, jobs=2)`.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones; see README.md in this directory for
their definitions and for what each layer metric is expected to move.
Times are scaled to a nominal host speed (see measure.py); the stamp also
carries the unscaled pass times and the host probe.  The lines before the
result are that stamp (git SHA, Python version, nproc, seed, jobs) and a
readable table that names each workload's figures; --record
appends stamp and result to a JSON-lines file such as baseline.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

STEPS = {
    "sweep": ("verify6", "verify7", "verify7j2"),
    "expand": ("expand",),
    "queries": ("queries",),
}
JOBS = {"sweep": [1, 2], "expand": [1], "queries": [1]}
WORK_NAME = {"sweep": "checks_per_s", "expand": "expansions_per_s", "queries": "queries_per_s"}
RUN_DEADLINE_S = 170  # a run must end within 180 s, even when a step hangs

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "diagrams.enumerate_s": "s",
    "diagrams.count": "count",
    "sym.expand_s": "s",
    "sym.expand_calls": "count",
    "sym.overlap_s": "s",
    "sym.overlap_calls": "count",
    "sym.overlap_pruned_ratio": "ratio",
    "ncsym.expand_s": "s",
    "ncsym.expand_calls": "count",
    "ncsym.expand_terms": "count",
    "ncsym.expand.column_s": "s",
    "ncsym.expand.hook_s": "s",
    "ncsym.expand.ribbon_s": "s",
    "ncsym.expand.staircase_s": "s",
    "ncsym.expand.all_s": "s",
    "ncsym.act_s": "s",
    "ncsym.act_calls": "count",
    "ncsym.cache_hit_ratio": "ratio",
    "ncsym.cache_entries": "count",
    "classify.verify6_unpruned_s": "s",
    "classify.verify7_pruned_s": "s",
    "classify.verify7_jobs2_s": "s",
    "classify.jobs2_speedup": "ratio",
    "classify.self_s": "s",
    "classify.ns_per_check": "ns",
    "classify.disagreements": "count",
    "classify.predicate_s": "s",
    "classify.oracle_s": "s",
    "classify.same_diagram_s": "s",
    "textio.parse_s": "s",
    "textio.parse_calls": "count",
    "textio.format_s": "s",
    "textio.format_calls": "count",
    "cli.self_s": "s",
    "cli.expand-nc_p50_ms": "ms",
    "cli.classify_p50_ms": "ms",
    "cli.equal_p50_ms": "ms",
    "cli.rho_p50_ms": "ms",
    "trace.overhead_s": "s",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, p in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def git_sha() -> str:
    """HEAD's commit id read from .git in the checkout, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_step(step: str, seed: int, trace: bool, smoke: bool, timeout: float) -> dict:
    """Run one step in a fresh process and return its result.  The process
    gets its own session, so a timeout also ends the workers it started."""
    spec = json.dumps({"step": step, "seed": seed, "trace": int(trace), "smoke": int(smoke)})
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py"), spec],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"step {step} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, trace: bool, smoke: bool, deadline: float) -> dict:
    """Run every step of one pass and merge them: times, work and counts
    add up, latencies concatenate, memory takes the largest step."""
    merged = {"wall_s": 0.0, "raw_wall_s": 0.0, "work": 0, "failed": 0, "attempted": 0, "rss_mb": 0.0}
    merged.update(setups=[], probes=[], latencies_ms=[], tags=[], errors=[], layers={}, steps={})
    for step in STEPS[workload]:
        result = run_step(step, seed, trace, smoke, deadline - time.perf_counter())
        for key in ("wall_s", "raw_wall_s", "work", "failed"):
            merged[key] += result[key]
        merged["attempted"] += len(result["latencies_ms"])
        merged["rss_mb"] = max(merged["rss_mb"], result["rss_mb"])
        merged["setups"].append(result["setup_s"])
        merged["probes"].append(result["probe_s"])
        merged["latencies_ms"] += result["latencies_ms"]
        merged["tags"] += result["tags"]
        merged["errors"] += result["errors"]
        merged["steps"][step] = result
        for key, value in result.get("layers", {}).items():
            if key == "ncsym.cache_entries":
                merged["layers"][key] = max(merged["layers"].get(key, 0), value)
            else:
                merged["layers"][key] = merged["layers"].get(key, 0) + value
    return merged


def layer_metrics(p: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    raw = p["layers"]

    def get(key: str) -> float:
        return raw.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def kind_p50(kind: str) -> float:
        values = [lat for lat, tag in zip(p["latencies_ms"], p["tags"]) if tag == kind]
        return statistics.median(values) if values else 0.0

    steps = p["steps"]
    jobs1 = [s for s in ("verify6", "verify7") if s in steps]
    jobs1_checks = sum(steps[s]["work"] for s in jobs1)
    jobs1_time = sum(get(f"classify.{s}.s") for s in jobs1)
    out = {
        "diagrams.enumerate_s": get("diagrams.enumerate.s"),
        "diagrams.count": get("diagrams.count"),
        "sym.expand_s": get("sym.expand.s"),
        "sym.expand_calls": get("sym.expand.calls"),
        "sym.overlap_s": get("sym.overlap.s"),
        "sym.overlap_calls": get("sym.overlap.calls"),
        "sym.overlap_pruned_ratio": ratio(get("sym.overlap_pruned"), get("sym.overlap.calls")),
        "ncsym.expand_s": get("ncsym.expand.s"),
        "ncsym.expand_calls": get("ncsym.expand.calls"),
        "ncsym.expand_terms": get("ncsym.expand_terms"),
        "ncsym.act_s": get("ncsym.act.s"),
        "ncsym.act_calls": get("ncsym.act.calls"),
        "ncsym.cache_hit_ratio": ratio(
            get("ncsym.cache_hits"), get("ncsym.cache_hits") + get("ncsym.cache_misses")
        ),
        "ncsym.cache_entries": get("ncsym.cache_entries"),
        "classify.verify6_unpruned_s": get("classify.verify6.s"),
        "classify.verify7_pruned_s": get("classify.verify7.s"),
        "classify.verify7_jobs2_s": get("classify.verify7j2.s"),
        "classify.jobs2_speedup": ratio(get("classify.verify7.s"), get("classify.verify7j2.s")),
        "classify.self_s": get("classify.self_s"),
        "classify.ns_per_check": ratio(jobs1_time * 1e9, jobs1_checks),
        "classify.disagreements": get("classify.disagreements"),
        "classify.predicate_s": get("classify.predicate.s"),
        "classify.oracle_s": get("classify.oracle.s"),
        "classify.same_diagram_s": get("classify.same_diagram.s"),
        "textio.parse_s": get("textio.parse.s"),
        "textio.parse_calls": get("textio.parse.calls"),
        "textio.format_s": get("textio.format.s"),
        "textio.format_calls": get("textio.format.calls"),
        "cli.self_s": get("cli.self_s"),
    }
    for family in ("column", "hook", "ribbon", "staircase", "all"):
        out[f"ncsym.expand.{family}_s"] = get(f"ncsym.expand.tag.{family}.s")
    for kind in ("expand-nc", "classify", "equal", "rho"):
        out[f"cli.{kind}_p50_ms"] = kind_p50(kind)
    return out


def measure_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        # Each pass draws its own inputs, so a run averages over several
        # input sets; the sequence of pass seeds is fixed by the run's seed.
        pass_seed = seed * 1000 + len(passes)
        passes.append((traced, run_pass(workload, pass_seed, traced, smoke, start + RUN_DEADLINE_S)))
        last = time.perf_counter() - t0
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + last > seconds:
            return passes


def end_to_end(passes: list) -> dict[str, float]:
    plain = [p for traced, p in passes if not traced]
    return {
        "setup_s": statistics.median(s for _, p in passes for s in p["setups"]),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "ops_per_s": statistics.median(p["work"] / p["wall_s"] for p in plain),
        "op_p50_ms": statistics.median(percentile(p["latencies_ms"], 50) for p in plain),
        "op_p99_ms": statistics.median(percentile(p["latencies_ms"], 99) for p in plain),
        "peak_rss_mb": max(p["rss_mb"] for _, p in passes),
    }


def per_layer(passes: list) -> dict[str, float]:
    traced = [layer_metrics(p) for is_traced, p in passes if is_traced]
    out = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    traced_wall = statistics.median(p["wall_s"] for is_traced, p in passes if is_traced)
    plain_wall = statistics.median(p["wall_s"] for is_traced, p in passes if not is_traced)
    out["trace.overhead_s"] = traced_wall - plain_wall
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes: verify 4/5, 50 queries")
    parser.add_argument("--record", metavar="PATH", help="append the stamped result as a JSON line")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ncskew", "__init__.py")):
        print(f"error: no ncskew package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        passes = measure_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(p["failed"] for _, p in passes)
    for error in [e for _, p in passes for e in p["errors"]][:10]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(passes), PER_LAYER
    else:
        values, units = end_to_end(passes), END_TO_END

    stamp = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "jobs": JOBS[args.workload],
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for _, p in passes],
        "raw_pass_wall_s": [p["raw_wall_s"] for _, p in passes],
        "probe_s": statistics.median(x for _, p in passes for x in p["probes"]),
        "failed_frac": failed / attempted,
    }
    print("stamp " + json.dumps(stamp))
    if not args.trace:
        per_s = values["ops_per_s"]
        print(f"{WORK_NAME[args.workload]:<24} {per_s:.6g} 1/s")
    for name in units:
        print(f"{name:<28} {values[name]:.6g} {units[name]}")
    print(f"{'failed_frac':<28} {failed / attempted:.6g} {failed}/{attempted}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a") as out:
            out.write(json.dumps({"stamp": stamp, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
