"""Benchmark entry point: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload principality --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``).  Every measurement happens in fresh worker processes started one
at a time (a closed loop with a single caller), so no run inherits a warm
cache from another.

``--trace 0`` reports the end-to-end metrics: one timed worker runs a
fixed number of seeded ops, with five workers that only set up before it
and five after it, and ``setup_s`` the median over those ten.  All times are
scaled to a reference host speed by a library-free probe (hoststate.py),
because the shared host this was built on runs up to twice as slow for
stretches that can outlast a run.  ``--trace 1`` reports the per-layer
metrics: a traced worker and an untraced reference worker run the same first
ops, sized from ``--seconds``.  Human-readable lines come first; the last
stdout line is the JSON result.  Spans and result records go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import hoststate
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("principality", "factorization", "cli")
# Timed ops per requested second: a fixed count for a seed, so the measured
# ops do not depend on the host's speed.  A 30-second run takes about 16
# (principality), 30 (factorization) and 44 (cli) seconds of op time on the
# build machine in its usual state; cli runs longest because its p99 rests on
# the fewest samples.  Only a program several times slower is cut short,
# after SLOWDOWN_CAP times --seconds of op time.
OPS_PER_SECOND = {"principality": 2000, "factorization": 32, "cli": 85}
SLOWDOWN_CAP = 3.0
SETUP_ONLY_WORKERS = 5  # before and again after the timed worker: ten setup samples
WORKER_TIMEOUT_S = 150

# Each is the highest whole percentile with at least ten samples beyond it at
# the op count of one run, away from a boundary between cost modes.
TAIL_PERCENTILE = {"principality": 99.0, "factorization": 98.0, "cli": 99.0}

# Traced ops per requested second; the traced run covers a fixed number of ops
# so that its counts repeat exactly for a seed.
TRACE_OPS_PER_SECOND = {"principality": 2000, "factorization": 12, "cli": 25}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _git_commit() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args: list) -> tuple[dict, float]:
    """Run one worker to completion; returns (its JSON report, start time)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + [str(a) for a in args]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} exceeded {WORKER_TIMEOUT_S}s")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), started


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of the pct-th percentile among n values."""
    return max(1, -(-round(pct * 100) * n // 10000))


def _latencies(path: Path) -> array:
    values = array("d")
    values.frombytes(path.read_bytes())
    return values


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", seed]
    setups = []

    def setup_only():
        for _ in range(SETUP_ONLY_WORKERS):
            before = hoststate.probe()
            report, started = _worker(base + ["--mode", "setup"])
            scale = hoststate.scale(before, hoststate.probe())
            setups.append((report["first_op_at"] - started) * scale)

    setup_only()
    lat_path = OUT_DIR / f"latencies-{workload}.bin"
    count = max(1, round(OPS_PER_SECOND[workload] * seconds))
    res, _ = _worker(base + ["--mode", "timed", "--ops", count,
                             "--seconds", SLOWDOWN_CAP * seconds, "--lat-out", lat_path])
    setup_only()
    lat = sorted(_latencies(lat_path))
    count = res["attempted"]
    tail_pct = TAIL_PERCENTILE[workload]
    metrics = {
        "ops_per_s": count / math.fsum(lat),
        "latency_p50_ms": lat[_rank(50, count) - 1] * 1e3,
        "latency_tail_ms": lat[_rank(tail_pct, count) - 1] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {
        "ops_failed_ratio": res["failed"] / count,
        "tail_percentile": tail_pct,
        "samples_beyond_tail": count - _rank(tail_pct, count),
        "busy_s": res["busy_s"],
        "busy_at_reference_speed_s": math.fsum(lat),
        "probe_min_median_max_s": res["probe_s"],
        "setup_samples_s": setups,
    }
    return {"correct": res["failed"] == 0, "attempted": count, "failed": res["failed"],
            "metrics": {k: (metrics[k], u) for k, u in END_TO_END_UNITS.items()}}, extra


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    count = max(1, round(TRACE_OPS_PER_SECOND[workload] * seconds))
    base = ["--workload", workload, "--seed", seed, "--ops", count]
    spans_path = OUT_DIR / f"spans-{workload}.bin"
    traced, _ = _worker(base + ["--mode", "traced", "--trace-out", spans_path])
    reference, _ = _worker(base + ["--mode", "reference"])
    values = {}
    for name, calls, self_ns in zip(traced["names"], traced["calls"], traced["self_ns"]):
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_ns / 1e9
    reach = traced["gamma_reach"]
    hits = reach - traced["gamma_misses"]
    values["realroots.is_gamma.cache_hit_ratio"] = hits / reach if reach else 0.0
    verifies = values["idempotent.verify_factorization.calls"]
    facts = traced["factorizations"]
    values["idempotent.verify_factorization.per_factorization"] = verifies / facts if facts else 0.0
    values["cli.build_parser.per_op"] = values["cli.build_parser.calls"] / count
    wall_ns = traced["wall_ns"]
    unattributed_ns = wall_ns - traced["root_ns"]
    values["trace.overhead_ratio"] = wall_ns / reference["wall_ns"]
    values["trace.unattributed_s"] = unattributed_ns / 1e9
    self_total_ns = sum(traced["self_ns"])
    extra = {
        "traced_ops": count,
        "spans": traced["spans"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_wall_s": wall_ns / 1e9,
        "untraced_wall_s": reference["wall_ns"] / 1e9,
        # Self times partition the root spans, so this sum equals the traced
        # wall time exactly; a negative self time would mean broken nesting.
        "self_plus_unattributed_s": (self_total_ns + unattributed_ns) / 1e9,
        "identity_holds": self_total_ns + unattributed_ns == wall_ns
        and traced["min_self_ns"] >= 0 and unattributed_ns >= 0,
        "gamma_cache_reach": reach,
        "gamma_cache_misses": traced["gamma_misses"],
        "factorizations_returned": facts,
    }
    # Both passes run and check the same ops.
    failed = traced["failed"] + reference["failed"]
    return {"correct": failed == 0 and extra["identity_holds"],
            "attempted": traced["attempted"] + reference["attempted"], "failed": failed,
            "metrics": {k: (values[k], u) for k, u in tracing.per_layer_names()}}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dressring" / "__init__.py").is_file():
        print(f"error: no dressring sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            result, extra = per_layer(args.workload, args.seed, args.seconds)
        else:
            result, extra = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": _git_commit(),
        "loop": "closed, one caller, one op at a time",
    }
    print("meta: " + json.dumps(meta))
    for key, value in extra.items():
        print(f"info: {key} = {value}")
    if not args.trace:
        print(f"ops_failed_ratio: {extra['ops_failed_ratio']!r} ratio")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value!r} {unit}")
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "extra": extra, "result": final}, indent=1))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
