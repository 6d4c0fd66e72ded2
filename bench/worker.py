"""One fresh benchmark process: build inputs, run ops, check outputs, report JSON.

Started by run.py as a process of its own (selftest.py imports its checks).  Modes:

* ``setup``: build the first inputs, note the time the first op would start, exit;
* ``timed``: closed loop from a cold start for ``--ops`` ops, cut short
  after ``--seconds`` of op time, in windows of about 0.1 s, each bracketed
  by a host-speed probe (see hoststate.py); per-op latencies, scaled to the
  reference host speed, go to ``--lat-out``; outputs are checked, and the
  next inputs built, between windows, outside the timed region;
* ``traced`` / ``reference``: the first ``--ops`` ops with and without the
  tracer, for the per-layer metrics and the tracing overhead.

The last stdout line is the JSON report.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import hoststate  # noqa: E402
import workloads  # noqa: E402  (needs the path above)

WINDOW_S = 0.1


def _check_all(wl, ops, outcomes) -> int:
    failed = 0
    for op, out in zip(ops, outcomes):
        try:
            good = wl.check(op, out)
        except Exception:  # a malformed output that breaks the check is a failure
            good = False
        failed += not good
    return failed


def timed(wl, count: int, seconds: float, lat_out: Path) -> dict:
    """From a cold start, the first ``count`` ops, or fewer once ``seconds`` of op time pass.

    Ops run in windows of about WINDOW_S, each bracketed by a host-speed
    probe; every op's time is scaled to the reference host speed (see
    hoststate.py) and written to ``lat_out`` as a double.  Outputs are
    checked, and the next inputs built, between windows, outside the timed
    region.
    """
    latencies = array("d", bytes(8 * count))
    clock = time.perf_counter
    run = wl.run
    ops = wl.next_ops(wl.chunk)
    first_op_at = time.monotonic()
    before = hoststate.probe()
    probes = [before]
    n = failed = 0
    busy = 0.0
    while n < count and busy < seconds:
        start = n
        window_end = clock() + WINDOW_S
        outcomes = []
        for op in ops:
            t0 = clock()
            try:
                out = (True, run(op))
            except Exception as exc:  # any exception is a failed op, counted below
                out = (False, exc)
            t1 = clock()
            latencies[n] = t1 - t0
            n += 1
            busy += t1 - t0
            outcomes.append(out)
            if t1 >= window_end or n == count or busy >= seconds:
                break
        after = hoststate.probe()
        probes.append(after)
        factor = hoststate.scale(before, after)
        for i in range(start, n):
            latencies[i] *= factor
        before = after
        failed += _check_all(wl, ops, outcomes)
        ops = ops[len(outcomes):] or wl.next_ops(wl.chunk)
    Path(lat_out).write_bytes(latencies[:n].tobytes())
    probes.sort()
    return {
        "first_op_at": first_op_at,
        "attempted": n,
        "failed": failed,
        "busy_s": busy,
        "probe_s": [probes[0], probes[len(probes) // 2], probes[-1]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fixed(wl, count: int, trace_out) -> dict:
    """The first ``count`` ops, each timed in ns; traced when ``trace_out`` is set."""
    ops = wl.next_ops(count)
    tracer = None
    if trace_out is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    cache = getattr(sys.modules["dressring.realroots"], "_gamma_cache", None)
    cache_before = len(cache) if cache is not None else 0
    clock = time.perf_counter_ns
    run = wl.run
    outcomes = []
    wall_ns = 0
    for op in ops:
        t0 = clock()
        try:
            out = (True, run(op))
        except Exception as exc:  # any exception is a failed op
            out = (False, exc)
        wall_ns += clock() - t0
        outcomes.append(out)
    cache_after = len(cache) if cache is not None else 0
    report = {"attempted": len(ops), "wall_ns": wall_ns}
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summarize()
        tracer.write(Path(trace_out))
        report.update(
            names=tracer.names,
            calls=summary["calls"],
            self_ns=summary["self_ns"],
            root_ns=summary["root_ns"],
            spans=summary["spans"],
            min_self_ns=summary["min_self_ns"],
            gamma_reach=tracer.gamma_reach,
            gamma_misses=cache_after - cache_before,
            factorizations=tracer.factorizations,
        )
    report["failed"] = _check_all(wl, ops, outcomes)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=["setup", "timed", "traced", "reference"])
    parser.add_argument("--seconds", type=float, default=float("inf"))
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--lat-out", default=None)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.mode == "setup":
        wl.next_ops(wl.chunk)
        report = {"first_op_at": time.monotonic()}
    elif args.mode == "timed":
        report = timed(wl, args.ops, args.seconds, args.lat_out)
    else:
        report = fixed(wl, args.ops, args.trace_out if args.mode == "traced" else None)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
