"""Self-test of the benchmark: metric names, output checks, failure counting.

    python3 bench/selftest.py

Run from the root of a source checkout.  It runs every workload at a tiny
size through run.py, end to end and traced, and asserts that each metric
named in BENCHMARK.json is printed with its unit and that no op failed.  It
then feeds deliberately corrupted outputs to the output checks and asserts
that each is counted as failed.  Exits non-zero on the first failed
assertion.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import oracle  # noqa: E402  (needs the paths above)
import worker  # noqa: E402
import workloads  # noqa: E402


class SelfTestFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=300)
            require(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n"
                    f"{proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{workload}: result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{workload} trace={trace}: {result['failed']} of "
                    f"{result['attempted']} ops failed")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            require(got == expected, f"{workload} trace={trace}: metrics {got} != {expected}")
            printed = "\n".join(lines[:-1])
            names = list(expected) + ([] if trace else ["ops_failed_ratio"])
            for name in names:
                require(f"\n{name}: " in "\n" + printed, f"{workload}: {name} not printed")
            print(f"ok: {workload} trace={trace}: {len(expected)} metrics, "
                  f"{result['attempted']} ops checked")


def check_corruption_is_counted() -> None:
    # One factor of a verified factorization altered: the E*E == E and the
    # product checks must reject it.
    wl = workloads.Factorization(7)
    ops = wl.next_ops(4)
    outcomes = [(True, wl.run(op)) for op in ops]
    require(worker._check_all(wl, ops, outcomes) == 0, "clean factorizations rejected")
    fact = outcomes[0][1]
    first = fact.factors[0]
    altered = dataclasses.replace(first, a=first.a + 1)
    corrupt = dataclasses.replace(fact, factors=(altered,) + fact.factors[1:])
    outcomes[0] = (True, corrupt)
    require(worker._check_all(wl, ops, outcomes) == 1, "corrupted factor not counted as failed")
    print("ok: factorization with one altered factor counted as failed")

    # The expansion coefficients of a principal generator swapped.
    wl = workloads.Principality(7)
    ops = wl.next_ops(400)
    reports = [(True, wl.run(op)) for op in ops]
    idx = next(i for i, (_, r) in enumerate(reports) if r.principal
               and r.expansion[0] != r.expansion[1])
    r = reports[idx][1]
    reports[idx] = (True, dataclasses.replace(r, expansion=(r.expansion[1], r.expansion[0])))
    require(worker._check_all(wl, ops, reports) == 1, "corrupted generator expansion not counted")
    print("ok: principal generator with swapped expansion counted as failed")

    # A CLI factorization whose printed factor is altered, and a CLI exit 2.
    wl = workloads.Cli(7)
    ops = [op for op in wl.next_ops(200) if op[0][0] == "factor"][:1]
    outcomes = [(True, wl.run(op)) for op in ops]
    require(worker._check_all(wl, ops, outcomes) == 0, "clean CLI factor rejected")
    code, text = outcomes[0][1]
    report = json.loads(text)
    factors = report["result"]["factors"]
    a, b, c, d = oracle.parse_matrix_text(factors[-1])
    factors[-1] = f"[[{a}, {'1' if b == '0' else '0'}], [{c}, {d}]]"
    outcomes.append((True, (code, json.dumps(report))))
    outcomes.append((True, (2, text)))
    ops = ops * 3
    require(worker._check_all(wl, ops, outcomes) == 2, "corrupted CLI outputs not counted")
    print("ok: CLI factor output with one altered factor, and exit code 2, counted as failed")


def main() -> int:
    try:
        check_corruption_is_counted()
        check_metric_names()
    except SelfTestFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
