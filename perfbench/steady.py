#!/usr/bin/env python3
"""Steadiness check: run workloads on several seeds and report the spreads.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]
                                [--record SEED ...] [--write-baseline]

Runs ``run.py --trace 0`` once per seed ``0 .. runs-1``, one process after
the other, for ``run_seconds`` from ``BENCHMARK.json``, and prints per
workload and end-to-end metric the median of the run values and their
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  ``--record`` passes
``--record`` to the runs of the given seeds, storing their selections as
references.  ``--write-baseline`` stores the figures in ``baseline.json``
under ``end_to_end``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BASELINE = HERE / "baseline.json"


def run(workload: str, seed: int, record: bool) -> dict:
    """One run's result line, plus the environment from its record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    done = subprocess.run(cmd + (["--record"] if record else []),
                          check=True, timeout=900, capture_output=True,
                          text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace0.json"
    result["environment"] = json.loads(
        (HERE / "out" / stem).read_text())["environment"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--record", type=int, nargs="*", default=[])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(args.runs))
    report: dict[str, dict] = {}
    ok = True
    for name in args.workload or names:
        results = [run(name, seed, seed in args.record)
                   for seed in seeds]
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        print(f"{name}: {len(results)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"correct={correct}")
        rows = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            median, q1, q3, share = spread(values)
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "spread": share, "values": values}
            print(f"  {metric:<16} median {median:<12.5g} spread "
                  f"{share:7.2%}  bound {bound:.0%}  "
                  f"{'ok' if share < bound / 3 else 'WIDE'}")
        env = results[0]["environment"]
        report[name] = {
            "seeds": seeds, "correct": correct, "metrics": rows,
            "environment": {k: v for k, v in env.items()
                            if not k.startswith("loadavg")},
            "loadavg": [[r["environment"]["loadavg_before"][0],
                         r["environment"]["loadavg_after"][0]]
                        for r in results]}
    if args.write_baseline:
        data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        data.setdefault("end_to_end", {}).update(report)
        data["run_seconds"] = SPEC["run_seconds"]
        BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
