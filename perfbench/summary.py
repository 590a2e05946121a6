#!/usr/bin/env python3
"""Print every end-to-end metric, then the per-layer table of a traced run.

    python3 perfbench/summary.py [--seed 0] [--workload NAME ...]
                                 [--write-baseline]

For each workload, runs ``run.py`` untraced and then traced (one process
after the other, ``run_seconds`` from ``BENCHMARK.json``) and prints from
their records under ``perfbench/out/``: each end-to-end metric with its
unit and sample count; each layer's calls, self seconds and share of the
cycle, with that layer's counts; and the tracing overhead (traced
``select_s`` minus the untraced cold pass's median wall time).  Exits 1
unless every run, traced or not, was correct.  ``--write-baseline`` stores
the traced figures in ``baseline.json`` under ``traced``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SAMPLES = {"select_s": "cold_s", "replay_s": "replay_s"}


def run(workload: str, seed: int, trace: int) -> dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds",
                    str(SPEC["run_seconds"]), "--trace", str(trace)],
                   check=True, timeout=900, stdout=subprocess.DEVNULL)
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((OUT / f"{stem}.json").read_text())


def sample_count(record: dict, metric: str) -> int:
    if metric in SAMPLES:
        return len(record["samples"][SAMPLES[metric]])
    if metric.startswith("step_s"):
        return record["step_samples"]
    if metric == "setup_s":
        return len(record["setup_samples"])
    return record["samples"]["cycles"]


def print_end_to_end(records: dict[str, dict]) -> None:
    print(f"{'workload':<20} {'metric':<16} {'value':>12} {'unit':<6} n")
    for name, record in records.items():
        for metric, entry in record["metrics"].items():
            print(f"{name:<20} {metric:<16} {entry['value']:>12.5g} "
                  f"{entry['unit']:<6} {sample_count(record, metric)}")
        env = record["environment"]
        print(f"{name:<20} correct={record['correct']} "
              f"error_rate={record['error_rate']:.3g} "
              f"biased_admitted={record['biased_admitted']} "
              f"reference={record['reference']} "
              f"load={env['loadavg_before'][0]:.2f}->"
              f"{env['loadavg_after'][0]:.2f}")


def print_layers(name: str, untraced: dict, traced: dict) -> None:
    print(f"\n{name}: per cycle (cold pass, fill pass if any, one replay), "
          f"median of {traced['samples']['cycles']} cycles")
    print(f"  {'layer':<12} {'calls':>8} {'self_s':>10} {'share':>7}  counts")
    metrics = traced["metrics"]
    for layer, row in traced["layers"].items():
        counts = ", ".join(
            f"{k[len(layer) + 1:]}={v['value']:.4g}"
            for k, v in metrics.items()
            if k.startswith(layer + ".")
            and not k.endswith((".calls", ".self_s")))
        print(f"  {layer:<12} {row['calls']:>8.0f} {row['self_s']:>10.4f} "
              f"{row['share']:>7.1%}  {counts}")
    plain = statistics.median(untraced["samples"]["wall"]["cold_s"])
    traced_s = metrics["trace.select_s"]["value"]
    print(f"  tracing overhead: {traced_s:.4f} s traced - {plain:.4f} s "
          f"untraced (wall) = {traced_s - plain:+.4f} s "
          f"({(traced_s - plain) / plain:+.1%})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    names = args.workload or WORKLOADS
    untraced, traced = {}, {}
    for name in names:
        for trace, into in ((0, untraced), (1, traced)):
            into[name] = run(name, args.seed, trace)
    print_end_to_end(untraced)
    for name in names:
        print_layers(name, untraced[name], traced[name])
    if args.write_baseline:
        data = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        section = data.setdefault("traced", {})
        for name in names:
            section[name] = {
                "seed": args.seed, "layers": traced[name]["layers"],
                "metrics": {k: v["value"]
                            for k, v in traced[name]["metrics"].items()},
                "untraced_select_wall_s": statistics.median(
                    untraced[name]["samples"]["wall"]["cold_s"])}
        BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    records = [*untraced.values(), *traced.values()]
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
