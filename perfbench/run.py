#!/usr/bin/env python3
"""Run one benchmark workload; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` times cycles of a cold pass followed by warm replays — at
least three, and more while ``--seconds`` lasts — and reports the
end-to-end metrics; the inputs are set up again before every cycle, so
``setup_s`` is sampled across the whole run.  Every timed section is
bracketed by a host-speed probe (``HostProbe``) and its time reported in
reference-host seconds; the wall seconds stay in the record.  ``--trace 1``
wraps every layer entry point (see ``tracing.py``), runs cycles of one
cold pass plus one replay, and reports the per-layer metrics instead.
Either way every pass is checked against the recorded reference
(``reference.json``) when the seed has one, else against the run's first
pass, and the full record (environment, samples, per-layer table) is
written under ``perfbench/out/``.  ``--record`` stores the run's
selections as the reference for its seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CYCLES = 3
SETUP_REPEATS = 3  # timed set-ups before every cycle
#: Seconds per repetition of the host-speed probe on the reference host: a
#: section timed while the probe takes this long is reported at wall time.
PROBE_NOMINAL_S = 0.015
PROBE_REPS = 3  # repetitions of a probe before and after a section
PROBE_INTERVAL_S = 0.25  # one repetition this often inside a section

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {"select_s": "s", "replay_s": "s", "step_s": "s",
              "step_s.p90": "s", "ci_tests": "count", "tests_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB", "selection_match": "ratio"}


def prepare_environment() -> dict[str, str]:
    """Unset every ``REPRO_*`` variable (returned for the record) and pin
    BLAS to one thread; must run before numpy is imported."""
    found = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in found:
        del os.environ[key]
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return found


def git_state() -> dict | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment(repro_env: dict, load_before: tuple) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_before": list(load_before),
            "loadavg_after": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "git": git_state(), "repro_env": repro_env,
            "machine": platform.machine()}


# -- correctness -----------------------------------------------------------------

def without_counts(selections: list[dict]) -> list[dict]:
    return [{k: v for k, v in s.items() if k != "ci_tests"} for s in selections]


def biased_admitted(selections: list[dict], biased: set[str]) -> int:
    return sum(len(biased & set(s["c1"] + s["c2"])) for s in selections)


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def save_reference(workload: str, seed: int, record: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data.setdefault(workload, {})[str(seed)] = record
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# -- measurement -----------------------------------------------------------------

class HostProbe:
    """Fixed work, independent of the program, whose time tracks the speed
    the host currently gives this process.

    The host's speed drifts by tens of percent over seconds and minutes
    (README, "Noise"), for the probe and the program alike.  A timed
    section (``start`` .. ``stop``) is bracketed by two probes and, while it
    runs, sampled by one more every ``PROBE_INTERVAL_S`` from a timer
    signal; the time those take is left out of the section's wall time,
    and the section is scaled by ``PROBE_NOMINAL_S`` over their median, so it
    reads as seconds on a host of fixed speed.  The probe mixes what the
    workloads spend their time on: BLAS products and elementwise
    transcendentals, integer counting and sorting, small-array calls, and
    interpreter work on integers, tuples and dicts.
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self.a = rng.standard_normal((4000, 64))
        self.b = rng.standard_normal((64, 64))
        self.codes = rng.integers(0, 64, 200_000)
        self.keys = [f"k{i}" for i in range(5000)]
        self.times: list[float] = []  # every probe, per repetition
        self._section: list[float] = []
        self._spent = self._began = 0.0
        self._handler = signal.SIG_DFL

    def _work(self) -> None:
        import numpy

        x = self.a @ self.b
        numpy.cos(x, out=x)
        x.T @ self.a
        numpy.bincount(self.codes, minlength=64)
        numpy.unique(self.codes[:50_000])
        sum(i * i for i in range(20_000))
        {(key, len(key)): key for key in self.keys}
        small = self.codes[:1000]
        for _ in range(100):
            (small * 3 + 1).sum()

    def probe(self, reps: int = PROBE_REPS) -> float:
        """Run the probe ``reps`` times and return the seconds taken; the
        seconds per repetition are recorded."""
        start = time.perf_counter()
        for _ in range(reps):
            self._work()
        elapsed = time.perf_counter() - start
        self.times.append(elapsed / reps)
        self._section.append(elapsed / reps)
        return elapsed

    def _sample(self, signum, frame) -> None:
        self._spent += self.probe(1)

    def start(self) -> None:
        self._section = []
        self.probe()
        self._spent = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        self._began = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the section: its wall seconds without the probes inside, and
        the factor that turns them into reference-host seconds."""
        elapsed = time.perf_counter() - self._began
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        elapsed -= self._spent
        self.probe()
        return elapsed, PROBE_NOMINAL_S / statistics.median(self._section)


def measure(workload, inputs, seconds: float, tracer, scratch: str,
            expected: dict | None,
            between: Callable[[], object] | None = None,
            probe: HostProbe | None = None) -> dict:
    """Cycles of one cold pass and its replays for about ``seconds``: at
    least ``MIN_CYCLES``, and no further cycle once the last one's duration
    says the next would end past the deadline.  ``between`` runs before
    every cycle but the first.  With a ``probe``, pass and step times are
    scaled to reference-host seconds and the wall times kept apart.

    A workload whose cold pass runs without a store (``cold_store`` false)
    gets an untimed ``fill`` pass that writes the store the replays read:
    once per run, or in every cycle of a traced run, whose per-layer
    figures count it.
    """
    replays = 1 if tracer is not None else workload.replays
    cold_s, replay_s, steps, counts = [], [], [], []
    wall: dict[str, list[float]] = {"cold_s": [], "replay_s": []}
    failures: list[str] = []
    attempted = failed = matched = leaked = 0
    first = None
    deadline = time.perf_counter() + seconds
    cycle, last = 0, 0.0
    while cycle < MIN_CYCLES or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        if cycle and between is not None:
            between()
        fill = not workload.cold_store and (cycle == 0 or tracer is not None)
        owner = cycle if workload.cold_store or fill else 0  # who wrote it
        store = os.path.join(scratch, f"store-{owner}.json")
        if tracer is not None:
            tracer.cycle = cycle
        kinds = ["cold"] + ["fill"] * fill + ["replay"] * replays
        for kind in kinds:
            attempted += 1
            gc.collect()
            span = tracer.open(kind, "pass") if tracer is not None else None
            if probe is not None:
                probe.start()
            start = time.perf_counter()
            try:
                result = workload.run_pass(
                    inputs, None if kind == "cold" and not workload.cold_store
                    else store)
            except Exception as exc:  # a failed pass is a measured outcome
                failures.append(f"{kind} pass {cycle}: {exc!r}")
                failed += 1
                break
            finally:
                elapsed, factor = time.perf_counter() - start, 1.0
                if probe is not None:
                    elapsed, factor = probe.stop()
                if span is not None:
                    tracer.close(span)
            scaled = elapsed * factor
            record = {"selections": result.selections,
                      "ci_tests": result.ci_tests}
            problems = []
            if kind == "cold":
                first = first or record
                if record == (expected or first):
                    matched += 1
                else:
                    problems.append("selection or ci_tests differ from the "
                                    "reference")
                leaked = max(leaked, biased_admitted(result.selections,
                                                     inputs.biased))
                cold_s.append(scaled)
                wall["cold_s"].append(elapsed)
                steps.extend([step * factor for step in result.steps]
                             or [scaled])
                counts.append(result.ci_tests)
                cold = record
            elif without_counts(result.selections) != \
                    without_counts(cold["selections"]):
                problems.append("selection differs from the cold pass")
            if kind == "replay":
                if result.ci_tests:
                    problems.append(f"executed {result.ci_tests} tests")
                replay_s.append(scaled)
                wall["replay_s"].append(elapsed)
            failures += [f"{kind} pass {cycle}: {p}" for p in problems]
            failed += bool(problems)
            if kind != "replay":
                os.sync()  # store writes must not flush during timed replays
        cycle += 1
        last = time.perf_counter() - began
    return {"cold_s": cold_s, "replay_s": replay_s, "steps": steps,
            "wall": wall, "ci_tests": counts, "attempted": attempted,
            "failed": failed, "failures": failures, "matched": matched,
            "cycles": cycle, "biased_admitted": leaked, "first": first}


def end_to_end(samples: dict, setup_s: list[float]) -> dict[str, float]:
    import numpy

    select_s = statistics.median(samples["cold_s"]) if samples["cold_s"] else 0.0
    ci_tests = statistics.median(samples["ci_tests"]) if samples["ci_tests"] else 0
    steps = samples["steps"] or [0.0]
    return {
        "select_s": select_s,
        "replay_s": (statistics.median(samples["replay_s"])
                     if samples["replay_s"] else 0.0),
        "step_s": statistics.median(steps),
        "step_s.p90": float(numpy.percentile(steps, 90)),
        "ci_tests": float(ci_tests),
        "tests_per_s": ci_tests / select_s if select_s else 0.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "selection_match": samples["matched"] / samples["cycles"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's selections as the seed's "
                             "reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: program sources not found under src/repro",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    repro_env = prepare_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    expected = None if args.record else load_reference(workload.name,
                                                        args.seed)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload.warmup(os.path.join(scratch, "warmup.json"))
        probe = None if args.trace else HostProbe()
        for _ in range(3 if probe is not None else 0):
            probe.probe()
        setup_s: list[float] = []

        def set_up():
            for _ in range(SETUP_REPEATS):
                gc.collect()
                if probe is None:
                    start = time.perf_counter()
                    inputs = workload.setup(args.seed)
                    setup_s.append(time.perf_counter() - start)
                    continue
                probe.start()
                try:
                    inputs = workload.setup(args.seed)
                finally:
                    elapsed, factor = probe.stop()
                setup_s.append(elapsed * factor)
            return inputs

        inputs = set_up()
        tracer = tracing.Tracer() if args.trace else None
        uninstall = tracing.install(tracer) if tracer is not None else None
        try:
            samples = measure(workload, inputs, args.seconds, tracer,
                              scratch, expected,
                              None if tracer is not None else set_up, probe)
        finally:
            if uninstall is not None:
                uninstall()

    failed = samples["failed"]
    correct = failed == 0 and samples["biased_admitted"] == 0
    if args.trace:
        values = tracing.median_metrics(tracer.spans)
        layers = {layer: {key: values[f"{layer}.{key}"]
                          for key in ("calls", "self_s", "share")}
                  for layer in ("pass", *tracing.LAYERS)}
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        layers = None
        values, units = end_to_end(samples, setup_s), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "reference": "recorded" if expected else "first-pass",
        "correct": correct, "attempted": samples["attempted"],
        "failed": failed, "failures": samples["failures"],
        "error_rate": failed / samples["attempted"],
        "biased_admitted": samples["biased_admitted"],
        "samples": {k: samples[k] for k in
                    ("cold_s", "replay_s", "wall", "ci_tests", "cycles")},
        "probe_s": probe.times if probe is not None else [],
        "step_samples": len(samples["steps"]), "setup_samples": setup_s,
        "metrics": metrics, "layers": layers,
        "environment": environment(repro_env, load_before),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracing.write_spans(str(OUT / f"{stem}.spans.jsonl"), tracer.spans)
    if args.record:
        if not correct:
            print("perfbench: not recording a failed run", file=sys.stderr)
            return 1
        save_reference(workload.name, args.seed, samples["first"])
    print(f"{workload.name} seed={args.seed}: {samples['cycles']} cycles, "
          f"{failed} failed; record in {OUT.name}/{stem}.json")
    print(json.dumps({"correct": correct, "attempted": samples["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
