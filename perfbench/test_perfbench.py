"""Self-tests of the benchmark harness (seconds; no full workload runs)."""

from __future__ import annotations

import json
import re
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", "pass", 0.0, 10.0),
        Span("a", "ci.base", 1.0, 4.0, parent=0),
        Span("b", "ci.rcit", 3.0, 6.0, parent=0),   # overlaps a
        Span("a1", "data.table", 2.0, 3.0, parent=1),
        Span("c", "ci.store", 9.0, 12.0, parent=0),  # runs past root
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    metrics = tracing.cycle_metrics(spans)
    assert metrics["ci.base.self_s"] == pytest.approx(2.0)
    assert metrics["data.table.self_s"] == pytest.approx(1.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(4.0)


def test_cycles_reindex_parents():
    spans = [Span("cold", "pass", 0.0, 2.0, cycle=0),
             Span("x", "ci.gtest", 0.5, 1.0, parent=0, cycle=0),
             Span("cold", "pass", 3.0, 5.0, cycle=1),
             Span("x", "ci.gtest", 3.5, 4.5, parent=2, cycle=1)]
    cycles = tracing.by_cycle(spans)
    assert [s.parent for s in cycles[1]] == [None, 0]
    medians = tracing.median_metrics(spans)
    assert medians["ci.gtest.self_s"] == pytest.approx(0.75)
    assert medians["ci.gtest.calls"] == 1
    assert medians["pass.share"] == pytest.approx(0.625)


def test_metric_names_and_spec_agree_with_the_harness():
    spec_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    spec_layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert spec_e2e == run.END_TO_END
    assert spec_layers == {n: u for n, u, _ in tracing.PER_LAYER}
    names = [*spec_e2e, *spec_layers, *(w["name"] for w in SPEC["workloads"])]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def _fake_workload(selections, replay_tests=0):
    def run_pass(inputs, store):
        cold = not Path(store).exists()
        Path(store).write_text("{}")
        return SimpleNamespace(selections=selections,
                               ci_tests=3 if cold else replay_tests,
                               steps=[0.1])
    return SimpleNamespace(run_pass=run_pass, replays=1, cold_store=True)


SELECTION = [{"dataset": "d", "algorithm": "SeqSel", "c1": ["a"], "c2": [],
              "rejected": ["b"], "reasons": {"a": "PHASE1_INDEPENDENT",
                                             "b": "REJECTED_BIASED"},
              "ci_tests": 3}]


def test_reference_check_accepts_the_reference(tmp_path):
    inputs = SimpleNamespace(biased={"b"})
    reference = {"selections": SELECTION, "ci_tests": 3}
    samples = run.measure(_fake_workload(SELECTION), inputs, 0, None,
                          str(tmp_path), reference)
    assert samples["failures"] == []
    assert samples["matched"] == samples["cycles"] == run.MIN_CYCLES
    assert samples["biased_admitted"] == 0


def test_reference_check_rejects_a_perturbed_selection(tmp_path):
    perturbed = json.loads(json.dumps(SELECTION))
    perturbed[0]["c1"], perturbed[0]["rejected"] = ["a", "b"], []
    inputs = SimpleNamespace(biased={"b"})
    reference = {"selections": SELECTION, "ci_tests": 3}
    samples = run.measure(_fake_workload(perturbed), inputs, 0, None,
                          str(tmp_path), reference)
    assert samples["matched"] == 0
    assert samples["failed"] == samples["cycles"] == run.MIN_CYCLES
    assert samples["biased_admitted"] == 1


def test_a_replay_that_executes_tests_is_a_failure(tmp_path):
    inputs = SimpleNamespace(biased=set())
    samples = run.measure(_fake_workload(SELECTION, replay_tests=1), inputs,
                          0, None, str(tmp_path), None)
    assert samples["attempted"] == 2 * run.MIN_CYCLES
    assert samples["failures"] == [f"replay pass {cycle}: executed 1 tests"
                                   for cycle in range(run.MIN_CYCLES)]
    assert samples["failed"] == run.MIN_CYCLES


def test_host_probe_samples_inside_a_section_and_leaves_no_timer():
    probe = run.HostProbe()
    handler = signal.getsignal(signal.SIGALRM)
    probe.start()
    deadline = time.perf_counter() + 3 * run.PROBE_INTERVAL_S
    while time.perf_counter() < deadline:
        pass
    elapsed, factor = probe.stop()
    assert len(probe.times) > 2  # one before, one after, some inside
    assert elapsed < 3 * run.PROBE_INTERVAL_S  # without the inside ones
    assert factor == pytest.approx(run.PROBE_NOMINAL_S
                                   / statistics.median(probe.times))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


def _small_problem():
    from repro.core.problem import FairFeatureSelectionProblem
    from repro.data.table import Table

    rng = np.random.default_rng(0)
    s = rng.integers(0, 2, 600)
    data = {"s": s, "a": rng.integers(0, 3, 600),
            "p": np.where(rng.random(600) < 0.8, s, 1 - s),
            "x": rng.integers(0, 3, 600)}
    data["y"] = (rng.random(600) < 0.3 + 0.4 * data["p"]).astype(int)
    return FairFeatureSelectionProblem(
        table=Table(data), sensitive=["s"], admissible=["a"],
        candidates=["p", "x"], target="y")


def test_wrappers_record_spans_and_restore_the_original_methods():
    from repro.ci.gtest import GTestCI
    from repro.core.seqsel import SeqSel

    originals = [(cls, attr, cls.__dict__[attr])
                 for cls, attr, _, _ in tracing._targets()]
    plain = SeqSel(tester=GTestCI()).select(_small_problem())
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = SeqSel(tester=GTestCI()).select(_small_problem())
    finally:
        uninstall()
    assert all(cls.__dict__[attr] is original
               for cls, attr, original in originals)
    assert (traced.c1, traced.c2, traced.rejected, traced.n_ci_tests) == \
        (plain.c1, plain.c2, plain.rejected, plain.n_ci_tests)
    layers = {span.layer for span in tracer.spans}
    assert {"data.table", "ci.gtest", "ci.base", "ci.executor",
            "core.engine"} <= layers
    metrics = tracing.cycle_metrics(tracer.spans)
    assert metrics["ci.base.executed"] == plain.n_ci_tests
    assert metrics["ci.gtest.queries"] == plain.n_ci_tests
