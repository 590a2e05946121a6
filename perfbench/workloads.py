"""The benchmark's three workloads: seeded input generators and one pass each.

A workload turns ``--seed`` into inputs (``setup``), then runs *passes*
over them.  A pass builds a fresh :class:`~repro.data.table.Table` from the
generated columns, so the per-table caches are paid inside it, and runs
the workload's selections against one persistent CI store: a *cold* pass
starts from an empty store file (writes), a *replay* pass from a fresh
store object loaded from that file (reads only, and must execute no test).

The program receives only the generated columns and fixed configuration:
selector seeds, testers and alpha never vary with the workload seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.ci.gtest import GTestCI
from repro.ci.store import PersistentCICache
from repro.core.grpsel import GrpSel
from repro.core.online import OnlineSelector
from repro.core.problem import FairFeatureSelectionProblem
from repro.core.result import SelectionResult
from repro.core.seqsel import SeqSel
from repro.data.loaders import LOADERS
from repro.data.table import Table


@dataclass
class Inputs:
    """Generated inputs of one workload: columns plus ground truth."""

    datasets: list[dict]
    biased: set[str] = field(default_factory=set)


@dataclass
class PassResult:
    """What one pass produced: selections, tests executed, and the latency
    of each step (empty when the whole pass is one step)."""

    selections: list[dict]
    ci_tests: int
    steps: list[float]


def selection_record(name: str, result: SelectionResult) -> dict:
    """The comparable part of a selection: sets, reasons and exact count."""
    return {"dataset": name, "algorithm": result.algorithm,
            "c1": list(result.c1), "c2": list(result.c2),
            "rejected": list(result.rejected),
            "reasons": {f: r.name for f, r in sorted(result.reasons.items())},
            "ci_tests": int(result.n_ci_tests)}


def _problem(dataset: dict, table: Table) -> FairFeatureSelectionProblem:
    return FairFeatureSelectionProblem(
        table=table, sensitive=dataset["sensitive"],
        admissible=dataset["admissible"], candidates=dataset["candidates"],
        target=dataset["target"], name=dataset["name"])


def _fresh_table(dataset: dict) -> Table:
    return Table(dataset["columns"], schema=dataset.get("schema"))


# -- paper datasets (RCIT) ----------------------------------------------------

def _loader_dataset(name: str, seed: int) -> dict:
    ds = LOADERS[name](seed=seed)
    train = ds.train
    return {"name": name, "columns": {c: train[c] for c in train.columns},
            "schema": train.schema, "sensitive": list(ds.sensitive),
            "admissible": list(ds.admissible),
            "candidates": list(ds.candidates), "target": ds.target,
            "biased": list(ds.biased_features)}


def paper_setup(names: list[str]) -> Callable[[int], Inputs]:
    def setup(seed: int) -> Inputs:
        datasets = [_loader_dataset(name, seed) for name in names]
        for dataset in datasets:
            _fresh_table(dataset)
        return Inputs(datasets, {f for d in datasets for f in d["biased"]})
    return setup


def selections_pass(make_selectors: Callable[[], list]
                    ) -> Callable[[Inputs, str], PassResult]:
    """A pass that runs every selector on every dataset, one store shared."""
    def run(inputs: Inputs, store_path: str) -> PassResult:
        store = PersistentCICache(store_path)
        records = []
        for dataset in inputs.datasets:
            problem = _problem(dataset, _fresh_table(dataset))
            for selector in make_selectors():
                selector.cache = store
                records.append(selection_record(dataset["name"],
                                                selector.select(problem)))
        return PassResult(records, sum(r["ci_tests"] for r in records), [])
    return run


# -- wide discrete store workload (G-test) --------------------------------------
#
# The G-test workloads fix the *shape* of the problem — which candidates
# are proxies, which latent each safe column encodes, the drift schedule —
# and draw only values from the seed.  Safe columns are exactly balanced
# against (s, a1, a2), so every verdict, and with it the work a pass does,
# is the same on every seed: runs on different seeds differ by noise only.

WIDE_ROWS = 20_000
WIDE_CANDIDATES = 160
PROXY_EVERY = 10
N_LATENTS = 3


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def _proxy(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    return np.where(rng.random(s.shape[0]) < 0.8, s,
                    rng.integers(0, 2, s.shape[0]))


def _balanced_latents(rng: np.random.Generator, cells: np.ndarray
                      ) -> list[np.ndarray]:
    """Three 3-level latents whose joint levels are spread evenly within
    every cell, hence independent of the cell variables in the sample."""
    joint = np.empty(cells.shape[0], dtype=np.int64)
    levels = N_LATENTS ** N_LATENTS
    for cell in np.unique(cells):
        rows = np.flatnonzero(cells == cell)
        fill = np.resize(rng.permutation(levels), rows.shape[0])
        joint[rows] = rng.permutation(fill)
    return [(joint // N_LATENTS ** k) % N_LATENTS for k in range(N_LATENTS)]


def _discrete_rows(rng: np.random.Generator, n: int, proxies: list[str],
                   encodings: dict[str, tuple[int, np.ndarray]]) -> dict:
    """Rows of the discrete causal model shared by the G-test workloads.

    ``s`` is sensitive; ``a1`` (caused by ``s``) and ``a2`` are admissible.
    Safe candidates are relabellings of a few latents independent of
    ``(s, a1, a2)``, so ``A ∪ C1`` keeps few strata and phase 2 stays
    testable.  Planted proxies are noisy copies of ``s`` that also feed
    ``y``: a sound selection rejects every one of them.
    """
    s = rng.integers(0, 2, n)
    a1 = rng.binomial(2, 0.25 + 0.4 * s)
    a2 = rng.integers(0, 3, n)
    latents = _balanced_latents(rng, s * 9 + a1 * 3 + a2)
    cols = {"s": s, "a1": a1, "a2": a2}
    for name in proxies:
        cols[name] = _proxy(rng, s)
    for name, (latent, table) in encodings.items():
        cols[name] = table[latents[latent]]
    proxy_mean = np.mean([cols[p] for p in proxies], axis=0)
    logit = (-1.6 + 0.6 * a1 + 0.5 * (a2 == 2) + 0.4 * latents[0]
             + 1.5 * proxy_mean)
    cols["y"] = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    return cols


def _discrete_dataset(name: str, rng: np.random.Generator, n: int,
                      n_candidates: int, proxy_every: int) -> dict:
    """Every ``proxy_every``-th candidate is a proxy; safe candidate ``i``
    encodes latent ``i % 3`` through a seeded relabelling, coarsened to two
    levels for every third one."""
    names = [f"x{i:03d}" for i in range(n_candidates)]
    proxies = names[proxy_every // 2::proxy_every]
    safe = [c for c in names if c not in proxies]
    encodings = {}
    for i, c in enumerate(safe):
        table = rng.permutation(3)
        encodings[c] = (i % N_LATENTS,
                        np.minimum(table, 1) if i % 3 == 2 else table)
    columns = _discrete_rows(rng, n, proxies, encodings)
    order = ["s", "a1", "a2", *names, "y"]
    return {"name": name, "columns": {c: columns[c] for c in order},
            "sensitive": ["s"], "admissible": ["a1", "a2"],
            "candidates": names, "target": "y", "biased": proxies,
            "encodings": encodings}


def wide_setup(seed: int) -> Inputs:
    dataset = _discrete_dataset("wide", _rng(seed, 0x57), WIDE_ROWS,
                                WIDE_CANDIDATES, PROXY_EVERY)
    _fresh_table(dataset)
    return Inputs([dataset], set(dataset["biased"]))


def wide_selectors() -> list:
    return [SeqSel(tester=GTestCI()), GrpSel(tester=GTestCI(), seed=0)]


# -- drift stream (G-test, online) --------------------------------------------

DRIFT_ROWS = 20_000
DRIFT_CANDIDATES = 24
DRIFT_PROXY_EVERY = 6
DRIFT_STEPS = 120
DRIFT_GROWTH_EVERY = 4
DRIFT_GROWTH_ROWS = 250


def drift_setup(seed: int) -> Inputs:
    """Base table plus the step list: every fourth step appends rows, the
    others revise candidate ``7k mod 24`` at the ``k``-th revision (a proxy
    is redrawn from the current ``s``; a safe column's labels are rotated,
    keeping its latent)."""
    rng = _rng(seed, 0xD1)
    dataset = _discrete_dataset("drift", rng, DRIFT_ROWS, DRIFT_CANDIDATES,
                                DRIFT_PROXY_EVERY)
    proxies, encodings = dataset["biased"], dict(dataset["encodings"])
    current = dict(dataset["columns"])
    steps: list[tuple] = []
    revisions = 0
    for step in range(DRIFT_STEPS):
        if step % DRIFT_GROWTH_EVERY == 0:
            rows = _discrete_rows(rng, DRIFT_GROWTH_ROWS, proxies, encodings)
            rows = {c: rows[c] for c in current}
            current = {c: np.concatenate([current[c], rows[c]])
                       for c in current}
            steps.append(("grow", rows))
            continue
        name = dataset["candidates"][7 * revisions % DRIFT_CANDIDATES]
        revisions += 1
        if name in proxies:
            values = _proxy(rng, current["s"])
        else:
            latent, table = encodings[name]
            relabel = np.roll(np.arange(table.max() + 1), 1)
            encodings[name] = (latent, relabel[table])
            values = relabel[current[name]]
        current[name] = values
        steps.append(("revise", name, values))
    dataset["steps"] = steps
    _fresh_table(dataset)
    return Inputs([dataset], set(proxies))


def drift_pass(inputs: Inputs, store_path: str | None) -> PassResult:
    """One arrivals batch, then every drift step through ``observe``.

    The store, when given, is saved after every step: the cold pass runs
    without one, so its timing carries no per-step file writes.
    """
    dataset = inputs.datasets[0]
    online = OnlineSelector(tester=GTestCI(), cache=(
        PersistentCICache(store_path) if store_path else False))
    table = _fresh_table(dataset)
    online.observe(_problem(dataset, table), dataset["candidates"])
    latencies = []
    for step in dataset["steps"]:
        start = time.perf_counter()
        if step[0] == "grow":
            table = table.with_appended_rows(step[1])
        else:
            table = table.with_column(step[1], step[2])
        online.observe(_problem(dataset, table), [])
        latencies.append(time.perf_counter() - start)
    record = selection_record(dataset["name"], online.current)
    return PassResult([record], online.n_ci_tests, latencies)


# -- registry -------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``BENCHMARK.json`` and README."""

    name: str
    setup: Callable[[int], Inputs]
    run_pass: Callable[[Inputs, str | None], PassResult]
    warmup: Callable[[str], None]
    replays: int
    cold_store: bool = True


def _warm_rcit(store_path: str) -> None:
    inputs = paper_setup(["german"])(0)
    selections_pass(lambda: [SeqSel()])(inputs, store_path)


def _warm_gtest(store_path: str) -> None:
    dataset = _discrete_dataset("warm", _rng(0, 1), 2_000, 12, 6)
    selections_pass(wide_selectors)(Inputs([dataset]), store_path)


WORKLOADS = {w.name: w for w in [
    Workload("adult-grpsel-rcit", paper_setup(["adult"]),
             selections_pass(lambda: [GrpSel(seed=0)]), _warm_rcit, 6),
    Workload("wide-gtest-store", wide_setup, selections_pass(wide_selectors),
             _warm_gtest, 2),
    Workload("drift-stream-gtest", drift_setup, drift_pass, _warm_gtest, 1,
             cold_store=False),
]}
