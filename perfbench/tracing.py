"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of each layer so that every
call opens and closes a :class:`Span` on a :class:`Tracer`, and returns a
callable that puts the original attributes back.  Nothing under ``src/``
knows about it.  Counts ride on the spans as attributes, recorded by the
same wrappers; spans stay in memory until :func:`cycle_metrics` reduces
them (and :func:`write_spans` writes them out at the end of a run).

A layer's self time is the sum over its spans of the span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import weakref
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

LAYERS = ("data.table", "ci.rcit", "ci.gtest", "ci.executor", "ci.base",
          "ci.store", "core.engine", "core.online")

#: Per-layer metrics reported by a traced run, with unit and direction.
PER_LAYER = [
    ("ci.rcit.self_s", "s", "lower"),
    ("ci.rcit.queries", "count", "lower"),
    ("ci.rcit.groups", "count", "lower"),
    ("ci.rcit.groups_distinct", "count", "lower"),
    ("ci.rcit.leg_reuse", "ratio", "higher"),
    ("ci.rcit.fusion_width", "queries", "higher"),
    ("ci.gtest.self_s", "s", "lower"),
    ("ci.gtest.queries", "count", "lower"),
    ("ci.gtest.groups", "count", "lower"),
    ("data.table.calls", "count", "lower"),
    ("data.table.self_s", "s", "lower"),
    ("data.table.repeat_ratio", "ratio", "higher"),
    ("ci.base.submitted", "count", "lower"),
    ("ci.base.executed", "count", "lower"),
    ("ci.base.hits", "count", "higher"),
    ("ci.base.hit_ratio", "ratio", "higher"),
    ("ci.base.self_s", "s", "lower"),
    ("ci.store.gets", "count", "lower"),
    ("ci.store.puts", "count", "lower"),
    ("ci.store.get_s", "s", "lower"),
    ("ci.store.put_s", "s", "lower"),
    ("ci.store.save_s", "s", "lower"),
    ("ci.store.load_s", "s", "lower"),
    ("ci.store.file_bytes", "bytes", "lower"),
    ("core.engine.waves", "count", "lower"),
    ("core.engine.wave_width", "queries", "higher"),
    ("core.engine.self_s", "s", "lower"),
    ("ci.executor.calls", "count", "lower"),
    ("ci.executor.self_s", "s", "lower"),
    ("core.online.steps", "count", "lower"),
    ("core.online.delta_hits", "count", "higher"),
    ("core.online.retries", "count", "lower"),
    ("core.online.self_s", "s", "lower"),
    ("trace.select_s", "s", "lower"),
    ("trace.replay_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    cycle: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder.  ``cycle`` tags new spans; the harness
    advances it once per cold pass (a cycle is a cold pass plus its
    replay)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cycle = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._serial = 0

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(),
                               parent=parent, cycle=self.cycle))
        self._stack.append(index)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        self._depth[span.layer] -= 1
        return span

    def outermost(self, layer: str) -> bool:
        """True inside the outermost open span of ``layer``."""
        return self._depth.get(layer, 0) == 1

    def _table_state(self, table) -> tuple[int, set]:
        state = self._tables.get(table)
        if state is None:
            self._serial += 1
            state = self._tables[table] = (self._serial, set())
        return state

    def table_id(self, table) -> int:
        """A serial number per table object, never reused within a run."""
        return self._table_state(table)[0]

    def seen_before(self, table, key) -> bool:
        """Whether ``key`` was already requested on this table object."""
        keys = self._table_state(table)[1]
        if key in keys:
            return True
        keys.add(key)
        return False


# -- wrappers -----------------------------------------------------------------

Hook = Callable[[Tracer, tuple, dict], Callable[[object], dict] | None]


def _wrap(tracer: Tracer, layer: str, name: str, fn: Callable,
          hook: Hook | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name, layer)
        try:
            finish = hook(tracer, args, kwargs) if hook else None
            result = fn(*args, **kwargs)
            if finish is not None:
                tracer.spans[index].attrs.update(finish(result))
            return result
        finally:
            tracer.close(index)
    return wrapper


def _names_key(value):
    """Hashable form of a names argument; never consumes an iterator."""
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return id(value)


def _table_hook(method: str) -> Hook:
    def hook(tracer, args, kwargs):
        if method.startswith("with_"):
            return None
        rest = args[1:]
        if rest:
            rest = (_names_key(rest[0]), *rest[1:])
        key = (method, repr(rest), repr(sorted(kwargs.items())))
        repeat = tracer.seen_before(args[0], key)
        return lambda result: {"repeat": int(repeat)}
    return hook


def _tester_hook(rcit: bool) -> Hook:
    def hook(tracer, args, kwargs):
        tester, table = args[0], args[1]

        def finish(result):
            results = result if isinstance(result, list) else [result]
            table_id = tracer.table_id(table)
            legs = {(table_id, r.query.y,
                     tester._effective_z(r.query) if rcit else r.query.z)
                    for r in results}
            return {"queries": len(results), "legs": sorted(legs)}
        return finish
    return hook


def _ledger_hook(tracer, args, kwargs):
    if not tracer.outermost("ci.base"):
        return None
    ledger = args[0]
    tests, hits = ledger.n_tests, ledger.cache_hits

    def finish(result):
        executed = ledger.n_tests - tests
        served = ledger.cache_hits - hits
        return {"executed": executed, "hits": served,
                "submitted": executed + served}
    return finish


def _file_bytes(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _store_file_hook(tracer, args, kwargs):
    cache = args[0]
    return lambda result: {"file_bytes": _file_bytes(cache.path)}


def _observe_hook(tracer, args, kwargs):
    selector = args[0]
    current = selector.current
    decided = len(current.rejected) + len(current.c2)
    reused = selector.delta_hits

    def finish(result):
        hits = selector.delta_hits - reused
        return {"delta_hits": hits, "retries": decided - hits}
    return finish


def _targets() -> list[tuple[type, str, str, Hook | None]]:
    from repro.ci import executor
    from repro.ci.base import CITestLedger
    from repro.ci.gtest import GTestCI
    from repro.ci.rcit import RCIT
    from repro.ci.store import PersistentCICache
    from repro.core.engine import WavefrontEngine
    from repro.core.online import OnlineSelector
    from repro.data.table import Table

    targets = [(Table, method, "data.table", _table_hook(method))
               for method in ("fingerprint", "fingerprint_of",
                              "standardized_block", "median_bandwidth",
                              "discrete_codes", "with_appended_rows",
                              "with_column")]
    targets += [(RCIT, method, "ci.rcit", _tester_hook(True))
                for method in ("test", "test_batch")]
    targets += [(GTestCI, method, "ci.gtest", _tester_hook(False))
                for method in ("test", "test_batch")]
    targets += [(cls, "run", "ci.executor", None)
                for cls in executor.BatchExecutor.__subclasses__()
                if "run" in cls.__dict__]
    targets += [(CITestLedger, method, "ci.base", _ledger_hook)
                for method in ("test", "test_batch")]
    targets += [(CITestLedger, "test_waves", "core.engine", None)]
    targets += [(WavefrontEngine, method, "core.engine", None)
                for method in ("phase1_admitted", "refine_admitted",
                               "phase2_verdicts")]
    targets += [(PersistentCICache, "__init__", "ci.store", _store_file_hook),
                (PersistentCICache, "get", "ci.store", None),
                (PersistentCICache, "put", "ci.store", None),
                (PersistentCICache, "save", "ci.store", _store_file_hook)]
    targets += [(OnlineSelector, "observe", "core.online", _observe_hook)]
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that restores
    the original class attributes."""
    saved = []
    for cls, attr, layer, hook in _targets():
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(_wrap(tracer, layer, attr, original.fget, hook))
        else:
            wrapped = _wrap(tracer, layer, attr, original, hook)
        saved.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def uninstall() -> None:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)
    return uninstall


# -- reduction ------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def by_cycle(spans: list[Span]) -> dict[int, list[Span]]:
    """Split a run's spans per cycle, re-indexing parents within each."""
    cycles: dict[int, list[Span]] = {}
    local: dict[int, int] = {}
    for index, span in enumerate(spans):
        members = cycles.setdefault(span.cycle, [])
        local[index] = len(members)
        parent = span.parent
        if parent is not None and spans[parent].cycle != span.cycle:
            parent = None
        members.append(replace(span, parent=None if parent is None
                               else local[parent]))
    return cycles


def cycle_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one cycle's spans (see :func:`median_metrics`);
    parents index into ``spans``."""
    own = {id(span): t for span, t in zip(spans, self_times(spans))}
    by_layer: dict[str, list[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def layer(name: str) -> list[Span]:
        return by_layer.get(name, [])

    def total(spans_: list[Span], key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in spans_))

    def self_s(spans_: list[Span]) -> float:
        return float(sum(own[id(s)] for s in spans_))

    passes = layer("pass")
    wall = sum(s.end - s.start for s in passes)
    m: dict[str, float] = {}
    for name in ("pass", *LAYERS):
        m[f"{name}.calls"] = float(len(layer(name)))
        m[f"{name}.self_s"] = self_s(layer(name))
        m[f"{name}.share"] = _ratio(m[f"{name}.self_s"], wall)
    for name in ("ci.rcit", "ci.gtest"):
        spans_ = layer(name)
        legs = [tuple(leg) for s in spans_ for leg in s.attrs.get("legs", ())]
        m[f"{name}.queries"] = total(spans_, "queries")
        m[f"{name}.groups"] = float(len(legs))
        m[f"{name}.groups_distinct"] = float(len(set(legs)))
    groups = m["ci.rcit.groups"]
    m["ci.rcit.leg_reuse"] = 1.0 - _ratio(m["ci.rcit.groups_distinct"], groups) \
        if groups else 0.0
    m["ci.rcit.fusion_width"] = _ratio(m["ci.rcit.queries"], groups)
    tables = layer("data.table")
    m["data.table.repeat_ratio"] = _ratio(total(tables, "repeat"), len(tables))
    ledger = layer("ci.base")
    for key in ("submitted", "executed", "hits"):
        m[f"ci.base.{key}"] = total(ledger, key)
    m["ci.base.hit_ratio"] = _ratio(m["ci.base.hits"], m["ci.base.submitted"])
    store = layer("ci.store")
    for short, name in (("gets", "get"), ("puts", "put")):
        m[f"ci.store.{short}"] = float(sum(s.name == name for s in store))
    for short, name in (("get", "get"), ("put", "put"), ("save", "save"),
                        ("load", "__init__")):
        m[f"ci.store.{short}_s"] = self_s([s for s in store if s.name == name])
    m["ci.store.file_bytes"] = max(
        (float(s.attrs.get("file_bytes", 0)) for s in store), default=0.0)
    waves = [s for s in ledger if s.parent is not None
             and spans[s.parent].name == "test_waves"]
    m["core.engine.waves"] = float(len(waves))
    m["core.engine.wave_width"] = _ratio(total(waves, "submitted"), len(waves))
    online = layer("core.online")
    m["core.online.steps"] = float(len(online))
    m["core.online.delta_hits"] = total(online, "delta_hits")
    m["core.online.retries"] = total(online, "retries")
    m["trace.select_s"] = sum(s.end - s.start for s in passes
                              if s.name == "cold")
    m["trace.replay_s"] = sum(s.end - s.start for s in passes
                              if s.name == "replay")
    m["trace.unattributed_s"] = m["pass.self_s"]
    m["trace.spans"] = float(len(spans))
    return m


def median_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over cycles of every per-cycle metric: the ones in PER_LAYER
    plus each layer's ``calls``, ``self_s`` and ``share`` of the cycle's
    pass time (layer ``pass`` holds the unattributed remainder)."""
    cycles = [cycle_metrics(members) for members in by_cycle(spans).values()]
    return {name: statistics.median(c[name] for c in cycles)
            for name in cycles[0]}


def write_spans(path: str, spans: list[Span]) -> None:
    """One JSON object per span, in opening order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(asdict(span), default=list) + "\n")
