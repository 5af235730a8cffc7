"""Span recorder for the traced run.

Spans are recorded from outside the program: ``install`` replaces the
public functions at each layer boundary with timing wrappers, keeps the
originals and puts them back on ``uninstall``. A span is
``(op, id, parent, layer, name, start, end)``; ``op`` is the timed
operation it belongs to (-1 during set-up), ``parent`` the innermost
open span of the same thread. Spans and counters stay in memory until
the run ends.

A layer's self time is the time its spans cover minus the time their
direct child spans cover. Time inside the client's operation span but
outside every program span is the ``client`` layer: the benchmark's
own loop and, over HTTP, the transport.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("client", "serving", "api", "engine", "integration", "core", "storage")
PROBES = ("lookup", "lookup_many", "lookup_in", "probe_positions", "gather")
METHODS = ("in_edge", "path_count", "propagation", "diffusion", "reliability")


class Recorder:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._local = threading.local()
        self._ids = 0
        self._undo: List[tuple] = []
        self._gc_start = 0.0

    def add(self, counter: str, value: float = 1) -> None:
        """Count work of a timed operation (set-up and paused work are
        not counted)."""
        if self.op >= 0:
            self.counts[counter] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, name: str, fn: Callable, args, kwargs):
        stack = self._stack()
        self._ids += 1
        span_id = self._ids
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self.op, span_id, parent, layer, name, start, end))

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        on_result: Optional[Callable] = None,
        name_of: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        label = name or attr
        recorder = self

        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else label
            result = recorder.record(layer, span_name, original, args, kwargs)
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _gc_event(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.add("runtime.gc_s", time.perf_counter() - self._gc_start)

    def uninstall(self) -> None:
        if self._gc_event in gc.callbacks:
            gc.callbacks.remove(self._gc_event)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


# ------------------------------------------------------------------ #
# what gets wrapped
# ------------------------------------------------------------------ #

def _rows_read(rec: Recorder, args, kwargs, result) -> None:
    if isinstance(result, dict):
        rec.add("storage.rows", sum(len(v) for v in result.values()))
    elif isinstance(result, (list, set)):
        rec.add("storage.rows", len(result))


def _built(rec: Recorder, args, kwargs, result) -> None:
    stats = result[1]
    rec.add("integration.builds", 1)
    rec.add("integration.nodes", stats.nodes)
    rec.add("integration.edges", stats.edges)


def _repaired(rec: Recorder, args, kwargs, result) -> None:
    rec.add("integration.repairs", 1)
    rec.add("integration.dirty_nodes", len(result[3]))


def _kernel_name(args, kwargs) -> str:
    return "core.kernel." + args[1]


def _kernel_ran(rec: Recorder, args, kwargs, result) -> None:
    from repro.core.reliability import DEFAULT_TRIALS

    if result.method == "reliability":
        rec.add("core.mc_trials", kwargs.get("trials") or DEFAULT_TRIALS)


def _materialised(rec: Recorder, args, kwargs, result) -> None:
    rec.add("api.entities", len(result["entities"]))


def install(recorder: Recorder, server: bool = False) -> None:
    """Wrap every layer boundary reachable in this process, and time
    the interpreter's garbage collections."""
    gc.callbacks.append(recorder._gc_event)
    import repro.engine.ranking as ranking
    from repro.api.result import ResultSet
    from repro.api.session import Session
    from repro.storage.database import Database
    from repro.storage.table import Table

    for attr in PROBES:
        recorder.wrap(Table, attr, "storage", "storage.probe." + attr, _rows_read)
    recorder.wrap(Table, "update_many", "storage", "storage.write.update_many")
    recorder.wrap(Database, "insert_many", "storage", "storage.write.insert_many")
    recorder.wrap(ranking, "record_build", "integration", "integration.build", _built)
    recorder.wrap(ranking, "repair_build", "integration", "integration.repair", _repaired)
    recorder.wrap(ranking, "compile_graph", "core", "core.compile")
    recorder.wrap(ranking, "patch_compiled", "core", "core.patch")
    recorder.wrap(ranking, "rank", "core", on_result=_kernel_ran, name_of=_kernel_name)
    recorder.wrap(ranking.RankingEngine, "execute_with_stats", "engine", "engine.execute")
    recorder.wrap(ranking.RankingEngine, "rank_with_stats", "engine", "engine.rank")
    recorder.wrap(Session, "execute", "api", "api.execute")
    recorder.wrap(ResultSet, "to_dict", "api", "api.materialise", _materialised)
    if server:
        _install_server(recorder)


class _TimedJson:
    """Stands in for the ``json`` module inside ``repro.serving.server``
    so the response encode is a span of its own."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(json, name)

    def dumps(self, *args, **kwargs) -> str:
        return self._recorder.record("serving", "serving.encode", json.dumps, args, kwargs)


def _install_server(recorder: Recorder) -> None:
    import repro.serving.server as server

    handler = server._Handler
    original = handler.do_POST

    def do_post(self):
        op = self.headers.get("X-Perfbench-Op")
        recorder.op = int(op) if op is not None else -1
        return recorder.record("serving", "serving.handler", original, (self,), {})

    handler.do_POST = do_post
    recorder._undo.append((handler, "do_POST", original))
    recorder._undo.append((server, "json", server.json))
    server.json = _TimedJson(recorder)


# ------------------------------------------------------------------ #
# reduction to per-layer figures
# ------------------------------------------------------------------ #

def layer_report(
    spans: List[tuple],
    counts: Dict[str, float],
    ops: int,
    writes: int,
    load_s: float,
) -> Dict[str, float]:
    """Per-layer metrics from the timed phase's spans (``op >= 0``).

    ``spans`` may merge several processes: a span without a parent in
    its own process must already carry the client span that caused it
    as its parent (see ``run.py``'s HTTP merge)."""
    timed = [s for s in spans if s[0] >= 0]
    by_id = {s[1]: s for s in timed}
    child_time: Dict[int, float] = defaultdict(float)
    for span in timed:
        if span[2] is not None:
            child_time[span[2]] += span[6] - span[5]
    self_time: Dict[str, float] = defaultdict(float)
    # time and calls per span name, outermost within its layer, so a
    # nested call of the same layer is not counted twice
    outer: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in timed:
        _, span_id, parent, layer, name, start, end = span
        self_time[layer] += (end - start) - child_time[span_id]
        parent_layer = by_id[parent][3] if parent in by_id else None
        if parent_layer != layer:
            outer[name] += end - start
            calls[name] += 1

    def per_op(value: float) -> float:
        return value / ops

    def ms_per(name: str, denominator: float) -> float:
        return outer[name] * 1e3 / denominator if denominator else 0.0

    probe_names = ["storage.probe." + p for p in PROBES]
    builds = counts.get("integration.builds", 0)
    repairs = counts.get("integration.repairs", 0)
    report: Dict[str, float] = {
        "storage.probe_ms_per_op": per_op(sum(outer[n] for n in probe_names)) * 1e3,
        "storage.probe_calls_per_op": per_op(sum(calls[n] for n in probe_names)),
        "storage.rows_read_per_op": per_op(counts.get("storage.rows", 0)),
        "storage.write_ms_per_write": (
            (outer["storage.write.update_many"] + outer["storage.write.insert_many"]) * 1e3 / writes
            if writes else 0.0
        ),
        "storage.load_s": load_s,
        "integration.build_ms_per_op": per_op(outer["integration.build"]) * 1e3,
        "integration.nodes_per_build": counts.get("integration.nodes", 0) / builds if builds else 0.0,
        "integration.edges_per_build": counts.get("integration.edges", 0) / builds if builds else 0.0,
        "integration.repair_ms_per_repair": ms_per("integration.repair", repairs),
        "integration.dirty_nodes_per_repair": (
            counts.get("integration.dirty_nodes", 0) / repairs if repairs else 0.0
        ),
        "core.compile_ms_per_op": per_op(outer["core.compile"]) * 1e3,
        "core.patch_ms_per_repair": ms_per("core.patch", calls["core.patch"]),
        "core.mc_trials_per_op": per_op(counts.get("core.mc_trials", 0)),
        "runtime.gc_ms_per_op": per_op(counts.get("runtime.gc_s", 0)) * 1e3,
        "engine.execute_ms_per_op": per_op(outer["engine.execute"]) * 1e3,
        "engine.rank_ms_per_op": per_op(outer["engine.rank"]) * 1e3,
        "api.execute_ms_per_op": per_op(outer["api.execute"]) * 1e3,
        "api.materialise_ms_per_op": per_op(outer["api.materialise"]) * 1e3,
        "api.entities_per_op": per_op(counts.get("api.entities", 0)),
        "serving.encode_ms_per_op": per_op(outer["serving.encode"]) * 1e3,
        "serving.handler_ms_per_op": per_op(outer["serving.handler"]) * 1e3,
    }
    for method in METHODS:
        report[f"core.kernel_ms.{method}"] = ms_per("core.kernel." + method, calls["core.kernel." + method])
    for layer in LAYERS:
        report[f"self_ms_per_op.{layer}"] = per_op(self_time[layer]) * 1e3
    return report
