"""Call-boundary timers for the traced benchmark run.

Nothing under ``src/`` is instrumented.  Each layer is timed by
replacing a public name *where its caller looks it up* (a module
attribute or a class method) with a wrapper that counts calls and
accumulates busy time, for the life of the traced process.  Coarse
calls also become Chrome trace-event spans with parent links; hot
per-cycle kernels (``Trpla.evaluate``, ``MemoryArray.read_word``) only
aggregate counts and busy time, so tracing stays cheap.

Worker processes report counters, not spans, through the same
:class:`Recorder`: the campaign shard wrapper and the build-worker
wrapper below run with the timers installed in the worker and return
the worker's counter delta next to the real result.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The recorder installed in this process (workers find it here).
_ACTIVE: Optional["Recorder"] = None


class Recorder:
    """Counters, busy time and spans for one process."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._t0 = time.perf_counter()
        self.paused = False
        self.pla_inputs_seen: set = set()

    # -- bookkeeping ----------------------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.counters)

    def reset_to(self, snapshot: Dict[str, float]) -> None:
        """Forget everything counted since ``snapshot`` was taken."""
        with self._lock:
            self.counters.clear()
            self.counters.update(snapshot)

    def merge(self, counters: Dict[str, float]) -> None:
        with self._lock:
            for name, value in counters.items():
                self.counters[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, span: bool = False,
             after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` into ``layer.*`` counters.

        ``span`` records a trace-event span and the layer's self time
        (busy time minus the busy time of wrapped calls beneath it);
        ``after(rec, args, result, dt)`` derives extra counters.
        """
        original = getattr(owner, attr)
        if getattr(original, "_perfbench_layer", None) == layer:
            return  # already installed (a forked worker inherits it)
        busy, calls, self_s = (f"{layer}.busy_s", f"{layer}.calls",
                               f"{layer}.self_s")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            stack = self._stack()
            frame = [0.0]
            if span:
                stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if span:
                    stack.pop()
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    self.counters[busy] += dt
                    self.counters[calls] += 1
                    if span:
                        self.counters[self_s] += dt - frame[0]
                        self._span(layer, t0, dt, len(stack))
            if after is not None:
                after(self, args, result, dt)
            return result

        wrapper._perfbench_layer = layer
        setattr(owner, attr, wrapper)

    def _span(self, name: str, t0: float, dt: float, depth: int) -> None:
        span_id = self._next_id
        self._next_id += 1
        self.spans.append({
            "name": name, "ph": "X", "pid": os.getpid(),
            "tid": threading.get_ident(),
            "ts": round((t0 - self._t0) * 1e6, 3),
            "dur": round(dt * 1e6, 3),
            "args": {"id": span_id, "depth": depth},
        })

    def trace_events(self) -> List[dict]:
        """Spans with parent links (the enclosing span on one thread)."""
        events = sorted(self.spans, key=lambda e: (e["tid"], e["ts"]))
        open_spans: Dict[int, list] = defaultdict(list)
        for event in events:
            stack = open_spans[event["tid"]]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] \
                    < event["ts"]:
                stack.pop()
            event["args"]["parent"] = (stack[-1]["args"]["id"]
                                       if stack else None)
            stack.append(event)
        return events


# ---------------------------------------------------------------------------
# per-layer counter derivations
# ---------------------------------------------------------------------------


def _drc_check_after(rec, args, result, dt):
    cell = args[1]
    rec.add("layout.drc.leaf_checks")
    if cell.name == "trpla":
        rec.add("layout.drc.trpla_s", dt)


def _drc_layers_after(rec, args, result, dt):
    rec.add("layout.drc.shapes", sum(len(r) for r in args[1].values()))


def _hierdrc_after(rec, args, result, dt):
    stats = result.stats
    rec.add("verify.hierdrc.unique_cells", stats["unique_cells"])
    rec.add("verify.hierdrc.cache_hits", stats["cache_hits"])
    rec.add("verify.hierdrc.cache_misses", stats["cache_misses"])


def _cif_after(rec, args, result, dt):
    stream = args[1]
    rec.add("layout.cif.bytes", len(stream.getvalue())
            if hasattr(stream, "getvalue") else 0)


def _pla_after(rec, args, result, dt):
    key = tuple(args[1])
    seen = rec.pla_inputs_seen
    if key in seen:
        rec.add("bist.trpla.repeats")
    else:
        seen.add(key)


def _controller_after(rec, args, result, dt):
    rec.add("bist.controller.cycles", args[0].cycles)


def _allocate_after(rec, args, result, dt):
    rec.add("bisr.allocate.nodes", result.nodes_explored)
    rec.add("bisr.allocate.exact", 1 if result.exact else 0)


def _store_get_after(rec, args, result, dt):
    rec.add("service.store.hits" if result is not None
            else "service.store.misses")


def install(rec: Recorder) -> Recorder:
    """Install every layer timer in this process; idempotent."""
    global _ACTIVE
    # import_module: ``repro.bisr.allocate`` is also a function name
    # the package re-exports, which ``import ... as`` would pick up.
    allocate = importlib.import_module("repro.bisr.allocate")
    compiler = importlib.import_module("repro.core.compiler")
    signoff = importlib.import_module("repro.verify.signoff")
    montecarlo = importlib.import_module("repro.yieldmodel.montecarlo")
    from repro.bisr.escalation import RepairSupervisor
    from repro.bisr.tlb import Tlb
    from repro.bist.controller import TrplaController
    from repro.bist.trpla import Trpla
    from repro.layout.drc import DrcChecker
    from repro.memsim.array import MemoryArray
    from repro.runtime.journal import CheckpointJournal
    from repro.service.store import ArtifactStore
    from repro.service.wal import RequestLog

    # compile: stage functions as the compiler module sees them
    rec.wrap(compiler, "build_floorplan", "core.floorplan", span=True)
    rec.wrap(compiler, "write_cif", "layout.cif", span=True,
             after=_cif_after)
    rec.wrap(compiler, "build_datasheet", "core.datasheet", span=True)
    rec.wrap(signoff, "hierarchical_drc", "verify.hierdrc", span=True,
             after=_hierdrc_after)
    rec.wrap(signoff, "check_connectivity", "verify.lvs", span=True)
    rec.wrap(signoff, "check_control", "verify.control", span=True)
    rec.wrap(DrcChecker, "check", "layout.drc", span=True,
             after=_drc_check_after)
    rec.wrap(DrcChecker, "check_layers", "layout.drc.layers",
             after=_drc_layers_after)
    # hardware simulation kernels (aggregated, no spans)
    rec.wrap(TrplaController, "run", "bist.controller", span=True,
             after=_controller_after)
    rec.wrap(Trpla, "evaluate", "bist.trpla", after=_pla_after)
    rec.wrap(MemoryArray, "read_word", "memsim.array.read")
    rec.wrap(MemoryArray, "write_word", "memsim.array.write")
    rec.wrap(Tlb, "record", "bisr.tlb")
    rec.wrap(RepairSupervisor, "run", "bisr.escalation", span=True)
    # yield / allocation (montecarlo2d shards look both up at call time)
    rec.wrap(montecarlo, "simulate_yield_2d", "yieldmodel.montecarlo",
             span=True)
    rec.wrap(allocate, "allocate", "bisr.allocate", after=_allocate_after)
    # runtime + service persistence
    rec.wrap(CheckpointJournal, "record", "runtime.journal")
    rec.wrap(ArtifactStore, "get", "service.store.get",
             after=_store_get_after)
    rec.wrap(RequestLog, "admit", "service.wal.admit")
    rec.wrap(RequestLog, "done", "service.wal.done")
    _ACTIVE = rec
    return rec


def active() -> Recorder:
    """This process's recorder, installing one on first use."""
    return _ACTIVE if _ACTIVE is not None else install(Recorder())


def _delta(before: Dict[str, float], after: Dict[str, float]) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()
            if v != before.get(k, 0.0)}


# ---------------------------------------------------------------------------
# worker-side wrappers (picklable by name)
# ---------------------------------------------------------------------------


def traced_shard(params: dict, shard) -> dict:
    """Campaign shard task that returns the worker's counters too.

    ``params["perfbench_task"]`` names the real task as
    ``module:function``.
    """
    module, name = params["perfbench_task"].split(":")
    task = getattr(importlib.import_module(module), name)
    rec = active()
    before = rec.snapshot()
    t0 = time.perf_counter()
    result = task(params, shard)
    busy = time.perf_counter() - t0
    return {"result": result, "busy_s": busy,
            "counters": _delta(before, rec.snapshot())}


def traced_build_in_worker(*args, **kwargs) -> dict:
    """Service build-worker entry that returns the worker's counters."""
    rec = active()
    before = rec.snapshot()
    t0 = time.perf_counter()
    payload = _ORIGINAL_BUILD_IN_WORKER[0](*args, **kwargs)
    counters = _delta(before, rec.snapshot())
    if payload.get("source") == "built":
        counters["service.backend.build_busy_s"] = \
            time.perf_counter() - t0
    payload["perfbench_counters"] = counters
    return payload


#: ``repro.service.backend.build_in_worker`` as it was before
#: :func:`install_service` replaced it (workers fork with this set).
_ORIGINAL_BUILD_IN_WORKER: list = []


def install_service(rec: Recorder) -> None:
    """Route process-backend builds through the counting entry point
    and merge the returned worker counters into ``rec``."""
    from repro.service import backend
    from repro.service.server import MacroServer

    if not _ORIGINAL_BUILD_IN_WORKER:
        _ORIGINAL_BUILD_IN_WORKER.append(backend.build_in_worker)
    backend.build_in_worker = traced_build_in_worker

    dispatch = backend.ProcessPoolBackend._dispatch

    def _dispatch(self, *args, **kwargs):
        outcome, payload = dispatch(self, *args, **kwargs)
        if payload is not None:
            rec.merge(payload.pop("perfbench_counters", {}))
        return outcome, payload

    backend.ProcessPoolBackend._dispatch = _dispatch
    stats = MacroServer.stats

    def _stats(self):
        data = stats(self)
        data["perfbench"] = rec.snapshot()
        return data

    MacroServer.stats = _stats
