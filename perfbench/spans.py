"""Benchmark-side span tracing around the program's public entry points.

Tracing here never edits the program: :func:`install` replaces a fixed
list of methods and module functions with thin wrappers that record one
span per call — name, start, end, parent span and the engine tick the
call belongs to — into an in-memory :class:`Recorder`, and
:func:`uninstall` puts the originals back.  Spans are kept in flat lists
and written out once, when the run ends.

Process shards run in forked workers.  While tracing is installed, the
gateway starts them through :func:`_traced_worker_main`, which records
the worker's spans with the inherited (reset) recorder and dumps them to
a file when the worker stops; :func:`load_worker_spans` reads them back.

Tick ids: ``ShardCluster.tick`` (gateway) and ``ShardState.tick``
(shard) set the recorder's tick to the engine tick being run, and to
``-1`` once the outermost of them returns, so work between ticks is
never charged to one.
Set-up work (load, subscribe, initial evaluation) runs at tick ``0``.
Garbage collections are spans too (``gc.collect``), so collector pauses
are charged to themselves rather than to the span they interrupt.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.engine.batch import BatchExecutor
from repro.engine.scheduler import TickScheduler
from repro.engine.simulation import Simulator
from repro.grid.index import GridIndex
from repro.obs.export import spans_to_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span
from repro.queries import IGERNBiQuery, IGERNMonoQuery
from repro.serving import gateway, shard
from repro.serving.shard import TickResult

FIELDS = ("name", "start", "end", "parent", "tick")


class Recorder:
    """Flat, append-only span store for one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.tick: List[int] = []
        self._stack: List[int] = []
        self.current_tick = 0
        #: ``(tick, TickResult)`` per shard reply, sized after the tick.
        self.replies: list = []

    def begin(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tick.append(self.current_tick)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self, name: str, fn: Callable, tick_of: Optional[Callable] = None
    ) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = rec.current_tick
            if tick_of is not None:
                rec.current_tick = tick_of(args[0])
            idx = rec.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.finish(idx)
                if tick_of is not None:
                    rec.current_tick = outer if outer > 0 else -1

        return traced

    def on_gc(self, phase: str, _info: dict) -> None:
        """``gc.callbacks`` hook: each collection is a ``gc.collect`` span
        under whatever span was running when it triggered."""
        if phase == "start":
            self.begin("gc.collect")
        else:
            self.finish(self._stack[-1])

    def wrap_recv(self, name: str, fn: Callable) -> Callable:
        inner = self.wrap(name, fn)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            if rec.current_tick > 0 and isinstance(result, TickResult):
                rec.replies.append((rec.current_tick, result))
            return result

        return traced

    def dump(self) -> Dict[str, list]:
        return {field: getattr(self, field) for field in FIELDS}


RECORDER = Recorder()
_saved: list = []
_worker_dir: Optional[Path] = None


def _cluster_tick(cluster) -> int:
    return cluster.current_tick + 1


def _state_tick(state) -> int:
    return state.sim.current_tick + 1


def _targets():
    """(owner, attribute, span name, kind): kind is ``"recv"`` for shard
    replies, a tick-id source for the tick entry points, else ``None``."""
    return [
        (gateway.ShardCluster, "load", "serving.load", None),
        (gateway.ShardCluster, "add_query", "serving.add_query", None),
        (gateway.ShardCluster, "initial_eval", "serving.initial_eval", None),
        (gateway.ShardCluster, "tick", "serving.tick", _cluster_tick),
        (gateway.InlineShard, "send", "serving.shard_send", None),
        (gateway.InlineShard, "recv", "serving.shard_recv", "recv"),
        (gateway.ProcessShard, "send", "serving.shard_send", None),
        (gateway.ProcessShard, "recv", "serving.shard_recv", "recv"),
        (shard, "decode_events", "serving.decode", None),
        (shard.ShardState, "__init__", "grid.load", None),
        (shard.ShardState, "tick", "shard.tick", _state_tick),
        (Simulator, "step", "engine.step", None),
        (GridIndex, "apply_updates", "grid.apply_updates", None),
        (TickScheduler, "affected", "scheduler.affected", None),
        (TickScheduler, "update_footprint", "scheduler.update_footprint", None),
        (BatchExecutor, "order", "batch.order", None),
        (IGERNMonoQuery, "initial", "igern.mono_initial", None),
        (IGERNMonoQuery, "tick", "igern.mono_tick", None),
        (IGERNMonoQuery, "footprint", "igern.footprint", None),
        (IGERNBiQuery, "initial", "igern.bi_initial", None),
        (IGERNBiQuery, "tick", "igern.bi_tick", None),
        (IGERNBiQuery, "footprint", "igern.footprint", None),
        (MetricsRegistry, "counter", "obs.registry", None),
        (MetricsRegistry, "gauge", "obs.registry", None),
        (MetricsRegistry, "histogram", "obs.registry", None),
    ]


def _traced_worker_main(conn) -> None:
    """Worker entry while tracing: run the shard loop, then dump spans."""
    RECORDER.reset()  # the fork inherited the gateway's spans and gc hook
    try:
        _saved_worker_main(conn)
    finally:
        path = _worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(RECORDER.dump()))


_saved_worker_main = gateway.worker_main


def install(worker_dir: Path) -> None:
    """Wrap every target; forked shard workers dump into ``worker_dir``."""
    global _worker_dir
    if _saved:
        raise RuntimeError("tracing already installed")
    RECORDER.reset()
    _worker_dir = worker_dir
    for owner, attr, name, kind in _targets():
        original = owner.__dict__[attr]
        if kind == "recv":
            wrapped = RECORDER.wrap_recv(name, original)
        elif callable(kind):
            wrapped = RECORDER.wrap(name, original, tick_of=kind)
        else:
            wrapped = RECORDER.wrap(name, original)
        _saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)
    _saved.append((gateway, "worker_main", gateway.worker_main))
    gateway.worker_main = _traced_worker_main
    gc.callbacks.append(RECORDER.on_gc)


def uninstall() -> None:
    gc.callbacks.remove(RECORDER.on_gc)
    while _saved:
        owner, attr, original = _saved.pop()
        setattr(owner, attr, original)


def load_worker_spans(worker_dir: Path) -> Dict[int, Dict[str, list]]:
    """Spans dumped by stopped workers, by pid (the files are consumed)."""
    out = {}
    for path in sorted(worker_dir.glob("worker-*.json")):
        out[int(path.stem.split("-")[1])] = json.loads(path.read_text())
        path.unlink()
    return out


def write_chrome_trace(
    path: Path, processes: Dict[int, Dict[str, list]], ticks: set
) -> None:
    """The spans of ``ticks`` from every process as one Chrome trace-event
    file (one pid per process)."""
    events: list = []
    for pid, spans in processes.items():
        rows = []
        for name, start, end, _parent, tick in zip(*(spans[f] for f in FIELDS)):
            if tick not in ticks:
                continue
            span = Span(None, name, {"tick": tick})  # type: ignore[arg-type]
            span.start, span.end = start, end
            rows.append(span)
        events.extend(spans_to_chrome_trace(rows, pid=pid)["traceEvents"])
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
