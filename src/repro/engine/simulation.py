"""The tick-driven simulator.

One :class:`Simulator` owns a grid index populated from a motion generator
and a set of registered continuous queries.  Each call to :meth:`run`
advances the workload tick by tick: the generator's updates are applied to
the grid, then every query executes its incremental step and gets measured.
All queries see the *same* update stream, which is how the paper compares
algorithms fairly.
"""

from __future__ import annotations

import heapq
import logging
import time
from typing import Callable, Dict, Optional

from repro.engine.batch import BatchExecutor
from repro.engine.metrics import QueryLog, SimulationResult, TickMetrics, diff_ops
from repro.engine.scheduler import TickScheduler
from repro.geometry import predicates
from repro.grid.delta import TickDelta
from repro.grid.index import GridIndex
from repro.grid.store import STATS as STORE_STATS
from repro.metric import STATS as METRIC_STATS
from repro.obs.flight import FlightRecorder, TickDigest
from repro.obs.ledger import (
    EVALUATED,
    OUTCOME_CHANGED,
    OUTCOME_UNCHANGED,
    REASON_DELTA_DISJOINT,
    REASON_FOOTPRINT_HIT,
    REASON_INITIAL,
    REASON_NO_EFFECT,
    REASON_NO_FOOTPRINT,
    REASON_RESUME_FORCED,
    REASON_SCHEDULER_OFF,
    SKIPPED,
    QueryCostLedger,
    QueryTickCost,
    get_ledger,
)
from repro.obs.metrics import MetricsRegistry, active_registry, record_ops_delta
from repro.obs.trace import get_tracer
from repro.queries.base import ContinuousQuery

logger = logging.getLogger(__name__)


def _unchanged(before, metrics: TickMetrics, report) -> bool:
    """Whether an evaluation reproduced the previous answer and monitored
    set.  ``before`` is ``(previous metrics, previous step report)``;
    executors without step reports compare monitored counts."""
    last, last_report = before
    if last is None or metrics.answer != last.answer:
        return False
    if report is not None and last_report is not None:
        return report.monitored == last_report.monitored
    return metrics.monitored == last.monitored


class _GuardedSpan:
    """A tracer span whose own failures are reported, never raised.

    Exceptions from the traced body propagate unchanged; an exception
    from the tracer's enter/exit goes to ``Simulator._obs_hook_failed``.
    """

    __slots__ = ("_sim", "_span")

    def __init__(self, sim: "Simulator", name: str, **attrs):
        self._sim = sim
        try:
            self._span = sim.tracer.span(name, **attrs)
            self._span.__enter__()
        except Exception as exc:
            self._span = None
            sim._obs_hook_failed("tracer", exc)

    def __enter__(self) -> "_GuardedSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._span is not None:
            try:
                self._span.__exit__(*exc_info)
            except Exception as exc:
                self._sim._obs_hook_failed("tracer", exc)
        return False


class Simulator:
    """Drives moving objects and continuous queries over shared time.

    Parameters
    ----------
    generator:
        Any object with ``initial()`` (yielding ``(oid, pos, category)``)
        and ``step(dt)`` (yielding ``(oid, new_pos)`` updates) — the
        network generator, the unconstrained generators, or a replayed
        :class:`repro.motion.trace.Trace`.
    grid_size:
        Cells per axis of the grid index.
    dt:
        Simulated duration of one tick, forwarded to the generator.
    clock:
        Time source for the per-tick wall measurements (injectable for
        deterministic tests).
    extent:
        Data space of the grid index (defaults to the unit square, the
        coordinate system of the bundled generators).  The caller is
        responsible for feeding a generator whose positions live in it.
    registry:
        Metrics registry to publish per-tick counters, gauges and
        histograms into.  Defaults to the *active* registry of
        :mod:`repro.obs.metrics` (``None`` unless observability is
        enabled, in which case publishing is skipped entirely).
    scheduler:
        When ``True`` (the default), movement is applied as one batched
        grid update per tick and a :class:`TickScheduler` intersects the
        resulting delta with each query's relevance footprint, executing
        only the affected queries; the rest carry their previous answer
        forward at zero cost.  Answers are identical either way — the
        skip test is conservative — so ``False`` exists for A/B
        measurements and as the oracle in the correctness suite.
    batch:
        When ``True`` (the default), the queries evaluated in one tick
        share their grid-level work through a per-tick
        :class:`~repro.grid.context.SharedTickContext`, grouped and
        ordered by footprint overlap (:class:`BatchExecutor`).  Answers
        are bit-identical to ``batch=False`` — memo reuse only skips
        provably redundant searches — so ``False`` preserves the pre-batch
        execution path for A/B measurements and lockstep checks.
        Requires the scheduler (silently off when ``scheduler=False``, so
        the oracle configurations of the correctness suite stay fully
        cold).
    ledger:
        Per-query cost ledger (:class:`repro.obs.ledger.QueryCostLedger`).
        ``None`` (the default) attaches the process-global ledger —
        recording only happens while that ledger is *enabled*, so the
        default costs one attribute check per tick.  ``False`` detaches
        cost attribution entirely; an explicit instance scopes the
        records to this simulator.
    flight:
        Tick flight recorder (:class:`repro.obs.flight.FlightRecorder`).
        ``True`` (the default) attaches a fresh recorder when the
        scheduler is on — always-on tick digests plus anomaly-triggered
        replayable incident bundles.  ``False`` disables it; an explicit
        instance allows tuned thresholds or an incident directory.
    """

    def __init__(
        self,
        generator,
        grid_size: int = 64,
        dt: float = 1.0,
        clock: Callable[[], float] = time.perf_counter,
        extent=None,
        registry: Optional[MetricsRegistry] = None,
        scheduler: bool = True,
        batch: bool = True,
        ledger: "Optional[QueryCostLedger | bool]" = None,
        flight: "bool | FlightRecorder" = True,
    ):
        self.generator = generator
        self.dt = dt
        self.clock = clock
        self.tracer = get_tracer()
        self.registry = registry if registry is not None else active_registry()
        self.grid = GridIndex(grid_size, extent=extent)
        for oid, pos, category in generator.initial():
            self.grid.insert(oid, pos, category)
        self._queries: Dict[str, ContinuousQuery] = {}
        self._started: Dict[str, bool] = {}
        self._paused: set = set()
        self.scheduler: Optional[TickScheduler] = (
            TickScheduler() if scheduler else None
        )
        self.batch: Optional[BatchExecutor] = (
            BatchExecutor(self.grid) if batch and scheduler else None
        )
        if ledger is None:
            self.ledger: Optional[QueryCostLedger] = get_ledger()
        elif ledger is False:
            self.ledger = None
        else:
            self.ledger = ledger
        if flight is True:
            self.flight: Optional[FlightRecorder] = (
                FlightRecorder() if scheduler else None
            )
        elif not flight:
            self.flight = None
        else:
            self.flight = flight
        #: The last tick's raw movement events ``(moves, inserts,
        #: removes)`` — kept by reference for the flight recorder's
        #: replay window (``None`` on the scheduler-off path).
        self._last_events: Optional[tuple] = None
        #: Running shared-probe totals (mirrored into the registry as
        #: ``batch_probe_hits_total`` / ``batch_probe_misses_total``).
        self.batch_probe_hits = 0
        self.batch_probe_misses = 0
        #: Names that must be evaluated at their next tick regardless of
        #: the delta (freshly resumed queries missed triggers while
        #: paused, so their footprints are stale).
        self._force_eval: set = set()
        self._last_metrics: Dict[str, TickMetrics] = {}
        #: Running totals for quick introspection (mirrored into the
        #: metrics registry as ``queries_evaluated_total`` /
        #: ``queries_evaluated_unchanged_total`` / ``ticks_skipped_total``
        #: when one is active).  An *unchanged* evaluation is a repeat
        #: evaluation whose answer and monitored set came out identical.
        self.queries_evaluated = 0
        self.queries_evaluated_unchanged = 0
        self.ticks_skipped = 0
        #: Observability hook failures swallowed by :meth:`step`
        #: (mirrored into the registry as ``obs_hook_errors_total``).
        self.obs_hook_errors = 0
        self.current_tick = 0
        #: Set to the tick number when an exception escapes mid-
        #: :meth:`step` (movement possibly applied, scheduler/ledger
        #: state stale); cleared by the next successfully
        #: completed step.  See :meth:`_poison_tick`.
        self.poisoned_tick: Optional[int] = None
        #: Last-seen values of the process-global predicate counters, so
        #: each tick publishes only this simulator's delta (mirrored into
        #: the registry as ``predicate_filter_hits_total`` /
        #: ``predicate_exact_fallbacks_total``).
        self._predicate_seen = (
            predicates.STATS.filter_hits,
            predicates.STATS.exact_fallbacks,
        )
        #: Same last-seen-delta pattern for the process-global columnar
        #: store counters (``store_rows_scanned_total`` /
        #: ``store_vectorized_filter_rows_total`` /
        #: ``store_exact_fallback_rows_total``).
        self._store_seen = (
            STORE_STATS.rows_scanned,
            STORE_STATS.filter_rows,
            STORE_STATS.exact_rows,
        )
        #: And for the network-metric counters (``repro.metric.STATS``):
        #: ``network_dijkstra_runs_total`` /
        #: ``network_dijkstra_expansions_total`` plus the distance-map
        #: cache hit/miss pair feeding ``network_sharing_ratio``.
        self._network_seen = (
            METRIC_STATS.dijkstra_runs,
            METRIC_STATS.dijkstra_expansions,
            METRIC_STATS.cache_hits,
            METRIC_STATS.cache_misses,
        )
        #: This simulator's share of the network distance-map requests,
        #: for the lifetime sharing-ratio gauge.
        self.network_cache_hits = 0
        self.network_cache_misses = 0

    # ------------------------------------------------------------------
    # Query registration
    # ------------------------------------------------------------------

    def add_query(self, name: str, query: ContinuousQuery) -> ContinuousQuery:
        """Register a continuous query under a report name."""
        if name in self._queries:
            raise KeyError(f"query name {name!r} already registered")
        if query.grid is not self.grid:
            raise ValueError(
                f"query {name!r} was built over a different grid index"
            )
        self._queries[name] = query
        self._started[name] = False
        logger.debug(
            "registered query %r (%s) at tick %d", name, query.name, self.current_tick
        )
        return query

    def query(self, name: str) -> ContinuousQuery:
        return self._queries[name]

    def query_names(self):
        """Names of all registered queries."""
        return list(self._queries)

    def remove_query(self, name: str) -> ContinuousQuery:
        """Deregister a continuous query; returns the executor."""
        query = self._queries.pop(name)
        self._started.pop(name, None)
        self._paused.discard(name)
        self._force_eval.discard(name)
        self._last_metrics.pop(name, None)
        if self.scheduler is not None:
            self.scheduler.remove_query(name)
        logger.debug("removed query %r at tick %d", name, self.current_tick)
        return query

    def pause_query(self, name: str) -> None:
        """Stop executing a query until :meth:`resume_query`.

        A paused query keeps its monitored state and resumes
        *incrementally*: the incremental step is correct from arbitrarily
        stale state, because it redraws every bisector from the current
        positions before tightening and verifying (the movement-rebuild
        path of Algorithms 2/4 makes no assumption about how far things
        moved).
        """
        if name not in self._queries:
            raise KeyError(f"no query named {name!r}")
        self._paused.add(name)
        logger.debug("paused query %r at tick %d", name, self.current_tick)

    def resume_query(self, name: str) -> None:
        """Resume a paused query (incrementally; see :meth:`pause_query`).

        The first post-resume tick is always evaluated: movement during
        the pause never consulted the query's footprint, so its previous
        skip-safety evidence is void.
        """
        if name not in self._queries:
            raise KeyError(f"no query named {name!r}")
        self._paused.discard(name)
        self._force_eval.add(name)
        logger.debug("resumed query %r at tick %d", name, self.current_tick)

    def is_paused(self, name: str) -> bool:
        return name in self._paused

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        n_ticks: int,
        on_tick: Optional[Callable[[int, "Simulator"], None]] = None,
    ) -> SimulationResult:
        """Execute the initial step plus ``n_ticks`` incremental steps.

        Tick 0 of every query log is its initial step; ticks ``1..n`` are
        incremental.  Queries registered mid-run (between ``run`` calls)
        start with their initial step at the tick they first execute.
        """
        if n_ticks < 0:
            raise ValueError(f"n_ticks must be non-negative, got {n_ticks}")
        result = SimulationResult(
            logs={name: QueryLog(name=name) for name in self._queries},
            n_ticks=n_ticks,
        )

        def record(metrics: Dict[str, TickMetrics]) -> None:
            for name, m in metrics.items():
                if name not in result.logs:
                    result.logs[name] = QueryLog(name=name)
                result.logs[name].append(m)

        cell_changes_before = self.grid.cell_changes
        updates_before = self.grid.updates

        record(self.execute_queries())
        for _ in range(n_ticks):
            record(self.step())
            if on_tick is not None:
                on_tick(self.current_tick, self)

        result.cell_changes = self.grid.cell_changes - cell_changes_before
        result.updates = self.grid.updates - updates_before
        return result

    def step(self) -> Dict[str, TickMetrics]:
        """Advance time by one tick: apply movement, run affected queries.

        Returns the fresh :class:`TickMetrics` per (non-paused) query.
        This is the single-tick primitive behind :meth:`run`, also used
        directly by :class:`repro.engine.manager.ContinuousQueryManager`.

        With the tick scheduler enabled, movement lands as one batched
        grid update whose :class:`TickDelta` is intersected with the
        registered query footprints; queries untouched by the delta take
        the zero-cost skip path in :meth:`execute_queries`.
        """
        self.current_tick += 1
        flight = self.flight
        ledger = self.ledger
        ledger_on = ledger is not None and ledger.enabled
        if flight is not None:
            try:
                flight.before_tick(self.current_tick, self.grid)
            except Exception as exc:
                self._obs_hook_failed("flight", exc)
        self._last_events = None
        scheduler_time = 0.0
        t0 = self.clock()
        try:
            with _GuardedSpan(self, "engine.tick", tick=self.current_tick):
                move_start = self.clock()
                with _GuardedSpan(self, "engine.movement"):
                    delta = self._apply_movement()
                movement_time = self.clock() - move_start
                if self.scheduler is None or delta is None:
                    out = self.execute_queries()
                else:
                    sched_start = self.clock()
                    run = self.scheduler.affected(delta)
                    scheduler_time = self.clock() - sched_start
                    out = self.execute_queries(run=run)
        except Exception as exc:
            self._poison_tick()
            if flight is not None:
                try:
                    self._flight_record(
                        self.clock() - t0,
                        {},
                        failure=f"exception: {type(exc).__name__}: {exc}",
                    )
                except Exception as hook_exc:
                    self._obs_hook_failed("flight", hook_exc)
            raise
        latency = self.clock() - t0
        self.poisoned_tick = None
        if ledger_on:
            try:
                ledger.end_tick(latency, movement_time, scheduler_time)
            except Exception as exc:
                self._obs_hook_failed("ledger", exc)
        if flight is not None:
            try:
                self._flight_record(latency, out)
            except Exception as exc:
                self._obs_hook_failed("flight", exc)
        return out

    def _flight_record(
        self,
        latency: float,
        out: Dict[str, TickMetrics],
        failure: Optional[str] = None,
    ) -> None:
        """File the tick with the flight recorder; capture an incident on
        an anomaly, or on ``failure`` (an exception escaping the tick)."""
        flight = self.flight
        moves, inserts, removes = self._last_events or (None, None, None)
        anomaly = flight.observe(
            self._digest(latency, out), moves, inserts, removes
        )
        reason = failure if failure is not None else anomaly
        if reason is not None:
            flight.capture(self, reason)

    def _obs_hook_failed(self, hook: str, exc: Exception) -> None:
        """Log and count a failed observability hook; never re-raise.

        Observability must not change what the engine computes: a
        raising ledger, flight-recorder or tracer hook loses its own
        record, never the tick (whose movement has already applied).
        """
        self.obs_hook_errors += 1
        logger.error(
            "tick %d: %s hook failed: %s: %s",
            self.current_tick,
            hook,
            type(exc).__name__,
            exc,
            exc_info=exc,
        )
        if self.registry is not None:
            self.registry.counter("obs_hook_errors_total", hook=hook).inc()

    def _poison_tick(self) -> None:
        """Fail-fast bookkeeping for an exception escaping mid-tick.

        By the time an evaluation (or the dispatch glue) raises, the
        tick's movement has usually already landed in the grid while
        the queries past the failure point never executed — so their
        registered footprints and carried answers
        describe a *pre-movement* world.  Left alone, a later
        footprint-disjoint tick would "safely" skip them and serve a
        stale answer (the half-applied-tick bug).

        The step cannot be rolled back cheaply, so it fails *observably*
        instead: the tick is marked poisoned and every registered query
        is forced to evaluate at its next tick —
        sound from arbitrarily stale state, because the incremental step
        rebuilds from current positions (see :meth:`pause_query`).
        """
        self.poisoned_tick = self.current_tick
        self._force_eval.update(self._queries)
        if self.registry is not None:
            self.registry.counter("ticks_poisoned_total").inc()
        logger.warning(
            "tick %d poisoned: forcing re-evaluation of %d queries",
            self.current_tick,
            len(self._queries),
        )

    def _digest(
        self, latency: float, out: Dict[str, TickMetrics]
    ) -> TickDigest:
        """The flight-recorder summary of the tick just executed."""
        moves, inserts, removes = self._last_events or ([], [], [])
        n_evaluated = sum(1 for m in out.values() if not m.skipped)
        top = heapq.nlargest(
            3,
            (
                (m.wall_time, name)
                for name, m in out.items()
                if not m.skipped
            ),
        )
        return TickDigest(
            tick=self.current_tick,
            latency=latency,
            evaluated=n_evaluated,
            skipped=len(out) - n_evaluated,
            moves=len(moves),
            inserts=len(inserts),
            removes=len(removes),
            top=[(name, wall) for wall, name in top],
        )

    def _apply_movement(self) -> Optional[TickDelta]:
        """Apply one tick of generator output to the grid.

        Returns the batched :class:`TickDelta` when the scheduler is on;
        with the scheduler off the legacy per-update path runs instead
        (returning ``None``), keeping the baseline's cost profile intact
        for A/B comparisons.
        """
        grid = self.grid
        if self.scheduler is not None:
            if hasattr(self.generator, "step_events"):
                events = self.generator.step_events(self.dt)
                moves = events.moves
                self._last_events = (
                    moves,
                    events.inserts,
                    events.removes,
                )
                return grid.apply_updates(
                    moves,
                    inserts=events.inserts,
                    removes=events.removes,
                    reuse_scratch=True,
                )
            updates = self.generator.step(self.dt)
            if self.flight is not None:
                if not isinstance(updates, list):
                    updates = list(updates)
                self._last_events = (updates, [], [])
            return grid.apply_updates(updates, reuse_scratch=True)
        if hasattr(self.generator, "step_events"):
            events = self.generator.step_events(self.dt)
            for oid in events.removes:
                grid.remove(oid)
            for oid, pos, category in events.inserts:
                grid.insert(oid, pos, category)
            for oid, pos in events.moves:
                grid.move(oid, pos)
        else:
            for oid, pos in self.generator.step(self.dt):
                grid.move(oid, pos)
        return None

    def execute_queries(
        self,
        run: Optional[Dict[str, str]] = None,
    ) -> Dict[str, TickMetrics]:
        """Execute every non-paused query at the current time, measured.

        ``run`` is this tick's ``{name: reason}`` map from
        :meth:`TickScheduler.affected`: queries outside it that have
        already started *and* hold
        a registered footprint carry their previous answer forward
        without executing, and each member's reason is forwarded into
        the cost ledger when it is recording.  ``None`` (scheduler off,
        or the initial step) evaluates everyone.

        With batching enabled, the to-evaluate set is decided first, then
        evaluated in footprint-overlap group order against one fresh
        :class:`~repro.grid.context.SharedTickContext`.  Reordering is
        answer-neutral (evaluations never mutate the grid), and skipped
        queries are unaffected — they never probe.
        """
        out: Dict[str, TickMetrics] = {}
        tracer = self.tracer
        registry = self.registry
        scheduler = self.scheduler
        batch = self.batch
        ledger = self.ledger
        ledger_on = ledger is not None and ledger.enabled
        tick_record = None
        if ledger_on:
            tick_record = ledger.begin_tick(self.current_tick)
            dispatch_start = self.clock()

        skipped: list = []
        evaluated: list = []
        for name in self._queries:
            if name in self._paused:
                continue
            if (
                run is not None
                and self._started[name]
                and name not in run
                and name not in self._force_eval
                and scheduler is not None
                and scheduler.footprint(name) is not None
            ):
                skipped.append(name)
            else:
                evaluated.append(name)

        if batch is not None and evaluated:
            batch.begin_tick()
            footprints = {
                name: scheduler.footprint(name) if scheduler is not None else None
                for name in evaluated
            }
            evaluated = batch.order(evaluated, footprints)

        no_effect = (
            scheduler.no_effect
            if scheduler is not None and run is not None
            else ()
        )
        for name in skipped:
            query = self._queries[name]
            last = self._last_metrics.get(name)
            answer = query.skip_tick()
            if name in no_effect:
                skip_reason = REASON_NO_EFFECT
            else:
                skip_reason = REASON_DELTA_DISJOINT
            metrics = TickMetrics(
                tick=self.current_tick,
                wall_time=0.0,
                answer=frozenset(answer),
                monitored=last.monitored if last is not None else 0,
                region_cells=last.region_cells if last is not None else 0,
                ops={},
                skipped=True,
                reason=skip_reason,
            )
            out[name] = metrics
            self._last_metrics[name] = metrics
            self.ticks_skipped += 1
            if registry is not None:
                registry.counter(
                    "ticks_skipped_total",
                    query=name,
                    reason=skip_reason,
                ).inc()
            if ledger_on:
                ledger.record(
                    QueryTickCost(
                        query=name,
                        tick=self.current_tick,
                        decision=SKIPPED,
                        reason=skip_reason,
                        answer_size=len(answer),
                        monitored=metrics.monitored,
                    )
                )

        if tick_record is not None:
            # Partitioning, batch ordering, and the skip-path bookkeeping
            # above are genuine tick cost owned by no single query.
            tick_record.dispatch_time += self.clock() - dispatch_start

        for name in evaluated:
            body_start = self.clock() if ledger_on else 0.0
            query = self._queries[name]
            if batch is not None:
                query.bind_shared_context(batch.context)
            span = (
                tracer.begin(f"engine.query.{name}", algo=query.name)
                if tracer.enabled
                else None
            )
            cost: Optional[QueryTickCost] = None
            if ledger_on:
                if not self._started[name]:
                    reason = REASON_INITIAL
                elif name in self._force_eval:
                    reason = REASON_RESUME_FORCED
                elif run is not None and name in run:
                    # Scheduler annotations win: for footprinted
                    # queries this is the affected() entry.
                    reason = run[name]
                elif scheduler is None:
                    reason = REASON_SCHEDULER_OFF
                elif scheduler.footprint(name) is None:
                    reason = REASON_NO_FOOTPRINT
                else:
                    reason = REASON_FOOTPRINT_HIT
                cost = QueryTickCost(
                    query=name,
                    tick=self.current_tick,
                    decision=EVALUATED,
                    reason=reason,
                )
                query.bind_cost_recorder(cost)
                ctx = batch.context if batch is not None else None
                shared_before = (
                    (ctx.hits, ctx.misses) if ctx is not None else (0, 0)
                )
                fallbacks_before = predicates.STATS.exact_fallbacks
                store_before = STORE_STATS.rows_scanned
            ops_before = query.search.stats.snapshot()
            started = self._started[name]
            before = (
                (self._last_metrics.get(name), getattr(query, "last_report", None))
                if started
                else None
            )
            start = self.clock()
            if not started:
                answer = query.initial()
                self._started[name] = True
            else:
                answer = query.tick()
            elapsed = self.clock() - start
            ops_after = query.search.stats.snapshot()
            metrics = TickMetrics(
                tick=self.current_tick,
                wall_time=elapsed,
                answer=frozenset(answer),
                monitored=query.monitored_count,
                region_cells=query.monitored_region_cells,
                ops=diff_ops(ops_before, ops_after),
                reason=cost.reason if cost is not None else "",
            )
            unchanged = before is not None and _unchanged(
                before, metrics, getattr(query, "last_report", None)
            )
            out[name] = metrics
            self._last_metrics[name] = metrics
            self._force_eval.discard(name)
            self.queries_evaluated += 1
            if unchanged:
                self.queries_evaluated_unchanged += 1
                if registry is not None:
                    registry.counter(
                        "queries_evaluated_unchanged_total", query=name
                    ).inc()
            if cost is not None:
                query.bind_cost_recorder(None)
                cost.absorb_ops(metrics.ops)
                if ctx is not None:
                    cost.shared_hits = ctx.hits - shared_before[0]
                    cost.shared_misses = ctx.misses - shared_before[1]
                cost.exact_fallbacks = (
                    predicates.STATS.exact_fallbacks - fallbacks_before
                )
                cost.store_rows = STORE_STATS.rows_scanned - store_before
                cost.answer_size = len(answer)
                cost.monitored = metrics.monitored
                cost.outcome = OUTCOME_UNCHANGED if unchanged else OUTCOME_CHANGED
            if scheduler is not None:
                # Footprint re-registration is part of the price of having
                # evaluated this query; attributing it keeps per-query
                # walls summing to (nearly) the whole tick.
                if cost is not None:
                    fp_start = self.clock()
                    scheduler.update_footprint(name, query.footprint())
                    fp_elapsed = self.clock() - fp_start
                    cost.phases["footprint"] = (
                        cost.phases.get("footprint", 0.0) + fp_elapsed
                    )
                else:
                    scheduler.update_footprint(name, query.footprint())
            if span is not None:
                tracer.end(span, monitored=metrics.monitored, answer=len(answer))
            if registry is not None:
                registry.counter("queries_evaluated_total", query=name).inc()
                self._publish(registry, name, query, metrics)
            if cost is not None:
                # The query's wall is its whole dispatch-loop body —
                # context binding, the algorithm itself, footprint
                # re-registration, and metric publication; the phase dict
                # separates the algorithm's share, the remainder shows up
                # as the row's unattributed glue.
                cost.wall_time = self.clock() - body_start
                ledger.record(cost)

        if batch is not None and evaluated:
            hits, misses = batch.finish_tick()
            self.batch_probe_hits += hits
            self.batch_probe_misses += misses
            if registry is not None:
                if hits:
                    registry.counter("batch_probe_hits_total").inc(hits)
                if misses:
                    registry.counter("batch_probe_misses_total").inc(misses)
                registry.gauge("batch_sharing_ratio").set(batch.sharing_ratio)
                registry.gauge("batch_groups").set(batch.groups)

        if registry is not None:
            hits, fallbacks = (
                predicates.STATS.filter_hits,
                predicates.STATS.exact_fallbacks,
            )
            seen_hits, seen_fallbacks = self._predicate_seen
            if hits > seen_hits:
                registry.counter("predicate_filter_hits_total").inc(
                    hits - seen_hits
                )
            if fallbacks > seen_fallbacks:
                registry.counter("predicate_exact_fallbacks_total").inc(
                    fallbacks - seen_fallbacks
                )
            self._predicate_seen = (hits, fallbacks)
            scanned, filtered, exact_rows = (
                STORE_STATS.rows_scanned,
                STORE_STATS.filter_rows,
                STORE_STATS.exact_rows,
            )
            seen_scanned, seen_filtered, seen_exact = self._store_seen
            if scanned > seen_scanned:
                registry.counter("store_rows_scanned_total").inc(
                    scanned - seen_scanned
                )
            if filtered > seen_filtered:
                registry.counter("store_vectorized_filter_rows_total").inc(
                    filtered - seen_filtered
                )
            if exact_rows > seen_exact:
                registry.counter("store_exact_fallback_rows_total").inc(
                    exact_rows - seen_exact
                )
            self._store_seen = (scanned, filtered, exact_rows)
            runs, expansions, net_hits, net_misses = (
                METRIC_STATS.dijkstra_runs,
                METRIC_STATS.dijkstra_expansions,
                METRIC_STATS.cache_hits,
                METRIC_STATS.cache_misses,
            )
            seen_runs, seen_expansions, seen_hits, seen_misses = self._network_seen
            if runs > seen_runs:
                registry.counter("network_dijkstra_runs_total").inc(runs - seen_runs)
            if expansions > seen_expansions:
                registry.counter("network_dijkstra_expansions_total").inc(
                    expansions - seen_expansions
                )
            if net_hits > seen_hits:
                registry.counter("network_distance_cache_hits_total").inc(
                    net_hits - seen_hits
                )
                self.network_cache_hits += net_hits - seen_hits
            if net_misses > seen_misses:
                registry.counter("network_distance_cache_misses_total").inc(
                    net_misses - seen_misses
                )
                self.network_cache_misses += net_misses - seen_misses
            requests = self.network_cache_hits + self.network_cache_misses
            if requests:
                registry.gauge("network_sharing_ratio").set(
                    self.network_cache_hits / requests
                )
            self._network_seen = (runs, expansions, net_hits, net_misses)
        return out

    def _publish(
        self,
        registry: MetricsRegistry,
        name: str,
        query: ContinuousQuery,
        metrics: TickMetrics,
    ) -> None:
        """Feed one query execution into the metrics registry."""
        registry.counter("query_ticks_total", query=name).inc()
        registry.histogram("query_tick_seconds", query=name).observe(metrics.wall_time)
        registry.gauge("query_monitored_objects", query=name).set(metrics.monitored)
        registry.gauge("query_region_cells", query=name).set(metrics.region_cells)
        registry.gauge("query_answer_size", query=name).set(metrics.answer_size)
        record_ops_delta(registry, metrics.ops)
