"""Observability hooks must never fail, or change, a tick.

Fault injection for the three hooks :meth:`Simulator.step` calls around
the tick body — the cost ledger, the flight recorder and the tracer.
Each is replaced by one that raises; the run must keep stepping with
answers bit-identical to a hook-free run, and every swallowed failure
is counted under ``obs_hook_errors_total``.
"""

import pytest

from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.obs.flight import FlightRecorder
from repro.obs.ledger import QueryCostLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.queries import IGERNMonoQuery, QueryPosition
from tests.engine.test_poisoned_tick import BombQuery

_SPEC = WorkloadSpec(n_objects=80, grid_size=8, seed=5)
_TICKS = 6


class _Fault(RuntimeError):
    pass


class _RaisingLedger(QueryCostLedger):
    def end_tick(self, *args, **kwargs):
        raise _Fault("ledger")


class _RaisingFlight(FlightRecorder):
    def before_tick(self, tick, grid):
        raise _Fault("flight before_tick")

    def observe(self, *args, **kwargs):
        raise _Fault("flight observe")


class _RaisingTracer(Tracer):
    def span(self, name, **attrs):
        raise _Fault("tracer enter")


class _ExitFaultSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        raise _Fault("tracer exit")


class _ExitRaisingTracer(Tracer):
    def span(self, name, **attrs):
        return _ExitFaultSpan()


def _sim(registry=None):
    sim = build_simulator(_SPEC)
    sim.registry = registry
    sim.ledger = None
    sim.flight = None
    qid = central_object(sim)
    sim.add_query(
        "moving",
        IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid)),
    )
    sim.add_query(
        "fixed",
        IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.3, 0.7))),
    )
    return sim


def _answers(sim):
    out = [{name: m.answer for name, m in sim.execute_queries().items()}]
    for _ in range(_TICKS):
        out.append({name: m.answer for name, m in sim.step().items()})
    return out


def _install(sim, hook):
    if hook == "ledger":
        ledger = _RaisingLedger()
        ledger.enable()
        sim.ledger = ledger
    elif hook == "flight":
        sim.flight = _RaisingFlight()
    elif hook == "tracer-enter":
        sim.tracer = _RaisingTracer()
    else:
        sim.tracer = _ExitRaisingTracer()


@pytest.mark.parametrize(
    "hook, per_tick",
    [("ledger", 1), ("flight", 2), ("tracer-enter", 2), ("tracer-exit", 2)],
)
def test_raising_hook_leaves_answers_bit_identical(hook, per_tick):
    expected = _answers(_sim())

    registry = MetricsRegistry()
    faulty = _sim(registry)
    _install(faulty, hook)
    assert _answers(faulty) == expected
    assert faulty.poisoned_tick is None
    assert faulty.obs_hook_errors == per_tick * _TICKS
    label = hook.split("-")[0]
    counter = registry.get("obs_hook_errors_total", hook=label)
    assert counter is not None and counter.value == per_tick * _TICKS


def test_raising_flight_hook_does_not_mask_a_tick_failure():
    sim = _sim()
    sim.flight = _RaisingFlight()
    bomb = BombQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
    sim.add_query("bomb", bomb)
    sim.execute_queries()
    bomb.armed = True
    with pytest.raises(RuntimeError, match="injected mid-tick fault"):
        sim.step()
    assert sim.poisoned_tick == 1
    # before_tick and the failure-path record both raised and were kept
    # out of the way of the tick's own exception.
    assert sim.obs_hook_errors == 2
