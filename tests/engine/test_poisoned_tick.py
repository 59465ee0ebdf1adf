"""A tick that dies mid-step must not leave silently stale answers.

Regression tests for the half-applied-tick bug: when a query evaluation
raises partway through :meth:`Simulator.step`, the tick's movement has
already landed in the grid while the queries past the failure point
never ran — their registered footprints and carried answers describe
a pre-movement world.  Before the fix, a later
footprint-disjoint tick would "safely" skip those queries and serve a
stale answer.  The fix fails fast and observably: the tick is marked
poisoned and every query is forced to re-evaluate on its next tick.
"""

import pytest

from repro.engine.simulation import Simulator
from repro.fuzz.scenario import ScriptedWorkload
from repro.queries import IGERNMonoQuery, QueryPosition
from repro.queries.base import ContinuousQuery


class BombQuery(ContinuousQuery):
    """Fault injector: raises on evaluation while armed.

    ``footprint()`` stays at the base ``None``, so the scheduler can
    never skip it — arming it guarantees the next step detonates.
    """

    name = "BOMB"

    def __init__(self, grid, position):
        super().__init__(grid, position)
        self.armed = False

    def _maybe_detonate(self):
        if self.armed:
            raise RuntimeError("injected mid-tick fault")

    def initial(self):
        self._maybe_detonate()
        return self._answer

    def tick(self):
        self._maybe_detonate()
        return self._answer


# Six objects; tick 1 moves object 5 right next to object 0, which both
# drops 0 from RNN(q) (5 becomes its nearest neighbor) and keeps 5 out
# (0 is nearer to 5 than q is) — the answer provably changes at tick 1.
# Tick 2 is empty, so a footprint-based scheduler sees nothing to do.
_SCRIPT = {
    "initial": [
        [0, 0.52, 0.5, 0],
        [1, 0.1, 0.9, 0],
        [2, 0.9, 0.1, 0],
        [3, 0.1, 0.1, 0],
        [4, 0.85, 0.9, 0],
        [5, 0.9, 0.9, 0],
    ],
    "ticks": [
        {"moves": [[5, 0.515, 0.5]]},
        {"moves": []},
    ],
}

_QUERY_POINT = (0.5, 0.5)


def _igern(sim: Simulator) -> IGERNMonoQuery:
    return IGERNMonoQuery(
        sim.grid, QueryPosition(sim.grid, fixed=_QUERY_POINT), k=1
    )


def test_poisoned_tick_forces_reevaluation_after_fault():
    sim = Simulator(
        ScriptedWorkload(_SCRIPT),
        grid_size=8,
        scheduler=True,
        batch=False,
        flight=False,
    )
    bomb = BombQuery(sim.grid, QueryPosition(sim.grid, fixed=_QUERY_POINT))
    sim.add_query("bomb", bomb)  # first: detonates before igern runs
    sim.add_query("igern", _igern(sim))
    sim.run(0)
    assert sim.poisoned_tick is None
    tick0_answer = sim._queries["igern"].answer

    # Tick 1 applies the move, then dies before igern is evaluated.
    bomb.armed = True
    with pytest.raises(RuntimeError, match="injected"):
        sim.step()
    assert sim.poisoned_tick == 1

    # Reference: the same script on a plain scheduler-off simulator.
    ref = Simulator(
        ScriptedWorkload(_SCRIPT),
        grid_size=8,
        scheduler=False,
        flight=False,
    )
    ref.add_query("igern", _igern(ref))
    ref.run(2)
    expected = ref._queries["igern"].answer
    # The injected fault must hide a real answer change, otherwise this
    # test cannot distinguish forced re-evaluation from a stale skip.
    assert expected != tick0_answer

    # Tick 2 moves nothing, so footprint logic alone would skip igern and
    # serve the pre-fault answer.  The poisoned tick forces the
    # evaluation instead.
    bomb.armed = False
    out = sim.step()
    assert sim.poisoned_tick is None
    assert not out["igern"].skipped
    assert sim._queries["igern"].answer == expected

