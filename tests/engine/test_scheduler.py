"""Correctness of the event-driven tick scheduler.

The skip decision must be *conservative*: a simulator with the scheduler
enabled has to produce bit-identical per-tick answers to one evaluating
every query every tick (the oracle).  The lockstep matrix below runs the
two configurations over the same workloads — monochromatic and
bichromatic, k = 1 and k > 1, light and heavy movement, population churn,
and a moving query object — and compares every answer of every tick.

The unit tests then pin the mechanism itself: quiet ticks are skipped, an
object entering a footprint cell forces re-evaluation, resumed queries
are always re-evaluated, and the scheduler's reverse indices stay
consistent under footprint churn.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.metrics import TickMetrics
from repro.engine.scheduler import TickScheduler
from repro.engine.simulation import Simulator
from repro.engine.workload import WorkloadSpec, build_simulator, central_object
from repro.geometry.point import Point
from repro.grid.delta import TickDelta
from repro.queries.base import QueryFootprint, QueryPosition
from repro.queries.brute import brute_mono_rnn
from repro.queries.igern_bi import IGERNBiQuery
from repro.queries.igern_mono import IGERNMonoQuery
from repro.motion.churn import ChurnRandomWalkGenerator


# ----------------------------------------------------------------------
# Lockstep oracle matrix
# ----------------------------------------------------------------------


def _register_queries(sim: Simulator, kind: str, k: int) -> None:
    """Identical query setup in both simulators (same seed → same ids)."""
    if kind == "mono":
        qid = central_object(sim)
        sim.add_query(
            "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, query_id=qid), k=k)
        )
    else:
        qid = central_object(sim, "A")
        sim.add_query(
            "q",
            IGERNBiQuery(sim.grid, QueryPosition(sim.grid, query_id=qid), k=k),
        )


def _assert_lockstep(sim_on: Simulator, sim_off: Simulator, n_ticks: int) -> None:
    assert sim_on.scheduler is not None
    assert sim_off.scheduler is None
    res_on = sim_on.run(n_ticks)
    res_off = sim_off.run(n_ticks)
    for name in res_off.names():
        answers_on = [t.answer for t in res_on[name].ticks]
        answers_off = [t.answer for t in res_off[name].ticks]
        assert answers_on == answers_off, f"answers diverged for {name!r}"
    # The oracle never skips; the scheduled run must account every tick
    # as either an evaluation or a skip.
    assert res_off.queries_skipped == 0
    total = sum(len(res_on[name].ticks) for name in res_on.names())
    assert res_on.queries_evaluated + res_on.queries_skipped == total


@pytest.mark.parametrize("move_fraction", [0.1, 0.5, 1.0])
@pytest.mark.parametrize(
    "kind,k",
    [("mono", 1), ("mono", 2), ("bi", 1), ("bi", 2)],
)
def test_lockstep_matrix(kind: str, k: int, move_fraction: float):
    """Scheduler on vs off: identical per-tick answers across the matrix.

    The query object is itself part of the moving population, so this
    also covers the moving-query case whenever the generator picks it.
    """
    spec = WorkloadSpec(
        n_objects=320,
        grid_size=24,
        seed=11,
        network="walk",
        move_fraction=move_fraction,
        bichromatic=(kind == "bi"),
    )
    sim_on = build_simulator(spec, scheduler=True)
    sim_off = build_simulator(spec, scheduler=False)
    _register_queries(sim_on, kind, k)
    _register_queries(sim_off, kind, k)
    _assert_lockstep(sim_on, sim_off, n_ticks=20)


@pytest.mark.parametrize("kind", ["mono", "bi"])
def test_lockstep_under_churn(kind: str):
    """Births and deaths flow through the batched delta identically."""
    categories = {"A": 0.4, "B": 0.6} if kind == "bi" else None

    def make_sim(scheduler: bool) -> Simulator:
        gen = ChurnRandomWalkGenerator(
            260,
            seed=5,
            step_sigma=0.012,
            birth_rate=0.04,
            death_rate=0.04,
            categories=categories,
        )
        sim = Simulator(gen, grid_size=20, scheduler=scheduler)
        # Fixed query position: churn may kill any moving query object.
        position = QueryPosition(sim.grid, fixed=(0.47, 0.53))
        if kind == "mono":
            sim.add_query("q", IGERNMonoQuery(sim.grid, position))
        else:
            sim.add_query("q", IGERNBiQuery(sim.grid, position))
        return sim

    _assert_lockstep(make_sim(True), make_sim(False), n_ticks=25)


def test_lockstep_multi_query():
    """Several heterogeneous queries share one batched update stream."""
    spec = WorkloadSpec(
        n_objects=400,
        grid_size=24,
        seed=3,
        network="walk",
        move_fraction=0.2,
        bichromatic=True,
    )

    def make_sim(scheduler: bool) -> Simulator:
        sim = build_simulator(spec, scheduler=scheduler)
        qid = central_object(sim, "A")
        sim.add_query(
            "bi1", IGERNBiQuery(sim.grid, QueryPosition(sim.grid, query_id=qid))
        )
        sim.add_query(
            "bi2",
            IGERNBiQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.25, 0.75))),
        )
        sim.add_query(
            "bi_k2",
            IGERNBiQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.6, 0.4)), k=2),
        )
        return sim

    _assert_lockstep(make_sim(True), make_sim(False), n_ticks=20)


# ----------------------------------------------------------------------
# Skip mechanics on a scripted workload
# ----------------------------------------------------------------------


class ScriptedGenerator:
    """Replays a fixed initial population and a per-tick move script."""

    def __init__(self, initial, script):
        self._initial = list(initial)
        self._script = [list(moves) for moves in script]

    def initial(self):
        return iter(self._initial)

    def step(self, dt):
        if self._script:
            return self._script.pop(0)
        return []


def _scripted_sim(script) -> Simulator:
    initial = [
        ("n1", Point(0.53, 0.50), 0),
        ("n2", Point(0.47, 0.50), 0),
        ("n3", Point(0.50, 0.53), 0),
        ("n4", Point(0.50, 0.47), 0),
        ("far", Point(0.95, 0.95), 0),
    ]
    sim = Simulator(ScriptedGenerator(initial, script), grid_size=16)
    sim.add_query(
        "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
    )
    return sim


def test_quiet_tick_is_skipped():
    """No movement at all → the query carries its answer at zero cost."""
    sim = _scripted_sim(script=[[]])
    sim.execute_queries()
    before = sim.query("q").answer
    metrics = sim.step()
    assert metrics["q"].skipped
    assert metrics["q"].wall_time == 0.0
    assert metrics["q"].ops == {}
    assert metrics["q"].answer == before
    assert sim.ticks_skipped == 1


def test_far_movement_outside_footprint_is_skipped():
    """An object moving within a far-away cell never touches the query."""
    sim = _scripted_sim(script=[[("far", Point(0.951, 0.951))]])
    sim.execute_queries()
    metrics = sim.step()
    assert metrics["q"].skipped


def test_object_entering_footprint_cell_triggers_evaluation():
    """The tentpole trigger: an enter event inside a monitored cell.

    The far object teleports next to the query; the tick must be
    evaluated (not skipped) and the fresh answer must match the
    exhaustive oracle, which now includes the newcomer.
    """
    sim = _scripted_sim(
        script=[
            [("far", Point(0.951, 0.951))],  # skipped warm-up tick
            [("far", Point(0.50, 0.505))],  # enters the alive region
        ]
    )
    sim.execute_queries()
    initial_answer = sim.query("q").answer
    assert "far" not in initial_answer

    assert sim.step()["q"].skipped
    metrics = sim.step()
    assert not metrics["q"].skipped

    positions = {oid: sim.grid.position(oid) for oid in sim.grid.objects()}
    oracle = frozenset(brute_mono_rnn(positions, (0.5, 0.5)))
    assert metrics["q"].answer == oracle
    assert "far" in metrics["q"].answer


def test_monitored_object_movement_triggers_evaluation():
    """A candidate moving — even within its own cell — re-evaluates."""
    sim = _scripted_sim(script=[[("n1", Point(0.531, 0.501))]])
    sim.execute_queries()
    metrics = sim.step()
    assert not metrics["q"].skipped


def test_resume_forces_evaluation():
    """Movement during a pause voids the stale skip evidence."""
    sim = _scripted_sim(script=[[], [], []])
    sim.execute_queries()
    sim.pause_query("q")
    sim.step()
    sim.resume_query("q")
    metrics = sim.step()
    assert not metrics["q"].skipped
    # Once re-evaluated, quiet ticks skip again.
    assert sim.step()["q"].skipped


def test_scheduler_off_never_skips():
    sim = Simulator(
        ScriptedGenerator([("a", Point(0.2, 0.2), 0)], [[], []]),
        grid_size=8,
        scheduler=False,
    )
    sim.add_query(
        "q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=(0.5, 0.5)))
    )
    result = sim.run(2)
    assert result.queries_skipped == 0
    assert all(not t.skipped for t in result["q"].ticks)


def test_removed_query_is_forgotten_by_scheduler():
    sim = _scripted_sim(script=[[]])
    sim.execute_queries()
    assert sim.scheduler.footprint("q") is not None
    sim.remove_query("q")
    assert sim.scheduler.footprint("q") is None
    assert sim.step() == {}


# ----------------------------------------------------------------------
# TickScheduler unit behavior
# ----------------------------------------------------------------------


def _delta(
    moved=(), touched=(), dirty=(), inserted=(), removed=()
) -> TickDelta:
    d = TickDelta()
    d.moved.update(moved)
    d.inserted.update(inserted)
    d.removed.update(removed)
    d.touched_cells.update(touched)
    d.dirty_cells.update(dirty)
    return d


class TestTickScheduler:
    def test_cell_hit(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q", QueryFootprint(cells=frozenset({(1, 1)}), objects=frozenset())
        )
        assert set(sched.affected(_delta(moved={"x"}, touched={(1, 1)}))) == {"q"}
        assert set(sched.affected(_delta(moved={"x"}, touched={(5, 5)}))) == set()

    def test_object_hit_without_cell_overlap(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q", QueryFootprint(cells=frozenset(), objects=frozenset({"v"}))
        )
        assert set(sched.affected(_delta(moved={"v"}, touched={(9, 9)}))) == {"q"}
        assert set(sched.affected(_delta(removed={"v"}))) == {"q"}
        assert set(sched.affected(_delta(inserted={"v"}))) == {"q"}
        assert set(sched.affected(_delta(moved={"w"}, touched={(9, 9)}))) == set()

    def test_footprint_diffing_unindexes_old_entries(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q",
            QueryFootprint(cells=frozenset({(1, 1)}), objects=frozenset({"a"})),
        )
        sched.update_footprint(
            "q",
            QueryFootprint(cells=frozenset({(2, 2)}), objects=frozenset({"b"})),
        )
        assert set(sched.affected(_delta(moved={"a"}, touched={(1, 1)}))) == set()
        assert set(sched.affected(_delta(moved={"b"}, touched={(2, 2)}))) == {"q"}

    def test_none_footprint_is_always_mode(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q", QueryFootprint(cells=frozenset({(1, 1)}), objects=frozenset())
        )
        sched.update_footprint("q", None)
        assert sched.footprint("q") is None
        # Not a footprint hit — the engine evaluates it unconditionally.
        assert set(sched.affected(_delta(moved={"x"}, touched={(1, 1)}))) == set()

    def test_busy_tick_path_matches_quiet_path(self):
        """Both iteration sides of affected() agree on the same delta."""
        sched = TickScheduler()
        sched.update_footprint(
            "a",
            QueryFootprint(cells=frozenset({(0, 0)}), objects=frozenset({"x"})),
        )
        sched.update_footprint(
            "b",
            QueryFootprint(cells=frozenset({(3, 3)}), objects=frozenset()),
        )
        busy = _delta(
            moved={"x", "y", "z"},
            touched={(i, i) for i in range(10)},
        )
        assert set(sched.affected(busy)) == {"a", "b"}

    def test_remove_query(self):
        sched = TickScheduler()
        sched.update_footprint(
            "q", QueryFootprint(cells=frozenset({(1, 1)}), objects=frozenset({"a"}))
        )
        sched.remove_query("q")
        assert set(sched.affected(_delta(moved={"a"}, touched={(1, 1)}))) == set()


def test_tickmetrics_skip_accounting():
    m = TickMetrics(
        tick=3,
        wall_time=0.0,
        answer=frozenset({"a"}),
        monitored=2,
        region_cells=4,
        skipped=True,
    )
    assert m.skipped and m.answer_size == 1


# ----------------------------------------------------------------------
# Exact per-mover triggers on settled footprints
# ----------------------------------------------------------------------
#
# A settled footprint (its evaluation was incremental and absorbed and
# pruned nothing) carries the alive cells, the query position and the
# witness-ball centres.  A cell hit then dispatches only when a mover
# leaves or lands in an alive cell, or crosses a ball in a direction that
# can change the state; otherwise the query is skipped as ``no-effect``.
#
# The unit fixture below, on a 10 x 10 grid over the unit square:
#
# - query at (0.5, 0.5), alive cell (5, 5);
# - answer candidate A at (0.55, 0.5): its ball has radius 0.05;
# - non-answer candidate N at (0.45, 0.5): its ball has radius 0.05.

_Q = Point(0.5, 0.5)
_A = Point(0.55, 0.5)
_N = Point(0.45, 0.5)
_CELLS = frozenset({(4, 4), (4, 5), (5, 4), (5, 5)})


def _cell(p):
    return (int(p[0] * 10), int(p[1] * 10))


def _settled_fp(**overrides) -> QueryFootprint:
    fields = dict(
        cells=_CELLS,
        objects=frozenset({"A", "N"}),
        alive=frozenset({(5, 5)}),
        qpos=_Q,
        enter_balls=(_A,),
        leave_balls=(_N,),
    )
    fields.update(overrides)
    return QueryFootprint(**fields)


def _moves(*moves, inserts=(), removes=()) -> TickDelta:
    """A delta with endpoints, as ``GridIndex.apply_updates`` records it."""
    d = TickDelta()
    for oid, p0, p1 in moves:
        d.record_move(oid, _cell(p0), _cell(p1), p0, p1)
    for oid, p in inserts:
        d.record_insert(oid, _cell(p), p)
    for oid, p in removes:
        d.record_remove(oid, _cell(p), p)
    return d


def _decide(fp: QueryFootprint, delta: TickDelta):
    sched = TickScheduler()
    sched.update_footprint("q", fp)
    return sched.affected(delta), sched.no_effect


class TestExactTriggers:
    # Fixture points: inside/outside each ball, none in the alive cell
    # unless stated (coordinates checked in test_fixture_geometry).
    OUT_44 = (Point(0.41, 0.41), Point(0.412, 0.41))  # cell (4, 4), far from both
    INTO_A = (Point(0.58, 0.43), Point(0.57, 0.47))  # cell (5, 4), enters A
    OUT_OF_N = (Point(0.44, 0.47), Point(0.42, 0.43))  # cell (4, 4), leaves N

    def test_fixture_geometry(self):
        from repro.geometry.predicates import compare_distance

        def inside(c, p):
            return compare_distance(c, p, _Q) < 0

        p0, p1 = self.OUT_44
        assert not any(inside(c, p) for c in (_A, _N) for p in (p0, p1))
        p0, p1 = self.INTO_A
        assert not inside(_A, p0) and inside(_A, p1)
        assert not inside(_N, p0) and not inside(_N, p1)
        p0, p1 = self.OUT_OF_N
        assert inside(_N, p0) and not inside(_N, p1)
        assert not inside(_A, p0) and not inside(_A, p1)
        for p0, p1 in (self.OUT_44, self.INTO_A, self.OUT_OF_N):
            assert _cell(p0) != (5, 5) and _cell(p1) != (5, 5)

    def test_landing_on_a_ball_boundary_is_not_entering(self):
        """"Inside" is strict, as in verification: an exact tie with the
        witness distance does not enter the ball."""
        from repro.geometry.predicates import compare_distance

        q, c = Point(0.75, 0.5), Point(0.5, 0.5)  # ball radius 0.25
        start, tie, inside = Point(0.25, 0.375), Point(0.25, 0.5), Point(0.26, 0.5)
        assert compare_distance(c, start, q) > 0
        assert compare_distance(c, tie, q) == 0
        assert compare_distance(c, inside, q) < 0
        fp = _settled_fp(
            cells=frozenset({(2, 3), (2, 5)}),
            alive=frozenset({(7, 5)}),
            qpos=q,
            enter_balls=(c,),
            leave_balls=(),
        )
        run, no_effect = _decide(fp, _moves(("x", start, tie)))
        assert run == {} and no_effect == {"q"}
        run, no_effect = _decide(fp, _moves(("x", start, inside)))
        assert run == {"q": "footprint-enter"} and no_effect == set()

    def test_jitter_outside_balls_and_region_is_no_effect(self):
        run, no_effect = _decide(_settled_fp(), _moves(("x", *self.OUT_44)))
        assert run == {}
        assert no_effect == {"q"}

    def test_entering_an_answer_ball_dispatches(self):
        run, no_effect = _decide(_settled_fp(), _moves(("x", *self.INTO_A)))
        assert run == {"q": "footprint-enter"}
        assert no_effect == set()

    def test_leaving_an_answer_ball_is_no_effect(self):
        p0, p1 = self.INTO_A
        run, _ = _decide(_settled_fp(), _moves(("x", p1, p0)))
        assert run == {}

    def test_leaving_a_non_answer_ball_dispatches(self):
        run, _ = _decide(_settled_fp(), _moves(("x", *self.OUT_OF_N)))
        assert run == {"q": "footprint-enter"}

    def test_entering_a_non_answer_ball_is_no_effect(self):
        p0, p1 = self.OUT_OF_N
        run, _ = _decide(_settled_fp(), _moves(("x", p1, p0)))
        assert run == {}

    def test_landing_in_an_alive_cell_dispatches(self):
        # (0.59, 0.59) is in alive cell (5, 5) but outside both balls.
        run, _ = _decide(
            _settled_fp(), _moves(("x", Point(0.41, 0.41), Point(0.59, 0.59)))
        )
        assert run == {"q": "footprint-enter"}

    def test_leaving_an_alive_cell_dispatches(self):
        run, _ = _decide(
            _settled_fp(), _moves(("x", Point(0.59, 0.59), Point(0.41, 0.41)))
        )
        assert run == {"q": "footprint-enter"}

    def test_insert_inside_a_ball_dispatches(self):
        run, _ = _decide(_settled_fp(), _moves(inserts=[("new", self.INTO_A[1])]))
        assert run == {"q": "footprint-enter"}

    def test_remove_inside_a_ball_dispatches(self):
        run, _ = _decide(_settled_fp(), _moves(removes=[("old", self.OUT_OF_N[0])]))
        assert run == {"q": "footprint-enter"}

    def test_insert_and_remove_outside_everything_are_no_effect(self):
        p0, p1 = self.OUT_44
        run, no_effect = _decide(
            _settled_fp(), _moves(inserts=[("new", p1)], removes=[("old", p0)])
        )
        assert run == {} and no_effect == {"q"}

    def test_unsettled_footprint_keeps_the_cell_level_test(self):
        fp = QueryFootprint(cells=_CELLS, objects=frozenset({"A", "N"}))
        assert not fp.settled
        run, no_effect = _decide(fp, _moves(("x", *self.OUT_44)))
        assert run == {"q": "footprint-enter"}
        assert no_effect == set()

    def test_object_hit_dispatches_regardless(self):
        run, _ = _decide(
            _settled_fp(), _moves(("A", Point(0.55, 0.5), Point(0.551, 0.5)))
        )
        assert run == {"q": "footprint-enter"}
        run, _ = _decide(
            _settled_fp(), _moves(("N", Point(0.3, 0.3), Point(0.31, 0.3)))
        )
        assert run == {"q": "object-moved"}

    def test_cell_without_endpoints_counts_as_a_change(self):
        """A hand-built delta without endpoints cannot justify a skip."""
        run, _ = _decide(_settled_fp(), _delta(moved={"x"}, touched={(4, 4)}))
        assert run == {"q": "footprint-enter"}

    def test_busy_tick_path_refines_too(self):
        many = [
            (f"m{i}", Point(0.95, 0.05 + i / 10), Point(0.951, 0.05 + i / 10))
            for i in range(8)
        ]
        delta = _moves(("x", *self.OUT_44), *many)
        assert len(delta.touched_cells) > len(_CELLS)
        run, no_effect = _decide(_settled_fp(), delta)
        assert run == {} and no_effect == {"q"}
        delta = _moves(("x", *self.INTO_A), *many)
        run, _ = _decide(_settled_fp(), delta)
        assert run == {"q": "footprint-enter"}


# -- end to end: settled queries inside a simulator ---------------------


def _uniform_population(n, seed, categories=None):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        cat = 0 if categories is None else rng.choice(categories)
        out.append((i, Point(rng.random(), rng.random()), cat))
    return out


def _lockstep_pair(initial, grid_size, make_query):
    """Scheduler-on and scheduler-off simulators over one appendable move
    script; ``make_query(grid)`` builds the query registered as ``q``."""
    gen_on = ScriptedGenerator(initial, [])
    gen_off = ScriptedGenerator(initial, [])
    sims = []
    for gen, scheduler in ((gen_on, True), (gen_off, False)):
        sim = Simulator(gen, grid_size=grid_size, scheduler=scheduler)
        sim.add_query("q", make_query(sim.grid))
        sim.execute_queries()
        sims.append(sim)

    def step(moves):
        gen_on._script.append(list(moves))
        gen_off._script.append(list(moves))
        return sims[0].step()["q"], sims[1].step()["q"]

    return sims[0], sims[1], step


def _settle(sim_on, step):
    """Force evaluations (no movement) until the footprint is settled."""
    for _ in range(6):
        fp = sim_on.scheduler.footprint("q")
        if fp is not None and fp.settled:
            return fp
        sim_on.pause_query("q")
        sim_on.resume_query("q")
        step([])
    raise AssertionError("footprint never settled")


def _inside_any(balls, p, q):
    from repro.geometry.predicates import compare_distance

    return any(compare_distance(c, p, q) < 0 for c in balls)


def _nudge_within(sim, fp, oid, avoid_cells):
    """A tiny within-cell move of ``oid`` that stays outside every witness
    ball, or ``None`` when its cell or position does not allow one."""
    grid = sim.grid
    key = grid.cell_of(oid)
    if key not in fp.cells or key in avoid_cells:
        return None
    balls = fp.enter_balls + fp.leave_balls
    p0 = grid.position(oid)
    if _inside_any(balls, p0, fp.qpos):
        return None
    for dx, dy in ((1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)):
        p1 = Point(p0.x + dx, p0.y + dy)
        if grid.cell_key(p1) == key and not _inside_any(balls, p1, fp.qpos):
            return p1
    return None


def _bi_pair(seed=0):
    initial = _uniform_population(300, seed, categories=["A", "B"])
    return _lockstep_pair(
        initial,
        16,
        lambda grid: IGERNBiQuery(grid, QueryPosition(grid, fixed=(0.5, 0.5))),
    )


def _assert_same_bi_state(on, off):
    a, b = on.query("q")._state, off.query("q")._state
    assert a.answer == b.answer
    assert set(a.nn_a) == set(b.nn_a)
    assert set(a.alive.alive_cells()) == set(b.alive.alive_cells())


class TestBichromaticTriggers:
    def test_b_mover_crossing_into_the_region_dispatches(self):
        on, off, step = _bi_pair()
        fp = _settle(on, step)
        grid = on.grid
        outsider = next(
            oid
            for oid in sorted(grid.objects("B"))
            if grid.cell_of(oid) not in fp.cells
        )
        target_cell = min(fp.alive)
        rect = grid.cell_rect(target_cell)
        target = rect.center
        m_on, m_off = step([(outsider, target)])
        assert not m_on.skipped
        assert m_on.answer == m_off.answer
        _assert_same_bi_state(on, off)

    def test_b_jitter_outside_region_and_balls_is_no_effect(self):
        on, off, step = _bi_pair()
        fp = _settle(on, step)
        mover = target = None
        for oid in sorted(on.grid.objects("B")):
            target = _nudge_within(on, fp, oid, fp.alive)
            if target is not None:
                mover = oid
                break
        assert mover is not None
        m_on, m_off = step([(mover, target)])
        assert m_on.skipped and m_on.reason == "no-effect"
        assert m_on.answer == m_off.answer
        _assert_same_bi_state(on, off)

    def test_a_mover_entering_an_answer_ball_dispatches(self):
        """An A object landing strictly closer to an answer B than the
        query is — outside every alive cell — takes that B out of the
        answer (and becomes its nearest A, absorbed into ``NN_A``)."""
        import math

        on, off, step = _bi_pair()
        fp = _settle(on, step)
        grid = on.grid
        state = on.query("q")._state
        q = state.qpos
        found = None
        for b in sorted(state.answer):
            bpos = grid.position(b)
            radius = math.dist(bpos, q)
            for i in range(32):
                ang = 2 * math.pi * i / 32
                p = Point(
                    bpos.x + 0.9 * radius * math.cos(ang),
                    bpos.y + 0.9 * radius * math.sin(ang),
                )
                if 0 <= p.x < 1 and 0 <= p.y < 1 and grid.cell_key(p) not in fp.alive:
                    found = (b, p)
                    break
            if found:
                break
        assert found is not None, "fixture: no answer B with a free spot"
        b, target = found
        assert _inside_any(fp.enter_balls, target, q)
        mover = next(
            oid
            for oid in sorted(grid.objects("A"))
            if oid not in state.nn_a and grid.cell_of(oid) not in fp.cells
        )
        m_on, m_off = step([(mover, target)])
        assert not m_on.skipped
        assert b not in m_on.answer
        assert mover in on.query("q")._state.nn_a
        assert m_on.answer == m_off.answer
        _assert_same_bi_state(on, off)


def test_unsettled_footprint_is_evaluated_on_a_touching_tick():
    """Right after ``initial`` a re-run can still absorb candidates (the
    best-first loop and the incremental region scan disagree on which
    straddling cells they reach).  Such a footprint is unsettled: a tick
    whose only mover would be ``no-effect`` for a settled footprint must
    still evaluate it, and the evaluation absorbs what the re-run finds."""
    import copy
    import dataclasses

    from repro.engine.scheduler import _may_change

    rng = random.Random(5)
    initial = [(i, Point(rng.random(), rng.random()), 0) for i in range(400)]
    picked = None
    for _ in range(30):
        point = (0.2 + 0.6 * rng.random(), 0.2 + 0.6 * rng.random())
        gen = ScriptedGenerator(initial, [])
        sim = Simulator(gen, grid_size=16)
        sim.add_query("q", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=point)))
        sim.execute_queries()
        query = sim.query("q")
        replay = copy.deepcopy(query._state)
        query._algo.incremental(replay, query.position.current())
        gained = set(replay.candidates) - set(query._state.candidates)
        if gained:
            picked = (sim, gen, gained)
            break
    assert picked is not None, "fixture: no query whose re-run absorbs"
    sim, gen, gained = picked
    fp = sim.scheduler.footprint("q")
    assert not fp.settled
    state = sim.query("q")._state
    alive = frozenset(state.alive.alive_cells())
    answer = state.answer
    settled = dataclasses.replace(
        fp,
        alive=alive,
        qpos=state.qpos,
        enter_balls=tuple(p for o, p in state.candidates.items() if o in answer),
        leave_balls=tuple(p for o, p in state.candidates.items() if o not in answer),
    )
    move = None
    for oid in sorted(sim.grid.objects()):
        if oid in state.candidates:
            continue
        target = _nudge_within(sim, settled, oid, alive)
        if target is not None:
            move = (oid, target)
            break
    assert move is not None
    probe = TickDelta()
    old = sim.grid.position(move[0])
    probe.record_move(move[0], sim.grid.cell_key(old), sim.grid.cell_key(move[1]), old, move[1])
    # Had the footprint claimed to be settled, this tick would be skipped.
    assert not _may_change(settled, probe, [sim.grid.cell_key(old)])

    gen._script.append([move])
    metrics = sim.step()
    assert not metrics["q"].skipped
    assert gained <= set(sim.query("q")._state.candidates)


def test_fleet_script_counts_and_lockstep():
    """A small fleet: uniform objects, fixed queries, a few jittering
    objects per tick.  Every tick, every answer and every monitored
    state equals the evaluate-everything simulator's, and ``no-effect``
    skips must outnumber evaluations.  (On other scripts a cell-level
    skip of an *unsettled* footprint may leave a state behind — the
    re-run it skipped would have absorbed leftovers, answers are
    unaffected — so a divergence is first attributed, then counted.)"""
    rng = random.Random(7)
    n, n_queries, movers, ticks = 1500, 30, 5, 25
    xy = {i: (rng.random(), rng.random()) for i in range(n)}
    initial = [(i, Point(*p), 0) for i, p in xy.items()]
    points = [(rng.random(), rng.random()) for _ in range(n_queries)]
    script = []
    for _ in range(ticks):
        moves = []
        for i in rng.sample(range(n), movers):
            x, y = xy[i]
            x = min(1.0, max(0.0, x + rng.gauss(0.0, 0.004)))
            y = min(1.0, max(0.0, y + rng.gauss(0.0, 0.004)))
            xy[i] = (x, y)
            moves.append((i, Point(x, y)))
        script.append(moves)

    def build(scheduler):
        sim = Simulator(ScriptedGenerator(initial, script), grid_size=24, scheduler=scheduler)
        for j, p in enumerate(points):
            sim.add_query(f"q{j}", IGERNMonoQuery(sim.grid, QueryPosition(sim.grid, fixed=p)))
        sim.execute_queries()
        return sim

    def monitored(sim, name):
        state = sim.query(name)._state
        return (
            frozenset(state.candidates),
            frozenset(state.answer),
            frozenset(state.alive.alive_cells()),
        )

    on, off = build(True), build(False)
    names = [f"q{j}" for j in range(n_queries)]
    behind = set()
    counts = {"no-effect": 0, "evaluated": 0, "behind": 0}
    for _ in range(ticks):
        settled = {
            name: (fp := on.scheduler.footprint(name)) is not None and fp.settled
            for name in names
        }
        out_on, out_off = on.step(), off.step()
        for name in names:
            row = out_on[name]
            assert row.answer == out_off[name].answer
            if row.skipped and row.reason == "no-effect":
                counts["no-effect"] += 1
            elif not row.skipped:
                counts["evaluated"] += 1
            same = monitored(on, name) == monitored(off, name)
            if same:
                behind.discard(name)
            elif name not in behind:
                # A divergence may only start on a cell-level skip of an
                # unsettled footprint, never on a no-effect skip.
                assert row.skipped and row.reason == "delta-disjoint", name
                assert not settled[name], name
                behind.add(name)
            counts["behind"] += name in behind
    assert counts["no-effect"] >= counts["evaluated"] > 0, counts
    # On this pinned script no state ever falls behind.
    assert counts["behind"] == 0, counts
