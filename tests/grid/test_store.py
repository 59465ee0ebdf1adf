"""Property-based contract suite for the columnar object store.

Every test drives a :class:`GridIndex` — whose objects live in a
:class:`~repro.grid.store.ColumnarStore` — next to a plain ``dict``
model of the same operations (``oid -> (position, category)``).  The
grid's observable state and its :class:`~repro.grid.delta.TickDelta`
bookkeeping must be exactly what the model implies, and the search
kernels must return what a brute scan of the model returns.  The store
also self-checks its row/bucket/free-list consistency contract
(:meth:`ColumnarStore.check_invariants`) after every batch, and a churn
test pins the free-list compaction behaviour.

The kernel tests cover both per-cell object loops of
:mod:`repro.grid.search`: cell populations sit on either side of
``_VEC_MIN_ROWS``, and each probe runs with ``stop_at`` unset (the
slice loop may run) and set (row loop only), in float and exact
(``threshold_point``) mode, with tiny thresholds, and with an object
filter.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import predicates
from repro.geometry.bisector import bisector_halfplane
from repro.geometry.point import Point
from repro.grid.alive import AliveCellGrid
from repro.grid.cell import cell_key_of
from repro.grid.delta import TickDelta
from repro.grid.index import _BULK_MOVE_MIN, GridIndex
from repro.grid.search import _VEC_MIN_ROWS, GridSearch
from repro.grid.store import COMPACT_MIN_FREE, STATS

CATEGORIES = (None, "A", "B")

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
#: Lattice coordinates make exact distance ties common.
lattice = st.integers(min_value=0, max_value=8).map(lambda i: i / 8)
coord = st.one_of(unit, lattice)
point = st.tuples(coord, coord)
category = st.sampled_from(CATEGORIES)
grid_sizes = st.sampled_from([1, 3, 8, 17])
#: Object sets for the kernel tests: thin ones, and ones fat enough that
#: coarse grids hold cells past the slice threshold.
populations = st.one_of(
    st.lists(point, min_size=1, max_size=_VEC_MIN_ROWS),
    st.lists(point, min_size=_VEC_MIN_ROWS, max_size=80),
)

#: One mutation: ("insert", pos, cat) | ("move", idx, pos) | ("remove", idx).
ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), point, category),
        st.tuples(st.just("move"), st.integers(min_value=0), point),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
    ),
    max_size=60,
)


# ----------------------------------------------------------------------
# The dict model
# ----------------------------------------------------------------------


def _cell(grid, pos):
    return cell_key_of(grid.extent, grid.size, pos)


def _apply_ops(grid: GridIndex, model: dict, op_list) -> None:
    """Replay a mutation script on the grid and the model alike; index
    references resolve against the currently live ids."""
    next_id = max(model, default=-1) + 1
    for op in op_list:
        live = sorted(model)
        if op[0] == "insert":
            _, pos, cat = op
            grid.insert(next_id, pos, cat)
            model[next_id] = (pos, cat)
            next_id += 1
        elif op[0] == "move" and live:
            _, idx, pos = op
            oid = live[idx % len(live)]
            grid.move(oid, pos)
            model[oid] = (pos, model[oid][1])
        elif op[0] == "remove" and live:
            _, idx = op
            oid = live[idx % len(live)]
            p = grid.remove(oid)
            assert (p.x, p.y) == model.pop(oid)[0]


def model_apply(grid: GridIndex, model: dict, moves, inserts=(), removes=()):
    """Apply one ``apply_updates`` batch to the model; returns the
    :class:`TickDelta` the grid must report for it (removes, then
    inserts, then moves in order; restated positions are no movement)."""
    delta = TickDelta()
    for oid in removes:
        pos, _ = model.pop(oid)
        delta.record_remove(oid, _cell(grid, pos))
    for oid, pos, cat in inserts:
        model[oid] = (pos, cat)
        delta.record_insert(oid, _cell(grid, pos))
    for oid, pos in moves:
        old, cat = model[oid]
        if pos == old:
            continue
        model[oid] = (pos, cat)
        delta.record_move(oid, _cell(grid, old), _cell(grid, pos))
    return delta


def _matches(cat, wanted):
    return wanted is None or cat == wanted


def observable_state(grid: GridIndex):
    """Everything a caller can see through the storage seam."""
    cells = {}
    for key in grid.occupied_cells():
        for cat in CATEGORIES:
            members = frozenset(grid.objects_in_cell(key, cat))
            if members:
                cells[(key, cat)] = members
                assert grid.cell_population(key, cat) == len(members)
    return {
        "len": len(grid),
        "positions": grid.positions_snapshot(),
        "objects": {
            oid: (grid.cell_of(oid), grid.category(oid)) for oid in grid.objects()
        },
        "cells": cells,
        "occupied": frozenset(grid.occupied_cells()),
        "occupied_count": grid.occupied_count(),
        "categories": {
            cat: (frozenset(grid.objects(cat)), grid.count(cat))
            for cat in CATEGORIES
        },
    }


def expected_state(grid: GridIndex, model: dict):
    """What :func:`observable_state` must return for ``model``."""
    cell_of = {oid: _cell(grid, pos) for oid, (pos, _) in model.items()}
    occupied = frozenset(cell_of.values())
    cells = {}
    for key in occupied:
        for cat in CATEGORIES:
            members = frozenset(
                oid
                for oid, (_, c) in model.items()
                if cell_of[oid] == key and _matches(c, cat)
            )
            if members:
                cells[(key, cat)] = members
    categories = {}
    for cat in CATEGORIES:
        ids = frozenset(oid for oid, (_, c) in model.items() if _matches(c, cat))
        categories[cat] = (ids, len(ids))
    return {
        "len": len(model),
        "positions": {oid: tuple(pos) for oid, (pos, _) in model.items()},
        "objects": {oid: (cell_of[oid], c) for oid, (_, c) in model.items()},
        "cells": cells,
        "occupied": occupied,
        "occupied_count": len(occupied),
        "categories": categories,
    }


# ----------------------------------------------------------------------
# Brute scans of the model
# ----------------------------------------------------------------------


def _d2(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def brute_witnesses(model, center, t2, exclude=(), threshold_point=None):
    """``(oid, d2)`` of every object strictly closer than ``t2`` (or, in
    exact mode, strictly closer to ``center`` than ``threshold_point``)."""
    out = []
    for oid, (pos, _) in model.items():
        if oid in exclude:
            continue
        if threshold_point is not None:
            closer = predicates.closer_than(center, pos, threshold_point)
        else:
            closer = _d2(pos, center) < t2
        if closer:
            out.append((oid, _d2(pos, center)))
    return sorted(out)


def _grid_with(n, pts):
    grid = GridIndex(n)
    model = {}
    for i, p in enumerate(pts):
        grid.insert(i, p)
        model[i] = (p, 0)
    return grid, model


def check_kernels(search, model, center, t2, exclude=()):
    """Every closer-than kernel, both loops, against the brute scan."""
    witnesses = brute_witnesses(model, center, t2, exclude)
    count = len(witnesses)
    assert search.count_closer_than(center, threshold_sq=t2, exclude=exclude) == count
    assert (
        search.count_closer_than(center, threshold_sq=t2, exclude=exclude, stop_at=2)
        == min(count, 2)
    )
    assert sorted(search.witnesses_closer_than(center, t2, exclude=exclude)) == witnesses
    stopped = search.witnesses_closer_than(center, t2, exclude=exclude, stop_at=1)
    assert len(stopped) == min(count, 1)
    assert set(stopped) <= set(witnesses)
    first = search.first_closer_than(center, t2, exclude=exclude)
    assert (first is None) == (count == 0)
    if first is not None:
        assert first in witnesses


def check_exact_kernels(search, model, center, ref, exclude=()):
    """The ``threshold_point`` mode against exact predicates on the model."""
    t2 = _d2(ref, center)
    witnesses = brute_witnesses(model, center, t2, exclude, threshold_point=ref)
    count = len(witnesses)
    for stop_at in (None, 1, 3):
        got = search.count_closer_than(
            center, threshold_sq=t2, exclude=exclude, stop_at=stop_at,
            threshold_point=ref,
        )
        assert got == (count if stop_at is None else min(count, stop_at))
    assert (
        sorted(
            search.witnesses_closer_than(
                center, t2, exclude=exclude, threshold_point=ref
            )
        )
        == witnesses
    )
    first = search.first_closer_than(center, t2, exclude=exclude, threshold_point=ref)
    assert (first is None) == (count == 0)
    if first is not None:
        assert first in witnesses


def check_nearest(search, model, q, exclude=()):
    pool = {oid: _d2(p, q) for oid, (p, _) in model.items() if oid not in exclude}
    hit = search.nearest(q, exclude=exclude)
    if not pool:
        assert hit is None
        return
    # Exact distance ties may resolve to any of the tied winners; the
    # minimum distance itself must be bit-identical.
    best = min(pool.values())
    assert hit[1] == math.sqrt(best)
    assert pool[hit[0]] == best


def check_region_scan(search, model, q, sites, exclude=()):
    grid = search.grid
    alive = AliveCellGrid(grid.size, grid.extent)
    for site in sites:
        if site != q:
            alive.add_halfplane(bisector_halfplane(q, site))
    cells = set(alive.alive_cells())
    got = search.region_objects_by_distance(q, alive, exclude=exclude)
    expected = [
        (_d2(p, q), oid)
        for oid, (p, _) in model.items()
        if oid not in exclude and _cell(grid, p) in cells
    ]
    assert [d2 for d2, _ in got] == sorted(d2 for d2, _ in got)
    assert sorted(got) == sorted(expected)


# ----------------------------------------------------------------------
# Storage contract
# ----------------------------------------------------------------------


class TestBackendEquivalence:
    """The store against the dict model, op by op and batch by batch."""

    @given(grid_sizes, ops)
    @settings(max_examples=60, deadline=None)
    def test_mutation_sequences_agree(self, n, op_list):
        grid = GridIndex(n)
        model = {}
        _apply_ops(grid, model, op_list)
        grid._store.check_invariants()
        assert observable_state(grid) == expected_state(grid, model)

    @given(
        grid_sizes,
        st.lists(st.tuples(point, category), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_updates_agrees(self, n, initial, data):
        grid = GridIndex(n)
        model = {}
        for i, (pos, cat) in enumerate(initial):
            grid.insert(i, pos, cat)
            model[i] = (pos, cat)
        n_initial = len(initial)
        removes = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=n_initial - 1),
                    max_size=5,
                )
            )
        )
        moves = [
            (oid, pos)
            for oid, pos in data.draw(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=n_initial - 1), point
                    ),
                    max_size=30,
                )
            )
            if oid not in removes
        ]
        # Restating a current position is an update but not movement.
        moves += [
            (oid, model[oid][0])
            for oid in data.draw(
                st.lists(st.integers(min_value=0, max_value=n_initial - 1), max_size=3)
            )
            if oid not in removes
        ]
        inserts = [
            (n_initial + i, pos, cat)
            for i, (pos, cat) in enumerate(
                data.draw(st.lists(st.tuples(point, category), max_size=5))
            )
        ]
        expected = model_apply(grid, model, moves, inserts, removes)
        delta = grid.apply_updates(moves, inserts=inserts, removes=removes)
        grid._store.check_invariants()
        assert delta == expected
        assert observable_state(grid) == expected_state(grid, model)

    @given(
        grid_sizes,
        st.integers(min_value=_BULK_MOVE_MIN, max_value=_BULK_MOVE_MIN + 30),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_bulk_move_batch_agrees(self, n, n_objects, data):
        """A tick of distinct movers large enough for the vectorized
        bulk-move path."""
        grid = GridIndex(n)
        model = {}
        for i in range(n_objects):
            pos = data.draw(point)
            grid.insert(i, pos)
            model[i] = (pos, 0)
        movers = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n_objects - 1),
                min_size=_BULK_MOVE_MIN,
                unique=True,
            )
        )
        moves = [(oid, data.draw(point)) for oid in movers]
        expected = model_apply(grid, model, moves)
        delta = grid.apply_updates(moves)
        grid._store.check_invariants()
        assert delta == expected
        assert observable_state(grid) == expected_state(grid, model)


# ----------------------------------------------------------------------
# Kernels against a brute scan of the model
# ----------------------------------------------------------------------


class TestKernelEquivalence:
    """The search kernels, both object loops, against the brute scan."""

    @given(
        grid_sizes,
        populations,
        point,
        unit,
        point,
        st.sets(st.integers(min_value=0, max_value=79), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_and_witnesses_agree(self, n, pts, q, threshold, ref, exclude):
        grid, model = _grid_with(n, pts)
        search = GridSearch(grid)
        check_kernels(search, model, q, threshold * threshold, exclude)
        # A threshold equal to an object's own distance: an exact tie,
        # which strict ``<`` must not count.
        check_kernels(search, model, q, _d2(model[0][0], q), exclude)
        check_exact_kernels(search, model, q, ref, exclude)
        # Exact mode at an existing object: the tie-heavy verification
        # probe (candidate = a data object, threshold = its distance to q).
        check_exact_kernels(search, model, model[0][0], q, exclude | {0})

    @given(
        grid_sizes,
        populations,
        point,
        st.sets(st.integers(min_value=0, max_value=79), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_nearest_agrees_on_distance(self, n, pts, q, exclude):
        grid, model = _grid_with(n, pts)
        check_nearest(GridSearch(grid), model, q, exclude)

    @given(
        grid_sizes,
        populations,
        point,
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_nearest_with_object_filter(self, n, pts, q, modulus):
        grid, model = _grid_with(n, pts)

        def keep(oid, pos):
            assert isinstance(pos, Point)
            assert tuple(pos) == model[oid][0]
            return oid % modulus == 0

        hit = GridSearch(grid).nearest(q, obj_filter=keep)
        pool = {oid: _d2(p, q) for oid, (p, _) in model.items() if oid % modulus == 0}
        if not pool:
            assert hit is None
            return
        best = min(pool.values())
        assert hit[1] == math.sqrt(best)
        assert pool[hit[0]] == best

    @given(
        st.sampled_from([1, 3]),
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 5e-324, 1e-310, 1e-200, 3e-200, 1e-160]),
                st.sampled_from([0.0, 5e-324, 1e-200, 2e-170]),
            ),
            min_size=1,
            max_size=3 * _VEC_MIN_ROWS,
        ),
        st.sampled_from([5e-324, 1e-200, 2e-200, 1e-170]),
        st.sets(st.integers(min_value=0, max_value=3 * _VEC_MIN_ROWS), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiny_thresholds_compare_unsquared(self, n, pts, threshold, exclude):
        """A threshold whose square underflows is compared unsquared."""
        assert threshold * threshold == 0.0
        grid, model = _grid_with(n, pts)
        search = GridSearch(grid)
        center = (0.0, 0.0)
        count = sum(
            1
            for oid, (p, _) in model.items()
            if oid not in exclude and math.hypot(p[0], p[1]) < threshold
        )
        for stop_at in (None, 1, 2):
            got = search.count_closer_than(
                center, threshold=threshold, exclude=exclude, stop_at=stop_at
            )
            assert got == (count if stop_at is None else min(count, stop_at))

    @pytest.mark.parametrize(
        "population", [_VEC_MIN_ROWS - 1, _VEC_MIN_ROWS, 3 * _VEC_MIN_ROWS]
    )
    def test_both_loops_at_the_slice_threshold(self, population):
        """One fat cell on either side of ``_VEC_MIN_ROWS``: the slice
        loop runs exactly when the cell is fat and no ``stop_at`` is set,
        and both loops agree with the brute scan."""
        pts = [((i % 7) / 8, (i // 7) / 8) for i in range(population)]
        grid, model = _grid_with(1, pts)
        search = GridSearch(grid)
        center = (0.25, 0.25)
        # (0.5, 0.25) and friends sit exactly on the threshold circle.
        t2 = 0.0625

        before = STATS.filter_rows
        n = search.count_closer_than(center, threshold_sq=t2)
        sliced = STATS.filter_rows - before
        assert n == len(brute_witnesses(model, center, t2))
        assert sliced == (population if population >= _VEC_MIN_ROWS else 0)

        before = STATS.filter_rows
        search.count_closer_than(center, threshold_sq=t2, stop_at=population)
        search.witnesses_closer_than(center, t2, stop_at=population)
        search.nearest(center, obj_filter=lambda oid, pos: True)
        assert STATS.filter_rows == before

        check_kernels(search, model, center, t2, exclude={0, 3})
        check_exact_kernels(search, model, center, (0.5, 0.25), exclude={1})
        check_nearest(search, model, center, exclude={0, 3})
        check_region_scan(search, model, center, [], exclude={0, 3})

    @given(
        grid_sizes,
        populations,
        st.lists(point, max_size=4),
        st.sets(st.integers(min_value=0, max_value=79), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_region_scan_agrees(self, n, pts, sites, exclude):
        grid, model = _grid_with(n, pts)
        check_region_scan(GridSearch(grid), model, (0.5, 0.5), sites, exclude)


class TestCompaction:
    def test_churn_triggers_compaction_and_preserves_state(self):
        grid = GridIndex(8)
        store = grid._store
        total = COMPACT_MIN_FREE * 3
        for i in range(total):
            grid.insert(i, ((i % 97) / 97.0, (i % 89) / 89.0))
        capacity_before = len(store.oids)
        survivors = {}
        for i in range(total):
            if i % 3:
                grid.remove(i)
            else:
                survivors[i] = grid.position(i)
        # Far more rows were freed than the compaction threshold keeps.
        assert len(store.free) < COMPACT_MIN_FREE
        assert len(store.oids) < capacity_before
        store.check_invariants()
        assert len(grid) == len(survivors)
        for oid, pos in survivors.items():
            p = grid.position(oid)
            assert (p.x, p.y) == (pos.x, pos.y)

    def test_free_rows_are_recycled_before_growth(self):
        grid = GridIndex(4)
        store = grid._store
        for i in range(100):
            grid.insert(i, (0.5, 0.5))
        for i in range(50):
            grid.remove(i)
        free_before = len(store.free)
        assert free_before == 50
        for i in range(100, 150):
            grid.insert(i, (0.25, 0.75))
        assert len(store.free) == 0
        store.check_invariants()

    def test_compaction_keeps_search_results(self):
        grid = GridIndex(8)
        pts = [
            ((i % 53) / 53.0, (i % 47) / 47.0)
            for i in range(COMPACT_MIN_FREE * 2)
        ]
        for i, p in enumerate(pts):
            grid.insert(i, p)
        for i in range(0, COMPACT_MIN_FREE * 2, 2):
            grid.remove(i)
        grid._store.check_invariants()
        search = GridSearch(grid)
        q = (0.31, 0.62)
        got = sorted(search.witnesses_closer_than(q, 0.04))
        expected = sorted(
            (i, (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
            for i, p in enumerate(pts)
            if i % 2 and (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 < 0.04
        )
        assert [oid for oid, _ in got] == [oid for oid, _ in expected]
        for (_, d_got), (_, d_exp) in zip(got, expected):
            assert math.isclose(d_got, d_exp, rel_tol=0.0, abs_tol=0.0)
