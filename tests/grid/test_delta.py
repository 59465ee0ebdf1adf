"""Batched updates: GridIndex.apply_updates, TickDelta, category sets."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.grid.delta import TickDelta
from repro.grid.index import GridIndex


class TestTickDelta:
    def test_empty(self):
        d = TickDelta()
        assert d.is_empty()
        assert d.changed_ids() == set()

    def test_record_move_within_cell(self):
        d = TickDelta()
        d.record_move("a", (1, 1), (1, 1))
        assert d.moved == {"a"}
        assert d.touched_cells == {(1, 1)}
        assert d.dirty_cells == set()
        assert d.cell_enters == {} and d.cell_leaves == {}
        assert not d.is_empty()

    def test_record_move_across_cells(self):
        d = TickDelta()
        d.record_move("a", (1, 1), (2, 1))
        assert d.touched_cells == {(1, 1), (2, 1)}
        assert d.dirty_cells == {(1, 1), (2, 1)}
        assert d.cell_leaves == {(1, 1): {"a"}}
        assert d.cell_enters == {(2, 1): {"a"}}

    def test_churn_records(self):
        d = TickDelta()
        d.record_insert("new", (0, 0))
        d.record_remove("old", (3, 3))
        assert d.inserted == {"new"} and d.removed == {"old"}
        assert d.dirty_cells == {(0, 0), (3, 3)}
        assert d.touched_cells == {(0, 0), (3, 3)}
        assert d.changed_ids() == {"new", "old"}


class TestApplyUpdates:
    def test_matches_individual_moves(self):
        """Same final state and counters as the per-move loop."""
        rng = random.Random(42)
        pts = [(rng.random(), rng.random()) for _ in range(200)]
        batched = GridIndex(16)
        serial = GridIndex(16)
        for i, p in enumerate(pts):
            batched.insert(i, p, category=i % 2)
            serial.insert(i, p, category=i % 2)
        moves = [(i, (rng.random(), rng.random())) for i in range(0, 200, 3)]
        delta = batched.apply_updates(moves)
        crossings = sum(1 for oid, p in moves if serial.move(oid, p))
        assert batched.updates == serial.updates
        assert batched.cell_changes == serial.cell_changes
        assert len(delta.dirty_cells) <= 2 * crossings
        for i in range(200):
            assert batched.position(i) == serial.position(i)
            assert batched.cell_of(i) == serial.cell_of(i)

    def test_delta_contents(self):
        grid = GridIndex(4)
        grid.insert("stay", (0.1, 0.1))
        grid.insert("wiggle", (0.3, 0.3))
        grid.insert("cross", (0.6, 0.6))
        delta = grid.apply_updates(
            [("wiggle", (0.31, 0.31)), ("cross", (0.9, 0.9))]
        )
        assert delta.moved == {"wiggle", "cross"}
        assert grid.cell_key((0.3, 0.3)) in delta.touched_cells
        assert delta.dirty_cells == {
            grid.cell_key((0.6, 0.6)),
            grid.cell_key((0.9, 0.9)),
        }
        assert delta.cell_enters == {grid.cell_key((0.9, 0.9)): {"cross"}}
        assert delta.cell_leaves == {grid.cell_key((0.6, 0.6)): {"cross"}}

    def test_restated_position_counts_update_but_not_movement(self):
        grid = GridIndex(4)
        grid.insert("a", (0.5, 0.5))
        delta = grid.apply_updates([("a", (0.5, 0.5))])
        assert grid.updates == 1
        assert delta.is_empty()

    def test_churn_order_removes_then_inserts_then_moves(self):
        """An id freed by a remove can be reused by an insert same tick."""
        grid = GridIndex(4)
        grid.insert("x", (0.1, 0.1))
        grid.insert("y", (0.9, 0.9))
        delta = grid.apply_updates(
            [("y", (0.85, 0.85))],
            inserts=[("x", Point(0.6, 0.6), "B")],
            removes=["x"],
        )
        assert grid.category("x") == "B"
        assert delta.removed == {"x"} and delta.inserted == {"x"}
        assert grid.cell_key((0.6, 0.6)) in delta.dirty_cells

    def test_move_of_unknown_object_raises(self):
        grid = GridIndex(4)
        with pytest.raises(KeyError):
            grid.apply_updates([("ghost", (0.5, 0.5))])


_coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
_pos = st.tuples(_coord, _coord)


@st.composite
def _batch_ticks(draw):
    """An initial population plus one tick of removes/inserts/moves.

    Move targets are surviving initial ids only and insert ids are fresh,
    so every enter/leave is attributable to exactly one batched change
    (``apply_updates`` itself also supports reuse and insert-then-move;
    those orderings are pinned by the example-based tests above).
    """
    size = draw(st.sampled_from([1, 2, 4, 8]))
    n = draw(st.integers(min_value=0, max_value=25))
    initial = [
        (i, draw(_pos), draw(st.sampled_from(["A", "B"]))) for i in range(n)
    ]
    removes = draw(st.lists(st.sampled_from(range(n)), unique=True) if n else st.just([]))
    survivors = [i for i in range(n) if i not in set(removes)]
    move_ids = draw(
        st.lists(st.sampled_from(survivors), unique=True)
        if survivors
        else st.just([])
    )
    moves = [(i, draw(_pos)) for i in move_ids]
    n_inserts = draw(st.integers(min_value=0, max_value=5))
    inserts = [
        (n + j, Point(*draw(_pos)), draw(st.sampled_from(["A", "B"])))
        for j in range(n_inserts)
    ]
    return size, initial, moves, inserts, removes


def _cell_contents(grid):
    out = {}
    for oid in grid.objects():
        out.setdefault(grid.cell_of(oid), set()).add(oid)
    return out


class TestApplyUpdatesProperties:
    @given(_batch_ticks())
    def test_equivalent_to_serial_operations(self, tick):
        """apply_updates == remove-by-one, insert-by-one, move-by-one."""
        size, initial, moves, inserts, removes = tick
        batched = GridIndex(size)
        serial = GridIndex(size)
        for oid, pos, cat in initial:
            batched.insert(oid, pos, category=cat)
            serial.insert(oid, pos, category=cat)
        batched.apply_updates(moves, inserts=inserts, removes=removes)
        for oid in removes:
            serial.remove(oid)
        for oid, pos, cat in inserts:
            serial.insert(oid, pos, category=cat)
        for oid, pos in moves:
            serial.move(oid, pos)
        assert batched.positions_snapshot() == serial.positions_snapshot()
        for oid in serial.objects():
            assert batched.cell_of(oid) == serial.cell_of(oid)
            assert batched.category(oid) == serial.category(oid)
        for cat in ("A", "B"):
            assert set(batched.objects(cat)) == set(serial.objects(cat))

    @given(_batch_ticks())
    def test_delta_enters_and_leaves_match_cell_contents(self, tick):
        """Per cell, enter/leave sets are exactly the membership diff."""
        size, initial, moves, inserts, removes = tick
        grid = GridIndex(size)
        for oid, pos, cat in initial:
            grid.insert(oid, pos, category=cat)
        before = _cell_contents(grid)
        delta = grid.apply_updates(moves, inserts=inserts, removes=removes)
        after = _cell_contents(grid)
        for key in set(before) | set(after):
            gained = after.get(key, set()) - before.get(key, set())
            lost = before.get(key, set()) - after.get(key, set())
            assert delta.cell_enters.get(key, set()) == gained, key
            assert delta.cell_leaves.get(key, set()) == lost, key
        assert set(delta.cell_enters) | set(delta.cell_leaves) == delta.dirty_cells
        assert delta.dirty_cells <= delta.touched_cells
        assert delta.inserted == {oid for oid, _, _ in inserts}
        assert delta.removed == set(removes)
        initial_pos = {oid: pos for oid, pos, _ in initial}
        moved_truly = {oid for oid, pos in moves if pos != initial_pos[oid]}
        assert delta.moved == moved_truly


class TestCategorySets:
    def test_objects_and_count_by_category(self):
        grid = GridIndex(8)
        for i in range(10):
            grid.insert(i, (i / 10.0 + 0.05, 0.5), category="A" if i < 4 else "B")
        assert grid.count("A") == 4
        assert grid.count("B") == 6
        assert grid.count() == 10
        assert set(grid.objects("A")) == set(range(4))
        assert set(grid.objects("B")) == set(range(4, 10))

    def test_category_sets_survive_remove_and_batch(self):
        grid = GridIndex(8)
        grid.insert("a1", (0.1, 0.1), "A")
        grid.insert("a2", (0.2, 0.2), "A")
        grid.insert("b1", (0.3, 0.3), "B")
        grid.remove("a1")
        assert set(grid.objects("A")) == {"a2"}
        grid.apply_updates(
            [("a2", (0.8, 0.8))],
            inserts=[("b2", Point(0.4, 0.4), "B")],
            removes=["b1"],
        )
        assert set(grid.objects("B")) == {"b2"}
        assert grid.count("A") == 1
        assert grid.count("missing") == 0
        assert list(grid.objects("missing")) == []

    def test_positions_snapshot_by_category(self):
        grid = GridIndex(8)
        grid.insert("a", (0.1, 0.2), "A")
        grid.insert("b", (0.3, 0.4), "B")
        assert grid.positions_snapshot("A") == {"a": (0.1, 0.2)}
        assert set(grid.positions_snapshot()) == {"a", "b"}


class TestCellBoundaries:
    """Every mutation path files an object in the cell ``cell_key_of``
    computes, also exactly on a cell edge (``0.6`` on a 5-cell axis
    multiplies to ``3.0000000000000004`` but lies in cell 2, whose upper
    edge ``3 * 0.2`` rounds above it)."""

    @pytest.mark.parametrize("n", [3, 5, 10, 24])
    @pytest.mark.parametrize("extent", [None, (-1.0, -1.0, 1.0, 1.0), (2.0, 1.0, 6.0, 3.0)])
    def test_move_paths_agree_with_cell_key_of(self, n, extent):
        from repro.geometry.rectangle import Rect
        from repro.grid.cell import cell_key_of

        rect = Rect(*extent) if extent is not None else Rect.unit()
        fractions = [i / n for i in range(n + 1)] + [i / 10 for i in range(11)]
        points = [
            (rect.xmin + u * rect.width, rect.ymin + v * rect.height)
            for u in fractions
            for v in fractions[::3]
        ]
        assert len(points) >= 48  # reaches the vectorized bulk path
        grids = [GridIndex(n, rect) for _ in range(3)]
        for grid in grids:
            for i in range(len(points)):
                grid.insert(i, (rect.xmin, rect.ymin))
        bulk, scalar, single = grids
        delta = bulk.apply_updates(list(enumerate(points)))
        for i, p in enumerate(points):
            scalar.apply_updates([(i, p)])
            single.move(i, p)
        for i, p in enumerate(points):
            expected = cell_key_of(rect, n, p)
            assert bulk.cell_of(i) == expected
            assert scalar.cell_of(i) == expected
            assert single.cell_of(i) == expected
        # The delta's endpoints carry the same cells.
        for key in delta.touched_cells:
            for _oid, _p0, _key0, p1, key1 in delta.movers_in(key):
                assert key1 == cell_key_of(rect, n, p1)
