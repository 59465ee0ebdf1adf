"""One tick's worth of grid changes, summarized for the scheduler.

:meth:`repro.grid.index.GridIndex.apply_updates` applies a whole tick of
movement/churn in one pass and returns a :class:`TickDelta` describing
what changed.  The engine's :class:`repro.engine.scheduler.TickScheduler`
intersects this record with each continuous query's relevance footprint
to decide which queries can legally be skipped this tick.

Two cell sets are tracked, at different granularities:

- ``dirty_cells`` — the old and new cells of every *boundary-crosser*
  plus the cells of inserts and removes: the cells whose membership
  changed (the classic "cell change" events of Figure 5a).
- ``touched_cells`` — every cell that held any change at all, including
  the cell of an object that moved *within* it.  A query whose footprint
  is disjoint from ``touched_cells`` saw no movement anywhere in its
  monitored area; this is the conservative set the skip test uses
  (within-cell movement can flip a verification outcome even though no
  cell membership changed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

CellKey = Tuple[int, int]
ObjectId = Hashable

#: One change's endpoints: ``(oid, p0, key0, p1, key1)``, the pre-tick
#: and post-tick position and cell.  An insert has ``p0 = key0 = None``,
#: a remove ``p1 = key1 = None``; positions are ``(x, y)`` pairs.
Endpoints = Tuple[ObjectId, Optional[tuple], Optional[CellKey], Optional[tuple], Optional[CellKey]]


@dataclass
class TickDelta:
    """Everything that changed in the grid during one batched tick.

    Engine-owned instances are *recycled*: ``GridIndex.apply_updates``
    with ``reuse_scratch=True`` calls :meth:`recycle` between ticks, so
    the per-cell enter/leave sets are pooled instead of reallocated every
    tick (they dominated the dispatch glue in ``igern obs explain``).
    Deltas returned by the default path stay plain value objects and may
    be retained freely.
    """

    #: Ids whose stored position actually changed (updates that re-stated
    #: an identical position are not movement).
    moved: Set[ObjectId] = field(default_factory=set)
    #: Ids inserted this tick (population churn).
    inserted: Set[ObjectId] = field(default_factory=set)
    #: Ids removed this tick (population churn).
    removed: Set[ObjectId] = field(default_factory=set)
    #: Old ∪ new cells of boundary-crossers, plus insert/remove cells.
    dirty_cells: Set[CellKey] = field(default_factory=set)
    #: Every cell holding any change, including within-cell movement.
    touched_cells: Set[CellKey] = field(default_factory=set)
    #: Per-cell sets of objects that entered the cell this tick.
    cell_enters: Dict[CellKey, Set[ObjectId]] = field(default_factory=dict)
    #: Per-cell sets of objects that left the cell this tick.
    cell_leaves: Dict[CellKey, Set[ObjectId]] = field(default_factory=dict)
    #: Pool of cleared per-cell sets, refilled by :meth:`recycle`.
    _pool: List[Set[ObjectId]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Endpoints of every recorded change (see :data:`Endpoints`).
    _endpoints: List[Endpoints] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Bulk-move arrays not yet turned into endpoints (:meth:`defer_bulk`).
    _bulk: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: Cell -> endpoints with either end in that cell, built on first use.
    _by_cell: Optional[Dict[CellKey, List[Endpoints]]] = field(
        default=None, repr=False, compare=False
    )

    def changed_ids(self) -> Set[ObjectId]:
        """Every object id involved in any change this tick."""
        return self.moved | self.inserted | self.removed

    def is_empty(self) -> bool:
        """Whether nothing at all changed this tick."""
        return not (self.moved or self.inserted or self.removed)

    def recycle(self) -> None:
        """Clear all recorded changes in place, pooling the per-cell sets
        for reuse by subsequent :meth:`enter` / :meth:`leave` calls."""
        pool = self._pool
        for mapping in (self.cell_enters, self.cell_leaves):
            for s in mapping.values():
                s.clear()
                pool.append(s)
            mapping.clear()
        self.moved.clear()
        self.inserted.clear()
        self.removed.clear()
        self.dirty_cells.clear()
        self.touched_cells.clear()
        self._endpoints.clear()
        self._bulk = None
        self._by_cell = None

    # -- per-mover endpoints (read by the tick scheduler) ---------------

    def movers_in(self, key: CellKey) -> Optional[List[Endpoints]]:
        """Endpoints of every change with its old or new position in cell
        ``key``.

        ``None`` when no endpoints were recorded for the cell (a delta
        assembled by hand from bare id and cell sets): the caller must
        then assume any change.  The per-cell view is built on the first
        call of a tick, so ticks that never ask pay nothing for it.
        """
        by_cell = self._by_cell
        if by_cell is None:
            by_cell = self._by_cell = {}
            endpoints = self._endpoints
            if self._bulk is not None:
                oids, ox, oy, ocx, ocy, nx, ny, ncx, ncy = self._bulk
                self._bulk = None
                endpoints.extend(
                    zip(
                        oids,
                        zip(ox.tolist(), oy.tolist()),
                        zip(ocx.tolist(), ocy.tolist()),
                        zip(nx.tolist(), ny.tolist()),
                        zip(ncx.tolist(), ncy.tolist()),
                    )
                )
            for entry in endpoints:
                key0 = entry[2]
                key1 = entry[4]
                if key0 is not None:
                    by_cell.setdefault(key0, []).append(entry)
                if key1 is not None and key1 != key0:
                    by_cell.setdefault(key1, []).append(entry)
        return by_cell.get(key)

    def defer_bulk(self, oids, ox, oy, ocx, ocy, nx, ny, ncx, ncy) -> None:
        """Keep a vectorized move batch's endpoint arrays (old and new
        coordinates and cell indices, aligned with ``oids``) for
        :meth:`movers_in` to unpack on demand."""
        self._bulk = (oids, ox, oy, ocx, ocy, nx, ny, ncx, ncy)

    # -- construction helpers (used by GridIndex.apply_updates) ---------

    def enter(self, key: CellKey, oid: ObjectId) -> None:
        """Add to a cell's enter set, drawing fresh sets from the pool."""
        s = self.cell_enters.get(key)
        if s is None:
            pool = self._pool
            s = pool.pop() if pool else set()
            self.cell_enters[key] = s
        s.add(oid)

    def leave(self, key: CellKey, oid: ObjectId) -> None:
        """Add to a cell's leave set, drawing fresh sets from the pool."""
        s = self.cell_leaves.get(key)
        if s is None:
            pool = self._pool
            s = pool.pop() if pool else set()
            self.cell_leaves[key] = s
        s.add(oid)

    def record_move(
        self,
        oid: ObjectId,
        old_key: CellKey,
        new_key: CellKey,
        old_pos: Optional[tuple] = None,
        new_pos: Optional[tuple] = None,
    ) -> None:
        """Record one position change (``old_key`` may equal ``new_key``),
        with its endpoints when both positions are given."""
        if old_pos is not None and new_pos is not None:
            self._endpoints.append((oid, old_pos, old_key, new_pos, new_key))
        self.moved.add(oid)
        self.touched_cells.add(new_key)
        if new_key == old_key:
            return
        self.touched_cells.add(old_key)
        self.dirty_cells.add(old_key)
        self.dirty_cells.add(new_key)
        self.leave(old_key, oid)
        self.enter(new_key, oid)

    def record_insert(
        self, oid: ObjectId, key: CellKey, pos: Optional[tuple] = None
    ) -> None:
        if pos is not None:
            self._endpoints.append((oid, None, None, pos, key))
        self.inserted.add(oid)
        self.dirty_cells.add(key)
        self.touched_cells.add(key)
        self.enter(key, oid)

    def record_remove(
        self, oid: ObjectId, key: CellKey, pos: Optional[tuple] = None
    ) -> None:
        if pos is not None:
            self._endpoints.append((oid, pos, key, None, None))
        self.removed.add(oid)
        self.dirty_cells.add(key)
        self.touched_cells.add(key)
        self.leave(key, oid)
