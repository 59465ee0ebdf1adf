"""Event-driven query scheduling over batched grid deltas.

The simulator applies a whole tick of movement through
:meth:`repro.grid.index.GridIndex.apply_updates` and hands the resulting
:class:`~repro.grid.delta.TickDelta` to a :class:`TickScheduler`, which
answers one question: *which queries could this tick's changes possibly
affect?*  Everything else carries its previous answer forward untouched.

The decision is conservative by construction (see ``docs/PERFORMANCE.md``
for the correctness argument).  A query is evaluated when

- its query object or a monitored object moved, was inserted or was
  removed (one of its footprint ``objects`` is among the tick's changed
  ids), or
- an object moved within, entered, or left one of its footprint
  ``cells`` (the delta's ``touched_cells`` include the cells of
  *within-cell* movers) — and, when the footprint is *settled*, one of
  those movers passes the exact per-mover test of
  :class:`~repro.queries.base.QueryFootprint`: it left or landed in an
  alive cell, or crossed a witness ball in a direction that can change
  the answer or the monitored set.

A settled cell hit that fails the exact test is skipped under the
``no-effect`` reason.  Queries without a footprint (snapshot baselines,
or stateful monitors whose region momentarily has no bounded cover) are
evaluated every tick.

Two reverse indices — cell → interested queries and object id →
interested queries — are maintained incrementally as footprints change,
so per-tick matching costs are proportional to the change volume (or to
the footprint sizes, whichever side is smaller), never to the number of
registered queries times the grid size.  The exact test only runs on the
movers of a settled query's hit cells.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.geometry.predicates import closer_than
from repro.grid.delta import CellKey, TickDelta
from repro.obs.ledger import REASON_FOOTPRINT_ENTER, REASON_OBJECT_MOVED
from repro.queries.base import QueryFootprint

ObjectId = Hashable


class TickScheduler:
    """Maps one tick's grid delta to the set of affected queries."""

    def __init__(self):
        self._footprints: Dict[str, QueryFootprint] = {}
        #: Queries with no bounded footprint: always evaluated.
        self._always: Set[str] = set()
        self._cell_index: Dict[CellKey, Set[str]] = {}
        self._obj_index: Dict[ObjectId, Set[str]] = {}
        #: Queries the last :meth:`affected` call skipped although the
        #: delta touched their footprint cells: no mover could change
        #: their state (ledger reason ``no-effect``).
        self.no_effect: Set[str] = set()

    # ------------------------------------------------------------------
    # Footprint maintenance
    # ------------------------------------------------------------------

    def update_footprint(
        self, name: str, footprint: Optional[QueryFootprint]
    ) -> None:
        """(Re)register a query's footprint after it was evaluated.

        The reverse indices are updated by diff: only the cells/objects
        entering or leaving the footprint are touched, so a stable
        footprint costs two set comparisons.
        """
        previous = self._footprints.get(name)
        if footprint is None:
            if previous is not None:
                self._unindex(name, previous)
                del self._footprints[name]
            self._always.add(name)
            return
        self._always.discard(name)
        if previous is not None:
            if (
                previous.cells == footprint.cells
                and previous.objects == footprint.objects
            ):
                self._footprints[name] = footprint
                return
            self._diff_index(name, previous, footprint)
        else:
            for key in footprint.cells:
                self._cell_index.setdefault(key, set()).add(name)
            for oid in footprint.objects:
                self._obj_index.setdefault(oid, set()).add(name)
        self._footprints[name] = footprint

    def remove_query(self, name: str) -> None:
        """Forget a deregistered query entirely."""
        self._always.discard(name)
        previous = self._footprints.pop(name, None)
        if previous is not None:
            self._unindex(name, previous)

    def footprint(self, name: str) -> Optional[QueryFootprint]:
        """The currently registered footprint of a query (``None`` if
        the query is in always-evaluate mode)."""
        return self._footprints.get(name)

    def _unindex(self, name: str, footprint: QueryFootprint) -> None:
        for key in footprint.cells:
            owners = self._cell_index.get(key)
            if owners is not None:
                owners.discard(name)
                if not owners:
                    del self._cell_index[key]
        for oid in footprint.objects:
            owners = self._obj_index.get(oid)
            if owners is not None:
                owners.discard(name)
                if not owners:
                    del self._obj_index[oid]

    def _diff_index(
        self, name: str, old: QueryFootprint, new: QueryFootprint
    ) -> None:
        for key in old.cells - new.cells:
            owners = self._cell_index.get(key)
            if owners is not None:
                owners.discard(name)
                if not owners:
                    del self._cell_index[key]
        for key in new.cells - old.cells:
            self._cell_index.setdefault(key, set()).add(name)
        for oid in old.objects - new.objects:
            owners = self._obj_index.get(oid)
            if owners is not None:
                owners.discard(name)
                if not owners:
                    del self._obj_index[oid]
        for oid in new.objects - old.objects:
            self._obj_index.setdefault(oid, set()).add(name)

    # ------------------------------------------------------------------
    # Per-tick matching
    # ------------------------------------------------------------------

    def affected(self, delta: TickDelta) -> Dict[str, str]:
        """The footprinted queries this delta could affect, with why.

        Returns ``{query_name: reason}``; the keys are the queries to
        evaluate.  Reasons are the machine-readable codes of
        :mod:`repro.obs.ledger`:

        - ``footprint-enter`` — an object moved within / entered / left
          one of the query's footprint cells (for a settled footprint:
          and the exact per-mover test found a change that matters);
        - ``object-moved`` — a monitored object (or the query object
          itself) moved, was inserted, or was removed, without touching
          a footprint cell.

        When both apply, the cell reason wins, so ledger records are
        stable across runs.  A cell-only hit on a settled footprint whose
        movers all fail the exact test is left out and its name put in
        :attr:`no_effect` instead.  Queries in always-evaluate mode are
        *not* included — the engine evaluates them unconditionally.
        Matching iterates the cheaper side: the delta's touched cells
        against the cell index when the tick is quiet, or each footprint
        against the delta when the tick is busy.
        """
        out: Dict[str, str] = {}
        no_effect = self.no_effect
        no_effect.clear()
        touched = delta.touched_cells
        cell_index = self._cell_index
        footprints = self._footprints
        # Cell hits, with the hit cells of each query for the refinement.
        hits: Dict[str, list] = {}
        if len(touched) <= len(cell_index) or not footprints:
            for key in touched:
                owners = cell_index.get(key)
                if owners is not None:
                    for name in owners:
                        keys = hits.get(name)
                        if keys is None:
                            hits[name] = [key]
                        else:
                            keys.append(key)
            obj_index = self._obj_index
            for ids in (delta.moved, delta.inserted, delta.removed):
                if len(ids) <= len(obj_index):
                    for oid in ids:
                        owners = obj_index.get(oid)
                        if owners is not None:
                            for name in owners:
                                out[name] = REASON_OBJECT_MOVED
                else:
                    for oid, owners in obj_index.items():
                        if oid in ids:
                            for name in owners:
                                out[name] = REASON_OBJECT_MOVED
        else:
            changed = delta.changed_ids()
            for name, fp in footprints.items():
                if not fp.objects.isdisjoint(changed):
                    out[name] = REASON_OBJECT_MOVED
                if not fp.cells.isdisjoint(touched):
                    hits[name] = fp.cells & touched
        for name, keys in hits.items():
            fp = footprints[name]
            if name in out or not fp.settled or _may_change(fp, delta, keys):
                out[name] = REASON_FOOTPRINT_ENTER
            else:
                no_effect.add(name)
        return out


def _may_change(fp: QueryFootprint, delta: TickDelta, keys) -> bool:
    """Whether any mover in the hit ``keys`` can change the settled
    query's state: the exact per-mover rules of :class:`QueryFootprint`.

    A hit cell without recorded endpoints counts as a change."""
    alive = fp.alive
    q = fp.qpos
    enter = fp.enter_balls
    leave = fp.leave_balls
    for key in keys:
        movers = delta.movers_in(key)
        if movers is None:
            return True
        for _oid, p0, key0, p1, key1 in movers:
            if key0 in alive or key1 in alive:
                return True
            if p1 is not None:
                for c in enter:
                    if closer_than(c, p1, q) and (
                        p0 is None or not closer_than(c, p0, q)
                    ):
                        return True
            if p0 is not None:
                for c in leave:
                    if closer_than(c, p0, q) and (
                        p1 is None or not closer_than(c, p1, q)
                    ):
                        return True
    return False
