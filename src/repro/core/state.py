"""Monitored state and per-step reports for the IGERN algorithms.

The whole point of IGERN is that an incremental execution needs only

- the monitored *bounded region* (an alive-cell mask shaped by bisector
  half-planes), and
- the monitored *object set* (``RNNcand`` in the monochromatic case,
  ``NN_A`` in the bichromatic case) with a position snapshot per object so
  movement can be detected,

rather than the whole space.  These live in :class:`MonoState` /
:class:`BiState` and are threaded through consecutive incremental steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.geometry.point import Point, dist, dist_sq
from repro.grid.alive import AliveCellGrid

ObjectId = Hashable

#: Above this many bounding-box cells, the incremental tightening step
#: switches from the one-pass region scan to the unbounded best-first
#: loop (see ``MonoIGERN._tighten`` / ``BiIGERN._tighten``).  The tick
#: scheduler's footprints are only valid while the executor stays on the
#: scan path, so the same constant gates both decisions.
SCAN_CELL_LIMIT = 48

#: A footprint larger than this is not worth monitoring: intersection
#: tests would cost more than the tick they might save, so the query
#: falls back to being evaluated every tick.
FOOTPRINT_CELL_CAP = 1024


def _add_ball_cells(grid, center: Point, radius: float, out: set, cap: int) -> bool:
    """Add every cell intersecting the closed ball's bounding box.

    Conservative cover of a verification witness ball: any object that
    can become (or stop being) strictly closer to ``center`` than
    ``radius`` lies inside the ball, hence inside these cells.  Returns
    ``False`` once ``out`` exceeds ``cap``.
    """
    lo = grid.cell_key((center.x - radius, center.y - radius))
    hi = grid.cell_key((center.x + radius, center.y + radius))
    if (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) > cap:
        return False
    for ix in range(lo[0], hi[0] + 1):
        for iy in range(lo[1], hi[1] + 1):
            out.add((ix, iy))
    return len(out) <= cap


@dataclass
class StepReport:
    """What one initial/incremental execution did and produced.

    ``answer`` is the query result of this step; the remaining fields feed
    the experiment metrics (monitored objects — Figures 6b and 8b — and
    the monitored-area comparison against CRNN in the paper's discussion).
    """

    answer: FrozenSet[ObjectId]
    monitored: FrozenSet[ObjectId]
    alive_cells: int
    alive_fraction: float
    is_initial: bool
    movement_rebuild: bool = False
    tightened: int = 0
    pruned: int = 0

    @property
    def monitored_count(self) -> int:
        return len(self.monitored)

    @property
    def settled(self) -> bool:
        """Whether re-running this step on unchanged positions is a no-op.

        True for an incremental step that absorbed and pruned nothing: it
        found the region exhausted and verified against the final
        candidate set, so a repeat would read the same cells and count
        the same witnesses.  An initial step is never settled — its
        best-first loop and the incremental region scan can disagree on
        which straddling cells they reach — and neither is a step that
        absorbed or pruned, since its region and candidates moved under
        its own scan.
        """
        return not self.is_initial and self.tightened == 0 and self.pruned == 0

    def carried(self) -> "StepReport":
        """A zero-ops copy of this report for a tick the engine skipped.

        The answer, monitored set and region stay exactly as they were;
        the per-step activity fields (rebuild / tightened / pruned) are
        zeroed, since the skipped execution did nothing.  (Direct
        construction: this runs once per skipped query per tick, and
        ``dataclasses.replace`` is an order of magnitude slower.)
        """
        return StepReport(
            answer=self.answer,
            monitored=self.monitored,
            alive_cells=self.alive_cells,
            alive_fraction=self.alive_fraction,
            is_initial=False,
        )


@dataclass
class MonoState:
    """Monitored state of a monochromatic IGERN query between executions."""

    qpos: Point
    candidates: Dict[ObjectId, Point] = field(default_factory=dict)
    alive: AliveCellGrid = None  # type: ignore[assignment]
    answer: Set[ObjectId] = field(default_factory=set)

    def footprint_cells(
        self, grid, cap: int = FOOTPRINT_CELL_CAP
    ) -> Optional[Tuple[set, set]]:
        """The cells the next incremental step's outcome can depend on.

        The monitored alive region (tightening reads exactly these cells
        on the scan path) plus, per candidate ``c``, a cover of the
        witness ball ``B(c, dist(c, q))`` (verification counts the
        objects strictly inside it).  Returns ``(cells, region)`` — the
        whole cover and its alive-region part — or ``None`` when no valid
        bounded footprint exists: for ``k = 1`` whenever the region bound
        exceeds :data:`SCAN_CELL_LIMIT` (the executor would fall back to
        the unbounded best-first search, whose reach footprints cannot
        cover), or when the cover outgrows ``cap``.
        """
        alive = self.alive
        if alive.k == 1 and alive.alive_cell_bound() > SCAN_CELL_LIMIT:
            return None
        region = set(alive.alive_cells())
        if len(region) > cap:
            return None
        cells = set(region)
        q = self.qpos
        for pos in self.candidates.values():
            if not _add_ball_cells(grid, pos, dist(pos, q), cells, cap):
                return None
        return cells, region

    def check_invariants(self, grid, k: int = 1, query_id=None) -> List[str]:
        """Structural soundness of the monitored state, as violations.

        Checked after a completed initial/incremental step (the default
        guarded pruning policy; the literal policy deliberately leaves
        dominated ex-candidates inside alive cells):

        - *region exhausted* — every *point-alive* object inside an alive
          cell has been absorbed into ``candidates`` (Phase I termination:
          the alive region never hides an unexamined object, which is what
          makes Theorem 2's completeness argument go through).  Cell-level
          aliveness over-approximates, so a straddling cell may hold
          point-dead objects the algorithm correctly ignores;
        - *answer verified* — every reported RNN has fewer than ``k``
          strictly closer witnesses, re-derived here by exhaustive
          comparison (Phase II soundness, independent of the search
          structure that computed it);
        - *answer monitored* — the answer is a subset of the candidates;
        - *snapshots fresh* — every candidate's cached position matches
          the grid (stale snapshots silently disable movement detection).

        Returns human-readable violation strings; empty means sound.
        """
        out: List[str] = []
        candidates = self.candidates
        for key in self.alive.alive_cells():
            for oid in grid.objects_in_cell(key):
                if (
                    oid != query_id
                    and oid not in candidates
                    and self.alive.point_alive(grid.position(oid))
                ):
                    out.append(
                        f"alive cell {key} holds unabsorbed object {oid!r}"
                    )
        for oid in self.answer:
            if oid not in candidates:
                out.append(f"answer object {oid!r} is not monitored")
        q = self.qpos
        for oid in self.answer:
            if oid not in grid:
                out.append(f"answer object {oid!r} is not in the index")
                continue
            pos = grid.position(oid)
            dq2 = dist_sq(pos, q)
            witnesses = 0
            for other in grid.objects():
                if other == oid or other == query_id:
                    continue
                if dist_sq(grid.position(other), pos) < dq2:
                    witnesses += 1
                    if witnesses >= k:
                        break
            if witnesses >= k:
                out.append(
                    f"answer object {oid!r} fails verification"
                    f" ({witnesses} strictly closer witnesses, k={k})"
                )
        for oid, snapshot in candidates.items():
            if oid not in grid:
                out.append(f"candidate {oid!r} is no longer indexed")
            elif grid.position(oid) != snapshot:
                out.append(f"candidate {oid!r} has a stale position snapshot")
        return out


@dataclass
class BiState:
    """Monitored state of a bichromatic IGERN query between executions.

    ``nn_a`` is the monitored set of A objects whose movement can change
    the answer; ``answer`` holds the current reverse nearest neighbors of
    type B.
    """

    qpos: Point
    nn_a: Dict[ObjectId, Point] = field(default_factory=dict)
    alive: AliveCellGrid = None  # type: ignore[assignment]
    answer: Set[ObjectId] = field(default_factory=set)

    def footprint_cells(
        self, grid, cat_b, cap: int = FOOTPRINT_CELL_CAP
    ) -> Optional[Tuple[set, set, list]]:
        """The cells the next incremental step's outcome can depend on.

        The monitored alive region (both the A-tightening and the B
        enumeration read exactly these cells on the scan path) plus, per
        B object currently inside it, a cover of its witness ball
        ``B(b, dist(b, q))`` — the region where A objects decide ``b``'s
        membership *and* where ``b``'s nearest A (the one absorption into
        ``NN_A`` depends on) must lie.  Returns ``(cells, region,
        centres)`` — the whole cover, its alive-region part, and the
        ``(id, position)`` of every B object whose ball it covers — or
        ``None`` when the region bound exceeds :data:`SCAN_CELL_LIMIT`
        (unbounded fallback path) or the cover outgrows ``cap``.
        """
        alive = self.alive
        if alive.alive_cell_bound() > SCAN_CELL_LIMIT:
            return None
        region = set(alive.alive_cells())
        if len(region) > cap:
            return None
        cells = set(region)
        centres = []
        q = self.qpos
        for key in region:
            for ob in grid.objects_in_cell(key, cat_b):
                pos = grid.position(ob)
                centres.append((ob, pos))
                if not _add_ball_cells(grid, pos, dist(pos, q), cells, cap):
                    return None
        return cells, region, centres

    def check_invariants(
        self, grid, cat_a, cat_b, k: int = 1, query_id=None
    ) -> List[str]:
        """Structural soundness of the bichromatic monitored state.

        The bichromatic mirror of :meth:`MonoState.check_invariants`:

        - *region exhausted* — every *point-alive* A object inside an
          alive cell is monitored in ``NN_A`` (Phase I termination for
          Algorithm 3/4; straddling cells may hold point-dead A objects);
        - *answer typed* — every reported RNN is an indexed B object;
        - *answer verified* — every reported B object has fewer than
          ``k`` A objects (other than the query) strictly closer to it
          than the query position, by exhaustive comparison;
        - *snapshots fresh* — monitored A positions match the grid.
        """
        out: List[str] = []
        nn_a = self.nn_a
        for key in self.alive.alive_cells():
            for oid in grid.objects_in_cell(key, cat_a):
                if (
                    oid != query_id
                    and oid not in nn_a
                    and self.alive.point_alive(grid.position(oid))
                ):
                    out.append(
                        f"alive cell {key} holds unabsorbed A object {oid!r}"
                    )
        q = self.qpos
        for ob in self.answer:
            if ob not in grid:
                out.append(f"answer object {ob!r} is not in the index")
                continue
            if grid.category(ob) != cat_b:
                out.append(
                    f"answer object {ob!r} has category"
                    f" {grid.category(ob)!r}, expected {cat_b!r}"
                )
                continue
            pos = grid.position(ob)
            dq2 = dist_sq(pos, q)
            witnesses = 0
            for oa in grid.objects(cat_a):
                if oa == query_id:
                    continue
                if dist_sq(grid.position(oa), pos) < dq2:
                    witnesses += 1
                    if witnesses >= k:
                        break
            if witnesses >= k:
                out.append(
                    f"answer object {ob!r} fails verification"
                    f" ({witnesses} strictly closer A witnesses, k={k})"
                )
        for oid, snapshot in nn_a.items():
            if oid not in grid:
                out.append(f"monitored A object {oid!r} is no longer indexed")
            elif grid.position(oid) != snapshot:
                out.append(
                    f"monitored A object {oid!r} has a stale position snapshot"
                )
        return out
