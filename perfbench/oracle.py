"""Scale oracle for the benchmark's correctness check.

The repository's brute oracles are quadratic in Python, far too slow at
benchmark scale.  This one reads the script's ground truth (every
object's position, presence and category — never state read back from
the program) and decides an R(k)NN answer in two steps:

- **Prefilter.** A k-d tree (``cKDTree``) over the witnesses gives every
  candidate a few nearby witness ids.  The current distances to them
  bound the candidate's k-th witness distance from above, so a
  candidate whose distance to the query clearly exceeds that bound has
  ``k`` witnesses strictly closer than the query and is not an answer.
  The bound stays valid however stale the neighbor ids are; stale ids
  only let more candidates through, so the table is rebuilt every
  ``rebuild`` ticks.
- **Decision.** Each remaining candidate is compared with every witness
  by numpy distance; pairs within ``BAND`` of the query distance (where
  float rounding could matter) go to
  :func:`repro.geometry.predicates.compare_distance` under the paper's
  strict-``<`` tie rule.  The query's own object is never a candidate
  or a witness.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.predicates import compare_distance

#: Relative half-width of the band in which a float decision is not trusted.
BAND = 1e-9


class Oracle:
    """Expected answers for the current tick of one script.

    Everything derived from positions is cached per tick, so checking
    many queries of one tick costs one pass over the objects each.
    """

    def __init__(self, script, rebuild: int):
        self.script = script
        self.rebuild = rebuild
        #: (mode, categories, k) -> (tick built, neighbor ids per object)
        self._tables: Dict[tuple, Tuple[int, np.ndarray]] = {}
        #: (mode, categories, k) -> (tick, per-tick arrays)
        self._ticks: Dict[tuple, Tuple[int, tuple]] = {}

    def _neighbors(self, key, witness: np.ndarray, tick: int) -> np.ndarray:
        """Per object: ids of ``k + 2`` witnesses near it (``-1``: none)."""
        built = self._tables.get(key)
        if built is not None and tick - built[0] < self.rebuild:
            return built[1]
        xy = self.script.xy
        k = key[-1]
        w_ids = np.nonzero(witness)[0]
        m = min(k + 2, len(w_ids))
        table = np.full((len(xy), k + 2), -1, dtype=np.int64)
        if m:
            found = cKDTree(xy[w_ids]).query(xy, k=[*range(1, m + 1)])[1]
            table[:, :m] = w_ids[found]
        self._tables[key] = (tick, table)
        return table

    def _prepared(self, spec, tick: int) -> tuple:
        key = (spec.mode, spec.cat_a, spec.cat_b, spec.k)
        cached = self._ticks.get(key)
        if cached is not None and cached[0] == tick:
            return cached[1]
        s = self.script
        xy = s.xy
        witness = candidate = s.present
        if spec.mode == "bi":
            witness = s.present & (s.category == spec.cat_a)
            candidate = s.present & (s.category == spec.cat_b)
        c_ids = np.nonzero(candidate)[0]
        c_xy = xy[c_ids]
        nbr = self._neighbors(key, witness, tick)[c_ids]
        valid = (nbr >= 0) & (nbr != c_ids[:, None])
        valid &= witness[np.where(valid, nbr, 0)]
        gap = xy[np.where(valid, nbr, 0)] - c_xy[:, None, :]
        dist = np.where(valid, np.hypot(gap[..., 0], gap[..., 1]), np.inf)
        bound = np.sort(dist, axis=1)[:, spec.k - 1]
        w_ids = np.nonzero(witness)[0]
        prepared = (c_ids, c_xy, nbr, dist, bound, w_ids, xy[w_ids])
        self._ticks[key] = (tick, prepared)
        return prepared

    def answer(self, spec, tick: int) -> Tuple[Hashable, ...]:
        c_ids, c_xy, nbr, dist, bound, w_ids, w_xy = self._prepared(spec, tick)
        if spec.query_id is None:
            qid = -1
            q = tuple(spec.point)
        else:
            qid = spec.query_id
            q = tuple(self.script.xy[qid].tolist())
            hit = nbr == qid
            rows = np.nonzero(hit.any(axis=1))[0]
            if len(rows):
                bound = bound.copy()
                bound[rows] = np.sort(
                    np.where(hit[rows], np.inf, dist[rows]), axis=1
                )[:, spec.k - 1]
        d_q = np.hypot(c_xy[:, 0] - q[0], c_xy[:, 1] - q[1])
        maybe = c_ids[d_q <= bound * (1 + BAND) + 1e-300]

        answer = []
        for c in maybe.tolist():
            if c == qid:
                continue
            pos = tuple(self.script.xy[c].tolist())
            dq = float(np.hypot(pos[0] - q[0], pos[1] - q[1]))
            d = np.hypot(w_xy[:, 0] - pos[0], w_xy[:, 1] - pos[1])
            others = (w_ids != c) & (w_ids != qid)
            closer = int(np.count_nonzero((d < dq * (1 - BAND)) & others))
            for j in np.nonzero((np.abs(d - dq) <= dq * BAND) & others)[0].tolist():
                if compare_distance(pos, tuple(w_xy[j].tolist()), q) < 0:
                    closer += 1
            if closer < spec.k:
                answer.append(c)
        return tuple(answer)
