"""Seeded tick-stream workloads for the serving benchmark.

Each workload is a :class:`Workload` (how the cluster is deployed, how
long it is measured) plus a script factory.  A script is a deterministic
function of the seed: it yields the initial object set, the standing
query subscriptions, and then one tick of wire events at a time —
``(moves, inserts, removes)`` in the shapes ``ShardCluster.tick``
accepts.  The program under test only ever sees those wire events.

Scripts also keep the ground truth the oracle needs — ``xy``,
``present`` and ``category``, one row per object id — so correctness is
judged against the script, never against state read back from the
program.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.motion.roadnet import RoadNetwork
from repro.serving import QuerySpec

GRID_SIZE = 64

Events = Tuple[list, list, list]


class Script:
    """Common surface of every workload script."""

    initial: List[Tuple[int, float, float, object]]
    specs: List[QuerySpec]
    xy: np.ndarray
    present: np.ndarray
    category: np.ndarray

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def next_tick(self) -> Events:
        """The next tick's wire events (also folded into the digest)."""
        raise NotImplementedError

    @property
    def digest(self) -> str:
        """Digest of the initial set, the queries, and every tick so far."""
        return self._digest.hexdigest()[:16]


class FleetScript(Script):
    """Uniform objects, fixed standing queries, sparse gaussian jitter.

    The mostly-static regime of the paper's stability experiments: each
    tick a small random subset of the fleet moves a short distance.
    """

    N_OBJECTS = 30_000
    N_QUERIES = 600
    MOVERS = 30  # 0.1% of the fleet per tick
    SIGMA = 0.004

    def __init__(self, seed: int):
        super().__init__()
        n_objects = self.N_OBJECTS
        self._rng = np.random.default_rng([seed, 0xF1EE7])
        self.xy = self._rng.random((n_objects, 2))
        self.present = np.ones(n_objects, dtype=bool)
        self.category = np.zeros(n_objects, dtype=np.int64)
        self.initial = [
            (i, float(x), float(y), 0) for i, (x, y) in enumerate(self.xy)
        ]
        points = self._rng.random((self.N_QUERIES, 2))
        self.specs = [
            QuerySpec(name=f"q{i}", point=(float(x), float(y)))
            for i, (x, y) in enumerate(points)
        ]
        self._digest.update(repr((self.initial, self.specs)).encode())

    def next_tick(self) -> Events:
        rng = self._rng
        n = len(self.xy)
        idx = rng.choice(n, self.MOVERS, replace=False)
        step = rng.normal(0.0, self.SIGMA, (self.MOVERS, 2))
        new = np.clip(self.xy[idx] + step, 0.0, 1.0)
        self.xy[idx] = new
        moves = [
            (int(i), float(x), float(y)) for i, (x, y) in zip(idx, new)
        ]
        self._digest.update(repr(moves).encode())
        return moves, [], []


class RoadScript(Script):
    """Objects random-walking along a fixed ``grid_city`` road network.

    Every present object moves every tick (the paper's default): it
    advances its own speed along its edge and, at a node, turns onto a
    random next edge that is not a U-turn.  ``churn`` of the non-query
    population leaves each tick and as many absent objects rejoin at
    their current road position; a matching pool starts absent, so the
    rates are steady from the first tick.  Query objects never churn.
    Categories are ``"A"``/``"B"`` at 50/50; bichromatic queries are
    issued by A objects.
    """

    def __init__(
        self,
        seed: int,
        n_objects: int,
        mono_queries: int,
        bi_queries: int,
        churn: float,
    ):
        super().__init__()
        rng = self._rng = np.random.default_rng([seed, 0x20AD])
        net = RoadNetwork.grid_city(16, 16, seed=0)
        self._pick = random.Random(seed)
        self._node_xy = np.array([tuple(net.node_pos(v)) for v in net.nodes])
        self._next = {v: [u for u, _ in net.neighbors(v)] for v in net.nodes}
        edges = net.sorted_edges()
        self._length = {(u, v): length for u, v, length in edges}
        self._length.update({(v, u): length for u, v, length in edges})
        chosen = rng.integers(len(edges), size=n_objects)
        flip = rng.random(n_objects) < 0.5
        ends = np.array([(u, v) for u, v, _ in edges])[chosen]
        self._u = np.where(flip, ends[:, 1], ends[:, 0])
        self._v = np.where(flip, ends[:, 0], ends[:, 1])
        self._len = np.array([length for _, _, length in edges])[chosen]
        self._off = rng.random(n_objects) * self._len
        self._speed = rng.uniform(0.002, 0.01, n_objects)  # per tick
        self.category = np.where(rng.random(n_objects) < 0.5, "A", "B").astype(object)
        self._place()

        ids = np.arange(n_objects)
        bi_ids = rng.choice(ids[self.category == "A"], bi_queries, replace=False)
        rest = np.setdiff1d(ids, bi_ids)
        mono_ids = rng.choice(rest, mono_queries, replace=False)
        self.specs = [
            QuerySpec(name=f"m{i}", query_id=int(oid)) for i, oid in enumerate(mono_ids)
        ] + [
            QuerySpec(name=f"b{i}", mode="bi", query_id=int(oid))
            for i, oid in enumerate(bi_ids)
        ]
        self._is_query = np.zeros(n_objects, dtype=bool)
        self._is_query[mono_ids] = True
        self._is_query[bi_ids] = True
        self._n_churn = round(churn * (n_objects - len(self.specs)))
        self.present = np.ones(n_objects, dtype=bool)
        self.present[rng.choice(ids[~self._is_query], self._n_churn, replace=False)] = False
        self.initial = self._records(np.nonzero(self.present)[0], with_category=True)
        self._digest.update(repr((self.initial, self.specs)).encode())

    def _place(self) -> None:
        t = self._off / self._len
        pu = self._node_xy[self._u]
        self.xy = pu + t[:, None] * (self._node_xy[self._v] - pu)

    def _records(self, ids: np.ndarray, with_category: bool = False) -> list:
        xs = self.xy[ids, 0].tolist()
        ys = self.xy[ids, 1].tolist()
        if with_category:
            cats = self.category[ids].tolist()
            return list(zip(ids.tolist(), xs, ys, cats))
        return list(zip(ids.tolist(), xs, ys))

    def next_tick(self) -> Events:
        self._off += self._speed
        for i in np.nonzero(self._off >= self._len)[0].tolist():
            self._turn(i)
        self._place()
        leaving = joining = np.zeros(0, dtype=np.int64)
        if self._n_churn:
            rng = self._rng
            movable = np.nonzero(self.present & ~self._is_query)[0]
            leaving = np.sort(rng.choice(movable, self._n_churn, replace=False))
            joining = np.sort(
                rng.choice(np.nonzero(~self.present)[0], self._n_churn, replace=False)
            )
            self.present[leaving] = False
        moves = self._records(np.nonzero(self.present)[0])
        self.present[joining] = True
        inserts = self._records(joining, with_category=True)
        for part in (self.xy, self.present, leaving, joining):
            self._digest.update(part.tobytes())
        return moves, inserts, leaving.tolist()

    def _turn(self, i: int) -> None:
        """Carry object ``i`` past the end of its edge onto following ones."""
        u, v = int(self._u[i]), int(self._v[i])
        off = float(self._off[i])
        length = float(self._len[i])
        while off >= length:
            off -= length
            options = [w for w in self._next[v] if w != u] or self._next[v]
            u, v = v, self._pick.choice(options)
            length = self._length[u, v]
        self._u[i], self._v[i], self._off[i], self._len[i] = u, v, off, length


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_script: Callable[[int], Script]
    n_shards: int = 1
    transport: str = "inline"
    #: Timed ticks run even when ``--seconds`` has already elapsed; the
    #: tail percentile is chosen so at least ten samples lie above it.
    min_ticks: int = 200
    tail_pct: int = 95
    #: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
    setups: int = 3
    #: Ticks between rebuilds of the oracle's neighbor table.
    oracle_rebuild: int = 25
    #: Workload whose deployment must give identical answers on the same seed.
    identity_with: Optional[str] = None

    def cluster_kwargs(self) -> dict:
        kwargs = dict(grid_size=GRID_SIZE, transport=self.transport)
        if self.transport == "process":
            kwargs["mp_context"] = "fork"
        return kwargs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fleet-static",
            why=(
                "read-heavy, mostly static: 600 fixed mono queries over"
                " 30k objects, 0.1% jitter per tick, one inline shard"
            ),
            make_script=FleetScript,
        ),
        Workload(
            name="fleet-sharded",
            why=(
                "fleet-static's script on 2 forked process shards, so it"
                " isolates what the serving layer adds or saves"
            ),
            make_script=FleetScript,
            n_shards=2,
            transport="process",
            identity_with="fleet-static",
        ),
        Workload(
            name="road-rush",
            why=(
                "write-heavy: 10k road objects all move, 1% churn, 32 mono"
                " + 16 bichromatic moving queries, one inline shard"
            ),
            make_script=lambda seed: RoadScript(
                seed, 10_000, mono_queries=32, bi_queries=16, churn=0.01
            ),
            min_ticks=100,
            tail_pct=90,
            setups=9,
            oracle_rebuild=1,
        ),
    )
}
