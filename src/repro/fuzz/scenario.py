"""Seeded scenario generation for the differential fuzzer.

A :class:`Scenario` is one fully parameterized end-to-end run: mode
(mono/bi), ``k``, grid resolution, data-space extent, motion model,
population size and churn, query mobility, and which baseline executor
(if any) rides along next to IGERN and the brute-force oracle.  Every
field is JSON-native, so a scenario — and in particular a *failing*
scenario — round-trips losslessly through an artifact file.

Two forms exist:

- **generated** — the motion stream is defined by ``(motion, seed, ...)``
  and produced by the library's own generators;
- **scripted** — the stream is frozen into an explicit per-tick event
  list (``script``).  :func:`scripted` converts the former into the
  latter by recording one run; the runner always executes the scripted
  form so that any divergence is replayable byte-for-byte, and the
  shrinker can edit the event list directly.

Scenario sampling (:func:`make_scenario`) is deterministic in
``(seed, index)``.  The mode and motion-model dimensions are cycled
rather than sampled, so any contiguous window of
``2 * len(MOTIONS)`` scenarios is guaranteed to cover every
(mode, motion) combination; the remaining dimensions are drawn from a
per-scenario PRNG.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.geometry.point import Point
from repro.geometry.rectangle import Rect
from repro.motion.churn import ChurnRandomWalkGenerator, TickEvents
from repro.motion.clusters import GaussianClusterGenerator
from repro.motion.generator import NetworkMovingObjectGenerator
from repro.motion.roadnet import RoadNetwork
from repro.motion.uniform import RandomWalkGenerator, UniformJumpGenerator

#: Motion models the generator cycles through.  ``lattice`` is the
#: adversarial one: positions snap to a coarse lattice, manufacturing the
#: exact-tie configurations (equidistant witnesses, coincident objects)
#: where strict-vs-non-strict comparisons and bisector degeneracies live.
#: ``sparse`` is the mostly-static one: a few objects jitter per tick, so
#: most queries keep settled footprints and the scheduler's exact
#: per-mover skip test decides most ticks.
MOTIONS = ("walk", "jump", "clusters", "roadnet", "churn", "lattice", "sparse")

#: Extents sampled beyond the default unit square: scaled, negative, and
#: non-square data spaces shake out absolute-coordinate assumptions.
EXTENTS = (
    (0.0, 0.0, 1.0, 1.0),
    (0.0, 0.0, 8.0, 8.0),
    (-1.0, -1.0, 1.0, 1.0),
    (2.0, 1.0, 6.0, 3.0),
)

GRID_SIZES = (4, 8, 16, 24, 48)


@dataclass
class Scenario:
    """One differential-fuzzing run, fully described by plain data."""

    seed: int
    index: int
    mode: str  # "mono" | "bi"
    k: int
    grid_size: int
    extent: Tuple[float, float, float, float]
    motion: str
    n_objects: int
    n_ticks: int
    move_fraction: float
    a_fraction: float
    moving_query: bool
    query_point: Optional[Tuple[float, float]]
    baseline: Optional[str]  # extra executor: crnn/tpl/sixpie/voronoi
    script: Optional[dict] = field(default=None, repr=False)
    #: Fixed query points of additional IGERN executors riding along in
    #: every lockstep participant.  Drawn near the main query so their
    #: footprints overlap heavily — the workload where the shared-execution
    #: batch layer actually shares, and where a bad memo key would corrupt
    #: one query with another's probe.  ``None`` (the default, and the
    #: value of every pre-batching artifact) means no extra queries.
    extra_query_points: Optional[List[Tuple[float, float]]] = None
    #: Distance backend: ``"euclidean"`` (the default, and the value of
    #: every pre-metric artifact) or ``"network"`` — shortest-path
    #: distance over the scenario's road network, evaluated by the
    #: filter-and-refine core against the networkx brute oracle.
    metric: str = "euclidean"
    #: JSON description of the road network (``RoadNetwork.from_dict``)
    #: for network-metric scenarios; ``None`` keeps the legacy implicit
    #: roadnet-motion network, so pre-metric artifacts replay unchanged.
    network: Optional[dict] = None

    @property
    def label(self) -> str:
        q = "moving-q" if self.moving_query else "fixed-q"
        extra = (
            f" +{len(self.extra_query_points)}q" if self.extra_query_points else ""
        )
        net_tag = " net" if self.metric == "network" else ""
        return (
            f"s{self.seed}.{self.index} {self.mode} k={self.k} {self.motion} "
            f"n={self.n_objects} t={self.n_ticks} grid={self.grid_size} {q}"
            + (f" +{self.baseline}" if self.baseline else "")
            + extra
            + net_tag
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "Scenario":
        data = dict(data)
        data["extent"] = tuple(data["extent"])
        if data.get("query_point") is not None:
            data["query_point"] = tuple(data["query_point"])
        if data.get("extra_query_points") is not None:
            data["extra_query_points"] = [
                tuple(pt) for pt in data["extra_query_points"]
            ]
        return Scenario(**data)


class LatticeJumpGenerator:
    """Objects teleporting between nodes of a coarse lattice.

    Every position is an exact multiple of ``1/lattice`` of the extent,
    so equal distances are *bit-equal* floats: ties between a witness
    distance and the query distance, collinear triples, and coincident
    objects all occur routinely instead of almost never.  This is the
    workload that distinguishes strict (``<``) from non-strict (``<=``)
    verification — the paper's tie semantics — which smooth random
    coordinates essentially never exercise.
    """

    def __init__(
        self,
        n_objects: int,
        seed: int = 0,
        lattice: int = 8,
        jump_prob: float = 0.35,
        extent: Optional[Rect] = None,
        categories: Optional[Dict[Hashable, float]] = None,
    ):
        if n_objects < 1:
            raise ValueError(f"n_objects must be positive, got {n_objects}")
        if lattice < 2:
            raise ValueError(f"lattice must be >= 2, got {lattice}")
        self.extent = extent if extent is not None else Rect.unit()
        self.lattice = lattice
        self.jump_prob = jump_prob
        self._rng = random.Random(seed)
        weights = categories if categories else {0: 1.0}
        labels = list(weights)
        probs = [weights[label] for label in labels]
        self._positions: Dict[Hashable, Point] = {}
        self._categories: Dict[Hashable, Hashable] = {}
        for i in range(n_objects):
            self._positions[i] = self._node()
            self._categories[i] = self._rng.choices(labels, weights=probs)[0]

    def _node(self) -> Point:
        e = self.extent
        m = self.lattice
        ix = self._rng.randint(0, m)
        iy = self._rng.randint(0, m)
        return Point(
            e.xmin + ix * (e.xmax - e.xmin) / m,
            e.ymin + iy * (e.ymax - e.ymin) / m,
        )

    def node_point(self, ix: int, iy: int) -> Point:
        """The lattice node at integer coordinates (for fixed queries)."""
        e = self.extent
        m = self.lattice
        return Point(
            e.xmin + ix * (e.xmax - e.xmin) / m,
            e.ymin + iy * (e.ymax - e.ymin) / m,
        )

    def initial(self) -> List[Tuple[Hashable, Point, Hashable]]:
        return [
            (oid, pos, self._categories[oid])
            for oid, pos in self._positions.items()
        ]

    def step(self, dt: float = 1.0) -> List[Tuple[Hashable, Point]]:
        updates: List[Tuple[Hashable, Point]] = []
        for oid in self._positions:
            if self._rng.random() < self.jump_prob:
                p = self._node()
                self._positions[oid] = p
                updates.append((oid, p))
        return updates


class SparseJitterGenerator:
    """A mostly-static population: each tick ``movers`` random objects
    take one small gaussian step (clamped into the extent), everyone else
    stays put — the fleet regime in which most footprint hits come from
    objects that cannot change the answer."""

    def __init__(
        self,
        n_objects: int,
        seed: int = 0,
        movers: int = 1,
        step_sigma: float = 0.01,
        extent: Optional[Rect] = None,
        categories: Optional[Dict[Hashable, float]] = None,
    ):
        if n_objects < 1:
            raise ValueError(f"n_objects must be positive, got {n_objects}")
        self.extent = extent if extent is not None else Rect.unit()
        self.movers = min(max(1, movers), n_objects)
        self.step_sigma = step_sigma
        self._rng = random.Random(seed)
        weights = categories if categories else {0: 1.0}
        labels = list(weights)
        probs = [weights[label] for label in labels]
        e = self.extent
        self._positions: Dict[Hashable, Point] = {}
        self._categories: Dict[Hashable, Hashable] = {}
        for i in range(n_objects):
            self._positions[i] = Point(
                self._rng.uniform(e.xmin, e.xmax), self._rng.uniform(e.ymin, e.ymax)
            )
            self._categories[i] = self._rng.choices(labels, weights=probs)[0]

    def initial(self) -> List[Tuple[Hashable, Point, Hashable]]:
        return [
            (oid, pos, self._categories[oid])
            for oid, pos in self._positions.items()
        ]

    def step(self, dt: float = 1.0) -> List[Tuple[Hashable, Point]]:
        e = self.extent
        rng = self._rng
        sigma = self.step_sigma * dt
        updates: List[Tuple[Hashable, Point]] = []
        for oid in rng.sample(sorted(self._positions), self.movers):
            pos = self._positions[oid]
            p = Point(
                min(max(pos.x + rng.gauss(0.0, sigma), e.xmin), e.xmax),
                min(max(pos.y + rng.gauss(0.0, sigma), e.ymin), e.ymax),
            )
            self._positions[oid] = p
            updates.append((oid, p))
        return updates


class NodeJumpGenerator:
    """Objects teleporting between road-network *nodes*.

    The roadnet analog of :class:`LatticeJumpGenerator`: every position
    is exactly a node position, so equal-hop routes on a jitter-free
    grid network produce *bit-equal* left-fold path sums.  Two objects
    equidistant along different paths, a witness sitting exactly at the
    query distance — the configurations where the network mode's
    strict-``<`` tie semantics actually discriminate — occur routinely
    here and essentially never under edge-walking motion (whose offsets
    are arbitrary floats).
    """

    def __init__(
        self,
        network: RoadNetwork,
        n_objects: int,
        seed: int = 0,
        jump_prob: float = 0.35,
        categories: Optional[Dict[Hashable, float]] = None,
    ):
        if n_objects < 1:
            raise ValueError(f"n_objects must be positive, got {n_objects}")
        self.network = network
        self.jump_prob = jump_prob
        self._rng = random.Random(seed)
        weights = categories if categories else {0: 1.0}
        labels = list(weights)
        probs = [weights[label] for label in labels]
        self._positions: Dict[Hashable, Point] = {}
        self._categories: Dict[Hashable, Hashable] = {}
        for i in range(n_objects):
            self._positions[i] = network.node_pos(network.random_node(self._rng))
            self._categories[i] = self._rng.choices(labels, weights=probs)[0]

    def initial(self) -> List[Tuple[Hashable, Point, Hashable]]:
        return [
            (oid, pos, self._categories[oid])
            for oid, pos in self._positions.items()
        ]

    def step(self, dt: float = 1.0) -> List[Tuple[Hashable, Point]]:
        updates: List[Tuple[Hashable, Point]] = []
        network = self.network
        for oid in self._positions:
            if self._rng.random() < self.jump_prob:
                p = network.node_pos(network.random_node(self._rng))
                self._positions[oid] = p
                updates.append((oid, p))
        return updates


class ScriptedWorkload:
    """Generator-protocol replay of a scenario's frozen event script.

    Exposes ``step_events`` (the richer protocol) so churn scripts replay
    their inserts/removes through the same path the live generator used.
    Past the recorded horizon the workload goes quiet.
    """

    def __init__(self, script: dict):
        self._initial = [
            (oid, Point(x, y), _category_from_json(cat))
            for oid, x, y, cat in script["initial"]
        ]
        self._ticks = [
            TickEvents(
                moves=[(oid, Point(x, y)) for oid, x, y in tick["moves"]],
                inserts=[
                    (oid, Point(x, y), _category_from_json(cat))
                    for oid, x, y, cat in tick.get("inserts", ())
                ],
                removes=list(tick.get("removes", ())),
            )
            for tick in script["ticks"]
        ]
        self._cursor = 0

    def initial(self):
        return list(self._initial)

    def step_events(self, dt: float = 1.0) -> TickEvents:
        if self._cursor >= len(self._ticks):
            return TickEvents(moves=[], inserts=[], removes=[])
        events = self._ticks[self._cursor]
        self._cursor = self._cursor + 1
        return TickEvents(
            moves=list(events.moves),
            inserts=list(events.inserts),
            removes=list(events.removes),
        )


def _category_from_json(cat):
    # JSON keeps 0 and "A"/"B" distinct already; nothing to coerce, but
    # lists (from tuples) would break hashability.
    return tuple(cat) if isinstance(cat, list) else cat


def _categories(scenario: Scenario) -> Optional[Dict[Hashable, float]]:
    if scenario.mode != "bi":
        return None
    return {"A": scenario.a_fraction, "B": 1.0 - scenario.a_fraction}


def build_motion(scenario: Scenario):
    """The live motion generator described by a generated scenario."""
    extent = Rect(*scenario.extent)
    categories = _categories(scenario)
    seed = scenario.seed * 1_000_003 + scenario.index
    n = scenario.n_objects
    if scenario.motion == "walk":
        span = min(extent.width, extent.height)
        return RandomWalkGenerator(
            n, seed=seed, step_sigma=0.02 * span, extent=extent, categories=categories
        )
    if scenario.motion == "jump":
        return UniformJumpGenerator(
            n, seed=seed, jump_prob=0.3, extent=extent, categories=categories
        )
    if scenario.motion == "clusters":
        span = min(extent.width, extent.height)
        return GaussianClusterGenerator(
            n,
            n_clusters=3,
            seed=seed,
            cluster_sigma=0.08 * span,
            member_sigma=0.02 * span,
            drift_sigma=0.01 * span,
            extent=extent,
            categories=categories,
        )
    if scenario.motion == "churn":
        span = min(extent.width, extent.height)
        return ChurnRandomWalkGenerator(
            n,
            seed=seed,
            step_sigma=0.02 * span,
            birth_rate=0.10,
            death_rate=0.10,
            extent=extent,
            categories=categories,
        )
    if scenario.motion == "lattice":
        return LatticeJumpGenerator(
            n, seed=seed, lattice=8, extent=extent, categories=categories
        )
    if scenario.motion == "sparse":
        span = min(extent.width, extent.height)
        return SparseJitterGenerator(
            n,
            seed=seed,
            movers=round(n * scenario.move_fraction / 10),
            step_sigma=0.03 * span,
            extent=extent,
            categories=categories,
        )
    if scenario.motion == "roadnet":
        net = scenario_network(scenario)
        if scenario.network is not None and scenario.network.get("node_jump"):
            return NodeJumpGenerator(net, n, seed=seed, categories=categories)
        return NetworkMovingObjectGenerator(
            net,
            n,
            seed=seed,
            speed_range=(0.01, 0.05),
            categories=categories,
            move_fraction=scenario.move_fraction,
        )
    raise ValueError(f"unknown motion model {scenario.motion!r}")


def scenario_network(scenario: Scenario) -> Optional[RoadNetwork]:
    """The road network of a roadnet scenario (``None`` otherwise).

    Scenarios with an explicit ``network`` description rebuild it via
    :meth:`RoadNetwork.from_dict`; roadnet scenarios without one (every
    pre-metric artifact) keep the legacy implicit 4x4 grid city, seeded
    exactly as before, so old artifacts replay byte-for-byte.
    """
    if scenario.motion != "roadnet":
        return None
    if scenario.network is not None:
        return RoadNetwork.from_dict(scenario.network)
    seed = scenario.seed * 1_000_003 + scenario.index
    return RoadNetwork.grid_city(rows=4, cols=4, seed=seed)


def scripted(scenario: Scenario) -> Scenario:
    """Freeze a generated scenario into its scripted, replayable form.

    Records one run of the live motion generator into an explicit event
    script and resolves the query: a moving query binds to a concrete
    object id present at t=0 (falling back to a fixed point when the
    needed category is absent).  Idempotent on already-scripted input.
    """
    if scenario.script is not None:
        return scenario
    gen = build_motion(scenario)
    initial = [(oid, pos, cat) for oid, pos, cat in gen.initial()]
    ticks = []
    for _ in range(scenario.n_ticks):
        if hasattr(gen, "step_events"):
            events = gen.step_events(1.0)
        else:
            events = TickEvents(moves=list(gen.step(1.0)), inserts=[], removes=[])
        ticks.append(
            {
                "moves": [[oid, p.x, p.y] for oid, p in events.moves],
                "inserts": [[oid, p.x, p.y, cat] for oid, p, cat in events.inserts],
                "removes": list(events.removes),
            }
        )
    script = {
        "initial": [[oid, p.x, p.y, cat] for oid, p, cat in initial],
        "ticks": ticks,
    }
    out = Scenario.from_dict(scenario.to_dict())
    out.script = script
    # Resolve the query against the frozen population.
    if out.moving_query:
        want = "A" if out.mode == "bi" else None
        qid = _pick_query_object(script, want)
        if qid is None:
            out.moving_query = False
        else:
            out.query_point = None
            out.script["query_id"] = qid
    if not out.moving_query and out.query_point is None:
        extent = Rect(*out.extent)
        c = extent.center
        out.query_point = (c.x, c.y)
    return out


def query_id_of(scenario: Scenario):
    """The bound query object id of a scripted moving-query scenario."""
    if scenario.script is None:
        return None
    return scenario.script.get("query_id")


def _pick_query_object(script: dict, category):
    """A query object that survives the whole script (churn kills ids)."""
    removed = {
        oid for tick in script["ticks"] for oid in tick.get("removes", ())
    }
    for oid, _x, _y, cat in script["initial"]:
        if oid in removed:
            continue
        if category is None or cat == category:
            return oid
    return None


def make_scenario(seed: int, index: int) -> Scenario:
    """Deterministically sample scenario ``index`` of stream ``seed``."""
    rng = random.Random(f"igern-fuzz:{seed}:{index}")
    mode = ("mono", "bi")[index % 2]
    motion = MOTIONS[(index // 2) % len(MOTIONS)]
    k = rng.choice((1, 1, 2, 3))  # k=1 is the paper's case; keep it frequent
    if mode == "mono":
        choices = [None, "tpl"] if k > 1 else [None, "crnn", "tpl", "sixpie"]
    else:
        choices = [None] if k > 1 else [None, "voronoi"]
    baseline = rng.choice(choices)
    extent = EXTENTS[rng.randrange(len(EXTENTS))] if motion != "roadnet" else EXTENTS[0]
    # Churn can remove any object, so churn queries are fixed points
    # (matching the engine's own churn tests); everything else may move.
    moving_query = motion != "churn" and rng.random() < 0.6
    query_point = None
    if not moving_query:
        xmin, ymin, xmax, ymax = extent
        if motion == "lattice":
            # Put fixed queries on lattice nodes too: query-distance ties
            # are the interesting ones.
            m = 8
            query_point = (
                xmin + rng.randint(0, m) * (xmax - xmin) / m,
                ymin + rng.randint(0, m) * (ymax - ymin) / m,
            )
        else:
            query_point = (
                rng.uniform(xmin + 0.25 * (xmax - xmin), xmax - 0.25 * (xmax - xmin)),
                rng.uniform(ymin + 0.25 * (ymax - ymin), ymax - 0.25 * (ymax - ymin)),
            )
    scenario = Scenario(
        seed=seed,
        index=index,
        mode=mode,
        k=k,
        grid_size=rng.choice(GRID_SIZES),
        extent=extent,
        motion=motion,
        n_objects=rng.randint(12, 80),
        n_ticks=rng.randint(4, 10),
        move_fraction=rng.choice((0.1, 0.5, 1.0)),
        a_fraction=rng.choice((0.3, 0.5, 0.7)),
        moving_query=moving_query,
        query_point=query_point,
        baseline=baseline,
    )
    # Extra fixed IGERN queries clustered around the main query point so
    # their footprints overlap: the batch layer only shares under overlap,
    # and a bad memo key only misfires across overlapping queries.  Drawn
    # last so the draws above keep their pre-batching values for any seed.
    if rng.random() < 0.35:
        xmin, ymin, xmax, ymax = extent
        if query_point is not None:
            ax, ay = query_point
        else:
            ax, ay = (xmin + xmax) / 2.0, (ymin + ymax) / 2.0
        span = max(xmax - xmin, ymax - ymin)
        extras = []
        for _ in range(rng.randint(1, 3)):
            extras.append(
                (
                    min(max(ax + rng.uniform(-0.08, 0.08) * span, xmin), xmax),
                    min(max(ay + rng.uniform(-0.08, 0.08) * span, ymin), ymax),
                )
            )
        scenario.extra_query_points = extras
    # Road-graph metric scenarios: most roadnet runs evaluate under the
    # network distance mode, against the networkx brute oracle.  Every
    # new draw happens strictly after every pre-existing draw, so the
    # Euclidean scenarios of any (seed, index) — including Euclidean
    # roadnet ones — keep their exact pre-metric shape (the acceptance
    # bar: Euclidean-mode results stay bit-identical).
    if motion == "roadnet" and rng.random() < 0.75:
        scenario.metric = "network"
        # Euclidean baselines answer a different question under network
        # distance; the lockstep runs IGERN-net against the network
        # brute oracle only.
        scenario.baseline = None
        scenario.network = {
            "kind": "grid_city",
            "rows": rng.choice((3, 4, 5)),
            "cols": rng.choice((3, 4, 5)),
            # jitter-0 grids make equal-hop routes bit-equal left-fold
            # sums — the tie workload of the network mode.
            "jitter": rng.choice((0.0, 0.0, 0.25)),
            "diagonal_prob": rng.choice((0.0, 0.15)),
            "seed": seed * 1_000_003 + index,
        }
        if rng.random() < 0.5:
            # Objects teleport between nodes (ties routinely) instead of
            # walking edges (arbitrary float offsets, ties never).
            scenario.network["node_jump"] = True
        if not scenario.moving_query:
            # Fixed queries sit at a node or mid-edge: node queries tie
            # with node-jumping objects, mid-edge queries exercise the
            # same-edge direct route of the distance spec.
            net = scenario_network(scenario)
            if rng.random() < 0.5:
                p = net.node_pos(net.random_node(rng))
            else:
                edges = net.sorted_edges()
                u, v, length = edges[rng.randrange(len(edges))]
                p = net.point_on_edge(u, v, 0.5 * length)
            scenario.query_point = (p.x, p.y)
    return scenario


def generate_scenarios(seed: int, start: int = 0):
    """Endless deterministic scenario stream (slice it or time-box it)."""
    index = start
    while True:
        yield make_scenario(seed, index)
        index += 1
