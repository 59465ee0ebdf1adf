"""Tick-stream benchmark of the serving front door.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-static --seed 1 --seconds 20 --trace 0

One closed-loop client replays a seeded update script (``workloads.py``)
through ``repro.serving.ShardCluster``: ``load`` -> ``add_query`` ->
``initial_eval``, then tick *t+1* is sent only after tick *t*'s merged
answers came back.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (names and units
as declared in ``BENCHMARK.json``); the line before it (``# detail:
{...}``, also written to ``perfbench/results/``) holds the host and
provenance block, raw times, and the self-check counts and digests.

``--trace 0`` reports the end-to-end metrics from uninstrumented runs.
Times are rescaled to a reference host speed (see ``_calibrate``).
``--trace 1`` runs the workload twice in one process — untraced, then
with benchmark-side spans around the program's public entry points
(``spans.py``) — and reports the per-layer metrics of the traced half,
its overhead over the untraced half, and writes the set-up spans and the
last timed ticks' spans as a Chrome trace
(``perfbench/results/<workload>-seed<n>.trace.json``).

Correctness (``attempted``/``failed``; ``error_rate = failed/attempted``
in the detail block): between ticks, outside the timed region, the scale
oracle (``oracle.py``) checks every answer that changed, and every
answer at tick 0, at spread timed ticks and at the last tick; a tick
that raises fails all its answers.  Two extra set-ups of a ``--trace 0``
run replay the first ticks and must repeat the main run's script digest
and per-tick answer digests and evaluation/skip/change counts exactly;
``fleet-sharded`` also replays them on the single inline shard of
``fleet-static`` and must produce identical answer digests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Ticks run before the timed region (caches fill, lazy set-up ends).
WARMUP_TICKS = 3

#: Extra set-ups of a ``--trace 0`` run that replay the first
#: ``REPLAY_TICKS`` ticks as a determinism check (the workload's remaining
#: set-ups stop at set-up).
REPLAYS = 2
REPLAY_TICKS = 8

#: Full oracle checks spread over the timed ticks, besides tick 0 and the
#: last one; every other tick checks the answers that changed.
ORACLE_SAMPLES = 2

#: Timed ticks written to the Chrome trace of a ``--trace 1`` run.
TRACE_TICKS = 5

#: Host-speed correction (see ``_calibrate``): the calibration loop's
#: seconds on the reference host (2-CPU x86_64, Python 3.11), and how
#: strongly engine time follows the loop's time there — a log-log fit of
#: IGERN evaluation time against interleaved loop times gave 0.64.
CAL_REF_S = 3.5e-3
SPEED_EXPONENT = 0.6


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse anything else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")


# ----------------------------------------------------------------------
# Client-side bookkeeping
# ----------------------------------------------------------------------


class Book:
    """What the client saw: per-tick answer digests and counts."""

    def __init__(self, owner: dict):
        self.owner = owner
        self.prev: dict = {}
        #: Per tick: (answer digest, evaluations, skips, answer changes).
        self.ticks: list = []
        self.shard_evals: Counter = Counter()

    def start(self, result) -> None:
        self.prev = {name: a[0] for name, a in result.answers.items()}

    def observe(self, result, counted: bool = True) -> list:
        """Record one tick; returns the names whose answer changed."""
        h = hashlib.sha256()
        evals = skips = 0
        changed = []
        prev = self.prev
        for name in sorted(result.answers):
            answer, skipped, _reason = result.answers[name]
            h.update(repr((name, answer)).encode())
            if skipped:
                skips += 1
            else:
                evals += 1
                if counted:
                    self.shard_evals[self.owner[name]] += 1
            if answer != prev.get(name):
                changed.append(name)
            prev[name] = answer
        self.ticks.append((h.hexdigest()[:16], evals, skips, len(changed)))
        return changed

    def prefix_digest(self, n: int) -> str:
        return hashlib.sha256(repr(self.ticks[:n]).encode()).hexdigest()[:16]


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker processes.

    The client shares this process with an inline shard, so its own
    memory (interpreter, numpy/scipy, script state) is part of the
    figure; it is the same on every commit.
    """
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _calibrate() -> float:
    """Seconds of a fixed interpreter-bound loop (dict updates and
    integer adds, like the engine's inner loops).

    The shared host switches between speeds up to ~1.7x apart, in phases
    of a fraction of a second to a few seconds, so raw tick times of two
    runs of identical work differ by up to ~40%.  The client times this
    loop before every tick (and once after the last); each tick's wall
    is rescaled by ``(CAL_REF_S / c) ** SPEED_EXPONENT``, ``c`` the mean
    of the loop times just before and after it.  A set-up is rescaled
    the same way from loops timed around it, and span times of a traced
    run by the run's mean loop time.  Raw times are kept in the run's
    detail record.
    """
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(20_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += len(table)
    return time.perf_counter() - t0


def _deploy(workload, script):
    """Set-up as a user pays it: construct, load, subscribe, evaluate.

    Returns the cluster, ``(raw seconds, seconds at reference speed)``
    of the set-up, and the initial evaluation.
    """
    from repro.serving import ShardCluster

    before = statistics.median(_calibrate() for _ in range(3))
    t0 = time.perf_counter()
    cluster = ShardCluster(workload.n_shards, **workload.cluster_kwargs())
    try:
        cluster.load(script.initial)
        for spec in script.specs:
            cluster.add_query(spec)
        initial = cluster.initial_eval()
        wall = time.perf_counter() - t0
        after = statistics.median(_calibrate() for _ in range(3))
    except BaseException:
        cluster.close()
        raise
    ref = wall * (2 * CAL_REF_S / (before + after)) ** SPEED_EXPONENT
    return cluster, (wall, ref), initial


@contextlib.contextmanager
def _program_stats_kept():
    """Leave the program's process-global stat counters as they were.

    The simulator publishes per-tick deltas of these singletons, so
    client work between ticks in this process — the oracle's exact
    predicate calls, or ``collect_counters`` folding an inline shard's
    counts into the very singletons they came from — would otherwise be
    charged to the next tick.
    """
    from repro import metric
    from repro.geometry import predicates
    from repro.grid import store
    from repro.serving import stats_snapshot

    saved = stats_snapshot()
    try:
        yield
    finally:
        for group, stats in (
            ("predicates", predicates.STATS),
            ("metric", metric.STATS),
            ("store", store.STATS),
        ):
            for key, value in saved[group].items():
                setattr(stats, key, value)


def _counter_totals(cluster) -> dict:
    """Registry counters summed over shards and labels."""
    with _program_stats_kept():
        cluster.collect_counters()
    totals: dict = defaultdict(float)
    for m in cluster.merged_registry().collect():
        if m.kind == "counter":
            totals[m.name] += m.value
    return totals


class Drive:
    """One deployment driven through warm-up and a timed closed loop."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        #: Raw wall seconds of each timed tick, and the calibration taken
        #: before each (plus one after the last).  Set-up and tick walls
        #: are raw; the reporting methods rescale them.
        self.walls: list = []
        self.calibrations: list = []
        self.updates = 0
        #: Checked (query, tick) answers and how many of them were wrong.
        self.attempted = 0
        self.failed = 0
        self.timed_ticks: list = []
        self.counters: list = []
        self.result_bytes: list = []
        self.script_digest = ""

    def run(self) -> "Drive":
        from oracle import Oracle

        w = self.workload
        script = self.script = w.make_script(self.seed)
        self.oracle = Oracle(script, w.oracle_rebuild)
        self.specs = {spec.name: spec for spec in script.specs}
        cluster, self.setup, initial = _deploy(w, script)
        try:
            self.book = Book(dict(cluster.owner))
            self.book.start(initial)
            self._check(initial, self.specs)
            for _ in range(WARMUP_TICKS):
                self._tick(cluster, timed=False)
            if self.traced:
                self.counters.append(_counter_totals(cluster))
            # Collect set-up garbage now, so every run enters the timed
            # region at the same point of the collector's cycle.
            gc.collect()
            stride = max(1, w.min_ticks // ORACLE_SAMPLES)
            start = time.perf_counter()
            n = 0
            while n < w.min_ticks or time.perf_counter() - start < self.seconds:
                self._tick(cluster, timed=True, full=n % stride == 0)
                n += 1
            self.calibrations.append(_calibrate())
            if self._full_tick != self._last.tick:
                self._check(self._last, self.specs)
            if self.traced:
                self.counters.append(_counter_totals(cluster))
            self.peak_rss_mb = _peak_rss_mb()
        finally:
            cluster.close()
        return self

    def _tick(self, cluster, timed: bool, full: bool = False) -> None:
        script = self.script
        moves, inserts, removes = script.next_tick()
        if len(self.book.ticks) + 1 == REPLAY_TICKS:
            self.script_digest = script.digest
        calibration = _calibrate() if timed else 0.0
        t0 = time.perf_counter()
        try:
            result = cluster.tick(moves, inserts, removes)
        except Exception as exc:  # noqa: BLE001 - counted as failed answers
            print(f"# tick failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.attempted += len(self.specs)
            self.failed += len(self.specs)
            return
        wall = time.perf_counter() - t0
        self._last = result
        changed = self.book.observe(result, counted=timed)
        if full:
            self._full_tick = result.tick
        self._check(result, self.specs if full else changed)
        if timed:
            self.walls.append(wall)
            self.calibrations.append(calibration)
            self.updates += len(moves) + len(inserts) + len(removes)
            self.timed_ticks.append(result.tick)
        if self.traced:
            import pickle

            from spans import RECORDER

            if timed:
                self.result_bytes.append(
                    sum(len(pickle.dumps(r)) for _, r in RECORDER.replies)
                )
            RECORDER.replies.clear()

    def _check(self, result, names) -> None:
        """Compare the named answers of ``result`` with the oracle's."""
        with _program_stats_kept():
            for name in names:
                self.attempted += 1
                got = result.answers.get(name, (None,))[0]
                if got != self.oracle.answer(self.specs[name], result.tick):
                    self.failed += 1
                    print(f"# wrong answer: {name} at tick {result.tick}", file=sys.stderr)

    # -- results -------------------------------------------------------

    def speed_factor(self) -> float:
        """Reference-speed seconds per raw second, averaged over the run."""
        return (CAL_REF_S / statistics.mean(self.calibrations)) ** SPEED_EXPONENT

    def ref_walls(self) -> list:
        """Timed tick walls in seconds at reference speed."""
        cal = self.calibrations
        return [
            wall * (2 * CAL_REF_S / (cal[i] + cal[i + 1])) ** SPEED_EXPONENT
            for i, wall in enumerate(self.walls)
        ]

    def tick_p50_ms(self) -> float:
        return statistics.median(self.ref_walls()) * 1e3

    def tick_tail_ms(self) -> float:
        ordered = sorted(self.ref_walls())
        idx = math.ceil(self.workload.tail_pct / 100 * len(ordered)) - 1
        return ordered[idx] * 1e3

    def updates_per_s(self) -> float:
        return self.updates / sum(self.ref_walls())


def _replay(workload, seed: int, n_ticks: int):
    """Fresh deployment, first ``n_ticks`` ticks; returns (set-up, book, digest)."""
    script = workload.make_script(seed)
    cluster, setup, initial = _deploy(workload, script)
    try:
        book = Book(dict(cluster.owner))
        book.start(initial)
        for _ in range(n_ticks):
            book.observe(cluster.tick(*script.next_tick()))
    finally:
        cluster.close()
    return setup, book, script.digest


# ----------------------------------------------------------------------
# Per-layer metrics from the traced run
# ----------------------------------------------------------------------

LAYER_SPANS = (
    "serving.decode",
    "grid.apply_updates",
    "scheduler.affected",
    "scheduler.update_footprint",
    "batch.order",
    "igern.mono_tick",
    "igern.mono_initial",
    "igern.bi_tick",
    "igern.bi_initial",
    "igern.footprint",
    "obs.registry",
    "gc.collect",
)


def _span_stats(processes: dict, timed: set):
    """Per span name over timed ticks: self seconds, calls, durations."""
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    durs: dict = defaultdict(list)
    setup: dict = defaultdict(float)
    recv_ends: dict = defaultdict(list)
    gateway = os.getpid()
    for pid, sp in processes.items():
        n = len(sp["name"])
        dur = [sp["end"][i] - sp["start"][i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(sp["parent"]):
            if parent >= 0:
                child[parent] += dur[i]
        for i, name in enumerate(sp["name"]):
            tick = sp["tick"][i]
            if tick == 0:
                setup[name] += dur[i]
            if tick not in timed:
                continue
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
            durs[name].append(dur[i])
            if pid == gateway and name == "serving.shard_recv":
                recv_ends[tick].append(sp["end"][i])
    return self_s, calls, durs, setup, recv_ends


def layer_metrics(drive: Drive, untraced_p50_ms: float, processes: dict) -> dict:
    timed = set(drive.timed_ticks)
    n = len(timed)
    self_s, calls, durs, setup, recv_ends = _span_stats(processes, timed)
    # Span times are rescaled to reference speed like the end-to-end ones.
    speed = drive.speed_factor()
    per_tick_ms = lambda name: self_s[name] / n * 1e3 * speed  # noqa: E731
    p50_ms = lambda name: (  # noqa: E731
        statistics.median(durs[name]) * 1e3 * speed if durs[name] else 0.0
    )
    before, after = drive.counters
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    evals = skips = changes = 0
    for _, e, s, c in drive.book.ticks[-n:]:
        evals, skips, changes = evals + e, skips + s, changes + c
    per_shard = [drive.book.shard_evals[s] for s in range(drive.workload.n_shards)]
    stragglers = [max(e) - min(e) for e in recv_ends.values() if e]
    shard_wall = sum(durs["shard.tick"])
    layer_self = sum(self_s[name] for name in LAYER_SPANS)
    probes = delta.get("batch_probe_hits_total", 0.0) + delta.get("batch_probe_misses_total", 0.0)
    predicate = delta.get("predicate_filter_hits_total", 0.0) + delta.get(
        "predicate_exact_fallbacks_total", 0.0
    )
    values = {
        "serving.gateway_self_ms": per_tick_ms("serving.tick"),
        "serving.decode_ms": per_tick_ms("serving.decode"),
        "serving.shard_wait_ms": per_tick_ms("serving.shard_recv"),
        "serving.straggler_ms": (
            statistics.mean(stragglers) * 1e3 * speed if stragglers else 0.0
        ),
        "serving.result_bytes": statistics.mean(drive.result_bytes),
        "serving.eval_skew": ratio(max(per_shard), statistics.mean(per_shard)),
        "engine.step_self_ms": per_tick_ms("engine.step"),
        "scheduler.affected_ms": per_tick_ms("scheduler.affected"),
        "scheduler.update_footprint_ms": per_tick_ms("scheduler.update_footprint"),
        "scheduler.evals_per_tick": evals / n,
        "scheduler.skip_ratio": ratio(skips, evals + skips),
        "engine.useful_eval_ratio": ratio(changes, evals),
        "batch.order_ms": per_tick_ms("batch.order"),
        "batch.sharing_ratio": ratio(delta.get("batch_probe_hits_total", 0.0), probes),
        "igern.mono_eval_ms": p50_ms("igern.mono_tick"),
        "igern.mono_s_per_tick": self_s["igern.mono_tick"] / n * speed,
        "igern.bi_eval_ms": p50_ms("igern.bi_tick"),
        "igern.bi_s_per_tick": self_s["igern.bi_tick"] / n * speed,
        "igern.footprint_ms": per_tick_ms("igern.footprint"),
        "igern.initial_s": (setup["igern.mono_initial"] + setup["igern.bi_initial"])
        * speed,
        "grid.apply_updates_ms": per_tick_ms("grid.apply_updates"),
        "grid.load_s": setup["grid.load"] * speed,
        "grid.rows_scanned": delta.get("store_rows_scanned_total", 0.0) / n,
        "grid.vectorized_fraction": ratio(
            delta.get("store_vectorized_filter_rows_total", 0.0),
            delta.get("store_rows_scanned_total", 0.0),
        ),
        "predicates.fallback_rate": ratio(
            delta.get("predicate_exact_fallbacks_total", 0.0), predicate
        ),
        "obs.registry_calls": calls["obs.registry"] / n,
        "obs.registry_ms": per_tick_ms("obs.registry"),
        "python.gc_ms": per_tick_ms("gc.collect"),
        "trace.attributed_ratio": ratio(layer_self, shard_wall),
        "trace.overhead_ratio": drive.tick_p50_ms() / untraced_p50_ms - 1.0,
    }
    return values


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _host() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _provenance(w, seed: int, drive: Drive) -> dict:
    n = len(drive.walls)
    idx = math.ceil(w.tail_pct / 100 * n) - 1
    k = REPLAY_TICKS
    prefix = drive.book.ticks[:k]
    timed = drive.book.ticks[-n:]
    evals = sum(t[1] for t in timed)
    return {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "host": _host(),
        "transport": w.transport,
        "n_shards": w.n_shards,
        "mp_start_method": w.cluster_kwargs().get("mp_context"),
        "timed_ticks": n,
        "raw_tick_p50_ms": statistics.median(drive.walls) * 1e3,
        "calibration_ms": statistics.mean(drive.calibrations) * 1e3,
        "reference_calibration_ms": CAL_REF_S * 1e3,
        "raw_tick_ms": [round(wall * 1e3, 3) for wall in drive.walls],
        "calibration_samples_ms": [round(c * 1e3, 4) for c in drive.calibrations],
        "tail_percentile": w.tail_pct,
        "samples_above_tail": n - (idx + 1),
        "prefix_ticks": k,
        "script_digest": drive.script_digest,
        "answer_digest": drive.book.prefix_digest(k),
        "prefix_counts": [list(t[1:]) for t in prefix],
        "evals_per_tick": evals / n,
        "skips_per_tick": sum(t[2] for t in timed) / n,
        "answer_changes_per_tick": sum(t[3] for t in timed) / n,
        "shape": {
            "useful_eval_ratio": sum(t[3] for t in timed) / evals if evals else 0.0,
            "every_query_every_tick": all(t[1] == len(drive.script.specs) for t in timed),
        },
    }


def run_plain(w, seed: int, seconds: float):
    from workloads import WORKLOADS

    main = Drive(w, seed, seconds).run()
    k = REPLAY_TICKS
    reference = main.book.ticks[:k]
    setups = [main.setup]
    repeat = True
    for i in range(w.setups - 1):
        setup, book, digest = _replay(w, seed, k if i < REPLAYS else 0)
        setups.append(setup)
        if i < REPLAYS and (book.ticks != reference or digest != main.script_digest):
            repeat = False
            print("# replay diverged from the main run", file=sys.stderr)
    identity = None
    if w.identity_with:
        _, book, _ = _replay(WORKLOADS[w.identity_with], seed, k)
        identity = [t[0] for t in book.ticks] == [t[0] for t in reference]
        if not identity:
            print(f"# answers differ from {w.identity_with}", file=sys.stderr)
    attempted, failed = main.attempted, main.failed
    values = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "tick_p50_ms": main.tick_p50_ms(),
        "tick_tail_ms": main.tick_tail_ms(),
        "updates_per_s": main.updates_per_s(),
        "peak_rss_mb": main.peak_rss_mb,
    }
    detail = _provenance(w, seed, main)
    detail.update(
        raw_setup_samples_s=[raw for raw, _ in setups],
        replays_repeat=repeat,
        identity_with=w.identity_with,
        identity=identity,
    )
    correct = failed == 0 and repeat and identity is not False
    return correct, attempted, failed, values, detail


def run_traced(w, seed: int, seconds: float):
    import spans

    untraced = Drive(w, seed, seconds / 2).run()
    worker_dir = RESULTS / f"spans-{os.getpid()}"
    worker_dir.mkdir(exist_ok=True)
    spans.install(worker_dir)
    try:
        traced = Drive(w, seed, seconds / 2, traced=True).run()
    finally:
        spans.uninstall()
    processes = {os.getpid(): spans.RECORDER.dump()}
    processes.update(spans.load_worker_spans(worker_dir))
    worker_dir.rmdir()
    trace_path = RESULTS / f"{w.name}-seed{seed}.trace.json"
    # Set-up plus the last timed ticks keep the file small enough to open.
    spans.write_chrome_trace(
        trace_path, processes, {0, *traced.timed_ticks[-TRACE_TICKS:]}
    )
    values = layer_metrics(traced, untraced.tick_p50_ms(), processes)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    detail = _provenance(w, seed, traced)
    detail.update(
        untraced_tick_p50_ms=untraced.tick_p50_ms(),
        traced_tick_p50_ms=traced.tick_p50_ms(),
        chrome_trace=str(trace_path.relative_to(ROOT)),
    )
    return failed == 0, attempted, failed, values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    RESULTS.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_plain
    correct, attempted, failed, values, detail = run(w, args.seed, args.seconds)
    if set(values) != set(units):
        raise SystemExit(
            f"error: metrics {sorted(set(values) ^ set(units))} are not both"
            " computed and declared in BENCHMARK.json"
        )
    detail["error_rate"] = failed / attempted if attempted else 0.0
    detail["trace"] = args.trace
    detail_path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")
    print("# detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
