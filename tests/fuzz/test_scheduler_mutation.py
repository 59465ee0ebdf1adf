"""Mutation smoke tests for the scheduler's exact per-mover skip test.

A settled footprint lets the scheduler skip a query whose footprint
cells were touched, when no mover can change its state (ledger reason
``no-effect``).  Two planted mistakes in that test must be caught by the
differential fuzzer, shrunk, saved, replayed deterministically, and
replay clean once unplanted:

- **Leave rule dropped.**  A mover leaving the witness ball of a
  non-answer candidate can take its witness count below ``k`` and turn
  the candidate into an answer; ignoring ``leave_balls`` skips exactly
  that tick and serves a stale answer.
- **Point-alive instead of cell-alive.**  The tightening scan absorbs
  every object in an alive *cell*, including point-dead objects in cells
  straddling a bisector.  Testing a mover's position against the region
  polygon instead misses those landings; the answer survives, but the
  monitored set falls behind what the skipped evaluation would have
  built.  Only the fuzzer's no-effect check — re-running each
  ``no-effect`` skip on a copy of the state — sees that.

Both windows are pinned: indices 110 and 40 of the seed-0 stream are
``sparse`` scenarios (a few objects jitter per tick) on which the
respective mutant diverges (verified; the stream is deterministic).
"""

import dataclasses

import repro.engine.scheduler as scheduler
from repro.fuzz.corpus import artifact_name, replay_artifact, save_artifact
from repro.fuzz.runner import run_fuzz
from repro.fuzz.shrink import shrink
from repro.geometry.predicates import compare_distance

_may_change = scheduler._may_change


def _ignoring_leave(fp, delta, keys):
    """The planted bug: movers leaving a non-answer ball never count."""
    return _may_change(dataclasses.replace(fp, leave_balls=()), delta, keys)


def _point_alive(fp, delta, keys):
    """The planted bug: the alive-cell rule becomes a point test against
    the candidates' bisectors (``k = 1`` region membership)."""
    q = fp.qpos
    centres = fp.enter_balls + fp.leave_balls
    for key in keys:
        for _oid, p0, _key0, p1, _key1 in delta.movers_in(key) or ():
            for p in (p0, p1):
                if p is not None and all(
                    compare_distance(p, c, q) >= 0 for c in centres
                ):
                    return True
    return _may_change(dataclasses.replace(fp, alive=frozenset()), delta, keys)


def _assert_caught_shrunk_replayable(tmp_path, monkeypatch, mutant, start, note):
    with monkeypatch.context() as m:
        m.setattr(scheduler, "_may_change", mutant)

        failures = []
        report = run_fuzz(
            seed=0,
            start=start,
            max_scenarios=1,
            on_result=lambda r: failures.append(r) if not r.ok else None,
        )
        assert not report.ok
        assert failures, "fuzzer reported divergences but surfaced no result"
        assert all(r.scenario.motion == "sparse" for r in failures)
        kinds = {d.kind for r in failures for d in r.divergences}
        assert "scheduler" in kinds

        res = failures[0]
        outcome = shrink(res.scenario, res)
        assert not outcome.result.ok
        assert outcome.objects <= len(res.scenario.script["initial"])
        assert outcome.ticks <= res.scenario.n_ticks

        path = save_artifact(
            tmp_path / artifact_name(outcome.result), outcome.result, note=note
        )
        replay_one = replay_artifact(path)
        replay_two = replay_artifact(path)
        assert not replay_one.ok
        assert [d.describe() for d in replay_one.divergences] == [
            d.describe() for d in replay_two.divergences
        ]

    # Mutant removed: the same artifact must now pass.
    assert replay_artifact(path).ok


def test_planted_leave_rule_mutant_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    _assert_caught_shrunk_replayable(
        tmp_path,
        monkeypatch,
        _ignoring_leave,
        start=110,
        note="planted: leaving a non-answer ball ignored (mutation smoke test)",
    )


def test_planted_point_alive_mutant_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    _assert_caught_shrunk_replayable(
        tmp_path,
        monkeypatch,
        _point_alive,
        start=40,
        note="planted: point-alive instead of cell-alive (mutation smoke test)",
    )
