"""The cluster kill-and-restart chaos matrix: every registered crash
point over a three-shard cluster with a shard kill, and crashes inside
the steal, handoff and drain windows.  The Hypothesis section
drives randomized Zipf-skewed traces through steal + shard-kill + replay
and holds the two cluster invariants: no acknowledged job is ever lost,
and no job is ever delivered twice with conflicting results.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.compile.cache  # noqa: F401  (register cache.* points)
import repro.cluster.router  # noqa: F401  (register cluster.* points)
import repro.cluster.lifecycle.drain  # noqa: F401  (cluster.drain.* points)
from repro.chaos.crashpoints import FaultSpec, registered_crashpoints
from repro.cluster.harness import ClusterScenario, run_cluster_scenario


def _scenario(*faults, **kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("n_jobs", 10)
    kwargs.setdefault("n_shards", 3)
    kwargs.setdefault("kill_shard", 1)
    kwargs.setdefault("kill_after", 2)
    return ClusterScenario(faults=tuple(faults), **kwargs)


class TestMatrix:
    def test_clean_run_completes_everything(self, tmp_path):
        report = run_cluster_scenario(
            _scenario(kill_shard=None), tmp_path
        )
        assert report.ok, report.violations
        assert report.restarts == 0
        assert report.jobs_acked == report.jobs_completed == 10

    def test_shard_kill_without_crashes(self, tmp_path):
        report = run_cluster_scenario(_scenario(), tmp_path)
        assert report.ok, report.violations
        assert report.shard_killed == "shard-1"
        assert report.handoffs >= 1
        assert report.jobs_completed == 10

    @pytest.mark.parametrize("point", registered_crashpoints())
    def test_crash_at_every_registered_point_with_a_shard_kill(
        self, point, tmp_path
    ):
        """Crash at the first visit of ``point`` while shard-1 dies
        mid-run; an unvisited point is the plain shard-kill run."""
        report = run_cluster_scenario(
            _scenario(FaultSpec(point, action="crash", hit=1)), tmp_path
        )
        assert report.ok, (point, report.violations)
        assert report.jobs_completed == report.jobs_acked == 10

    @pytest.mark.parametrize("hit", [1, 2, 3])
    def test_crash_inside_the_steal_window(self, hit, tmp_path):
        """Between the thief's SUBMITTED and the victim's MOVED the job
        exists in two journals; both may execute it.  That must surface
        as (at most) a deduplicated duplicate execution — never a lost
        or conflicting acknowledgment."""
        report = run_cluster_scenario(
            _scenario(FaultSpec("cluster.steal", hit=hit)), tmp_path
        )
        assert report.ok, (hit, report.violations)
        if f"cluster.steal:crash@{hit}" in report.faults_fired:
            assert report.restarts >= 1

    @pytest.mark.parametrize("hit", [1, 2, 3])
    def test_crash_mid_handoff_is_idempotent(self, hit, tmp_path):
        report = run_cluster_scenario(
            _scenario(FaultSpec("cluster.handoff", hit=hit)), tmp_path
        )
        assert report.ok, (hit, report.violations)
        assert report.jobs_completed == 10

    def test_same_scenario_same_report(self, tmp_path):
        scenario = _scenario(FaultSpec("cluster.steal", hit=2))
        a = run_cluster_scenario(scenario, tmp_path / "a").as_dict()
        b = run_cluster_scenario(scenario, tmp_path / "b").as_dict()
        assert a == b


class TestDrainMatrix:
    """Live drain under chaos: the ``cluster.drain.*`` crash windows."""

    def _scenario(self, *faults, **kwargs):
        kwargs.setdefault("seed", 3)
        kwargs.setdefault("n_jobs", 12)
        kwargs.setdefault("n_shards", 3)
        kwargs.setdefault("drain_shard", 1)
        kwargs.setdefault("drain_after", 2)
        return ClusterScenario(faults=tuple(faults), **kwargs)

    def test_clean_drain_loses_nothing(self, tmp_path):
        report = run_cluster_scenario(self._scenario(), tmp_path)
        assert report.ok, report.violations
        assert report.shard_drained == "shard-1"
        assert report.drain_attempts == 1
        assert report.jobs_completed == report.jobs_acked == 12

    @pytest.mark.parametrize("point", ["cluster.drain.move", "cluster.drain.finish"])
    @pytest.mark.parametrize("hit", [1, 2, 3])
    def test_crash_inside_the_drain_windows(self, point, hit, tmp_path):
        """A crash between the successor's SUBMITTED and the drained
        shard's MOVED (or at the leave-the-ring edge) must surface as at
        most a deduplicated duplicate execution — never a lost ack, a
        conflicting delivery, or a dangling MOVED."""
        report = run_cluster_scenario(
            self._scenario(FaultSpec(point, action="crash", hit=hit)),
            tmp_path,
        )
        assert report.ok, (point, hit, report.violations)
        assert report.jobs_completed == report.jobs_acked == 12
        if f"{point}:crash@{hit}" in report.faults_fired:
            assert report.restarts >= 1
            assert report.drain_attempts >= 2  # interrupted, then redone

    def test_drain_and_kill_together(self, tmp_path):
        report = run_cluster_scenario(
            self._scenario(kill_shard=0, kill_after=3, drain_after=2),
            tmp_path,
        )
        assert report.ok, report.violations
        assert report.shard_killed == "shard-0"
        assert report.shard_drained == "shard-1"
        assert report.jobs_completed == 12

    def test_drain_crash_is_deterministic(self, tmp_path):
        scenario = self._scenario(
            FaultSpec("cluster.drain.move", action="crash", hit=2)
        )
        a = run_cluster_scenario(scenario, tmp_path / "a").as_dict()
        b = run_cluster_scenario(scenario, tmp_path / "b").as_dict()
        assert a == b


class TestZipfTraces:
    """Hypothesis: random skewed traces through steal + kill + replay."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_jobs=st.integers(min_value=6, max_value=14),
        hot_fraction=st.floats(min_value=0.34, max_value=0.9),
        kill_shard=st.integers(min_value=0, max_value=2),
        point=st.sampled_from(
            ["cluster.steal", "cluster.handoff", "journal.append.after"]
        ),
        hit=st.integers(min_value=1, max_value=4),
    )
    def test_no_acked_job_lost_or_conflicting(
        self, seed, n_jobs, hot_fraction, kill_shard, point, hit
    ):
        scenario = ClusterScenario(
            faults=(FaultSpec(point, action="crash", hit=hit),),
            seed=seed,
            n_jobs=n_jobs,
            n_shards=3,
            hot_fraction=hot_fraction,
            kill_shard=kill_shard,
            kill_after=2,
        )
        with tempfile.TemporaryDirectory() as workdir:
            report = run_cluster_scenario(scenario, Path(workdir))
        # report.ok covers: no acked job lost, no conflicting delivery,
        # per-journal single DONE, no MOVED-into-the-void, idempotent
        # replay, and bit-identical outputs vs the fault-free baseline.
        assert report.ok, report.violations
        assert report.jobs_acked == n_jobs
        assert report.jobs_completed == n_jobs

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_jobs=st.integers(min_value=8, max_value=14),
        hot_fraction=st.floats(min_value=0.34, max_value=0.9),
        drain_shard=st.integers(min_value=0, max_value=2),
        kill_offset=st.integers(min_value=0, max_value=2),
        point=st.sampled_from(
            [
                "cluster.drain.move",
                "cluster.drain.finish",
                "cluster.steal",
                "journal.append.after",
            ]
        ),
        hit=st.integers(min_value=1, max_value=4),
    )
    def test_drain_interleaves_with_steal_and_kill(
        self, seed, n_jobs, hot_fraction, drain_shard, kill_offset, point, hit
    ):
        """Live drain + work stealing + (maybe) a shard kill + a crash:
        no double execution surfaces to a client, no MOVED record
        strands, no acked job is lost."""
        kill_shard = (
            None
            if kill_offset == 0
            else (drain_shard + kill_offset) % 3
        )
        scenario = ClusterScenario(
            faults=(FaultSpec(point, action="crash", hit=hit),),
            seed=seed,
            n_jobs=n_jobs,
            n_shards=3,
            hot_fraction=hot_fraction,
            kill_shard=kill_shard,
            kill_after=2,
            drain_shard=drain_shard,
            drain_after=3,
        )
        with tempfile.TemporaryDirectory() as workdir:
            report = run_cluster_scenario(scenario, Path(workdir))
        assert report.ok, report.violations
        assert report.jobs_acked == n_jobs
        assert report.jobs_completed == n_jobs
