"""The real-process chaos matrix: SIGKILL, SIGSTOP, torn frames, EPIPE.

Each case runs :func:`run_cluster_scenario` with a process fault in its
plan — actual worker subprocesses
behind the framed transport — fires one real process fault mid-trace,
and asserts the full invariant set: the fault fired, no acked job was
lost, nothing executed twice, outputs stayed bit-identical to a
fault-free baseline across the wire, and the victim rejoined the ring
as a healthy fresh member.

These are the slowest tests in the suite (every case spawns 3-4 OS
processes and one respawn); the job counts are the smallest that still
drive every protocol edge.
"""

from __future__ import annotations

import pytest

from repro.chaos import ProcFault
from repro.cluster.harness import (
    LOST_REPLIES,
    ClusterScenario,
    lost_reply_scenario,
    run_cluster_scenario,
)

pytestmark = pytest.mark.slow


def _run(tmp_path, scenario: ClusterScenario):
    report = run_cluster_scenario(scenario, tmp_path / "proc")
    assert report.violations == []
    assert report.ok
    return report


class TestNoFault:
    def test_clean_run_completes_everything(self, tmp_path):
        report = _run(tmp_path, ClusterScenario(processes=True, n_jobs=9))
        assert report.jobs_completed == 9
        assert report.fault_fired is False
        assert report.duplicate_executions == 0


class TestFaultMatrix:
    def test_sigkill_mid_trace(self, tmp_path):
        report = _run(
            tmp_path,
            ClusterScenario(
                faults=(ProcFault(kind="sigkill", after_completions=4),),
                n_jobs=12,
            ),
        )
        assert report.fault_fired and report.victim
        assert report.rejoined
        assert report.rejoin["ok"]
        assert report.jobs_completed == 12

    def test_sigstop_hang_is_detected_and_killed(self, tmp_path):
        report = _run(
            tmp_path,
            ClusterScenario(
                faults=(ProcFault(kind="sigstop", after_completions=4),),
                n_jobs=12,
                heartbeat_timeout_s=0.5,
                call_timeout_s=2.0,
            ),
        )
        assert report.fault_fired and report.rejoined
        assert report.jobs_completed == 12

    def test_torn_frame_poisons_then_rejoins(self, tmp_path):
        report = _run(
            tmp_path,
            lost_reply_scenario("torn", "step-reply-with-result", n_jobs=12),
        )
        assert report.fault_fired and report.rejoined
        assert report.jobs_completed == 12

    def test_epipe_submit_is_typed_and_retried(self, tmp_path):
        report = _run(
            tmp_path,
            ClusterScenario(
                faults=(ProcFault(kind="epipe", after_completions=4),),
                n_jobs=12,
            ),
        )
        assert report.fault_fired
        assert report.epipe_typed  # the dead-pipe submit raised typed
        assert report.rejoined
        assert report.jobs_completed == 12  # including the held-back job


class TestLostReplies:
    """Torn frames and exits placed by protocol event, not by index:
    every kind of reply a victim can fail to deliver, lost both ways."""

    @pytest.mark.parametrize("reply", sorted(LOST_REPLIES))
    @pytest.mark.parametrize("fault_kind", ["torn", "exit"])
    def test_every_kind_of_reply_can_be_lost(self, tmp_path, fault_kind, reply):
        report = _run(tmp_path, lost_reply_scenario(fault_kind, reply, n_jobs=12))
        assert report.fault_fired and report.rejoined
        assert report.rejoin["ok"]
        assert report.jobs_completed == 12
