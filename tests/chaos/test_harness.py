"""The kill-and-restart chaos matrix, on the one runner (a single
durable engine is a one-shard ``ClusterScenario``).  The headline test
sweeps **every registered crash point** with a crash-at-first-hit plan
(``tests/cluster`` sweeps them under a shard kill); the rest pins
torn appends, disk errors at the acknowledgment edge, epoch resume with
bit-identical output, and compaction crash tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.compile.cache  # noqa: F401  (register cache.* points)
from repro.chaos.crashpoints import (
    FaultSpec,
    SimulatedCrash,
    armed,
    registered_crashpoints,
)
from repro.cluster.harness import ClusterScenario, run_cluster_scenario
from repro.errors import ChaosError
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.recovery import replay


def _scenario(*faults, **kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("n_jobs", 3)
    kwargs.setdefault("n_shards", 1)
    kwargs.setdefault("checkpoint_every_slices", 2)
    return ClusterScenario(faults=tuple(faults), **kwargs)



class TestMatrix:
    def test_clean_run_has_no_violations(self, tmp_path):
        report = run_cluster_scenario(_scenario(), tmp_path)
        assert report.ok, report.violations
        assert report.restarts == 0
        assert report.jobs_acked == report.jobs_completed == 3

    @pytest.mark.parametrize("point", registered_crashpoints())
    def test_crash_at_every_registered_point(self, point, tmp_path):
        """Crash at the first visit of ``point``; a point the scenario
        never visits degenerates to a crash-free run, equally a pass (so
        the sweep stays exhaustive as new points are registered)."""
        fault = FaultSpec(point, action="crash", hit=1)
        report = run_cluster_scenario(_scenario(fault), tmp_path)
        assert report.ok, (point, report.violations)
        assert report.jobs_completed == report.jobs_acked == 3

    @pytest.mark.parametrize("hit", [1, 2, 3, 5, 8])
    def test_crash_after_nth_append(self, hit, tmp_path):
        report = run_cluster_scenario(
            _scenario(FaultSpec("journal.append.after", hit=hit)), tmp_path
        )
        assert report.ok, (hit, report.violations)
        assert report.restarts == 1

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.9])
    def test_torn_append_is_dropped_not_trusted(self, fraction, tmp_path):
        report = run_cluster_scenario(
            _scenario(
                FaultSpec(
                    "journal.append",
                    action="torn",
                    hit=2,
                    torn_fraction=fraction,
                )
            ),
            tmp_path,
        )
        assert report.ok, report.violations
        assert report.restarts == 1
        if fraction > 0.0:
            assert report.corrupt_lines_dropped >= 1

    @pytest.mark.parametrize("seed", [0, 1, 7, 13])
    def test_seed_sweep_with_a_mid_trace_crash(self, seed, tmp_path):
        report = run_cluster_scenario(
            _scenario(
                FaultSpec("journal.append.after", hit=4), seed=seed, n_jobs=4
            ),
            tmp_path,
        )
        assert report.ok, (seed, report.violations)


class TestScenarioValidation:
    @pytest.mark.parametrize("n_shards, kill, drain", [
        (3, 5, None), (3, None, 7), (3, -1, None), (1, 0, None), (1, None, 0)
    ])
    def test_shard_index_it_cannot_run_is_refused(self, n_shards, kill, drain):
        with pytest.raises(ChaosError):
            ClusterScenario(n_shards=n_shards, kill_shard=kill,
                            drain_shard=drain)


class TestAcknowledgmentEdge:
    def test_disk_error_at_submit_is_not_an_ack(self, tmp_path):
        report = run_cluster_scenario(
            _scenario(FaultSpec("journal.append", action="oserror", hit=1)),
            tmp_path,
        )
        assert report.ok, report.violations
        assert report.submit_errors == 1  # client saw the error, retried
        assert report.restarts == 0  # the process survived
        assert report.jobs_acked == report.jobs_completed == 3


class TestEpochResume:
    def test_two_deaths_resume_bit_identically(self, tmp_path):
        """The demo's hardest ladder rung, held as a regression: a torn
        append kills incarnation 1, a crash kills incarnation 2, and the
        job that resumed from its epoch checkpoint still produces the
        bit-identical fault-free output (checked by the harness's
        baseline invariant)."""
        report = run_cluster_scenario(
            _scenario(
                FaultSpec("journal.append", action="torn", hit=4,
                          torn_fraction=0.25),
                FaultSpec("journal.append.after", action="crash", hit=9),
                n_jobs=4,
            ),
            tmp_path,
        )
        assert report.ok, report.violations
        assert report.restarts == 2
        assert report.jobs_resumed >= 1
        assert report.resumed_slices > 0

    def test_checkpoint_crash_downgrades_to_scratch(self, tmp_path):
        report = run_cluster_scenario(
            _scenario(FaultSpec("checkpoint.write", action="crash", hit=1)),
            tmp_path,
        )
        assert report.ok, report.violations

    def test_no_checkpointing_still_recovers_from_scratch(self, tmp_path):
        report = run_cluster_scenario(
            _scenario(
                FaultSpec("journal.append.after", hit=5),
                checkpoint_every_slices=0,
            ),
            tmp_path,
        )
        assert report.ok, report.violations
        assert report.jobs_resumed == 0  # nothing to resume from


class TestCompactionCrashes:
    def _populated(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=FsyncPolicy.NEVER, lock=False)
        journal.submitted("done-0", {"p": 0})
        journal.done("done-0", {"status": "done"})
        journal.submitted("live-0", {"p": 1})
        return journal

    def _fold(self, tmp_path):
        journal = JobJournal(tmp_path, fsync=FsyncPolicy.NEVER, lock=False)
        records, _ = journal.scan()
        journal.close()
        state = replay(records)
        return {
            job_id: (job.finished, job.submitted is not None)
            for job_id, job in state.jobs.items()
        }

    @pytest.mark.parametrize(
        "point", ["journal.compact.write", "journal.compact.swap"]
    )
    def test_crash_mid_compaction_loses_nothing(self, point, tmp_path):
        want = {"done-0": (True, True), "live-0": (False, True)}
        journal = self._populated(tmp_path)
        with armed(FaultSpec(point, action="crash", hit=1)):
            with pytest.raises(SimulatedCrash):
                journal.compact()
        folded = self._fold(tmp_path)
        # DONE of the finished job and everything of the live job
        # survive whichever half-state the crash left behind.
        assert folded["done-0"][0] is True
        assert folded["live-0"] == want["live-0"]


class TestDemo:
    def test_demo_ladder_is_green(self, capsys):
        from repro.chaos.demo import main

        assert main() == 0
        out = capsys.readouterr().out
        assert "all scenarios green" in out
        assert "FAIL" not in out


class TestDeterminism:
    def test_same_scenario_same_report(self, tmp_path):
        scenario = _scenario(
            FaultSpec("journal.append", action="torn", hit=3),
        )
        a = run_cluster_scenario(scenario, tmp_path / "a").as_dict()
        b = run_cluster_scenario(scenario, tmp_path / "b").as_dict()
        assert a == b

    def test_payload_round_trip_is_exact_for_resumed_jobs(self, tmp_path):
        # The baseline comparison inside the runner is the real check;
        # this pins that FFT outputs are complex arrays compared exactly.
        report = run_cluster_scenario(
            _scenario(FaultSpec("journal.append.after", hit=3)), tmp_path
        )
        assert report.ok
        assert not any(
            "differs from fault-free baseline" in v for v in report.violations
        )

    def test_outputs_equal_helper(self):
        from repro.chaos.invariants import outputs_equal

        assert outputs_equal(np.arange(4), np.arange(4))
        assert not outputs_equal(np.arange(4), np.arange(4) + 1)
        assert outputs_equal(b"x", b"x")
        assert not outputs_equal(b"x", b"y")
