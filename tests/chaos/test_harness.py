"""The kill-and-restart chaos matrix.

The headline test sweeps **every registered crash point** with a
crash-at-first-hit plan and asserts every recovery invariant holds; the
rest of the module pins the specific behaviours the ISSUE names: torn
appends, injected disk errors at the acknowledgment edge, epoch resume
with bit-identical output, and compaction crash tolerance.
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
from repro.chaos.harness import ChaosScenario, run_scenario
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.recovery import replay


def _scenario(*faults, **kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("n_jobs", 3)
    kwargs.setdefault("checkpoint_every_slices", 2)
    return ChaosScenario(faults=tuple(faults), **kwargs)


class TestMatrix:
    def test_clean_run_has_no_violations(self, tmp_path):
        report = run_scenario(_scenario(), tmp_path)
        assert report.ok, report.violations
        assert report.restarts == 0
        assert report.jobs_acked == report.jobs_completed == 3

    @pytest.mark.parametrize("point", registered_crashpoints())
    def test_crash_at_every_registered_point(self, point, tmp_path):
        """Crash at the first visit of ``point``: whatever the journal
        managed to keep, recovery must satisfy every invariant.  Points
        the scenario never visits degenerate to a clean run — equally a
        pass (the sweep stays exhaustive as new points are registered).
        """
        report = run_scenario(
            _scenario(FaultSpec(point, action="crash", hit=1)), tmp_path
        )
        assert report.ok, (point, report.violations)

    @pytest.mark.parametrize("hit", [1, 2, 3, 5, 8])
    def test_crash_after_nth_append(self, hit, tmp_path):
        report = run_scenario(
            _scenario(FaultSpec("journal.append.after", hit=hit)), tmp_path
        )
        assert report.ok, (hit, report.violations)
        assert report.restarts == 1

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.9])
    def test_torn_append_is_dropped_not_trusted(self, fraction, tmp_path):
        report = run_scenario(
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
        report = run_scenario(
            _scenario(
                FaultSpec("journal.append.after", hit=4), seed=seed, n_jobs=4
            ),
            tmp_path,
        )
        assert report.ok, (seed, report.violations)


class TestAcknowledgmentEdge:
    def test_disk_error_at_submit_is_not_an_ack(self, tmp_path):
        report = run_scenario(
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
        report = run_scenario(
            ChaosScenario(
                faults=(
                    FaultSpec("journal.append", action="torn", hit=4,
                              torn_fraction=0.25),
                    FaultSpec("journal.append.after", action="crash", hit=9),
                ),
                seed=7,
                n_jobs=4,
                checkpoint_every_slices=2,
            ),
            tmp_path,
        )
        assert report.ok, report.violations
        assert report.restarts == 2
        assert report.jobs_resumed >= 1
        assert report.resumed_slices > 0

    def test_checkpoint_crash_downgrades_to_scratch(self, tmp_path):
        report = run_scenario(
            _scenario(FaultSpec("checkpoint.write", action="crash", hit=1)),
            tmp_path,
        )
        assert report.ok, report.violations

    def test_no_checkpointing_still_recovers_from_scratch(self, tmp_path):
        report = run_scenario(
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
        a = run_scenario(scenario, tmp_path / "a").as_dict()
        b = run_scenario(scenario, tmp_path / "b").as_dict()
        assert a == b

    def test_payload_round_trip_is_exact_for_resumed_jobs(self, tmp_path):
        # The baseline comparison inside run_scenario is the real check;
        # this pins that FFT outputs are complex arrays compared exactly.
        report = run_scenario(
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
