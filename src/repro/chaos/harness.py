"""Kill-and-restart chaos scenarios over the durable engine.

A :class:`ChaosScenario` is fully determined by its fields: a seeded job
trace, a fault plan (crash points + actions + hit indices), and the
engine knobs.  :func:`run_scenario` then:

1. runs the trace **fault-free** on a scratch engine to capture the
   baseline output of every job (the bit-identical reference);
2. replays the same trace against a journaled engine with the fault plan
   armed — every :class:`~repro.chaos.crashpoints.SimulatedCrash` kills
   the current engine *incarnation* and a fresh one is constructed over
   the same journal directory (construction = recovery), up to
   ``max_restarts`` times;
3. checks the serving invariants of :mod:`repro.chaos.invariants` —
   no acknowledged job lost, no conflicting client result, at most one
   DONE record per job, idempotent replay, and every executed output
   (jobs resumed mid-transform from an epoch checkpoint included)
   bit-identical to the fault-free baseline — and returns a
   :class:`ScenarioReport` listing every violation (empty = pass).

An injected ``OSError`` at submit time models a failed disk during the
acknowledgment write: the client sees the error (the job was never
acked), retries once, and the invariants only cover jobs whose ack
succeeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chaos.crashpoints import FaultSpec, SimulatedCrash, armed
from repro.chaos.invariants import Deliveries, baseline_outputs, check_journals
from repro.errors import ChaosError
from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy
from repro.serve.jobs import JobRequest, JobResult, fft_spec, jpeg_spec

__all__ = ["ChaosScenario", "ScenarioReport", "run_scenario"]


@dataclass(frozen=True)
class ChaosScenario:
    """One deterministic kill-and-restart experiment."""

    #: Fault plan (empty = a plain durability smoke run).
    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0
    n_jobs: int = 4
    #: Fraction of FFT jobs in the trace (the rest are JPEG frames).
    fft_fraction: float = 0.75
    #: Epoch-progress cadence (slices between checkpoints; 0 disables).
    checkpoint_every_slices: int = 2
    pool_size: int = 1
    #: Hard bound on incarnations (a scenario needing more is a bug).
    max_restarts: int = 8
    fsync: FsyncPolicy = FsyncPolicy.NEVER

    def requests(self) -> list[JobRequest]:
        """The scenario's job trace (fresh objects every call — requests
        are mutated in flight, incarnations must not share them)."""
        rng = np.random.default_rng(self.seed)
        requests = []
        for index in range(self.n_jobs):
            if rng.random() < self.fft_fraction:
                spec = fft_spec(16, 4, 2)
                payload = (
                    rng.standard_normal(16) + 1j * rng.standard_normal(16)
                )
            else:
                spec = jpeg_spec(75, False)
                payload = rng.integers(0, 256, size=(8, 8), dtype=np.int64)
            requests.append(
                JobRequest(
                    spec=spec,
                    payload=payload,
                    job_id=f"chaos-{index:03d}",
                    max_retries=1,
                )
            )
        return requests


@dataclass
class ScenarioReport:
    """What the scenario did and which invariants (if any) it broke."""

    restarts: int = 0
    faults_fired: list[str] = field(default_factory=list)
    jobs_acked: int = 0
    jobs_completed: int = 0
    jobs_recovered_finished: int = 0
    jobs_resumed: int = 0
    resumed_slices: int = 0
    submit_errors: int = 0
    corrupt_lines_dropped: int = 0
    journal_records: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        body = dict(self.__dict__)
        body["ok"] = self.ok
        return body


def run_scenario(scenario: ChaosScenario, workdir: Path | str) -> ScenarioReport:
    """Execute one scenario under ``workdir`` (a scratch directory)."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal_dir = workdir / "journal"
    report = ScenarioReport()
    deliveries = Deliveries(
        baseline_outputs(
            scenario.requests(),
            workdir / "baseline",
            pool_size=scenario.pool_size,
        ),
        report.violations,
    )
    acked: set[str] = set()

    def deliver(result: JobResult) -> None:
        if deliveries.deliver(result):
            report.resumed_slices += result.resumed_slices
            if result.resumed_slices:
                report.jobs_resumed += 1

    with armed(*scenario.faults) as controller:
        incarnation = 0
        while True:
            incarnation += 1
            if incarnation > scenario.max_restarts + 1:
                raise ChaosError(
                    f"scenario needed more than {scenario.max_restarts} "
                    f"restarts — runaway crash loop"
                )
            try:
                engine = DurableEngine(
                    journal_dir,
                    pool_size=scenario.pool_size,
                    fsync=scenario.fsync,
                    checkpoint_every_slices=scenario.checkpoint_every_slices,
                )
            except SimulatedCrash:
                report.restarts += 1
                continue
            report.corrupt_lines_dropped += engine.scan_report.dropped
            # Recovered-finished results are (re)deliveries of earlier
            # completions — the dedup path a restarted client hits.
            for job_id, result in engine.results.items():
                if result.recovered and job_id in acked:
                    deliver(result)
            try:
                # Submit whatever was never acknowledged (clients retry
                # an errored ack exactly once — the fault fires by hit
                # count, so the retry lands).
                for request in scenario.requests():
                    if request.job_id in acked:
                        continue
                    try:
                        pre = engine.submit(request)
                    except OSError:
                        report.submit_errors += 1
                        pre = engine.submit(request)
                    acked.add(request.job_id)
                    if pre is not None:
                        deliver(pre)
                engine.run()
            except SimulatedCrash:
                report.restarts += 1
                continue
            for job_id, result in engine.results.items():
                if job_id in acked:
                    deliver(result)
            engine.close()
            break

    report.faults_fired = [
        f"{spec.point}:{spec.action}@{spec.hit}" for spec in controller.fired
    ]
    report.jobs_acked = len(acked)
    report.jobs_completed = deliveries.completed
    report.jobs_recovered_finished = sum(
        1
        for job_id, result in engine.results.items()
        if result.recovered and job_id in acked
    )
    deliveries.check_acked(acked)
    report.journal_records, _ = check_journals(
        {"journal": journal_dir}, report.violations
    )
    return report
