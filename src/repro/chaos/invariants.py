"""The serving oracle, stated once for every chaos runner.

A runner drives a fault plan against one serving shape — a single
durable engine (:mod:`repro.chaos.harness`) or a sharded cluster over
either shard transport (:mod:`repro.cluster.harness`) — and checks what
its clients were told and what its journals hold against the rules
here:

* **bit-identical outputs** — every executed DONE output equals the
  fault-free single-engine baseline of the same trace;
* **no conflicting client result** — no job is delivered two different
  terminal statuses;
* **no acknowledged job lost** — every acked job reaches a delivery;
* **per journal**: at most one DONE record per job, and replay is
  idempotent;
* **no job moved into the void** — every MOVED job is SUBMITTED or DONE
  in some other journal (a rejoin's compaction keeps only the DONE
  record of a finished job, by design).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

import numpy as np

from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.records import RecordType
from repro.serve.durability.recovery import replay
from repro.serve.jobs import JobRequest, JobResult, JobStatus

__all__ = ["Deliveries", "baseline_outputs", "check_journals", "outputs_equal"]


def outputs_equal(a, b) -> bool:
    if isinstance(a, bytes) or isinstance(b, bytes):
        return a == b
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


def baseline_outputs(
    requests: list[JobRequest], directory: Path, *, pool_size: int = 1
) -> dict[str, object]:
    """Run ``requests`` fault-free on one engine; the DONE outputs."""
    engine = DurableEngine(directory, pool_size=pool_size)
    for request in requests:
        engine.submit(request)
    engine.run()
    outputs = {
        job_id: result.output
        for job_id, result in engine.results.items()
        if result.status is JobStatus.DONE
    }
    engine.close()
    return outputs


class Deliveries:
    """What the clients of one run were told, checked as it is told."""

    def __init__(self, baseline: dict[str, object], violations: list[str]):
        self.baseline = baseline
        self.violations = violations
        self.status: dict[str, JobStatus] = {}
        #: The first executed (not recovered) DONE output of each job.
        self.outputs: dict[str, object] = {}

    def deliver(self, result: JobResult) -> bool:
        """Record one delivery; True when it carries an executed output."""
        job_id = result.job_id
        prior = self.status.get(job_id)
        if prior is not None and prior is not result.status:
            self.violations.append(
                f"{job_id}: delivered {prior.value} then "
                f"{result.status.value} (conflicting client results)"
            )
        self.status[job_id] = result.status
        if result.status is not JobStatus.DONE or result.recovered:
            return False
        want = self.baseline.get(job_id)
        if want is not None and not outputs_equal(result.output, want):
            self.violations.append(
                f"{job_id}: output differs from fault-free baseline"
            )
        self.outputs.setdefault(job_id, result.output)
        return True

    @property
    def completed(self) -> int:
        return sum(s is JobStatus.DONE for s in self.status.values())

    def check_acked(self, acked: set[str]) -> None:
        for job_id in sorted(acked - set(self.status)):
            self.violations.append(f"{job_id}: acknowledged but lost")

    def digest(self) -> str:
        """SHA-256 over the executed outputs in job-id order (equal runs
        on different transports must agree on it)."""
        sha = hashlib.sha256()
        for job_id in sorted(self.outputs):
            sha.update(job_id.encode())
            sha.update(np.asarray(self.outputs[job_id]).tobytes())
        return sha.hexdigest()


def _fold(state) -> dict:
    return {
        j.job_id: (
            j.finished, j.moved is None, j.progress_slice, j.dispatches,
            j.retries,
        )
        for j in state.jobs.values()
    }


def check_journals(
    directories: dict[str, Path], violations: list[str]
) -> tuple[int, int]:
    """Fold every journal (by owner name) against the per-journal rules
    and the MOVED rule; returns (records scanned, jobs DONE in more than
    one journal — legal inside a steal/drain crash window, where
    first-wins delivery absorbs the second execution)."""
    scanned = 0
    held: dict[str, set[str]] = {}
    done_in = Counter()
    moved: list[tuple[str, str]] = []
    for name, directory in directories.items():
        if not directory.exists():
            continue
        journal = JobJournal(directory, fsync=FsyncPolicy.NEVER, lock=False)
        records, scan = journal.scan()
        journal.close()
        scanned += scan.records
        held[name] = {
            r.job_id
            for r in records
            if r.type in (RecordType.SUBMITTED, RecordType.DONE)
        }
        moved += [
            (name, r.job_id) for r in records if r.type is RecordType.MOVED
        ]
        done = Counter(r.job_id for r in records if r.type is RecordType.DONE)
        for job_id, count in sorted(done.items()):
            if count > 1:
                violations.append(
                    f"{name}/{job_id}: {count} DONE records in one journal"
                )
        done_in.update(done.keys())
        if _fold(replay(records)) != _fold(replay(records)):
            violations.append(f"{name}: journal replay not idempotent")
    for name, job_id in moved:
        others = (ids for other, ids in held.items() if other != name)
        if not any(job_id in ids for ids in others):
            violations.append(
                f"{name}/{job_id}: MOVED but neither SUBMITTED nor DONE "
                f"anywhere else"
            )
    return scanned, sum(count > 1 for count in done_in.values())
