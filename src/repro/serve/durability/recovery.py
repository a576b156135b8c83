"""Replay a scanned journal into per-job recovery state.

Replay is a fold over the record stream — **idempotent** (replaying the
same records twice, or a journal whose compaction crashed halfway and
left duplicates, produces the same state) and **monotone** (a DONE
record wins over anything; progress records only ever advance the
resume slice).

The resulting :class:`RecoveryState` answers the three restart
questions:

* which jobs already finished (serve their recorded result, never
  re-execute — the no-duplicate-result invariant);
* which jobs were acknowledged but not finished (requeue them — the
  no-lost-job invariant);
* where can a requeued FFT job resume from (the newest EPOCH_PROGRESS
  record whose checkpoint file still exists and passes its CRC;
  anything less trustworthy falls back to running from scratch, which
  is always safe).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serve.durability.records import (
    JournalRecord,
    RecordType,
    decode_request,
)
from repro.serve.jobs import JobRequest, JobResult, JobStatus

__all__ = ["JobReplay", "RecoveryState", "replay"]


@dataclass
class JobReplay:
    """Everything the journal knows about one job."""

    job_id: str
    submitted: dict[str, Any] | None = None
    dispatches: int = 0
    retries: int = 0
    last_worker: str = ""
    #: Newest journaled epoch progress (slices completed).
    progress_slice: int = 0
    checkpoint_path: str = ""
    checkpoint_crc: int = 0
    #: Terminal DONE body (None while unfinished).
    done: dict[str, Any] | None = None
    #: MOVED body (None while owned here).  A moved job belongs to the
    #: destination shard's journal: replay must not requeue it.
    moved: dict[str, Any] | None = None

    @property
    def finished(self) -> bool:
        return self.done is not None

    @property
    def resumable(self) -> bool:
        return bool(self.checkpoint_path) and self.progress_slice > 0

    def recorded_result(self) -> JobResult:
        """The result a restart serves for this finished job: what its
        DONE record holds, which is everything but the output."""
        done = self.done or {}
        try:
            status = JobStatus(done.get("status", "done"))
        except ValueError:
            status = JobStatus.FAILED
        return JobResult(
            job_id=self.job_id,
            status=status,
            error=str(done.get("error", "")),
            worker_id=str(done.get("worker", "")),
            attempts=int(done.get("attempts", 0)),
            warm=bool(done.get("warm", False)),
            sim_ns=float(done.get("sim_ns", 0.0)),
            reconfig_ns=float(done.get("reconfig_ns", 0.0)),
            recovered=True,
        )

    def apply(self, record: JournalRecord) -> None:
        """Fold one record in (idempotent, order-tolerant via seq sort)."""
        if record.type is RecordType.SUBMITTED:
            if self.submitted is None:
                self.submitted = record.data
            elif self.moved is not None:
                # Re-adoption: a job stolen or drained away can bounce
                # *back* (steal here -> drain returns it).  The fresher
                # SUBMITTED supersedes the older MOVED — ownership came
                # home, and replay must requeue it or both journals
                # would disown the job.
                self.submitted = record.data
                self.moved = None
        elif record.type is RecordType.DISPATCHED:
            self.dispatches += 1
            self.last_worker = str(record.data.get("worker", ""))
        elif record.type is RecordType.RETRY:
            self.retries += 1
        elif record.type is RecordType.EPOCH_PROGRESS:
            slice_index = int(record.data.get("slice", 0))
            if slice_index >= self.progress_slice:
                self.progress_slice = slice_index
                self.checkpoint_path = str(record.data.get("checkpoint", ""))
                self.checkpoint_crc = int(record.data.get("crc", 0))
        elif record.type is RecordType.DONE:
            if self.done is None:
                self.done = record.data
        elif record.type is RecordType.MOVED:
            if self.moved is None:
                self.moved = record.data


@dataclass
class RecoveryState:
    """The fold result over a whole journal."""

    jobs: dict[str, JobReplay] = field(default_factory=dict)
    records_replayed: int = 0

    def finished_jobs(self) -> list[JobReplay]:
        return [j for j in self.jobs.values() if j.finished]

    def unfinished_jobs(self) -> list[JobReplay]:
        """Acknowledged-but-unfinished jobs, oldest first (stable).

        Jobs with a MOVED record are excluded: a steal or handoff
        transferred their ownership to another shard's journal, and
        requeueing them here would duplicate execution.
        """
        return [
            j
            for j in self.jobs.values()
            if not j.finished and j.submitted is not None and j.moved is None
        ]

    def recovered_requests(self) -> list[JobRequest]:
        """Requeue-ready :class:`JobRequest` s for every unfinished job.

        Jobs with a *verified* checkpoint (file present, CRC32 of
        its bytes matches the journaled value) carry resume fields; any
        doubt — missing file, corrupt bytes — silently downgrades to a
        from-scratch run, which is correct (just slower).
        """
        requests = []
        for job in self.unfinished_jobs():
            assert job.submitted is not None
            request = decode_request(job.job_id, job.submitted)
            if job.resumable:
                path = Path(job.checkpoint_path)
                if path.is_file():
                    blob = path.read_bytes()
                    if (zlib.crc32(blob) & 0xFFFFFFFF) == job.checkpoint_crc:
                        request.resume_slice = job.progress_slice
                        request.checkpoint_path = job.checkpoint_path
                        request.checkpoint_crc = job.checkpoint_crc
            requests.append(request)
        return requests


def replay(records: list[JournalRecord]) -> RecoveryState:
    """Fold ``records`` (as returned by :meth:`JobJournal.scan`).

    Records are deduplicated by ``seq`` before folding: a compaction
    that crashed between writing the survivor segment and unlinking the
    old ones leaves every survivor twice, and replay must not count a
    dispatch (or anything else) double for it.
    """
    state = RecoveryState()
    seen: set[int] = set()
    for record in sorted(records, key=lambda r: r.seq):
        if record.seq in seen:
            continue
        seen.add(record.seq)
        job = state.jobs.get(record.job_id)
        if job is None:
            job = state.jobs[record.job_id] = JobReplay(record.job_id)
        job.apply(record)
        state.records_replayed += 1
    return state
