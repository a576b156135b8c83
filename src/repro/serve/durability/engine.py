"""The durable serving engine: the one owner of a job's lifecycle.

It owns the request queue, :attr:`results` and the outbox, recovery,
submit dedup and every journal edge.  Two drivers run it: the
sequential :meth:`step` (shards, the chaos runner, the benchmarks) and
the asyncio :class:`~repro.serve.service.FabricJobService`, which adds
only timeouts, backoff, admission and breakers around the same edges.

* Construction **is** recovery: the journal is folded, finished jobs
  become recorded results, unfinished jobs are requeued oldest-first
  (jobs with a verified epoch checkpoint carry resume fields).
* :meth:`submit` acknowledges a job only after its SUBMITTED record is
  framed into the journal (an injected ``OSError`` propagates, so the
  caller knows the job was *not* acknowledged); a finished or queued
  job id is answered without a journal append or a second run.
* :meth:`mark_dispatched`, :meth:`mark_retry`, :meth:`progress_hook`,
  :meth:`finish`, :meth:`finish_expired` and :meth:`mark_moved` are the
  other edges.  What a failed attempt becomes is each driver's policy.
* A finished result waits in the outbox until :meth:`ack` (a shard's
  reader acks over the wire, the service as it resolves a future), then
  decays to what a restart rebuilds from its DONE record.

The chaos runner (:mod:`repro.cluster.harness`) drives it through a
shard, strictly sequential and in simulated fabric time: a
:class:`~repro.chaos.crashpoints.SimulatedCrash` unwinds out of it, and
a **new** engine over the same directory replays the journal the way a
restarted service does.  One instance is one
process incarnation; ``journal_dir=None`` means no journal, no recovery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.chaos.crashpoints import crashpoint, register_crashpoint
from repro.errors import JobCancelled, ServeError
from repro.serve.durability.journal import FsyncPolicy, JobJournal, ScanReport
from repro.serve.durability.records import encode_request
from repro.serve.durability.recovery import JobReplay, replay
from repro.serve.durability.resume import checkpoint_dir, write_checkpoint
from repro.serve.jobs import JobRequest, JobResult, JobStatus
from repro.serve.pool import FabricPool
from repro.serve.sessions import (
    CancelToken,
    SessionFactory,
    default_session_factory,
)

__all__ = ["DurableEngine", "EngineReport"]

#: Visited before each batched lane's DONE record is journaled.  A crash
#: here leaves earlier lanes finished-on-journal and later lanes
#: dispatched-but-unfinished — recovery must requeue exactly the
#: unfinished ones (the batch crash-matrix case).
BATCH_LANE_DONE = register_crashpoint("serve.batch.lane.done")


def done_body(result: JobResult) -> dict:
    """The DONE record of ``result``, the same from every driver: a
    completed job records its placement and simulated cost, any other
    terminal status its error."""
    body = {
        "status": result.status.value,
        "worker": result.worker_id,
        "attempts": result.attempts,
    }
    if result.status is JobStatus.DONE:
        body.update(
            warm=result.warm,
            sim_ns=result.sim_ns,
            reconfig_ns=result.reconfig_ns,
        )
    else:
        body["error"] = result.error
    return body


@dataclass
class EngineReport:
    """What one engine incarnation did (all counts deterministic)."""

    completed: int = 0
    failed: int = 0
    retries: int = 0
    #: Jobs whose deadline lapsed before (or between) dispatches; they
    #: terminate with a journaled TIMEOUT and never touch a fabric.
    expired: int = 0
    #: Finished jobs reconstructed from the journal at start.
    recovered_finished: int = 0
    #: Unfinished jobs requeued from the journal (from scratch).
    recovered_requeued: int = 0
    #: Requeued jobs that carried a verified resume checkpoint.
    recovered_resumed: int = 0
    #: Epoch slices skipped across all resumed jobs.
    resumed_slices: int = 0
    #: Simulated fabric time / reconfiguration time of completed jobs.
    sim_ns: float = 0.0
    reconfig_ns: float = 0.0
    #: Journal-scan corruption observed during recovery.
    corrupt_lines_dropped: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class DurableEngine:
    """One incarnation of a durable, sequential serving engine.

    Parameters
    ----------
    journal_dir:
        Journal directory (shared across incarnations; recovery reads
        whatever the previous incarnation managed to get to disk), or
        ``None`` for no journal and no recovery.
    pool_size / session_factory:
        The fabric pool under the engine (defaults to one fabric — the
        chaos matrix wants minimal nondeterminism surface).
    fsync:
        Journal fsync policy; chaos runs use ``NEVER`` (tmpfs speed) —
        the *torn-write* model, not the page-cache model, is what the
        harness exercises.
    checkpoint_every_slices:
        Epoch-progress journaling cadence (0 disables; every job then
        restarts from scratch after a crash).
    max_batch:
        When > 1, :meth:`step` coalesces up to this many queued jobs
        with the head's ``config_key`` into one vector-batched dispatch
        (:meth:`FabricWorker.execute_batch`).  Every lane keeps its own
        journal lifecycle — per-lane DISPATCHED before execution,
        per-lane DONE after — so a crash mid-finalize requeues exactly
        the lanes whose DONE record never hit the disk.  Jobs resuming
        from a checkpoint are never coalesced.
    lock:
        Whether the journal takes its ``flock``; chaos incarnations live
        in one process and "die" without cleanup, so they run unlocked.
    clock:
        Monotonic time source for deadline checks.  Only consulted for
        jobs that actually carry a ``deadline_s``, so deterministic
        chaos scenarios (which never set one) stay clock-free; tests
        inject a fake to fire expiry deterministically.
    """

    def __init__(
        self,
        journal_dir: Path | str | None,
        *,
        pool_size: int = 1,
        session_factory: SessionFactory = default_session_factory,
        fsync: FsyncPolicy | str = FsyncPolicy.NEVER,
        checkpoint_every_slices: int = 0,
        max_batch: int = 1,
        segment_records: int = 1024,
        lock: bool = False,
        lock_timeout_s: float | None = None,
        breaker_factory=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.journal: JobJournal | None = None
        if journal_dir is not None:
            self.journal = JobJournal(
                journal_dir,
                segment_records=segment_records,
                fsync=fsync,
                lock=lock,
                lock_timeout_s=lock_timeout_s,
            )
        self.pool = FabricPool(
            pool_size, session_factory, breaker_factory=breaker_factory
        )
        self.checkpoint_every_slices = checkpoint_every_slices
        self.max_batch = max_batch
        self.clock = clock
        #: Job ids a failed batch demoted to the scalar path for good.
        self._no_batch: set[str] = set()
        self.report = EngineReport()
        self.results: dict[str, JobResult] = {}
        #: Results finished in this incarnation and not yet acknowledged,
        #: in finish order.
        self._outbox: dict[str, JobResult] = {}
        self.queue: list[JobRequest] = []
        # -- recovery: construction replays the previous incarnation ---
        if self.journal is None:
            self.scan_report = ScanReport()
            return
        records, self.scan_report = self.journal.scan()
        self.report.corrupt_lines_dropped = self.scan_report.dropped
        state = replay(records)
        for job in state.finished_jobs():
            self.results[job.job_id] = job.recorded_result()
            self.report.recovered_finished += 1
        for request in state.recovered_requests():
            self.queue.append(request)
            if request.resume_slice:
                self.report.recovered_resumed += 1
            else:
                self.report.recovered_requeued += 1

    # ------------------------------------------------------------------
    # submission (the write-ahead acknowledgment edge)
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> JobResult | None:
        """Acknowledge one job; returns its recorded result when the
        journal already holds a terminal record for this job id (result
        dedup across restarts), else ``None`` (queued).

        The SUBMITTED record hits the journal *before* this returns —
        if an injected ``OSError`` (or a crash) interrupts the append,
        the caller never saw an acknowledgment and the no-lost-job
        invariant does not cover the request.
        """
        if request.job_id in self.results:
            return self.results[request.job_id]
        if any(q.job_id == request.job_id for q in self.queue):
            return None  # already queued (by recovery or a submit)
        if self.journal is not None:
            self.journal.submitted(request.job_id, encode_request(request))
        self.queue.append(request)
        return None

    def mark_moved(self, job_id: str, data: dict) -> JobRequest:
        """Transfer ownership of a *queued* job out of this engine.

        Journals the MOVED record (so this journal's replay stops
        covering the job) and removes the job from the queue, returning
        the request for the new owner to submit.  Only queued jobs can
        move — a dispatched job's fabric is already running it, and a
        finished job's result must stay servable here.
        """
        index = self._queued_index(job_id, "mark_moved")
        if self.journal is not None:
            self.journal.moved(job_id, data)
        return self.queue.pop(index)

    def _queued_index(self, job_id: str, op: str) -> int:
        for i, request in enumerate(self.queue):
            if request.job_id == job_id:
                return i
        raise ServeError(f"{op}: job {job_id!r} is not queued here")

    # ------------------------------------------------------------------
    # the attempt edges
    # ------------------------------------------------------------------

    def mark_dispatched(
        self, job_id: str, worker_id: str, attempt: int, **extra
    ) -> None:
        """Journal one attempt's DISPATCHED record."""
        if self.journal is not None:
            self.journal.dispatched(
                job_id, {"worker": worker_id, "attempt": attempt, **extra}
            )

    def mark_retry(
        self, job_id: str, attempt: int, error: str, **extra
    ) -> None:
        """Journal a failed attempt that will run again (RETRY)."""
        if self.journal is not None:
            self.journal.retry(
                job_id, {"attempt": attempt, "error": error, **extra}
            )
        self.report.retries += 1

    def progress_hook(self, request: JobRequest):
        """The per-slice checkpoint hook for one job, or ``None`` (no
        journal, or epoch journaling disabled).

        Every ``checkpoint_every_slices`` slices it writes a fabric
        checkpoint sidecar and journals an EPOCH_PROGRESS record
        pointing at it.  It may run on an executor thread; the journal
        append is thread-safe.
        """
        if self.journal is None or self.checkpoint_every_slices <= 0:
            return None
        every = self.checkpoint_every_slices
        directory = checkpoint_dir(self.journal.directory)
        job_id = request.job_id
        journal = self.journal

        def hook(slice_index: int, rtms) -> None:
            if slice_index % every != 0:
                return
            path, crc = write_checkpoint(directory, job_id, slice_index, rtms)
            journal.epoch_progress(
                job_id,
                {"slice": slice_index, "checkpoint": path, "crc": crc},
            )

        return hook

    # ------------------------------------------------------------------
    # the terminal edge and the outbox
    # ------------------------------------------------------------------

    def finish(self, result: JobResult) -> JobResult:
        """Journal ``result``'s DONE record (:func:`done_body`), then
        publish it: it joins :attr:`results` and waits in the outbox for
        its :meth:`ack`."""
        if self.journal is not None:
            self.journal.done(result.job_id, done_body(result))
        self.results[result.job_id] = result
        self._outbox[result.job_id] = result
        report = self.report
        if result.status is JobStatus.DONE:
            report.completed += 1
            report.resumed_slices += result.resumed_slices
            report.sim_ns += result.sim_ns
            report.reconfig_ns += result.reconfig_ns
        else:
            report.failed += 1
        return result

    def unacked(self) -> list[JobResult]:
        """Every result finished here that no :meth:`ack` has covered,
        oldest first — what a reader that may have missed a reply must
        be sent again."""
        return list(self._outbox.values())

    def ack(self, job_ids) -> None:
        """The reader holds these results; stop keeping them whole.

        Each decays to the entry :func:`replay` would rebuild from its
        DONE record (no output, ``recovered=True``), so a resubmit is
        answered the same way whether or not the process restarted in
        between.  Ids that are unknown or already acknowledged are
        ignored, which is what makes a repeated ack harmless.
        """
        for job_id in job_ids:
            result = self._outbox.pop(job_id, None)
            if result is not None:
                self.results[job_id] = JobReplay(
                    job_id, done=done_body(result)
                ).recorded_result()

    # ------------------------------------------------------------------
    # deadline expiry
    # ------------------------------------------------------------------

    def finish_expired(
        self,
        request: JobRequest,
        where: str,
        *,
        worker_id: str = "",
        attempts: int = 0,
    ) -> JobResult:
        """Terminate ``request`` as TIMEOUT without (further) execution.

        The DONE record makes the expiry durable: a restart serves the
        timeout result instead of requeueing a job whose client stopped
        waiting long ago.
        """
        error = f"deadline expired {where}"
        result = self.finish(
            JobResult(
                job_id=request.job_id,
                status=JobStatus.TIMEOUT,
                error=error,
                worker_id=worker_id,
                attempts=attempts,
            )
        )
        self.report.expired += 1
        return result

    def expire(self, job_id: str, *, where: str = "in queue") -> JobResult:
        """Expire a *queued* job in place (the drain path's fast reject:
        a dead-on-arrival job is failed here, not migrated)."""
        request = self.queue.pop(self._queued_index(job_id, "expire"))
        return self.finish_expired(request, where)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _select_worker(self, request: JobRequest):
        candidates = self.pool.available_workers()
        if not candidates:
            raise ServeError("every fabric is out of rotation")
        return min(
            candidates,
            # Equal cold costs go to a fabric with nothing resident:
            # evicting a warm plan while another fabric sits empty
            # turns every later job of that plan cold as well.
            key=lambda w: (
                w.switch_cost_ns(request.spec),
                w.resident_key is not None,
                w.id,
            ),
        )

    def _coalesce_partners(self, head: JobRequest) -> list[JobRequest]:
        """Pop queued jobs batchable with ``head`` (same ``config_key``,
        running from scratch), oldest first, up to ``max_batch`` lanes."""
        if (
            self.max_batch < 2
            or head.resume_slice
            or head.job_id in self._no_batch
        ):
            return []
        key = head.spec.config_key
        indices = [
            i
            for i, r in enumerate(self.queue)
            if r.spec.config_key == key
            and not r.resume_slice
            and r.job_id not in self._no_batch
        ][: self.max_batch - 1]
        partners = [self.queue[i] for i in indices]
        for i in reversed(indices):
            self.queue.pop(i)
        return partners

    def _step_batch(
        self, head: JobRequest, partners: list[JobRequest]
    ) -> JobResult | None:
        """One vector-batched dispatch of ``[head] + partners``.

        Returns the head's result on success.  On a batch execution
        failure every lane gets a RETRY record and is demoted to the
        scalar path: partners go back to the queue front (in order) and
        ``None`` is returned so :meth:`step` runs the head scalar — no
        attempt is burned, mirroring the fabric-failed free retry.
        """
        group = [head] + partners
        worker = self._select_worker(head)
        for lane, request in enumerate(group):
            self.mark_dispatched(
                request.job_id, worker.id, 1, batch=len(group), lane=lane
            )
        try:
            runs = worker.execute_batch(group, CancelToken())
        except JobCancelled:
            raise
        except Exception as exc:
            error = f"batched attempt: {exc!r}"
            for request in group:
                self._no_batch.add(request.job_id)
                self.mark_retry(request.job_id, 1, error)
            self.queue[:0] = partners
            return None
        head_result: JobResult | None = None
        for request, run in zip(group, runs):
            # A crash between lanes leaves this lane (and the rest)
            # dispatched-but-unfinished; recovery requeues exactly them.
            crashpoint(BATCH_LANE_DONE)
            result = JobResult(
                job_id=request.job_id,
                status=JobStatus.DONE,
                output=run.stats.output,
                worker_id=worker.id,
                attempts=1,
                warm=run.warm,
                sim_ns=run.stats.sim_ns,
                reconfig_ns=run.stats.reconfig_ns,
                reconfig_saved_ns=run.reconfig_saved_ns,
            )
            self.finish(result)
            if head_result is None:
                head_result = result
        return head_result

    def step(self) -> JobResult:
        """Run the queue's oldest job to a terminal state.

        With ``max_batch > 1`` the head may pull same-configuration
        queue mates along as batch lanes; their results land in
        :attr:`results` in the same step."""
        if not self.queue:
            raise ServeError("step() on an empty queue")
        request = self.queue.pop(0)
        if request.expired(self.clock()):
            return self.finish_expired(request, "before dispatch")
        partners = self._coalesce_partners(request)
        if partners:
            result = self._step_batch(request, partners)
            if result is not None:
                return result
            # fall through: batch degraded, head runs scalar below
        worker = self._select_worker(request)
        progress = self.progress_hook(request)
        attempts = 0
        last_error = ""
        while True:
            attempts += 1
            self.mark_dispatched(request.job_id, worker.id, attempts)
            try:
                run = worker.execute(request, CancelToken(), progress)
            except JobCancelled:
                raise  # the engine never cancels; a test driving it may
            except Exception as exc:
                last_error = f"attempt {attempts}: {exc!r}"
                if not worker.available:
                    remaining = self.pool.available_workers()
                    if remaining:
                        worker = self._select_worker(request)
                        continue  # fabric failed, not the job: free retry
                if attempts > request.max_retries:
                    return self.finish(
                        JobResult(
                            job_id=request.job_id,
                            status=JobStatus.FAILED,
                            error=last_error,
                            worker_id=worker.id,
                            attempts=attempts,
                        )
                    )
                if request.expired(self.clock()):
                    return self.finish_expired(
                        request,
                        "between retries",
                        worker_id=worker.id,
                        attempts=attempts,
                    )
                self.mark_retry(request.job_id, attempts, last_error)
                continue
            return self.finish(
                JobResult(
                    job_id=request.job_id,
                    status=JobStatus.DONE,
                    output=run.stats.output,
                    worker_id=worker.id,
                    attempts=attempts,
                    warm=run.warm,
                    sim_ns=run.stats.sim_ns,
                    reconfig_ns=run.stats.reconfig_ns,
                    reconfig_saved_ns=run.reconfig_saved_ns,
                    resumed_slices=run.resumed_slices,
                )
            )

    def run(self) -> EngineReport:
        """Drain the queue (recovered jobs first, submit order after)."""
        while self.queue:
            self.step()
        return self.report

    def close(self) -> None:
        """Clean shutdown of this incarnation (crashed ones never call
        this — that is the point)."""
        if self.journal is not None:
            self.journal.close()
