"""A synchronous, deterministic durable serving engine.

The asyncio :class:`~repro.serve.service.FabricJobService` is the
production wiring, but wall clocks, thread pools and event-loop
scheduling make it a poor *subject* for crash testing: a kill lands at a
nondeterministic instruction.  The chaos harness therefore drives this
engine instead — same journal, same records, same recovery fold, same
:class:`~repro.serve.pool.FabricWorker` execution path, but strictly
sequential and entirely in simulated fabric time.  A
:class:`~repro.chaos.crashpoints.SimulatedCrash` raised at any armed
crash point unwinds straight out of :meth:`run`; the harness then builds
a **new** engine over the same journal directory, which replays the
journal exactly the way a restarted service process would.

One engine instance is one process incarnation:

* construction **is** recovery — the journal is scanned and folded,
  finished jobs become recorded results (served on resubmit, never
  re-executed), unfinished jobs are requeued oldest-first, and FFT jobs
  with a verified epoch checkpoint carry resume fields;
* :meth:`submit` acknowledges a job only after its SUBMITTED record is
  framed into the journal (the write-ahead contract; an injected
  ``OSError`` propagates to the caller, which therefore knows the job
  was *not* acknowledged);
* :meth:`run` drains the queue one job at a time with the same
  dispatch/retry/done journaling the service performs;
* every result finished here is *unacknowledged* until :meth:`ack`
  (the outbox a shard transport drains: :meth:`unacked` re-sends until
  the reader says it has them), and an acknowledged result decays to
  exactly what a restart would rebuild from its DONE record — a shard
  remembers after ack what it would remember after a crash.  An engine
  nobody acks keeps every result whole.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.chaos.crashpoints import crashpoint, register_crashpoint
from repro.errors import JobCancelled, ServeError
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.records import encode_request
from repro.serve.durability.recovery import replay
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
        whatever the previous incarnation managed to get to disk).
    pool_size / session_factory:
        The fabric pool under the engine (defaults to one fabric — the
        chaos matrix wants minimal nondeterminism surface).
    fsync:
        Journal fsync policy; chaos runs use ``NEVER`` (tmpfs speed) —
        the *torn-write* model, not the page-cache model, is what the
        harness exercises.
    checkpoint_every_slices:
        Epoch-progress journaling cadence (0 disables; FFT jobs then
        always restart from scratch after a crash).
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
        journal_dir: Path | str,
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
            return None  # already requeued by recovery
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
        for i, request in enumerate(self.queue):
            if request.job_id == job_id:
                self.journal.moved(job_id, data)
                return self.queue.pop(i)
        raise ServeError(f"mark_moved: job {job_id!r} is not queued here")

    # ------------------------------------------------------------------
    # the terminal edge and the outbox
    # ------------------------------------------------------------------

    def _finish(self, result: JobResult, **body) -> JobResult:
        """Journal the DONE record, then publish ``result``: it joins
        :attr:`results` and waits in the outbox for its :meth:`ack`."""
        self.journal.done(
            result.job_id, {"status": result.status.value, **body}
        )
        self.results[result.job_id] = result
        self._outbox[result.job_id] = result
        return result

    def _finish_done(self, result: JobResult) -> None:
        self._finish(
            result,
            worker=result.worker_id,
            attempts=result.attempts,
            warm=result.warm,
            sim_ns=result.sim_ns,
            reconfig_ns=result.reconfig_ns,
        )
        self.report.completed += 1

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
                self.results[job_id] = JobResult(
                    job_id=job_id,
                    status=result.status,
                    error=result.error,
                    worker_id=result.worker_id,
                    attempts=result.attempts,
                    warm=result.warm,
                    sim_ns=float(result.sim_ns),
                    reconfig_ns=float(result.reconfig_ns),
                    recovered=True,
                )

    # ------------------------------------------------------------------
    # deadline expiry
    # ------------------------------------------------------------------

    def _finish_expired(
        self, request: JobRequest, *, where: str, attempts: int = 0
    ) -> JobResult:
        """Terminate ``request`` as TIMEOUT without (further) execution.

        The DONE record makes the expiry durable: a restart serves the
        timeout result instead of requeueing a job whose client stopped
        waiting long ago.
        """
        error = f"deadline expired {where}"
        result = self._finish(
            JobResult(
                job_id=request.job_id,
                status=JobStatus.TIMEOUT,
                error=error,
                attempts=attempts,
            ),
            error=error,
            attempts=attempts,
        )
        self.report.expired += 1
        self.report.failed += 1
        return result

    def expire(self, job_id: str, *, where: str = "in queue") -> JobResult:
        """Expire a *queued* job in place (the drain path's fast reject:
        a dead-on-arrival job is failed here, not migrated)."""
        for i, request in enumerate(self.queue):
            if request.job_id == job_id:
                self.queue.pop(i)
                return self._finish_expired(request, where=where)
        raise ServeError(f"expire: job {job_id!r} is not queued here")

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

    def _progress_hook(self, request: JobRequest):
        if self.checkpoint_every_slices <= 0:
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
            self.journal.dispatched(
                request.job_id,
                {
                    "worker": worker.id,
                    "attempt": 1,
                    "batch": len(group),
                    "lane": lane,
                },
            )
        try:
            runs = worker.execute_batch(group, CancelToken())
        except JobCancelled:
            raise
        except Exception as exc:
            error = f"batched attempt: {exc!r}"
            for request in group:
                self._no_batch.add(request.job_id)
                self.journal.retry(
                    request.job_id, {"attempt": 1, "error": error}
                )
            self.report.retries += len(group)
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
            self._finish_done(result)
            self.report.sim_ns += run.stats.sim_ns
            self.report.reconfig_ns += run.stats.reconfig_ns
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
            return self._finish_expired(request, where="before dispatch")
        partners = self._coalesce_partners(request)
        if partners:
            result = self._step_batch(request, partners)
            if result is not None:
                return result
            # fall through: batch degraded, head runs scalar below
        worker = self._select_worker(request)
        progress = self._progress_hook(request)
        attempts = 0
        last_error = ""
        while True:
            attempts += 1
            self.journal.dispatched(
                request.job_id, {"worker": worker.id, "attempt": attempts}
            )
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
                    result = JobResult(
                        job_id=request.job_id,
                        status=JobStatus.FAILED,
                        error=last_error,
                        worker_id=worker.id,
                        attempts=attempts,
                    )
                    self._finish(
                        result,
                        error=result.error,
                        worker=worker.id,
                        attempts=attempts,
                    )
                    self.report.failed += 1
                    return result
                if request.expired(self.clock()):
                    return self._finish_expired(
                        request, where="between retries", attempts=attempts
                    )
                self.report.retries += 1
                self.journal.retry(
                    request.job_id,
                    {"attempt": attempts, "error": last_error},
                )
                continue
            result = JobResult(
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
            self._finish_done(result)
            self.report.resumed_slices += run.resumed_slices
            self.report.sim_ns += run.stats.sim_ns
            self.report.reconfig_ns += run.stats.reconfig_ns
            return result

    def run(self) -> EngineReport:
        """Drain the queue (recovered jobs first, submit order after)."""
        while self.queue:
            self.step()
        return self.report

    def close(self) -> None:
        """Clean shutdown of this incarnation (crashed ones never call
        this — that is the point)."""
        self.journal.close()
