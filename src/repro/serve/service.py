"""The asyncio fabric job service: an asyncio shell over DurableEngine.

A job's lifecycle belongs to :class:`~repro.serve.durability.DurableEngine`
(``self.engine``): its request queue, results and outbox, recovery at
construction, submit dedup and every journal edge.  The service adds
only asyncio and QoS work on top: ``submit()`` performs admission
control (bounded queue, drain state, load shedding) and returns a
future keyed by job id; one asyncio worker loop per pool fabric pulls
its next job from the engine's queue through the scheduling policy and
executes it on a thread-pool (the fabric simulator is synchronous CPU
work), with per-attempt wall-clock timeouts, bounded exponential retry
backoff, breaker-budget requeues and cooperative cancellation at epoch
boundaries.  A resolved future acks its result, so the engine's outbox
never keeps outputs for the life of the service.  ``drain()`` stops
admission and waits for the backlog to empty; ``handoff()`` surrenders
it through ``engine.mark_moved``; ``shutdown()`` drains (optionally),
tears the loops down and closes the journal.

Every lifecycle edge feeds the metrics registry::

    serve_jobs_submitted_total{kind}        serve_queue_depth
    serve_jobs_completed_total{kind,status} serve_jobs_rejected_total{reason}
    serve_job_retries_total{kind}           serve_jobs_inflight
    serve_queue_wait_seconds   (histogram)  serve_job_serve_seconds (histogram)
    serve_job_sim_ns_total{kind}            serve_reconfig_ns_total{kind}
    serve_reconfig_saved_ns_total{kind}     serve_warm_jobs_total{kind}
    serve_cold_starts_total{kind}           serve_fabric_busy_ns_total{fabric}
    serve_fabric_jobs_total{fabric}         serve_fabric_utilization{fabric}
    serve_worker_health{fabric}             serve_worker_quarantined_total{fabric}
    serve_worker_readmitted_total{fabric}   serve_jobs_requeued_total{kind}
    serve_journal_records_total{type}       serve_journal_bytes_total
    serve_journal_fsyncs_total              serve_recovered_jobs_total{outcome}
    serve_queue_delay_ewma_seconds          serve_shed_probability
    serve_breaker_state{fabric}             serve_breaker_transitions_total{fabric}
    serve_probe_jobs_total{fabric}

``serve_reconfig_saved_ns_total`` is the serving-level version of the
paper's amortization claim: reconfiguration time that Eq. 1 would have
charged cold but that residency-aware placement avoided.
"""

from __future__ import annotations

import asyncio
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import JobCancelled, JobRejected, ServeError
from repro.serve.breaker import CircuitBreaker
from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy
from repro.serve.jobs import JobRequest, JobResult, JobStatus, RejectReason
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import WorkerRun
from repro.serve.scheduler import AffinityPolicy, SchedulingPolicy
from repro.serve.sessions import CancelToken, SessionFactory, default_session_factory
from repro.serve.shedding import LoadShedder, jittered_retry_after

__all__ = ["FabricJobService", "ServiceStats"]


#: Every metric the service feeds: (attribute, kind, name, help).
_METRICS = (
    ("_m_submitted", "counter", "serve_jobs_submitted_total",
     "Jobs accepted into the queue"),
    ("_m_completed", "counter", "serve_jobs_completed_total",
     "Jobs finished, by terminal status"),
    ("_m_rejected", "counter", "serve_jobs_rejected_total",
     "Jobs turned away by admission control"),
    ("_m_retries", "counter", "serve_job_retries_total",
     "Retry attempts scheduled"),
    ("_m_expired", "counter", "serve_jobs_expired_total",
     "Jobs failed because their end-to-end deadline lapsed"),
    ("_m_queue_depth", "gauge", "serve_queue_depth",
     "Jobs waiting for a fabric"),
    ("_m_inflight", "gauge", "serve_jobs_inflight",
     "Jobs currently executing"),
    ("_m_wait", "histogram", "serve_queue_wait_seconds",
     "Wall time from submit to dispatch"),
    ("_m_serve", "histogram", "serve_job_serve_seconds",
     "Wall time executing (final attempt)"),
    ("_m_sim_ns", "counter", "serve_job_sim_ns_total",
     "Simulated fabric time consumed"),
    ("_m_reconfig_ns", "counter", "serve_reconfig_ns_total",
     "Simulated reconfiguration time (Eq. 1 B)"),
    ("_m_saved_ns", "counter", "serve_reconfig_saved_ns_total",
     "Reconfiguration time avoided by warm placement vs cold baseline"),
    ("_m_warm", "counter", "serve_warm_jobs_total",
     "Jobs served on an already-warm fabric"),
    ("_m_cold", "counter", "serve_cold_starts_total",
     "Jobs that paid a cold configuration"),
    ("_m_fabric_busy", "counter", "serve_fabric_busy_ns_total",
     "Simulated busy time per fabric"),
    ("_m_fabric_jobs", "counter", "serve_fabric_jobs_total",
     "Jobs completed per fabric"),
    ("_m_fabric_util", "gauge", "serve_fabric_utilization",
     "Busy share of each fabric since service start (sim time)"),
    ("_m_quarantined", "counter", "serve_worker_quarantined_total",
     "Worker eject (quarantine) events"),
    ("_m_readmitted", "counter", "serve_worker_readmitted_total",
     "Workers returned to rotation"),
    ("_m_requeued", "counter", "serve_jobs_requeued_total",
     "Jobs pushed back to the queue after their fabric was quarantined"),
    ("_m_health", "gauge", "serve_worker_health",
     "Per-fabric health (0 healthy / 1 degraded / 2 quarantined)"),
    ("_m_journal_records", "counter", "serve_journal_records_total",
     "Journal records appended, by type"),
    ("_m_journal_bytes", "counter", "serve_journal_bytes_total",
     "Framed journal bytes written"),
    ("_m_journal_fsyncs", "counter", "serve_journal_fsyncs_total",
     "Journal fsync calls issued"),
    ("_m_recovered", "counter", "serve_recovered_jobs_total",
     "Jobs reconstructed from the journal at start, by outcome"),
    ("_m_queue_delay_ewma", "gauge", "serve_queue_delay_ewma_seconds",
     "Smoothed submit-to-dispatch delay the shedder tracks"),
    ("_m_shed_probability", "gauge", "serve_shed_probability",
     "Current probability an admission attempt is shed"),
    ("_m_breaker_state", "gauge", "serve_breaker_state",
     "Per-fabric breaker state (0 closed / 1 half-open / 2 open)"),
    ("_m_breaker_transitions", "counter", "serve_breaker_transitions_total",
     "Breaker open+close transitions per fabric"),
    ("_m_probes", "counter", "serve_probe_jobs_total",
     "Half-open probe jobs per fabric"),
)


@dataclass
class _Pending:
    """A queued or running job's waiter (its request is in the engine)."""

    future: asyncio.Future
    enqueued_at: float = field(default_factory=time.monotonic)


@dataclass
class ServiceStats:
    """Cheap point-in-time summary (the demo prints this)."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    queue_depth: int = 0
    inflight: int = 0


class FabricJobService:
    """Multi-tenant job service over a pool of simulated fabrics.

    Parameters
    ----------
    pool_size:
        Number of fabrics (and executor threads — one job per fabric).
    policy:
        Scheduling policy; defaults to reconfiguration-affinity.
    max_queue:
        Admission-control bound; a submit beyond it is rejected
        immediately (callers that prefer backpressure to rejection pass
        ``wait=True`` to :meth:`submit`).
    retry_backoff_s / retry_backoff_cap_s:
        First retry delay and its exponential cap.
    journal:
        Journal directory, or ``None`` (the default) for no durability.
        The service's :class:`~repro.serve.durability.DurableEngine`
        opens it (``fsync="rotate"``, ``flock``-held until
        :meth:`shutdown`) and recovers from it at construction: every
        lifecycle edge is journaled *before* it is acknowledged,
        finished jobs are served from their recorded results (never
        re-executed), unfinished jobs are requeued at :meth:`start` —
        artifact jobs with a verified epoch checkpoint resume mid-job.
    shedder:
        Optional :class:`~repro.serve.shedding.LoadShedder`; when
        present, ``submit`` sheds probabilistically once the queue-delay
        EWMA exceeds its target (rejections carry ``retry_after_s``).
    breaker_factory:
        Optional per-fabric :class:`~repro.serve.breaker.CircuitBreaker`
        factory; tripped breakers sideline a fabric for a cooldown
        without the operator-level quarantine cycle.
    checkpoint_every_slices:
        With a journal: write an EPOCH_PROGRESS record (and a fabric
        checkpoint for resumable sessions) every this-many epoch slices
        (0 disables epoch journaling — only submit/dispatch/done edges
        are durable).
    handoff_retry_after_s:
        Back-off hint stamped on the ``REJECTED(handoff)`` results that
        :meth:`handoff` resolves surrendered futures with — a co-located
        waiter should wait this long before following the job to its
        new shard (which needs a moment to journal/adopt the backlog).
    """

    def __init__(
        self,
        pool_size: int = 2,
        *,
        policy: SchedulingPolicy | None = None,
        max_queue: int = 64,
        session_factory: SessionFactory = default_session_factory,
        metrics: MetricsRegistry | None = None,
        retry_backoff_s: float = 0.05,
        retry_backoff_cap_s: float = 1.0,
        journal: Path | str | None = None,
        shedder: LoadShedder | None = None,
        breaker_factory: Callable[[], CircuitBreaker] | None = None,
        checkpoint_every_slices: int = 0,
        breaker_poll_s: float = 0.05,
        handoff_retry_after_s: float = 0.25,
        retry_jitter: float = 0.5,
    ) -> None:
        if max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {max_queue}")
        if checkpoint_every_slices < 0:
            raise ServeError(
                f"checkpoint_every_slices must be >= 0, "
                f"got {checkpoint_every_slices}"
            )
        self.engine = DurableEngine(
            journal,
            pool_size=pool_size,
            session_factory=session_factory,
            fsync=FsyncPolicy.ROTATE,
            checkpoint_every_slices=checkpoint_every_slices,
            lock=True,
            breaker_factory=breaker_factory,
        )
        self.pool = self.engine.pool
        self.policy = policy if policy is not None else AffinityPolicy()
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        self.shedder = shedder
        self.breaker_poll_s = breaker_poll_s
        self.handoff_retry_after_s = handoff_retry_after_s
        if retry_jitter < 0:
            raise ServeError(f"retry_jitter must be >= 0, got {retry_jitter}")
        self.retry_jitter = retry_jitter
        # Separate RNG for back-off hints: clients rejected in the same
        # burst (handoff, breaker-open) must not herd back in lock-step.
        self._retry_rng = random.Random(0x5EED_1E77)
        #: Futures of jobs the journal requeued at start (job_id -> future).
        self.recovered_futures: dict[str, "asyncio.Future[JobResult]"] = {}
        #: Unresolved futures of queued and running jobs, by job id.
        self._pending: dict[str, _Pending] = {}
        self._queue_changed: asyncio.Condition | None = None
        self._loops: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._running = False
        self._draining = False
        self._handing_off = False
        self._inflight = 0
        self._active_cancels: set[CancelToken] = set()
        self._register_metrics()

    # ------------------------------------------------------------------
    # metrics plumbing
    # ------------------------------------------------------------------

    def _register_metrics(self) -> None:
        for attr, kind, name, help_text in _METRICS:
            setattr(self, attr, getattr(self.metrics, kind)(name, help_text))
        self._seen_quarantines: dict[str, int] = {}
        self._seen_breaker: dict[str, tuple[int, int]] = {}
        self._seen_records: dict[str, int] = {}
        self._seen_journal = (0, 0)  # (bytes_written, fsyncs)

    def _update_health_metrics(self) -> None:
        """Sync the health gauge and quarantine counter to the pool."""
        for member in self.pool:
            self._m_health.set(float(member.health.code), fabric=member.id)
            seen = self._seen_quarantines.get(member.id, 0)
            if member.quarantines > seen:
                self._m_quarantined.inc(
                    member.quarantines - seen, fabric=member.id
                )
                self._seen_quarantines[member.id] = member.quarantines
            if member.breaker is not None:
                breaker = member.breaker
                self._m_breaker_state.set(
                    float(breaker.state.code), fabric=member.id
                )
                transitions = breaker.opens + breaker.closes
                probes = breaker.probes
                seen_t, seen_p = self._seen_breaker.get(member.id, (0, 0))
                if transitions > seen_t:
                    self._m_breaker_transitions.inc(
                        transitions - seen_t, fabric=member.id
                    )
                if probes > seen_p:
                    self._m_probes.inc(probes - seen_p, fabric=member.id)
                self._seen_breaker[member.id] = (transitions, probes)

    def _update_journal_metrics(self) -> None:
        """Sync the journal counters to the engine's journal."""
        journal = self.engine.journal
        if journal is None:
            return
        for kind, count in list(journal.appended_by_type.items()):
            seen = self._seen_records.get(kind, 0)
            if count > seen:
                self._m_journal_records.inc(count - seen, type=kind)
                self._seen_records[kind] = count
        seen_bytes, seen_fsyncs = self._seen_journal
        if journal.bytes_written > seen_bytes:
            self._m_journal_bytes.inc(journal.bytes_written - seen_bytes)
        if journal.fsyncs > seen_fsyncs:
            self._m_journal_fsyncs.inc(journal.fsyncs - seen_fsyncs)
        self._seen_journal = (journal.bytes_written, journal.fsyncs)

    def _resolve(self, job_id: str, result: JobResult) -> None:
        """Hand ``result`` to the job's waiter and ack it to the engine."""
        self._update_journal_metrics()
        pending = self._pending.pop(job_id, None)
        if pending is not None and not pending.future.cancelled():
            pending.future.set_result(result)
        self.engine.ack((job_id,))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    @property
    def draining(self) -> bool:
        return self._draining

    def stats(self) -> ServiceStats:
        return ServiceStats(
            submitted=int(self._m_submitted.total),
            completed=int(self._m_completed.total),
            rejected=int(self._m_rejected.total),
            queue_depth=len(self.engine.queue),
            inflight=self._inflight,
        )

    async def start(self) -> None:
        """Spin up one worker loop per fabric.

        With a journal: the jobs the engine recovered at construction
        get their futures first, so they run (oldest first) before any
        fresh submit lands.
        """
        if self._running:
            raise ServeError("service already started")
        self._queue_changed = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=len(self.pool), thread_name_prefix="fabric"
        )
        self._running = True
        self._draining = False
        report = self.engine.report
        for outcome, count in (
            ("finished", report.recovered_finished),
            ("requeued", report.recovered_requeued),
            ("resumed", report.recovered_resumed),
        ):
            if count:
                self._m_recovered.inc(count, outcome=outcome)
        loop = asyncio.get_running_loop()
        for request in self.engine.queue:
            pending = self._pending[request.job_id] = _Pending(
                loop.create_future()
            )
            self.recovered_futures[request.job_id] = pending.future
            self._m_submitted.inc(kind=request.spec.kind.value)
        self._m_queue_depth.set(len(self.engine.queue))
        self._loops = [
            asyncio.create_task(self._worker_loop(worker), name=worker.id)
            for worker in self.pool
        ]

    async def drain(self) -> None:
        """Stop admitting; wait until the queue and all fabrics are idle."""
        self._draining = True
        assert self._queue_changed is not None
        async with self._queue_changed:
            await self._queue_changed.wait_for(
                lambda: not self.engine.queue and self._inflight == 0
            )

    async def handoff(self) -> list[JobRequest]:
        """Drain-for-migration: surrender the queued backlog instead of
        executing it.

        Stops admission and job pickup, waits for in-flight work to
        finish (a running job is never interrupted — its fabric owns
        it), then returns every still-queued request for a successor
        service/shard to adopt.  Each surrendered job goes through
        ``engine.mark_moved`` (its MOVED record stops this journal's
        replay requeueing it — the successor's SUBMITTED record owns it
        now), then its local future resolves to a ``REJECTED(handoff)``
        result carrying the :attr:`handoff_retry_after_s` back-off hint,
        telling a co-located waiter when to follow the job to its new
        home.

        After handoff the service is drained (empty queue, no inflight)
        and still running; call :meth:`shutdown` to tear it down.
        """
        if not self._running:
            raise ServeError("handoff on a stopped service")
        self._draining = True
        self._handing_off = True
        assert self._queue_changed is not None
        async with self._queue_changed:
            await self._queue_changed.wait_for(lambda: self._inflight == 0)
            surrendered = [
                self.engine.mark_moved(request.job_id, {"reason": "handoff"})
                for request in list(self.engine.queue)
            ]
            for request in surrendered:
                self._resolve(
                    request.job_id,
                    self._rejection(
                        request,
                        RejectReason.HANDOFF,
                        retry_after_s=jittered_retry_after(
                            self.handoff_retry_after_s,
                            self._retry_rng,
                            self.retry_jitter,
                        ),
                    ),
                )
            self._m_queue_depth.set(0)
            self._queue_changed.notify_all()
        return surrendered

    async def shutdown(self, *, drain: bool = True) -> None:
        """Tear the service down (optionally draining first) and close
        the journal."""
        if not self._running:
            return
        if drain:
            await self.drain()
        self._draining = True
        self._running = False
        for token in list(self._active_cancels):
            token.cancel()  # abort in-flight fabric work at the next epoch
        for task in self._loops:
            task.cancel()
        await asyncio.gather(*self._loops, return_exceptions=True)
        self._loops = []
        # Fail whatever was still queued (non-drain shutdown); the
        # journal still holds these jobs, so a restart requeues them.
        for request in self.engine.queue:
            self._resolve(
                request.job_id,
                self._rejection(request, RejectReason.SHUTDOWN),
            )
        self.engine.queue.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.engine.close()

    async def __aenter__(self) -> "FabricJobService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown(drain=not any(exc_info))

    # ------------------------------------------------------------------
    # submission / admission control
    # ------------------------------------------------------------------

    def _rejection(
        self,
        request: JobRequest,
        reason: RejectReason,
        retry_after_s: float = 0.0,
    ) -> JobResult:
        self._m_rejected.inc(reason=reason.value)
        return JobResult(
            job_id=request.job_id,
            status=JobStatus.REJECTED,
            error=f"rejected: {reason.value}",
            retry_after_s=retry_after_s,
        )

    def _reject(
        self,
        reason: RejectReason,
        message: str,
        retry_after_s: float = 0.0,
    ) -> None:
        """Count and raise one admission rejection (reason is the closed
        :class:`RejectReason` vocabulary, never free-form)."""
        self._m_rejected.inc(reason=reason.value)
        raise JobRejected(
            message, reason=reason.value, retry_after_s=retry_after_s
        )

    async def submit(
        self, request: JobRequest, *, wait: bool = False
    ) -> "asyncio.Future[JobResult]":
        """Queue a job; returns a future resolving to its JobResult.

        Admission control, in order: a stopped or draining service
        rejects outright; the load shedder (when configured) rejects
        probabilistically once queue delay runs past its target (the
        raised :class:`~repro.errors.JobRejected` carries a
        ``retry_after_s`` back-off hint); a full queue rejects unless
        ``wait=True``, in which case the caller is backpressured until
        space frees up (or the service starts draining).

        With a journal, the SUBMITTED record is on disk *before* the
        future is returned — that is the write-ahead acknowledgment
        contract.  A job id the service already knows is never run
        again: a queued or running one returns its existing future, a
        finished one (in this life or a journaled earlier one) its
        recorded result, immediately and without a journal append.
        """
        if not self._running or self._draining:
            reason = (
                RejectReason.DRAINING if self._draining else RejectReason.STOPPED
            )
            self._reject(reason, f"service is {reason.value}")
        known = self._known(request.job_id)
        if known is not None:
            return known
        if request.expired(time.monotonic()):
            # Dead on arrival: admitting it would only spend queue space
            # and journal bytes on an answer nobody is waiting for.
            self._reject(
                RejectReason.EXPIRED,
                f"deadline {request.deadline_s:.3f} already lapsed at submit",
            )
        if self.shedder is not None:
            decision = self.shedder.decide(len(self.engine.queue))
            self._m_shed_probability.set(decision.shed_probability)
            if not decision.admit:
                reason = (
                    RejectReason.ADMISSION_CAP
                    if decision.reason == "admission_cap"
                    else RejectReason.SHED
                )
                self._reject(
                    reason,
                    f"overloaded (queue delay EWMA "
                    f"{self.shedder.ewma_s:.3f}s, shed p="
                    f"{decision.shed_probability:.2f})",
                    retry_after_s=decision.retry_after_s,
                )
        assert self._queue_changed is not None
        async with self._queue_changed:
            queue = self.engine.queue
            if len(queue) >= self.max_queue:
                if not wait:
                    self._reject(
                        RejectReason.QUEUE_FULL,
                        f"queue full ({self.max_queue} jobs waiting)",
                    )
                await self._queue_changed.wait_for(
                    lambda: len(queue) < self.max_queue or self._draining
                )
                if self._draining:
                    self._reject(RejectReason.DRAINING, "service is draining")
                known = self._known(request.job_id)
                if known is not None:
                    return known
            self.engine.submit(request)
            pending = self._pending[request.job_id] = _Pending(
                asyncio.get_running_loop().create_future()
            )
            self._update_journal_metrics()
            self._m_submitted.inc(kind=request.spec.kind.value)
            self._m_queue_depth.set(len(queue))
            self._queue_changed.notify_all()
        return pending.future

    def _known(self, job_id: str) -> "asyncio.Future[JobResult] | None":
        """The future of a job id already queued, running or finished."""
        pending = self._pending.get(job_id)
        if pending is not None:
            return pending.future
        recorded = self.engine.results.get(job_id)
        if recorded is None:
            return None
        future = asyncio.get_running_loop().create_future()
        future.set_result(recorded)
        return future

    async def submit_and_wait(
        self, request: JobRequest, *, wait: bool = False
    ) -> JobResult:
        """Submit and await the terminal result.

        Admission rejections come back as structured ``REJECTED``
        results (``error="rejected: <reason>"`` with the shedder's
        ``retry_after_s`` hint) rather than exceptions — convenient for
        fire-hose clients.
        """
        try:
            future = await self.submit(request, wait=wait)
        except JobRejected as exc:
            return JobResult(
                job_id=request.job_id,
                status=JobStatus.REJECTED,
                error=(
                    f"rejected: {exc.reason}" if exc.reason else str(exc)
                ),
                retry_after_s=exc.retry_after_s,
            )
        return await future

    # ------------------------------------------------------------------
    # health operations
    # ------------------------------------------------------------------

    async def eject(self, worker_id: str, reason: str = "operator") -> None:
        """Take a fabric out of rotation (operator action).

        A job currently running on it finishes (or fails) normally; the
        worker loop then idles until :meth:`readmit`.
        """
        self.pool.worker(worker_id).eject(reason)
        self._update_health_metrics()

    async def readmit(self, worker_id: str) -> None:
        """Return a quarantined fabric to rotation (post-repair).

        The next job on it pays a cold start — its session was dropped
        at eject time, modelling the physical scrub/replacement.
        """
        self.pool.worker(worker_id).readmit()
        self._m_readmitted.inc(fabric=worker_id)
        self._update_health_metrics()
        if self._queue_changed is not None:
            async with self._queue_changed:
                self._queue_changed.notify_all()

    # ------------------------------------------------------------------
    # worker loops
    # ------------------------------------------------------------------

    async def _next_job(self, worker) -> tuple[JobRequest, float]:
        """Take ``worker``'s next job off the engine's queue; returns it
        with its enqueue time."""
        assert self._queue_changed is not None
        async with self._queue_changed:
            # A quarantined worker idles here until readmit() notifies.
            # A worker with a breaker must *poll*: an open breaker
            # re-admits by time alone (cooldown elapse), which produces
            # no condition notification.
            # A handoff in progress freezes pickup entirely: the backlog
            # is about to be surrendered, not executed.
            if worker.breaker is None:
                await self._queue_changed.wait_for(
                    lambda: bool(self.engine.queue)
                    and worker.available
                    and not self._handing_off
                )
            else:
                while self._handing_off or not (
                    self.engine.queue and worker.available
                ):
                    try:
                        await asyncio.wait_for(
                            self._queue_changed.wait(),
                            timeout=self.breaker_poll_s,
                        )
                    except asyncio.TimeoutError:
                        pass
            queue = self.engine.queue
            request = queue.pop(self.policy.select(queue, worker))
            self._m_queue_depth.set(len(queue))
            self._inflight += 1
            self._m_inflight.set(self._inflight)
            self._queue_changed.notify_all()
        return request, self._pending[request.job_id].enqueued_at

    async def _worker_loop(self, worker) -> None:
        try:
            while True:
                request, enqueued_at = await self._next_job(worker)
                try:
                    result = await self._run_job(worker, request, enqueued_at)
                except asyncio.CancelledError:
                    self._resolve(
                        request.job_id,
                        self._rejection(request, RejectReason.SHUTDOWN),
                    )
                    raise
                except Exception as exc:  # defensive: never kill the loop
                    result = JobResult(
                        job_id=request.job_id,
                        status=JobStatus.FAILED,
                        error=f"internal: {exc!r}",
                        worker_id=worker.id,
                    )
                # ``None`` means the job was requeued (this fabric was
                # quarantined mid-attempt); its future resolves when a
                # healthy fabric picks it up again.
                if result is not None:
                    self._resolve(request.job_id, result)
                assert self._queue_changed is not None
                async with self._queue_changed:
                    self._inflight -= 1
                    self._m_inflight.set(self._inflight)
                    self._queue_changed.notify_all()
        except asyncio.CancelledError:
            pass

    async def _run_job(
        self, worker, request: JobRequest, enqueued_at: float
    ) -> JobResult | None:
        """Run one job on ``worker``; returns its terminal JobResult,
        already finished on the engine.

        Returns ``None`` when the worker was quarantined mid-job and the
        request was pushed back to the queue front for a healthy fabric
        (the caller must then *not* resolve the future).
        """
        kind = request.spec.kind.value
        dispatch_time = time.monotonic()
        queue_wait = dispatch_time - enqueued_at
        if request.expired(dispatch_time):
            # The deadline lapsed while the job sat in the queue —
            # dispatching now would burn a fabric on a thrown-away
            # answer.  Journaled terminally so replay never revives it.
            return self._expire(request, "in queue", queue_wait=queue_wait)
        self._m_wait.observe(queue_wait)
        if self.shedder is not None:
            self.shedder.observe(queue_wait)
            self._m_queue_delay_ewma.set(self.shedder.ewma_s)
            self._m_shed_probability.set(self.shedder.shed_probability())

        progress = self.engine.progress_hook(request)
        loop = asyncio.get_running_loop()
        assert self._executor is not None
        attempts = 0
        backoff = self.retry_backoff_s
        last_error = ""
        timed_out = False
        while True:
            attempts += 1
            self.engine.mark_dispatched(request.job_id, worker.id, attempts)
            cancel = CancelToken()
            self._active_cancels.add(cancel)
            attempt_start = time.monotonic()
            attempt_timeout = request.timeout_s
            if request.deadline_s > 0:
                # An attempt never gets more wall time than the deadline
                # has left — the job is cancelled at the next epoch edge
                # instead of overshooting by a full timeout_s.
                attempt_timeout = min(
                    attempt_timeout,
                    max(request.deadline_s - attempt_start, 0.001),
                )
            run_future = loop.run_in_executor(
                self._executor, worker.execute, request, cancel, progress
            )
            timed_out = False
            run: WorkerRun | None = None
            try:
                run = await asyncio.wait_for(
                    asyncio.shield(run_future), timeout=attempt_timeout
                )
            except asyncio.TimeoutError:
                timed_out = True
                cancel.cancel()
                try:
                    await run_future  # worker aborts at next epoch boundary
                except Exception:
                    pass
                last_error = (
                    f"attempt {attempts} exceeded {attempt_timeout:.3g}s"
                )
            except JobCancelled:
                timed_out = True
                last_error = f"attempt {attempts} cancelled"
            except Exception as exc:
                last_error = f"attempt {attempts}: {exc!r}"
            finally:
                self._active_cancels.discard(cancel)
            serve_wall = time.monotonic() - attempt_start

            if run is not None:
                self._m_serve.observe(serve_wall)
                self._account_success(worker, request, run)
                self._m_completed.inc(kind=kind, status=JobStatus.DONE.value)
                return self.engine.finish(
                    JobResult(
                        job_id=request.job_id,
                        status=JobStatus.DONE,
                        output=run.stats.output,
                        worker_id=worker.id,
                        attempts=attempts,
                        warm=run.warm,
                        queue_wait_s=queue_wait,
                        serve_s=serve_wall,
                        sim_ns=run.stats.sim_ns,
                        reconfig_ns=run.stats.reconfig_ns,
                        reconfig_saved_ns=run.reconfig_saved_ns,
                        resumed_slices=run.resumed_slices,
                    )
                )
            if not worker.available:
                # The fabric just took itself out of rotation: either it
                # quarantined (repeated failures / unrepairable fault) or
                # its circuit breaker tripped open.  Hand the job to
                # another fabric when the pool can still recover.  A
                # quarantine-requeue is free (the fabric failed, not the
                # job); a breaker-requeue charges the attempts already
                # made against the retry budget, so a poison job cannot
                # ping-pong between fabrics forever.
                self._update_health_metrics()
                if request.expired(time.monotonic()):
                    # Requeueing an expired job just moves the waste to
                    # the next fabric; fail it terminally here.
                    return self._expire(
                        request,
                        "at breaker requeue",
                        worker_id=worker.id,
                        attempts=attempts,
                        queue_wait=queue_wait,
                    )
                breaker_only = worker.breaker_open
                budget_left = request.max_retries - attempts
                if self.pool.recoverable() and (
                    not breaker_only or budget_left >= 0
                ):
                    if breaker_only:
                        request.max_retries = budget_left
                        self.engine.mark_retry(
                            request.job_id,
                            attempts,
                            last_error,
                            breaker=worker.id,
                        )
                    assert self._queue_changed is not None
                    async with self._queue_changed:
                        self.engine.queue.insert(0, request)
                        self._m_requeued.inc(kind=kind)
                        self._m_queue_depth.set(len(self.engine.queue))
                        self._queue_changed.notify_all()
                    return None
                # Every fabric is out of rotation for good (or the
                # breaker-requeue budget is spent): fail fast rather
                # than strand the job (and deadlock drain()).
                retry_hint = 0.0
                if breaker_only:
                    status = (
                        JobStatus.TIMEOUT if timed_out else JobStatus.FAILED
                    )
                    error = (
                        f"{last_error}; worker {worker.id} breaker open "
                        "and retry budget exhausted"
                    )
                    # Breaker-open failures carry a jittered back-off
                    # hint sized to the breaker's cooldown: every client
                    # burned by the same open breaker would otherwise
                    # retry in unison the moment it half-opens.
                    if worker.breaker is not None:
                        retry_hint = jittered_retry_after(
                            worker.breaker.base_cooldown_s,
                            self._retry_rng,
                            self.retry_jitter,
                        )
                else:
                    status = JobStatus.FAILED
                    error = (
                        f"{last_error}; worker {worker.id} quarantined and "
                        "no healthy fabric remains"
                    )
            elif attempts <= request.max_retries:
                if request.expired(time.monotonic()):
                    # No point scheduling another attempt the caller will
                    # never see; ``last_error`` keeps the real failure.
                    return self._expire(
                        request,
                        f"between retries ({last_error})",
                        worker_id=worker.id,
                        attempts=attempts,
                        queue_wait=queue_wait,
                    )
                self._m_retries.inc(kind=kind)
                self.engine.mark_retry(request.job_id, attempts, last_error)
                await asyncio.sleep(min(backoff, self.retry_backoff_cap_s))
                backoff *= 2
                continue
            else:
                status = JobStatus.TIMEOUT if timed_out else JobStatus.FAILED
                error, retry_hint = last_error, 0.0
            self._m_completed.inc(kind=kind, status=status.value)
            return self.engine.finish(
                JobResult(
                    job_id=request.job_id,
                    status=status,
                    error=error,
                    worker_id=worker.id,
                    attempts=attempts,
                    queue_wait_s=queue_wait,
                    serve_s=serve_wall,
                    retry_after_s=retry_hint,
                )
            )

    def _expire(
        self,
        request: JobRequest,
        where: str,
        *,
        worker_id: str = "",
        attempts: int = 0,
        queue_wait: float = 0.0,
    ) -> JobResult:
        """Count an expired job and terminate it on the engine (a
        ``DONE(timeout)`` record: never requeued, re-dispatched or
        migrated)."""
        kind = request.spec.kind.value
        self._m_expired.inc(kind=kind)
        self._m_completed.inc(kind=kind, status=JobStatus.TIMEOUT.value)
        result = self.engine.finish_expired(
            request, where, worker_id=worker_id, attempts=attempts
        )
        result.queue_wait_s = queue_wait
        return result

    def _account_success(
        self, worker, request: JobRequest, run: WorkerRun
    ) -> None:
        kind = request.spec.kind.value
        self._m_sim_ns.inc(run.stats.sim_ns, kind=kind)
        self._m_reconfig_ns.inc(run.stats.reconfig_ns, kind=kind)
        self._m_saved_ns.inc(run.reconfig_saved_ns, kind=kind)
        if run.warm:
            self._m_warm.inc(kind=kind)
        else:
            self._m_cold.inc(kind=kind)
        self._m_fabric_busy.inc(run.stats.sim_ns, fabric=worker.id)
        self._m_fabric_jobs.inc(fabric=worker.id)
        total_busy = self.pool.total_busy_ns
        for member in self.pool:
            self._m_fabric_util.set(
                member.busy_sim_ns / total_busy if total_busy else 0.0,
                fabric=member.id,
            )
        self._update_health_metrics()
