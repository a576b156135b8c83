"""The fabric pool: workers, resident state, and switch-cost queries.

Each :class:`FabricWorker` owns at most one live kernel session — its
*resident configuration*.  Executing a job whose spec matches the
resident key is **warm** (programs pinned, static data resident, only
per-job data pays the ICAP); any other spec is a **cold** start, which
powers on the session the worker kept for that spec (or builds one).
:meth:`FabricWorker.switch_cost_ns` is the scheduler's scoring oracle:
it answers "how much Eq. 1 term-B time would placing this job here
cost", using :meth:`repro.fabric.rtms.RuntimeManager.switch_cost` both
ways — against the live session for warm probes (≈0 by pinning) and
against a scratch cold session for the cold reference.

The :class:`ResidencyCostModel` caches two figures per configuration:

* the *modeled* cold cost (planner estimate on a scratch fabric), used
  for placement scores before any job of that kind ever ran;
* the *measured* cold cost (the actual first-job ``reconfig_ns``),
  recorded after each cold run and used to compute how much
  reconfiguration time a warm placement saved.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Callable

from repro.errors import FaultError, JobCancelled, ServeError
from repro.serve.breaker import CircuitBreaker
from repro.serve.jobs import JobRequest, KernelSpec
from repro.serve.sessions import (
    CancelToken,
    KernelSession,
    SessionFactory,
    SessionStats,
    default_session_factory,
)

__all__ = [
    "HealthState",
    "WorkerRun",
    "FabricWorker",
    "FabricPool",
    "ResidencyCostModel",
]

#: Sessions a fabric keeps for power-on, least recently started out
#: first (DESIGN §16: the 8 thrash plans' sessions are 732 KB).
KEPT_SESSIONS = 8


class HealthState(enum.Enum):
    """Serving-level health of one fabric.

    ``HEALTHY`` fabrics take any job.  ``DEGRADED`` fabrics stay in
    rotation — they have seen isolated job failures.  ``QUARANTINED``
    fabrics are out of rotation: repeated failures or an unrepairable
    (hard) fault ejected them; an operator (or a recovery probe)
    re-admits them after the fabric is scrubbed/replaced.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"

    @property
    def code(self) -> int:
        """Dense gauge value (0 healthy / 1 degraded / 2 quarantined)."""
        return {"healthy": 0, "degraded": 1, "quarantined": 2}[self.value]


class ResidencyCostModel:
    """Shared per-configuration cold-cost knowledge (modeled + measured)."""

    def __init__(self, session_factory: SessionFactory) -> None:
        self._session_factory = session_factory
        self._modeled_ns: dict[str, float] = {}
        self._measured_ns: dict[str, float] = {}
        self._lock = threading.Lock()

    def modeled_cold_ns(self, spec: KernelSpec) -> float:
        """Planner-estimated cold configuration cost for ``spec``.

        Built once per configuration from a scratch session: every
        program and static image is charged because nothing is resident
        on a fresh fabric — exactly what the first job would pay.
        """
        key = spec.config_key
        with self._lock:
            cached = self._modeled_ns.get(key)
        if cached is not None:
            return cached
        probe = self._session_factory(spec)
        cost = probe.rtms.switch_cost(probe.cold_setup_epochs())
        with self._lock:
            self._modeled_ns.setdefault(key, cost)
        return cost

    def record_cold_run(self, spec: KernelSpec, reconfig_ns: float) -> None:
        """Remember the measured first-job reconfiguration time."""
        with self._lock:
            self._measured_ns[spec.config_key] = reconfig_ns

    def cold_reference_ns(self, spec: KernelSpec) -> float:
        """Best-available cold cost: measured when known, modeled else."""
        with self._lock:
            measured = self._measured_ns.get(spec.config_key)
        return measured if measured is not None else self.modeled_cold_ns(spec)


@dataclass
class WorkerRun:
    """One completed attempt on a worker."""

    stats: SessionStats
    warm: bool
    #: Reconfiguration time avoided vs a cold placement of the same job.
    reconfig_saved_ns: float
    #: Epoch slices skipped by resuming from a journaled checkpoint.
    resumed_slices: int = 0


class FabricWorker:
    """One pool member: a fabric with (at most) one resident session."""

    def __init__(
        self,
        worker_id: str,
        session_factory: SessionFactory = default_session_factory,
        cost_model: ResidencyCostModel | None = None,
        *,
        failure_threshold: int = 3,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ServeError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.id = worker_id
        self._session_factory = session_factory
        self.cost_model = cost_model or ResidencyCostModel(session_factory)
        #: Optional per-fabric circuit breaker (PR 8).  ``None`` keeps the
        #: PR 3 semantics exactly: availability is health-state-only.
        self.breaker = breaker
        self.session: KernelSession | None = None
        self.resident_key: str | None = None
        self._kept: dict[str, KernelSession] = {}
        # -- lifetime accounting ---------------------------------------
        self.jobs_done = 0
        self.cold_starts = 0
        self.busy_sim_ns = 0.0
        self.reconfig_sim_ns = 0.0
        # -- health ----------------------------------------------------
        self.health = HealthState.HEALTHY
        self.failure_threshold = failure_threshold
        self.consecutive_failures = 0
        self.quarantine_reason: str | None = None
        self.quarantines = 0

    # ------------------------------------------------------------------
    # health lifecycle
    # ------------------------------------------------------------------

    @property
    def available(self) -> bool:
        """May the scheduler place jobs here?

        Quarantine (PR 3) is the hard gate; a tripped circuit breaker
        (PR 8) is the soft one — an open breaker keeps the worker out of
        rotation for a cooldown, after which half-open probe slots make
        it available again without an operator readmit.
        """
        if self.health is HealthState.QUARANTINED:
            return False
        if self.breaker is not None:
            return self.breaker.admits()
        return True

    @property
    def breaker_open(self) -> bool:
        """Is this worker unavailable *only* because its breaker is
        refusing jobs (i.e. it will come back by itself after the
        cooldown, unlike a quarantine)?"""
        return (
            self.health is not HealthState.QUARANTINED
            and self.breaker is not None
            and not self.breaker.admits()
        )

    def eject(self, reason: str) -> None:
        """Take the fabric out of rotation (drops the resident session).

        Idempotent: ejecting an already-quarantined worker only updates
        the reason.
        """
        if self.health is not HealthState.QUARANTINED:
            self.quarantines += 1
        self.health = HealthState.QUARANTINED
        self.quarantine_reason = reason
        self.session = None
        self.resident_key = None
        self._kept.clear()  # readmit means a replaced fabric

    def readmit(self) -> None:
        """Return a quarantined/degraded fabric to rotation as healthy.

        Models the post-repair re-admission: the physical fabric was
        scrubbed (or swapped), so the failure history is cleared.  The
        next job pays a cold start — the session was dropped at eject.
        """
        self.health = HealthState.HEALTHY
        self.quarantine_reason = None
        self.consecutive_failures = 0
        if self.breaker is not None:
            self.breaker.reset()

    def record_failure(self, reason: str) -> None:
        """Account one failed job attempt; escalates the health state.

        The first failure degrades the fabric; ``failure_threshold``
        *consecutive* failures — or any :class:`~repro.errors.FaultError`
        (an unrepairable fabric fault) — quarantine it.
        """
        self.consecutive_failures += 1
        if self.health is HealthState.HEALTHY:
            self.health = HealthState.DEGRADED
        if self.consecutive_failures >= self.failure_threshold:
            self.eject(
                f"{self.consecutive_failures} consecutive failures "
                f"(last: {reason})"
            )

    # ------------------------------------------------------------------
    # scheduling oracle
    # ------------------------------------------------------------------

    def is_warm_for(self, spec: KernelSpec) -> bool:
        return self.session is not None and self.resident_key == spec.config_key

    def switch_cost_ns(self, spec: KernelSpec) -> float:
        """Modeled term-B cost of placing a ``spec`` job on this worker.

        Warm probe: ask the live runtime manager what the job's program
        set would cost — zero when everything is pinned, which is the
        affinity signal.  Cold probe: the cached scratch-fabric estimate
        (the session would be rebuilt, so current residency is moot).
        """
        if self.is_warm_for(spec):
            assert self.session is not None
            return self.session.rtms.switch_cost(self.session.pin_epochs())
        return self.cost_model.modeled_cold_ns(spec)

    # ------------------------------------------------------------------
    # execution (synchronous; the service runs this in a thread)
    # ------------------------------------------------------------------

    def _cold_session(self, spec: KernelSpec) -> KernelSession:
        """The session a cold start runs on: the kept one for ``spec``,
        powered on, else a new one (kept when its type can power on)."""
        session = self._kept.pop(spec.config_key, None)
        if session is None:
            session = self._session_factory(spec)
        else:
            session.power_on()
        if hasattr(session, "power_on"):
            self._kept[spec.config_key] = session
            if len(self._kept) > KEPT_SESSIONS:
                del self._kept[next(iter(self._kept))]
        return session

    def _drop(self, spec: KernelSpec) -> None:
        """Forget the session a raising job left undefined."""
        self.session = None
        self.resident_key = None
        self._kept.pop(spec.config_key, None)

    def execute(
        self,
        request: JobRequest,
        cancel: CancelToken,
        progress: Callable | None = None,
    ) -> WorkerRun:
        """Run one job to completion on this worker's fabric.

        Raises whatever the kernel raises; raises
        :class:`~repro.errors.JobCancelled` when ``cancel`` fires.  On
        any failure the session is dropped (a job aborted mid-epoch
        leaves fabric memory in an undefined state — the next job pays a
        cold start, like a real fabric scrub) and the health state
        escalates: kernel failures degrade then quarantine at
        ``failure_threshold``; a :class:`~repro.errors.FaultError` (an
        unrepairable fabric fault surfaced to the job) quarantines
        immediately.  A quarantined worker refuses jobs outright.

        ``progress`` (optional, installed by the durability layer) is a
        per-slice hook ``progress(completed_slices, rtms)`` used to
        journal epoch progress and write fabric checkpoints.  A request
        carrying ``resume_slice > 0`` on a **cold** placement restores
        its verified checkpoint and executes only the remaining epochs;
        any doubt about the checkpoint falls back to a from-scratch run.
        """
        spec = request.spec
        if self.health is HealthState.QUARANTINED:
            raise ServeError(
                f"worker {self.id} is quarantined "
                f"({self.quarantine_reason or 'no reason recorded'})"
            )
        if self.breaker is not None:
            # Raises on a (still) open breaker; accounts half-open probes.
            self.breaker.on_dispatch()
        warm = self.is_warm_for(spec)
        if not warm:
            self.session = self._cold_session(spec)
            self.resident_key = spec.config_key
            self.cold_starts += 1
        assert self.session is not None
        if progress is not None and hasattr(self.session, "progress"):
            self.session.progress = progress
        resumed_slices = 0
        try:
            stats = None
            if (
                not warm
                and request.resume_slice > 0
                and hasattr(self.session, "run_resumed")
            ):
                # Lazy import: repro.serve.durability imports this module.
                from repro.serve.durability.resume import load_checkpoint

                loaded = load_checkpoint(
                    request.checkpoint_path, request.checkpoint_crc
                )
                if loaded is not None and loaded[0] == request.resume_slice:
                    stats = self.session.run_resumed(
                        request.payload, cancel, loaded[0], loaded[1]
                    )
                    resumed_slices = loaded[0]
            if stats is None:
                stats = self.session.run(request.payload, cancel)
        except FaultError as exc:
            self.eject(f"fabric fault: {exc}")
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        except BaseException as exc:
            self._drop(spec)
            # Cancellation is the service's doing, not the fabric's fault.
            if not isinstance(exc, JobCancelled):
                self.record_failure(repr(exc))
                if self.breaker is not None:
                    self.breaker.record_failure()
            elif self.breaker is not None:
                # Cancellation is neutral: release the probe slot only.
                self.breaker.record_cancelled()
            raise
        finally:
            if progress is not None and self.session is not None:
                if hasattr(self.session, "progress"):
                    self.session.progress = None
        self.jobs_done += 1
        self.consecutive_failures = 0
        if self.breaker is not None:
            self.breaker.record_success()
        self.busy_sim_ns += stats.sim_ns
        self.reconfig_sim_ns += stats.reconfig_ns
        if warm:
            saved = max(
                0.0,
                self.cost_model.cold_reference_ns(spec) - stats.reconfig_ns,
            )
        else:
            self.cost_model.record_cold_run(spec, stats.reconfig_ns)
            saved = 0.0
        return WorkerRun(
            stats=stats,
            warm=warm,
            reconfig_saved_ns=saved,
            resumed_slices=resumed_slices,
        )


    def execute_batch(
        self,
        requests: list[JobRequest],
        cancel: CancelToken,
        progress: Callable | None = None,
    ) -> list[WorkerRun]:
        """Run a group of same-configuration jobs as one batched dispatch.

        All requests must share one ``config_key`` (the coalescing
        policy's grouping invariant).  The session executes them through
        its vector-batched ``run_batch`` — outputs bit-identical to
        sequential :meth:`execute` calls, each lane keeping its own
        :class:`WorkerRun` (warm flag, accounting, reconfig savings).
        Sessions without a ``run_batch``, single-job groups, and resume
        requests fall back to sequential scalar execution.

        The circuit breaker sees the group as **one** dispatch: one
        ``on_dispatch`` admission, one success/failure record — a batch
        occupies the fabric once, so it consumes one half-open probe
        slot, not K.
        """
        if not requests:
            raise ServeError("execute_batch needs at least one request")
        spec = requests[0].spec
        for request in requests[1:]:
            if request.spec.config_key != spec.config_key:
                raise ServeError(
                    f"execute_batch got mixed configurations "
                    f"({request.spec.config_key!r} vs {spec.config_key!r})"
                )
        if (
            len(requests) == 1
            or any(r.resume_slice > 0 for r in requests)
            or (self.is_warm_for(spec)
                and not hasattr(self.session, "run_batch"))
        ):
            return [self.execute(r, cancel, progress) for r in requests]
        if self.health is HealthState.QUARANTINED:
            raise ServeError(
                f"worker {self.id} is quarantined "
                f"({self.quarantine_reason or 'no reason recorded'})"
            )
        if self.breaker is not None:
            self.breaker.on_dispatch()
        warm = self.is_warm_for(spec)
        if not warm:
            session = self._cold_session(spec)
            if not hasattr(session, "run_batch"):
                # No batched tier on this session type: release the probe
                # slot (neutral — nothing ran) and dispatch sequentially,
                # where each execute() does its own breaker admission.
                if self.breaker is not None:
                    self.breaker.record_cancelled()
                return [self.execute(r, cancel, progress) for r in requests]
            self.session = session
            self.resident_key = spec.config_key
            self.cold_starts += 1
        session = self.session
        assert session is not None
        try:
            stats_list = session.run_batch(
                [r.payload for r in requests], cancel
            )
        except FaultError as exc:
            self.eject(f"fabric fault: {exc}")
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        except BaseException as exc:
            self._drop(spec)
            if not isinstance(exc, JobCancelled):
                self.record_failure(repr(exc))
                if self.breaker is not None:
                    self.breaker.record_failure()
            elif self.breaker is not None:
                self.breaker.record_cancelled()
            raise
        self.consecutive_failures = 0
        if self.breaker is not None:
            self.breaker.record_success()
        runs: list[WorkerRun] = []
        for index, stats in enumerate(stats_list):
            lane_warm = warm or index > 0
            self.jobs_done += 1
            self.busy_sim_ns += stats.sim_ns
            self.reconfig_sim_ns += stats.reconfig_ns
            if lane_warm:
                saved = max(
                    0.0,
                    self.cost_model.cold_reference_ns(spec)
                    - stats.reconfig_ns,
                )
            else:
                self.cost_model.record_cold_run(spec, stats.reconfig_ns)
                saved = 0.0
            runs.append(
                WorkerRun(stats=stats, warm=lane_warm, reconfig_saved_ns=saved)
            )
        return runs


class FabricPool:
    """A fixed set of workers sharing one residency cost model."""

    def __init__(
        self,
        size: int,
        session_factory: SessionFactory = default_session_factory,
        *,
        failure_threshold: int = 3,
        breaker_factory: Callable[[], CircuitBreaker] | None = None,
    ) -> None:
        if size < 1:
            raise ServeError(f"pool size must be >= 1, got {size}")
        self.cost_model = ResidencyCostModel(session_factory)
        self.workers = [
            FabricWorker(
                f"fabric-{i}",
                session_factory,
                self.cost_model,
                failure_threshold=failure_threshold,
                breaker=breaker_factory() if breaker_factory else None,
            )
            for i in range(size)
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def __iter__(self):
        return iter(self.workers)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def worker(self, worker_id: str) -> FabricWorker:
        for member in self.workers:
            if member.id == worker_id:
                return member
        raise ServeError(f"no worker {worker_id!r} in pool")

    def available_workers(self) -> list[FabricWorker]:
        """Workers the scheduler may still place jobs on."""
        return [w for w in self.workers if w.available]

    def quarantined_workers(self) -> list[FabricWorker]:
        return [
            w for w in self.workers if w.health is HealthState.QUARANTINED
        ]

    def breaker_open_workers(self) -> list[FabricWorker]:
        """Workers sidelined *only* by a tripped breaker (they will
        re-admit themselves after the cooldown)."""
        return [w for w in self.workers if w.breaker_open]

    def recoverable(self) -> bool:
        """Can this pool ever serve another job without operator help?

        True when some worker is available now **or** is merely behind
        an open breaker whose cooldown will elapse.  False only when
        every worker is quarantined — the PR 3 dead-pool condition.
        """
        return any(
            w.health is not HealthState.QUARANTINED for w in self.workers
        )

    @property
    def quarantine_count(self) -> int:
        """Lifetime number of eject events across the pool."""
        return sum(w.quarantines for w in self.workers)

    @property
    def total_reconfig_ns(self) -> float:
        return sum(w.reconfig_sim_ns for w in self.workers)

    @property
    def total_busy_ns(self) -> float:
        return sum(w.busy_sim_ns for w in self.workers)

    @property
    def total_cold_starts(self) -> int:
        return sum(w.cold_starts for w in self.workers)
