"""One shard: a durable engine plus cluster-facing state.

A :class:`ShardWorker` is what one scale-out process would be: its own
fabric pool, its own journal segment directory (``<root>/<name>``), its
own breaker state — wrapped around the deterministic
:class:`~repro.serve.durability.engine.DurableEngine` so the cluster
harness can kill and replay it the way the chaos harness kills a single
node.  Constructing a shard over an existing directory *is* its
recovery, exactly as for the engine.

The shard also answers the two questions stealing needs:

* :meth:`resident_keys` — which configurations its fabrics hold warm
  (stealing those would break an affinity run);
* :meth:`steal_candidates` — queued jobs that are *cold here*: their
  configuration is not resident and they are not checkpoint resumes
  (a resume's checkpoint file lives next to this shard's journal).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from repro.errors import ClusterError
from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy
from repro.serve.jobs import JobRequest, JobResult
from repro.serve.metrics import MetricsRegistry
from repro.serve.sessions import SessionFactory, default_session_factory

__all__ = ["ShardWorker"]


class ShardWorker:
    """One cluster member over its own journal directory."""

    def __init__(
        self,
        name: str,
        journal_dir: Path | str,
        *,
        pool_size: int = 1,
        session_factory: SessionFactory = default_session_factory,
        fsync: FsyncPolicy | str = FsyncPolicy.NEVER,
        checkpoint_every_slices: int = 0,
        max_batch: int = 1,
        breaker_factory=None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not name:
            raise ClusterError("shards need a non-empty name")
        self.name = name
        self.journal_dir = Path(journal_dir)
        self.metrics = metrics
        self.engine: DurableEngine | None = DurableEngine(
            self.journal_dir,
            pool_size=pool_size,
            session_factory=session_factory,
            fsync=fsync,
            checkpoint_every_slices=checkpoint_every_slices,
            max_batch=max_batch,
            breaker_factory=breaker_factory,
            clock=clock,
        )
        self.alive = True
        #: True while a live drain is migrating this shard's backlog —
        #: the ring stops routing here and stealing stops feeding it,
        #: but queued/in-flight work still executes or moves away.
        self.draining = False
        # -- cluster accounting -----------------------------------------
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_stolen_in = 0
        self.jobs_stolen_away = 0
        self.jobs_handed_in = 0

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------

    def _require_alive(self) -> DurableEngine:
        if not self.alive or self.engine is None:
            raise ClusterError(f"shard {self.name} is dead")
        return self.engine

    @property
    def queue_depth(self) -> int:
        return len(self.engine.queue) if self.alive and self.engine else 0

    def resident_keys(self) -> set[str]:
        """Configurations currently warm on this shard's fabrics."""
        if not self.alive or self.engine is None:
            return set()
        return {
            w.resident_key
            for w in self.engine.pool.workers
            if w.resident_key is not None
        }

    def has_job(self, job_id: str) -> bool:
        """Is ``job_id`` queued or finished here (dedup probe)?"""
        if not self.alive or self.engine is None:
            return False
        return job_id in self.engine.results or any(
            r.job_id == job_id for r in self.engine.queue
        )

    def finished(self, job_id: str) -> JobResult | None:
        """The finished result for ``job_id``, if this shard holds one.

        The engine-agnostic dedup probe the router uses (a process-backed
        shard answers it over RPC; this in-process one reads the engine
        directly)."""
        if not self.alive or self.engine is None:
            return None
        return self.engine.results.get(job_id)

    def finished_ids(self) -> list[str]:
        """Sorted ids of every finished job this shard can serve."""
        if not self.alive or self.engine is None:
            return []
        return sorted(self.engine.results)

    def backlog(self) -> list[JobRequest]:
        """Snapshot of the queued requests, oldest first (drain walks
        this copy while :meth:`release` mutates the real queue)."""
        if not self.alive or self.engine is None:
            return []
        return list(self.engine.queue)

    @property
    def journal_records(self) -> int:
        """Records appended by this incarnation — the replay debt a
        restart (or handoff) would have to fold; a health signal."""
        if not self.alive or self.engine is None:
            return 0
        return self.engine.journal.appended

    def heartbeat(self, round_index: int) -> "ShardHeartbeat":
        """One per-round health report (what the supervisor folds)."""
        from repro.cluster.lifecycle.health import ShardHeartbeat

        if not self.alive or self.engine is None:
            return ShardHeartbeat(
                shard=self.name, round_index=round_index, alive=False
            )
        pool = self.engine.pool
        return ShardHeartbeat(
            shard=self.name,
            round_index=round_index,
            alive=True,
            draining=self.draining,
            queue_depth=self.queue_depth,
            breaker_open_fabrics=len(pool.breaker_open_workers()),
            quarantined_fabrics=len(pool.quarantined_workers()),
            total_fabrics=len(pool.workers),
            journal_records=self.journal_records,
        )

    def steal_candidates(self) -> list[JobRequest]:
        """Queued jobs a thief may take, oldest first.

        Only *cold-hash* jobs qualify: their configuration is not
        resident on any of this shard's fabrics (so losing them costs no
        warm run) and they carry no resume checkpoint (the checkpoint
        file is local to this shard's journal directory).
        """
        if not self.alive or self.engine is None:
            return []
        resident = self.resident_keys()
        return [
            r
            for r in self.engine.queue
            if r.spec.config_key not in resident and r.resume_slice == 0
        ]

    # ------------------------------------------------------------------
    # job flow
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> JobResult | None:
        """Acknowledge one job here (write-ahead, dedup — engine rules)."""
        engine = self._require_alive()
        result = engine.submit(request)
        if result is None:
            self.jobs_submitted += 1
        return result

    def step_begin(self) -> None:
        """The send half of a step.  A process-backed shard starts
        executing here; this one shares the router's thread and does
        all of its work when the step is collected, so there is nothing
        to send — the method exists so both shard classes keep one
        surface."""

    def _step(self, limit: int | None) -> list[JobResult]:
        """The three engine calls a shard is: step, read the outbox,
        acknowledge what is handed on (the subprocess shard makes the
        same three across a pipe)."""
        engine = self._require_alive()
        if engine.queue:
            engine.step()
        results = engine.unacked()[:limit]
        engine.ack(result.job_id for result in results)
        self.jobs_completed += len(results)
        return results

    def step_all(self) -> list[JobResult]:
        """Run this shard's oldest queued job and hand on every result
        not handed on before — its batch lanes' included; empty when
        idle."""
        return self._step(None)

    def step_one(self) -> JobResult | None:
        """:meth:`step_all` for a caller that takes one result at a
        time: the oldest not yet handed on, or ``None``."""
        results = self._step(1)
        return results[0] if results else None

    def release(self, job_id: str, data: dict) -> JobRequest:
        """Give up a queued job (MOVED journaled before the queue pop)."""
        engine = self._require_alive()
        self.jobs_stolen_away += 1
        return engine.mark_moved(job_id, data)

    def expire(self, job_id: str, *, where: str = "in queue") -> JobResult:
        """Fail a queued job whose deadline lapsed (TIMEOUT journaled
        here — an expired job is never worth migrating)."""
        engine = self._require_alive()
        result = engine.expire(job_id, where=where)
        engine.ack([job_id])  # the caller has it
        return result

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def kill(self) -> Path:
        """Simulate this shard's process dying (no close, no fsync).

        The journal directory is left exactly as the "process" last
        flushed it — that is what handoff replays.  Returns the
        directory for the successor.
        """
        self.alive = False
        self.engine = None
        return self.journal_dir

    def close(self) -> None:
        """Clean shutdown (the non-chaos path)."""
        if self.alive and self.engine is not None:
            self.engine.close()
        self.alive = False
        self.engine = None

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror this shard's state into the cluster-level registry."""
        registry.gauge(
            "cluster_shard_alive", "1 while the shard process is up"
        ).set(1.0 if self.alive else 0.0, shard=self.name)
        registry.gauge(
            "cluster_shard_queue_depth", "Jobs queued on the shard"
        ).set(float(self.queue_depth), shard=self.name)
        if self.alive and self.engine is not None:
            pool = self.engine.pool
            registry.gauge(
                "cluster_shard_breaker_open_fabrics",
                "Fabrics sidelined only by a tripped breaker",
            ).set(float(len(pool.breaker_open_workers())), shard=self.name)
            registry.gauge(
                "cluster_shard_quarantined_fabrics",
                "Fabrics ejected from rotation",
            ).set(float(len(pool.quarantined_workers())), shard=self.name)
