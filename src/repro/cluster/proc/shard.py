"""The router's handle on one shard, over either of two transports.

A :class:`ProcShardWorker` drives a durable engine through the op table
of :mod:`repro.cluster.proc.worker`, reached one of two ways: a **pipe**
to a real OS subprocess (``ProcShardWorker(name, journal_dir, ...)``,
framed RPC with timeouts and retries — crash isolation, real
SIGKILL/SIGSTOP/torn-frame faults, the journal flock) or an in-process
**loopback** (:meth:`ProcShardWorker.loopback`, the same table called
directly, deterministic, with a crash point firing inside the caller).
The router, the drain verb, the supervisor and the steal protocol see
one class either way, and its failure semantics are deliberate:

- **heartbeat never raises.**  A timeout or transport failure *is* the
  health signal: it returns ``ShardHeartbeat(alive=False)`` and the
  phi-accrual monitor accrues the miss.
- **submit propagates.**  An EPIPE on submit means the job was *not*
  acked; swallowing it would fabricate an ack for a job no journal
  holds.  The caller gets the typed :class:`~repro.errors.RpcError`.
- **reads degrade.**  Probes return empty answers against an
  unreachable shard instead of wedging a router round behind per-call
  timeouts; a step marks the shard unreachable and goes idle so the
  supervisor — not an exception — ends the shard's tenure.
- **the queue is mirrored, not asked for.**  The engine changes state
  only in reply to this handle, and every such reply says what changed,
  so the handle keeps the ids queued and finished there and answers
  ``queue_depth``, ``has_job`` and a ``finished`` miss without a round
  trip (ids only — never a payload).  Each reply also carries the
  engine's depth; one that disagrees with the mirror (a reply was lost
  after the shard had acted on it) makes the handle read the backlog.
- **a step has two halves, and results are handed on exactly once.**
  ``step_begin`` sends the request with the ids of the results handed on
  since the last one (the acknowledgement); ``step_all`` / ``step_one``
  collect the reply.  A router round begins a step on every shard
  before it collects any, so shard processes execute at the same time
  (a loopback shard executes at collection).  The reply lists every
  result still unacknowledged; the handle hands on the ones it has not
  handed on before, and retires an acknowledgement only when a reply to
  the request that carried it has arrived.

EOF/EPIPE (process exited) drops ``alive`` at once, while a timeout
(possibly just wedged — SIGSTOP, a long GC) only sets ``unreachable``;
``kill()`` sends SIGKILL either way, which also frees the child's
journal-dir flock for the respawn.  Killing a loopback shard drops its
engine unclosed, leaving the journal as a crash would.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from repro.cluster.lifecycle.health import ShardHeartbeat
from repro.cluster.proc import wire
from repro.cluster.proc.rpc import RemoteOpError, RetryPolicy, RpcClient
from repro.errors import ClusterError, RpcError, RpcTimeout
from repro.serve.durability.journal import FsyncPolicy
from repro.serve.jobs import JobRequest, JobResult
from repro.serve.metrics import MetricsRegistry

__all__ = ["ProcShardWorker"]


class ProcShardWorker:
    """One cluster member: its own process, or a loopback in this one."""

    def __init__(
        self,
        name: str,
        journal_dir: Path | str,
        *,
        pool_size: int = 1,
        fsync: FsyncPolicy | str = FsyncPolicy.NEVER,
        checkpoint_every_slices: int = 0,
        max_batch: int = 1,
        segment_records: int = 1024,
        lock_timeout_s: float = 5.0,
        spawn_timeout_s: float = 60.0,
        call_timeout_s: float = 30.0,
        heartbeat_timeout_s: float = 2.0,
        retry: RetryPolicy | None = None,
        chaos_env: dict[str, str] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._prepare(name, journal_dir, call_timeout_s, heartbeat_timeout_s)
        argv = [
            sys.executable, "-m", "repro.cluster.proc.worker",
            "--name", name,
            "--dir", str(self.journal_dir),
            "--fsync", FsyncPolicy(fsync).value,
            "--pool-size", str(pool_size),
            "--checkpoint-every", str(checkpoint_every_slices),
            "--max-batch", str(max_batch),
            "--segment-records", str(segment_records),
            "--lock-timeout", str(lock_timeout_s),
        ]
        env = os.environ.copy()
        src_root = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        if chaos_env:
            env.update(chaos_env)
        # stderr goes to a sidecar log next to the journal: tracebacks
        # of a dead process are operations data, not pipe noise.
        self._stderr_log = open(self.journal_dir / "worker.stderr.log", "ab")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr_log, bufsize=0, env=env,
        )
        self.rpc = RpcClient(
            self.proc.stdin, self.proc.stdout, shard=name, clock=clock,
            retry=retry or RetryPolicy(seed=sum(name.encode())),
        )
        # Block on the hello: the worker either replayed its journal and
        # reported the recovery counts, or failed typed (LockTimeout and
        # friends arrive as the id-0 error and re-raise here).
        try:
            hello = self.rpc._recv(spawn_timeout_s, "hello")
        except (RpcError, RpcTimeout):
            self._reap()
            raise
        if not hello.get("ok"):
            error = hello.get("error") or {}
            self._reap()
            raise ClusterError(
                f"shard {name} failed to start: "
                f"{error.get('type', 'Error')}: {error.get('message', '')}"
            )
        self._joined(hello.get("value") or {})

    @classmethod
    def loopback(
        cls,
        name: str,
        journal_dir: Path | str,
        *,
        pool_size: int = 1,
        session_factory=None,
        fsync: FsyncPolicy | str = FsyncPolicy.NEVER,
        checkpoint_every_slices: int = 0,
        max_batch: int = 1,
        breaker_factory=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "ProcShardWorker":
        """A shard whose engine runs in this process (construction is
        its recovery, as for the engine).  ``rpc.engine`` is the engine,
        for tests that look inside; ``None`` once killed or closed."""
        from repro.cluster.proc.worker import LoopbackClient, hello
        from repro.serve.durability.engine import DurableEngine
        from repro.serve.sessions import default_session_factory

        shard = cls.__new__(cls)
        shard._prepare(name, journal_dir)
        engine = DurableEngine(
            shard.journal_dir,
            pool_size=pool_size,
            session_factory=session_factory or default_session_factory,
            fsync=fsync,
            checkpoint_every_slices=checkpoint_every_slices,
            max_batch=max_batch,
            breaker_factory=breaker_factory,
            clock=clock,
        )
        shard.proc = None
        shard.rpc = LoopbackClient(engine, name)
        shard._joined(hello(engine, name))
        return shard

    def _prepare(
        self,
        name: str,
        journal_dir: Path | str,
        call_timeout_s: float = 30.0,
        heartbeat_timeout_s: float = 2.0,
    ) -> None:
        """State both transports start from."""
        if not name:
            raise ClusterError("shards need a non-empty name")
        self.name = name
        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.call_timeout_s = call_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.draining = False
        # -- cluster accounting (local mirrors; the engine keeps the
        #    durable truth in its journal) -------------------------------
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_stolen_in = 0
        self.jobs_stolen_away = 0
        self.jobs_handed_in = 0
        self._alive = False
        self._unreachable = False
        self.hello: dict = {}
        #: The last heartbeat the shard answered (the fabric gauges).
        self.last_heartbeat: ShardHeartbeat | None = None
        #: The mirror: ids queued in the engine (each to itself: the
        #: request's own string, kept for its result), ids finished there.
        self._queued: dict[str, str] = {}
        self._finished: set[str] = set()
        #: Ids of results handed on and not yet known to be acknowledged,
        #: oldest first; the first ``_acks_sent`` went out with the step
        #: now in flight.
        self._handed: list[str] = []
        self._acks_sent = 0

    def _joined(self, hello: dict) -> None:
        """Seed the mirror from the shard's hello; it is now serving."""
        self.hello = hello
        self._queued.update((j, j) for j in hello.get("queued_ids", ()))
        self._finished.update(hello.get("finished_ids", ()))
        self._alive = True

    # ------------------------------------------------------------------
    # liveness plumbing
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def _reap(self) -> None:
        """Close pipes and collect the exit status (idempotent)."""
        self._alive = False
        if self.proc is None:
            return
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            self.proc.kill()
            self.proc.wait()
        try:
            self._stderr_log.close()
        except OSError:  # pragma: no cover
            pass

    def _begin(self, op: str, params: dict | None = None, *, timeout_s=None):
        """The send half of one RPC (a failed send surfaces in
        :meth:`_finish`, where the retry budget lives)."""
        if not self._alive:
            raise ClusterError(f"shard {self.name} is dead")
        self.rpc.begin(
            op,
            params,
            timeout_s=timeout_s
            if timeout_s is not None
            else self.call_timeout_s,
        )

    def _finish(self):
        """The receive half; transport failure updates liveness then
        re-raises."""
        try:
            value = self.rpc.finish()
        except RpcTimeout:
            # Possibly just wedged (SIGSTOP): stop burning round time on
            # it, but let SIGKILL — not a guess — end its tenure.
            self._unreachable = True
            raise
        except RpcError:
            self._alive = False
            self._unreachable = True
            raise
        self._unreachable = False
        return value

    def _call(self, op: str, params: dict | None = None, *, timeout_s=None):
        """One RPC, send then receive."""
        self._begin(op, params, timeout_s=timeout_s)
        return self._finish()

    # ------------------------------------------------------------------
    # state queries (degrade, never wedge)
    # ------------------------------------------------------------------

    def _reconcile(self, depth: int) -> None:
        """Hold the mirror to the depth the shard just reported.

        They differ only after a reply was lost once the shard had
        acted on it (a ``release`` that timed out, a ``submit`` whose
        every attempt did); then the shard's own backlog is read.
        """
        if depth == len(self._queued):
            return
        try:
            jobs = self._call("backlog")["jobs"]
        except (RpcError, ClusterError):
            return
        ids = (str(job["job_id"]) for job in jobs)
        self._queued = {j: self._queued.get(j, j) for j in ids}

    @property
    def queue_depth(self) -> int:
        if not self._alive or self._unreachable:
            return 0
        return len(self._queued)

    def resident_keys(self) -> set[str]:
        """Configurations currently warm on this shard's fabrics."""
        if not self._alive or self._unreachable:
            return set()
        try:
            return set(self._call("resident_keys")["keys"])
        except (RpcError, ClusterError):
            return set()

    def has_job(self, job_id: str) -> bool:
        """Is ``job_id`` queued or finished here (the dedup probe)?"""
        if not self._alive or self._unreachable:
            return False
        return job_id in self._queued or job_id in self._finished

    def finished(self, job_id: str) -> JobResult | None:
        """The finished result for ``job_id``, if this shard holds one."""
        found = self.finished_results([job_id])
        return found[0] if found else None

    def finished_results(self, job_ids) -> list[JobResult]:
        """The finished results among ``job_ids``, in that order: one
        read of the shard, none when the mirror says none are here."""
        if not self._alive or self._unreachable:
            return []
        wanted = [job_id for job_id in job_ids if job_id in self._finished]
        if not wanted:
            return []
        try:
            found = self._call("finished", {"job_ids": wanted})["results"]
        except (RpcError, ClusterError):
            return []
        return [wire.decode_result(data) for data in found]

    def finished_ids(self) -> list[str]:
        """Sorted ids of every finished job this shard can serve."""
        if not self._alive or self._unreachable:
            return []
        try:
            return [str(j) for j in self._call("finished_ids")["job_ids"]]
        except (RpcError, ClusterError):
            return []

    def backlog(self) -> list[JobRequest]:
        """Copies of the queued requests, oldest first."""
        if not self._alive or self._unreachable:
            return []
        try:
            jobs = self._call("backlog")["jobs"]
        except (RpcError, ClusterError):
            return []
        return [wire.decode_job(j) for j in jobs]

    def heartbeat(self, round_index: int) -> ShardHeartbeat:
        """One per-round health report — *transport failure is the
        signal*: a dead or wedged shard heartbeats ``alive=False`` and
        phi accrues."""
        if not self._alive:
            return ShardHeartbeat(
                shard=self.name, round_index=round_index, alive=False
            )
        try:
            data = self._call(
                "heartbeat",
                {"round_index": round_index, "draining": self.draining},
                timeout_s=self.heartbeat_timeout_s,
            )
        except (RpcError, ClusterError):
            return ShardHeartbeat(
                shard=self.name, round_index=round_index, alive=False
            )
        self.last_heartbeat = wire.decode_heartbeat(data)
        return self.last_heartbeat

    def steal_candidate(self) -> JobRequest | None:
        """The queued job a thief takes, or ``None``: the newest
        *cold-hash* one — its configuration is not resident here (losing
        it costs no warm run) and it carries no resume checkpoint (the
        file is local to this shard's journal directory)."""
        if not self._alive or self._unreachable:
            return None
        try:
            job = self._call("steal_candidate")["job"]
        except (RpcError, ClusterError):
            return None
        if job is None:
            return None
        request = wire.decode_job(job)
        request.job_id = self._queued.get(request.job_id, request.job_id)
        return request

    # ------------------------------------------------------------------
    # job flow
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> JobResult | None:
        """Acknowledge one job on the shard (write-ahead there).

        Transport failure **propagates**: an EPIPE or timeout means no
        journal holds the job — the ack must not be fabricated.
        """
        value = self._call("submit", {"job": wire.encode_job(request)})
        pre = value.get("result")
        if pre is None:
            self._queued[request.job_id] = request.job_id
        else:
            self._finished.add(request.job_id)
        self._reconcile(value["depth"])
        if pre is not None:
            return wire.decode_result(pre)
        self.jobs_submitted += 1
        return None

    def step_begin(self) -> None:
        """Send this round's ``step`` and return without its reply.

        The request acknowledges every result handed on so far.  The
        router begins a step on every shard before it collects one, so
        the shard processes execute at the same time; :meth:`step_all`
        is the other half.  Never raises: a shard that cannot be
        reached is left for the collecting call to report idle.
        """
        if self._alive and not self._unreachable:
            self._acks_sent = len(self._handed)
            self._begin("step", {"ack": list(self._handed)})

    def _step(self, limit: int | None) -> list[JobResult]:
        """Collect a step (beginning one first if none is in flight) and
        hand on up to ``limit`` results not handed on before; what is
        left stays unacknowledged and comes back with the next step."""
        if not self._alive or self._unreachable:
            return []
        try:
            if not self.rpc.outstanding:
                self.step_begin()
            value = self._finish()
        except (RpcError, ClusterError):
            return []
        # This reply answers the request that carried these acks.
        del self._handed[: self._acks_sent]
        self._acks_sent = 0
        fresh = []
        for data in value["results"]:
            job_id = str(data["job_id"])
            job_id = self._queued.pop(job_id, job_id)
            self._finished.add(job_id)
            if job_id not in self._handed:
                fresh.append((job_id, data))
        self._reconcile(value["depth"])
        results = [wire.decode_result(data) for _, data in fresh[:limit]]
        for result, (job_id, _) in zip(results, fresh):
            result.job_id = job_id  # the mirror's string: one per job
        self._handed += [result.job_id for result in results]
        self.jobs_completed += len(results)
        return results

    def step_all(self) -> list[JobResult]:
        """Run the shard's oldest queued job — or collect the step that
        :meth:`step_begin` started — and hand on every result the
        shard holds that was not handed on before: the job's own, its
        batch lanes', and any a lost reply left behind.  Empty when
        idle or unreachable (the supervisor owns an unreachable shard's
        fate)."""
        return self._step(None)

    def step_one(self) -> JobResult | None:
        """:meth:`step_all` for a caller that takes one result at a
        time: the oldest not yet handed on, or ``None``."""
        results = self._step(1)
        return results[0] if results else None

    def release(self, job_id: str, data: dict) -> None:
        """Give up a queued job (MOVED journaled before the queue pop)."""
        value = self._call("release", {"job_id": job_id, "data": data})
        self._queued.pop(job_id, None)
        self._reconcile(value["depth"])
        self.jobs_stolen_away += 1

    def expire(self, job_id: str, *, where: str = "in queue") -> JobResult:
        """Fail a queued job whose deadline lapsed (TIMEOUT journaled
        here — an expired job is never worth migrating)."""
        value = self._call("expire", {"job_id": job_id, "where": where})
        self._queued.pop(job_id, None)
        self._finished.add(job_id)
        self._handed.append(job_id)  # the caller has it: ack, don't re-send
        self._reconcile(value["depth"])
        return wire.decode_result(value["result"])

    def compact_journal(self) -> int:
        """Compact the shard's journal (the rejoin gate uses this to
        scrub crash artifacts out of the durable state)."""
        return int(self._call("compact")["removed"])

    # ------------------------------------------------------------------
    # lifecycle + chaos
    # ------------------------------------------------------------------

    def sigstop(self) -> None:
        """Wedge the process (chaos: hung-but-alive)."""
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGSTOP)

    def kill(self) -> Path:
        """Kill the shard without a clean shutdown: SIGKILL the process
        (works on wedged ones too) and reap it, or drop a loopback's
        engine unclosed.

        The journal directory is left exactly as the shard last flushed
        it — that is what handoff replays — and the kernel releases the
        process's journal-dir flock, so a respawn can take the lock
        immediately.  Returns the directory for the successor.
        """
        if self.proc is None:
            self.rpc.kill()
        elif self.proc.poll() is None:
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - raced exit
                pass
        self._reap()
        return self.journal_dir

    def close(self) -> None:
        """Clean shutdown (the non-chaos path)."""
        if self._alive and not self._unreachable:
            try:
                self._call("shutdown", timeout_s=10.0)
            except (RpcError, RemoteOpError, ClusterError):
                pass
        if self.proc is not None and self.proc.poll() is None:
            try:
                self.proc.terminate()
            except ProcessLookupError:  # pragma: no cover
                pass
        self._reap()

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Mirror this shard into the cluster registry, from what the
        handle already holds (no RPC): the fabric gauges come from the
        last heartbeat the shard answered."""
        gauges = [
            ("cluster_shard_alive", "1 while the shard is up", self.alive),
            ("cluster_shard_queue_depth", "Jobs queued on the shard",
             self.queue_depth),
            ("cluster_shard_rpc_retries",
             "Transport retries against the shard", self.rpc.retries),
        ]
        beat = self.last_heartbeat
        if beat is not None:
            gauges += [
                ("cluster_shard_breaker_open_fabrics",
                 "Fabrics sidelined only by a tripped breaker",
                 beat.breaker_open_fabrics),
                ("cluster_shard_quarantined_fabrics",
                 "Fabrics ejected from rotation", beat.quarantined_fabrics),
            ]
        for name, help_text, value in gauges:
            registry.gauge(name, help_text).set(float(value), shard=self.name)
