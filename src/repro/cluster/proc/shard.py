"""Router-side handle of a shard running in a real OS subprocess.

:class:`ProcShardWorker` mirrors :class:`repro.cluster.shard.
ShardWorker`'s surface exactly — the router, the drain verb, the
supervisor and the steal protocol drive either without knowing which
they hold — but every method crosses a process boundary through the
typed RPC client, and that changes the failure semantics deliberately:

- **heartbeat never raises.**  A timeout or transport failure *is* the
  health signal: the method returns ``ShardHeartbeat(alive=False)`` and
  the phi-accrual monitor accrues the miss, so a SIGKILL'd or SIGSTOP'd
  process walks the same healthy→suspect→dead staircase the in-process
  simulation does.
- **submit propagates.**  An EPIPE on submit means the job was *not
  acked*; swallowing it would fabricate an ack for a job no journal
  holds.  The caller gets the typed :class:`~repro.errors.RpcError` and
  owns the resubmission decision.
- **reads degrade.**  ``queue_depth`` / ``has_job`` / probes return
  empty answers against an unreachable process instead of wedging a
  router round behind per-call timeouts; a step marks the shard
  unreachable and goes idle so the supervisor — not an exception — ends
  the shard's tenure.
- **the queue is mirrored, not asked for.**  The process changes state
  only in reply to this handle, and every such reply says what changed
  (see :mod:`repro.cluster.proc.worker`), so the handle keeps the ids
  queued there and the ids finished there and answers ``queue_depth``,
  ``has_job`` and a ``finished`` miss from them without a round trip.
  The mirror holds ids only — never a payload or an output.  Each reply
  also carries the process's own depth; one that disagrees with the
  mirror (a reply was lost after the process had acted on it) makes the
  handle read the backlog once instead of trusting itself.
- **a step has two halves, and results are handed on exactly once.**
  ``step_begin`` sends the request, with the ids of the results handed
  on since the last one (the acknowledgement), and returns;
  ``step_all`` / ``step_one`` collect the reply (or, with nothing
  begun, are the whole blocking call).  A router round begins a step on
  every shard before it collects any, which is what lets the shard
  processes execute at the same time.  The reply lists every result the
  process still holds unacknowledged; the handle hands on the ones it
  has not handed on before, and retires an acknowledgement only when a
  reply to the request that carried it has arrived.  Failure lands
  where it always did: in the collecting call, as nothing.

A shard that answered nothing is distinguished from one that is *gone*:
EOF/EPIPE (process exited) drops ``alive`` immediately, while a timeout
(possibly just wedged — SIGSTOP, a long GC) only sets ``unreachable``;
``kill()`` sends SIGKILL either way, which also evaporates the child's
journal-dir flock so the respawn can take it.
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
    """One cluster member living in its own process."""

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
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not name:
            raise ClusterError("shards need a non-empty name")
        self.name = name
        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics
        self.call_timeout_s = call_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        #: The router never touches a remote engine; ``None`` marks the
        #: process-backed variant for code that still peeks (harness).
        self.engine = None
        self.draining = False
        # -- cluster accounting (local mirrors; the process keeps the
        #    durable truth in its journal) ------------------------------
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_stolen_in = 0
        self.jobs_stolen_away = 0
        self.jobs_handed_in = 0
        self._alive = False
        self._unreachable = False
        self.hello: dict = {}
        #: The mirror: ids queued in the process, ids finished there.
        self._queued: set[str] = set()
        self._finished: set[str] = set()
        #: Ids of results handed on and not yet known to be acknowledged,
        #: oldest first; the first ``_acks_sent`` went out with the step
        #: now in flight.
        self._handed: list[str] = []
        self._acks_sent = 0

        argv = [
            sys.executable,
            "-m",
            "repro.cluster.proc.worker",
            "--name",
            name,
            "--dir",
            str(self.journal_dir),
            "--fsync",
            FsyncPolicy(fsync).value,
            "--pool-size",
            str(pool_size),
            "--checkpoint-every",
            str(checkpoint_every_slices),
            "--max-batch",
            str(max_batch),
            "--segment-records",
            str(segment_records),
            "--lock-timeout",
            str(lock_timeout_s),
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
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr_log,
            bufsize=0,
            env=env,
        )
        self.rpc = RpcClient(
            self.proc.stdin,
            self.proc.stdout,
            shard=name,
            retry=retry
            if retry is not None
            else RetryPolicy(seed=sum(name.encode())),
            clock=clock,
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
        self.hello = hello.get("value") or {}
        self._queued.update(self.hello.get("queued_ids", ()))
        self._finished.update(self.hello.get("finished_ids", ()))
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
        """Hold the mirror to the depth the process just reported.

        They differ only after a reply was lost once the process had
        acted on it (a ``release`` that timed out, a ``submit`` whose
        every attempt did); then the process's own backlog is read.
        """
        if depth == len(self._queued):
            return
        try:
            jobs = self._call("backlog")["jobs"]
        except (RpcError, ClusterError):
            return
        self._queued = {str(job["job_id"]) for job in jobs}

    @property
    def queue_depth(self) -> int:
        if not self._alive or self._unreachable:
            return 0
        return len(self._queued)

    def resident_keys(self) -> set[str]:
        if not self._alive or self._unreachable:
            return set()
        try:
            return set(self._call("resident_keys")["keys"])
        except (RpcError, ClusterError):
            return set()

    def has_job(self, job_id: str) -> bool:
        if not self._alive or self._unreachable:
            return False
        return job_id in self._queued or job_id in self._finished

    def finished(self, job_id: str) -> JobResult | None:
        if not self._alive or self._unreachable:
            return None
        if job_id not in self._finished:
            return None
        try:
            data = self._call("finished", {"job_id": job_id})["result"]
        except (RpcError, ClusterError):
            return None
        return wire.decode_result(data) if data else None

    def finished_ids(self) -> list[str]:
        if not self._alive or self._unreachable:
            return []
        try:
            return [str(j) for j in self._call("finished_ids")["job_ids"]]
        except (RpcError, ClusterError):
            return []

    def backlog(self) -> list[JobRequest]:
        if not self._alive or self._unreachable:
            return []
        try:
            jobs = self._call("backlog")["jobs"]
        except (RpcError, ClusterError):
            return []
        return [wire.decode_job(j) for j in jobs]

    @property
    def journal_records(self) -> int:
        if not self._alive or self._unreachable:
            return 0
        try:
            return int(self._call("report")["journal_records"])
        except (RpcError, ClusterError):
            return 0

    def heartbeat(self, round_index: int) -> ShardHeartbeat:
        """One per-round health report — *transport failure is the
        signal*: a dead or wedged process heartbeats ``alive=False`` and
        phi accrues exactly as for the simulated crash."""
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
        hb = wire.decode_heartbeat(data)
        # Trust the local draining flag (the process echoes it back).
        return hb

    def steal_candidates(self) -> list[JobRequest]:
        if not self._alive or self._unreachable:
            return []
        try:
            jobs = self._call("steal_candidates")["jobs"]
        except (RpcError, ClusterError):
            return []
        return [wire.decode_job(j) for j in jobs]

    # ------------------------------------------------------------------
    # job flow
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> JobResult | None:
        """Acknowledge one job on the shard process (write-ahead there).

        Transport failure **propagates**: an EPIPE or timeout means no
        journal holds the job — the ack must not be fabricated.
        """
        value = self._call("submit", {"job": wire.encode_job(request)})
        pre = value.get("result")
        (self._queued if pre is None else self._finished).add(request.job_id)
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
            self._queued.discard(job_id)
            self._finished.add(job_id)
            if job_id not in self._handed:
                fresh.append(data)
        self._reconcile(value["depth"])
        results = [wire.decode_result(data) for data in fresh[:limit]]
        self._handed += [result.job_id for result in results]
        self.jobs_completed += len(results)
        return results

    def step_all(self) -> list[JobResult]:
        """Run the shard's oldest queued job — or collect the step that
        :meth:`step_begin` started — and hand on every result the
        process holds that was not handed on before: the job's own,
        its batch lanes', and any a lost reply left behind.  Empty when
        idle or unreachable (the supervisor owns an unreachable shard's
        fate)."""
        return self._step(None)

    def step_one(self) -> JobResult | None:
        """:meth:`step_all` for a caller that takes one result at a
        time: the oldest not yet handed on, or ``None``."""
        results = self._step(1)
        return results[0] if results else None

    def release(self, job_id: str, data: dict) -> JobRequest:
        """Give up a queued job (MOVED journaled in the process)."""
        value = self._call("release", {"job_id": job_id, "data": data})
        self._queued.discard(job_id)
        self._reconcile(value["depth"])
        self.jobs_stolen_away += 1
        return wire.decode_job(value["job"])

    def expire(self, job_id: str, *, where: str = "in queue") -> JobResult:
        value = self._call("expire", {"job_id": job_id, "where": where})
        self._queued.discard(job_id)
        self._finished.add(job_id)
        self._handed.append(job_id)  # the caller has it: ack, don't re-send
        self._reconcile(value["depth"])
        return wire.decode_result(value["result"])

    def compact_journal(self) -> int:
        """Ask the process to compact its journal (the rejoin gate uses
        this to scrub crash artifacts out of the durable state)."""
        return int(self._call("compact")["removed"])

    # ------------------------------------------------------------------
    # lifecycle + chaos
    # ------------------------------------------------------------------

    def sigstop(self) -> None:
        """Wedge the process (chaos: hung-but-alive)."""
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGSTOP)

    def sigcont(self) -> None:
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGCONT)

    def kill(self) -> Path:
        """SIGKILL the process (works on wedged ones too) and reap it.

        The journal directory is left exactly as the process last
        flushed it — that is what handoff replays — and the kernel
        releases the process's journal-dir flock, so a respawn can take
        the lock immediately.  Returns the directory for the successor.
        """
        if self.proc.poll() is None:
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
        if self.proc.poll() is None:
            try:
                self.proc.terminate()
            except ProcessLookupError:  # pragma: no cover
                pass
        self._reap()

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        registry.gauge(
            "cluster_shard_alive", "1 while the shard process is up"
        ).set(1.0 if self.alive else 0.0, shard=self.name)
        registry.gauge(
            "cluster_shard_queue_depth", "Jobs queued on the shard"
        ).set(float(self.queue_depth), shard=self.name)
        registry.gauge(
            "cluster_shard_rpc_retries",
            "Transport retries against the shard process",
        ).set(float(self.rpc.retries), shard=self.name)
