"""The shard router: consistent-hash placement, stealing, handoff.

``ShardRouter`` is the cluster's front door.  Every job routes by the
**content address of its compiled plan** — :func:`plan_hash_prefix` of
the artifact its :class:`~repro.serve.jobs.KernelSpec` compiles to —
so all jobs sharing a configuration land on one shard and hit its warm
fabrics and artifact cache.  The router owns three protocols whose
orderings carry the durability invariants:

**Routing + dedup.**  A job id is acknowledged cluster-wide exactly
once: the router consults its delivered results and every live shard
(results *and* queues) before forwarding, so client retries after a
router restart are absorbed no matter which shard the job migrated to.

**Work stealing** (hot shard → cold shard), thief-first::

    thief journal:  SUBMITTED          <- the job is never unowned
    --- crashpoint "cluster.steal" ---
    victim journal: MOVED              <- victim replay stops covering it

A crash between the two writes leaves the job in *both* journals; both
incarnations may execute it, which is safe — outputs are bit-identical
by construction and the router delivers first-wins — while a crash
before the first write leaves it exactly where it was.  At no point can
replay drop it, which is the invariant the steal chaos matrix pins.
Only cold-hash jobs are stolen (see
:meth:`~repro.cluster.proc.shard.ProcShardWorker.steal_candidate`), so
stealing never breaks a warm affinity run.

**Handoff** (dead shard → successors) is recovery-as-construction
reused across shard boundaries: scan the dead shard's journal
*read-only*, fold it with the same
:func:`~repro.serve.durability.recovery.replay`, deliver its finished
results, and re-route every unfinished job through the ring (which no
longer contains the dead shard).  Each re-submission is write-ahead on
the successor and deduplicated there, so handoff is idempotent — a
crash mid-handoff (crashpoint ``"cluster.handoff"``) just means the
next incarnation folds the same journal again.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from repro.chaos.crashpoints import crashpoint, register_crashpoint
from repro.compile.hashing import plan_hash_prefix
from repro.errors import ClusterError
from repro.cluster.ring import KEY_BITS, HashRing
from repro.cluster.proc.shard import ProcShardWorker
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.recovery import replay
from repro.serve.jobs import JobRequest, JobResult, KernelSpec
from repro.serve.metrics import MetricsRegistry

__all__ = ["ShardRouter", "spec_routing_key", "CP_STEAL", "CP_HANDOFF"]

#: Between the thief's SUBMITTED and the victim's MOVED — the window in
#: which a job legitimately exists in two journals.
CP_STEAL = register_crashpoint("cluster.steal")
#: Before each handoff re-submission — the window in which part of a
#: dead shard's queue has re-homed and part has not.
CP_HANDOFF = register_crashpoint("cluster.handoff")

def spec_routing_key(spec: KernelSpec, bits: int = KEY_BITS) -> int:
    """The cluster routing key of a kernel spec.

    Compiles the spec through the kernel-frontend registry (a repeat
    spec never re-lowers — the artifact cache serves it) and projects
    the artifact's content address into the ring's key space.  Every
    router incarnation computes the same key for the same spec — the
    property recovery re-routing relies on.  Registry dispatch means a
    newly registered kernel is routable with no router change; hidden
    parameters the spec tuple omits (e.g. the FFT's ``link_cost_ns``)
    canonicalize to the frontend's defaults, which match the serving
    sessions' so the router shares their cache entries.
    """
    # Lazy imports: the kernels import repro.compile.ir.
    from repro.compile.frontends import compile_kernel, get_frontend
    from repro.errors import CompileError, KernelError

    try:
        frontend = get_frontend(spec.kind.value)
        params = frontend.params_from_spec(spec.params)
        artifact = compile_kernel(spec.kind.value, params)
    except (CompileError, KernelError) as exc:
        raise ClusterError(
            f"cannot compile routing artifact for {spec}: {exc}"
        ) from exc
    return plan_hash_prefix(artifact, bits)


class ShardRouter:
    """Consistent-hash front door over a set of shards."""

    def __init__(
        self,
        root: Path | str,
        shard_names: list[str] | tuple[str, ...],
        *,
        pool_size: int = 1,
        fsync: FsyncPolicy | str = FsyncPolicy.NEVER,
        checkpoint_every_slices: int = 0,
        max_batch: int = 1,
        vnodes: int = 64,
        steal_margin: int = 2,
        max_steals_per_round: int = 4,
        session_factory=None,
        breaker_factory=None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        worker_factory: Callable[[str, Path], ProcShardWorker] | None = None,
    ) -> None:
        if not shard_names:
            raise ClusterError("a cluster needs at least one shard")
        if len(set(shard_names)) != len(shard_names):
            raise ClusterError(f"duplicate shard names: {shard_names}")
        if steal_margin < 1:
            raise ClusterError(f"steal_margin must be >= 1, got {steal_margin}")
        self.root = Path(root)
        self.metrics = metrics or MetricsRegistry()
        self.steal_margin = steal_margin
        self.max_steals_per_round = max_steals_per_round
        self.clock = clock
        #: How this router builds a shard over a journal directory.  The
        #: default is an in-process loopback shard; the multi-process
        #: tier passes :class:`~repro.cluster.proc.shard.ProcShardWorker`
        #: itself (a subprocess per shard), and the supervisor reuses the
        #: same factory to respawn a dead member for rejoin.
        self.worker_factory = worker_factory or (
            lambda name, journal_dir: ProcShardWorker.loopback(
                name,
                journal_dir,
                pool_size=pool_size,
                session_factory=session_factory,
                fsync=fsync,
                checkpoint_every_slices=checkpoint_every_slices,
                max_batch=max_batch,
                breaker_factory=breaker_factory,
                clock=clock,
            )
        )
        self.shards: dict[str, ProcShardWorker] = {}
        for name in shard_names:
            self.shards[name] = self.worker_factory(name, self.root / name)
        self.ring = HashRing(shard_names, vnodes=vnodes)
        #: Shards mid-drain: still alive (and on the ring — removal is
        #: the drain's *last* step), but excluded from routing and from
        #: stealing in both directions.
        self.draining: set[str] = set()
        #: First-wins delivered results (the client-facing dedup line).
        self.results: dict[str, JobResult] = {}
        #: Where each acknowledged job currently lives.
        self.owner: dict[str, str] = {}
        self._key_memo: dict[str, int] = {}
        # -- accounting ---------------------------------------------------
        self.steals = 0
        self.handoffs = 0
        self.duplicate_results = 0
        self.rejoins = 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def routing_key(self, spec: KernelSpec) -> int:
        key = self._key_memo.get(spec.config_key)
        if key is None:
            key = self._key_memo[spec.config_key] = spec_routing_key(spec)
        return key

    def shard_for(self, spec: KernelSpec) -> str:
        return self.ring.route(self.routing_key(spec), exclude=self.draining)

    def live_shards(self) -> list[ProcShardWorker]:
        return [s for s in self.shards.values() if s.alive]

    def serving_shards(self) -> list[ProcShardWorker]:
        """Live shards still admitting work (not mid-drain)."""
        return [
            s
            for s in self.shards.values()
            if s.alive and s.name not in self.draining
        ]

    def submit(self, request: JobRequest) -> JobResult | None:
        """Route one job to its shard; returns a recorded result when the
        cluster has already delivered (or recovered) one for this id."""
        recorded = self.results.get(request.job_id)
        if recorded is not None:
            return recorded
        for shard in self.live_shards():
            result = shard.finished(request.job_id)
            if result is not None:
                self._record(result)
                return result
        if any(s.has_job(request.job_id) for s in self.live_shards()):
            return None  # queued somewhere (recovered or stolen) — acked
        name = self.shard_for(request.spec)
        pre = self.shards[name].submit(request)
        self.owner[request.job_id] = name
        self.metrics.counter(
            "cluster_jobs_routed_total", "Jobs placed by the ring"
        ).inc(shard=name)
        if pre is not None:
            self._record(pre)
        return pre

    def _record(self, result: JobResult | None) -> JobResult | None:
        """Fold one shard result into the first-wins delivered map."""
        if result is None:
            return None
        if result.job_id in self.results:
            self.duplicate_results += 1
            self.metrics.counter(
                "cluster_results_deduped_total",
                "Shard results suppressed by first-wins delivery",
            ).inc()
            return self.results[result.job_id]
        self.results[result.job_id] = result
        return result

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        return sum(s.queue_depth for s in self.live_shards())

    def step_round(self) -> int:
        """One round: every live shard runs one queued job and hands
        back every result it has not handed back before (the job's, its
        batch lanes', any that a lost reply left behind).

        Scatter, then gather.  The round first begins a step on every
        live shard, then collects the replies; both passes go in name
        order, so results fold — and loopback shards, which do their
        work at collection, execute — in exactly the order a one-by-one
        loop would give, which is what lets the cluster chaos matrix
        place crashes reproducibly.  Shard *processes* execute between
        the two passes, all at once.  Returns the number of jobs
        completed this round.
        """
        stepping = [
            shard for _, shard in sorted(self.shards.items()) if shard.alive
        ]
        for shard in stepping:
            shard.step_begin()
        completed = 0
        for shard in stepping:
            for result in shard.step_all():
                self._record(result)
                completed += 1
        return completed

    def run(self, *, rebalance: bool = True) -> int:
        """Drain every live shard's queue; returns jobs completed."""
        total = 0
        while self.pending:
            if rebalance:
                self.rebalance()
            total += self.step_round()
        return total

    # ------------------------------------------------------------------
    # work stealing
    # ------------------------------------------------------------------

    def rebalance(self) -> int:
        """Steal cold-hash jobs from hot shards to cold ones.

        Moves at most ``max_steals_per_round`` jobs, only while the
        hottest live shard is more than ``steal_margin`` jobs deeper
        than the coldest, and never moves a job whose configuration is
        warm on its current shard.  Returns the number of steals.
        """
        moved = 0
        while moved < self.max_steals_per_round:
            # Draining shards take no part: drain owns their backlog
            # migration, and feeding them work would never terminate it.
            live = self.serving_shards()
            if len(live) < 2:
                break
            victim = max(live, key=lambda s: (s.queue_depth, s.name))
            thief = min(live, key=lambda s: (s.queue_depth, s.name))
            if victim.queue_depth - thief.queue_depth <= self.steal_margin:
                break
            candidate = victim.steal_candidate()
            if candidate is None:
                break
            if not self._steal(victim, thief, candidate):
                break
            moved += 1
        return moved

    def _steal(
        self,
        victim: ProcShardWorker,
        thief: ProcShardWorker,
        request: JobRequest,
    ) -> bool:
        """Move one queued job, thief-first (see the module docstring).

        A shard that dies under the move must not raise out of the
        round — the supervisor ends its tenure, as it does for a shard
        that dies under a step.  No ack from the thief means no steal:
        nothing was released, and if the thief journaled the job before
        dying, handoff finds it still queued on the victim and skips
        it.  No ack from the victim, after the thief's, is the
        two-journal window reached by transport instead of by crash:
        the thief owns the job and first-wins delivery absorbs a second
        execution.
        """
        try:
            pre = thief.submit(request)
        except ClusterError:
            return False
        if pre is not None:
            # The thief already finished this id (a duplicate left over
            # from an earlier crash window): don't take ownership twice.
            self._record(pre)
            return False
        thief.jobs_stolen_in += 1
        self.owner[request.job_id] = thief.name
        crashpoint(CP_STEAL)
        try:
            victim.release(
                request.job_id, {"to": thief.name, "reason": "steal"}
            )
        except ClusterError:
            return False
        self.steals += 1
        self.metrics.counter(
            "cluster_jobs_stolen_total", "Jobs moved by work stealing"
        ).inc(src=victim.name, dst=thief.name)
        return True

    # ------------------------------------------------------------------
    # shard death + handoff
    # ------------------------------------------------------------------

    def kill_shard(self, name: str) -> Path:
        """Simulate shard ``name`` dying; it leaves the ring immediately.

        Its journal directory survives — run :meth:`handoff` to re-home
        its unfinished jobs and re-serve its finished results.
        """
        shard = self.shards.get(name)
        if shard is None:
            raise ClusterError(f"no shard {name!r}")
        if len(self.live_shards()) < 2:
            raise ClusterError(f"cannot kill {name!r}: it is the last shard")
        journal_dir = shard.kill()
        self.draining.discard(name)
        if name in self.ring:
            self.ring.remove_node(name)
        return journal_dir

    def handoff(self, name: str, journal_dir: Path | str | None = None) -> int:
        """Re-home a dead shard's jobs by replaying its journal.

        Pure read + re-submit: the dead journal is scanned (never
        appended to), finished jobs become recovered results, unfinished
        ones re-route through the ring and are write-ahead-acknowledged
        on their successors (which deduplicate repeats).  Idempotent —
        safe to run again after a crash mid-handoff.  Returns the number
        of jobs re-homed this call.
        """
        shard = self.shards.get(name)
        if shard is not None and shard.alive:
            raise ClusterError(f"shard {name!r} is alive — drain it instead")
        self.draining.discard(name)
        if name in self.ring:
            self.ring.remove_node(name)
        directory = Path(
            journal_dir
            if journal_dir is not None
            else (shard.journal_dir if shard is not None else self.root / name)
        )
        journal = JobJournal(directory, fsync=FsyncPolicy.NEVER, lock=False)
        records, _ = journal.scan()
        journal.close()
        state = replay(records)
        for job in state.finished_jobs():
            self._record(job.recorded_result())
        rehomed = 0
        for request in state.recovered_requests():
            # Checkpoints are local to the dead shard; successors run
            # the job from scratch (always safe, just slower).
            request.resume_slice = 0
            request.checkpoint_path = ""
            request.checkpoint_crc = 0
            crashpoint(CP_HANDOFF)
            successor = self.ring.route(
                self.routing_key(request.spec), exclude=self.draining
            )
            target = self.shards[successor]
            done = target.finished(request.job_id)
            if done is not None:
                self._record(done)
                continue
            if target.has_job(request.job_id):
                continue  # an earlier handoff pass already re-homed it
            pre = target.submit(request)
            if pre is None:
                target.jobs_handed_in += 1
                self.owner[request.job_id] = successor
                rehomed += 1
            else:
                self._record(pre)
        self.handoffs += 1
        self.metrics.counter(
            "cluster_handoffs_total", "Dead-shard journal handoffs"
        ).inc(shard=name)
        return rehomed

    def rejoin_shard(self, name: str, shard: ProcShardWorker) -> int:
        """Re-admit a respawned shard as a fresh ring member.

        ``shard`` is a *new* worker (typically respawned by the process
        supervisor over the dead member's journal directory, replayed
        and scrub-gated).  Before it takes traffic, its recovered queue
        is reconciled against the cluster: any job the handoff already
        re-homed (or that has a delivered result) is released with a
        MOVED record — the successor owns it, and executing it twice
        here would violate single-delivery accounting.  Only then does
        the name re-enter the ring, with the minimal consistent-hash
        key movement of adding one node.  Returns the number of jobs
        deduplicated off the recovered queue.
        """
        if not shard.alive:
            raise ClusterError(f"cannot rejoin dead shard {name!r}")
        if name in self.ring:
            raise ClusterError(f"shard {name!r} is already on the ring")
        old = self.shards.get(name)
        if old is not None and old.alive:
            raise ClusterError(
                f"shard {name!r} is still alive — kill or drain it first"
            )
        self.shards[name] = shard
        self.draining.discard(name)
        deduped = 0
        for request in shard.backlog():
            job_id = request.job_id
            elsewhere = job_id in self.results or any(
                s is not shard and s.alive and s.has_job(job_id)
                for s in self.shards.values()
            )
            if elsewhere:
                shard.release(job_id, {"reason": "rejoin-dedup"})
                deduped += 1
            else:
                # Handoff missed it (crashed mid-pass): this rejoined
                # member still owns it, which replay already arranged.
                self.owner[job_id] = name
        self.ring.add_node(name)
        self.rejoins += 1
        self.metrics.counter(
            "cluster_rejoins_total", "Shards readmitted after recovery"
        ).inc(shard=name)
        return deduped

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def publish_metrics(self) -> None:
        for shard in self.shards.values():
            shard.publish_metrics(self.metrics)

    def close(self) -> None:
        for shard in self.shards.values():
            if shard.alive:
                shard.close()
