"""Chaos scenarios over the sharded cluster, on either shard transport.

The one chaos runner, with one oracle (:mod:`repro.chaos.invariants`).
A single durable engine is the one-shard case: ``n_shards=1`` rebuilds
that engine from its journal directory after every crash.  The fault
plan picks the transport:

* **crash points** (:class:`~repro.chaos.crashpoints.FaultSpec`) run over
  loopback shards in this process.  A fault at any registered point
  unwinds the whole incarnation; the next one rebuilds every surviving
  shard from its journal directory, redoes the handoff of the dead
  (idempotently) and re-drains a shard whose drain the crash cut short.
* **process faults** (:class:`~repro.chaos.procfaults.ProcFault`) need
  shard subprocesses: SIGKILL, SIGSTOP with the journal flock held, a
  reply torn or never written, EPIPE on the ack path.  A supervisor
  with a respawn budget hands the victim's journal off, respawns it,
  scrub-gates it and folds it back onto the ring.

A plan with neither runs where ``processes`` says.  On top of any plan
one shard may be **killed** mid-run and another **live-drained**.  A job
*may* legally complete in two journals when a crash lands inside a
steal or drain window; that is reported (``duplicate_executions``), not
a violation, because delivery deduplicates it.  A process-fault victim
must also be back on the ring, alive and healthy, by the end.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chaos.crashpoints import FaultSpec, SimulatedCrash, armed
from repro.chaos.invariants import Deliveries, baseline_outputs, check_journals
from repro.chaos.procfaults import ProcFault, sigkill_pid, sigstop_pid
from repro.cluster.lifecycle.drain import drain_shard as live_drain
from repro.cluster.lifecycle.health import ShardState
from repro.cluster.lifecycle.supervisor import ClusterSupervisor
from repro.cluster.proc.rpc import RetryPolicy
from repro.cluster.proc.shard import ProcShardWorker
from repro.cluster.ring import HashRing
from repro.cluster.router import ShardRouter, spec_routing_key
from repro.errors import ChaosError, ClusterError
from repro.serve.durability.journal import FsyncPolicy
from repro.serve.jobs import JobRequest, fft_spec, jpeg_spec

__all__ = [
    "LOST_REPLIES",
    "ClusterReport",
    "ClusterScenario",
    "lost_reply_scenario",
    "run_cluster_scenario",
]

#: The scenario trace draws specs from this palette — three distinct
#: configurations so the ring has something to spread and stealing has
#: cold-hash material.
_SPEC_PALETTE = (
    ("fft", fft_spec(16, 4, 2)),
    ("jpeg", jpeg_spec(75, False)),
    ("jpeg", jpeg_spec(50, False)),
)

#: Rounds with nothing to execute a run waits — for a victim's verdict
#: and rejoin to land, or for a refused submit to be taken — before it
#: reports what never happened.
_IDLE_ROUNDS = 32


@dataclass(frozen=True)
class ClusterScenario:
    """One deterministic cluster fault experiment."""

    #: Crash points, or one process fault (not both).
    faults: tuple[FaultSpec | ProcFault, ...] = ()
    seed: int = 0
    n_jobs: int = 12
    n_shards: int = 3
    #: Zipf-ish skew: probability mass of the hottest palette entry.
    hot_fraction: float = 0.6
    #: Kill this shard (by sorted index) after ``kill_after`` completions
    #: (``None`` = nobody dies).
    kill_shard: int | None = None
    kill_after: int = 2
    #: Live-drain this shard (by sorted index) after ``drain_after``
    #: completions (``None`` = nobody drains).  May be combined with a
    #: kill of a *different* shard.
    drain_shard: int | None = None
    drain_after: int = 2
    steal: bool = True
    pool_size: int = 1
    #: Epoch-progress cadence of every shard's engine (slices between
    #: checkpoints; 0 disables resume).
    checkpoint_every_slices: int = 0
    max_restarts: int = 8
    fsync: FsyncPolicy = FsyncPolicy.NEVER
    #: Run a plan without process faults over shard subprocesses too.
    processes: bool = False
    #: The process fault's victim by sorted index; ``None`` picks the
    #: hottest serving shard when it fires.  ``torn`` and ``exit`` arm
    #: the victim's own write path at *spawn*, so they need one.
    victim: int | None = None
    #: RPC budget per ordinary call (subprocess shards).
    call_timeout_s: float = 5.0
    #: RPC budget per heartbeat — short on purpose: a wedged process
    #: should read as a missed heartbeat within a round or two.
    heartbeat_timeout_s: float = 0.75
    #: Wall-clock bound on the whole run.
    deadline_s: float = 180.0

    def __post_init__(self) -> None:
        proc = [f for f in self.faults if isinstance(f, ProcFault)]
        if proc and (len(proc) > 1 or len(proc) < len(self.faults)):
            raise ChaosError(
                "a plan holds crash points or one process fault, not both"
            )
        if self.processes and self.faults and not proc:
            raise ChaosError("crash points fire in this process only")
        if self.kill_shard is not None and self.kill_shard == self.drain_shard:
            raise ChaosError(
                f"cannot both kill and drain shard {self.kill_shard} "
                f"in one scenario"
            )
        for role in ("victim", "kill_shard", "drain_shard"):
            index = getattr(self, role)
            if index is not None and not 0 <= index < self.n_shards:
                raise ChaosError(
                    f"{role} index {index} out of range "
                    f"for {self.n_shards} shards"
                )
        if self.n_shards < 2 and (
            self.kill_shard is not None or self.drain_shard is not None
        ):
            raise ChaosError(
                "a shard kill or drain needs at least 2 shards"
            )
        fault = self.proc_fault
        if fault is None:
            return
        if self.n_shards < 2:
            raise ChaosError("process faults need at least 2 shards")
        if fault.at_spawn and self.victim is None:
            raise ChaosError(
                f"the {fault.kind} fault arms the victim at spawn "
                f"— pick one (victim=<index>)"
            )
        if fault.after_completions >= self.n_jobs:
            raise ChaosError(
                f"fault fires after {fault.after_completions} "
                f"completions but the trace only has {self.n_jobs} jobs"
            )

    @property
    def proc_fault(self) -> ProcFault | None:
        return next(
            (f for f in self.faults if isinstance(f, ProcFault)), None
        )

    @property
    def subprocess(self) -> bool:
        """Do the shards run as OS subprocesses?"""
        return self.processes or self.proc_fault is not None

    def shard_names(self) -> list[str]:
        return [f"shard-{i}" for i in range(self.n_shards)]

    def requests(self) -> list[JobRequest]:
        """Fresh request objects each call (incarnations must not share)."""
        rng = np.random.default_rng(self.seed)
        weights = np.full(len(_SPEC_PALETTE), 0.0)
        weights[0] = self.hot_fraction
        weights[1:] = (1.0 - self.hot_fraction) / (len(_SPEC_PALETTE) - 1)
        requests = []
        for index in range(self.n_jobs):
            kind, spec = _SPEC_PALETTE[
                int(rng.choice(len(_SPEC_PALETTE), p=weights))
            ]
            if kind == "fft":
                payload = (
                    rng.standard_normal(16) + 1j * rng.standard_normal(16)
                )
            else:
                payload = rng.integers(0, 256, size=(8, 8), dtype=np.int64)
            requests.append(
                JobRequest(
                    spec=spec,
                    payload=payload,
                    job_id=f"cl-{index:04d}",
                    max_retries=1,
                )
            )
        return requests


#: The kinds of reply a dying shard can fail to deliver, as (which
#: shard of the trace, which of its responses).  Under the round
#: protocol every one of them changes state on the far side, so none is
#: absorbed as a harmless failed probe.  ``hot`` is the shard the ring
#: homes most of the trace on (every steal's victim); ``idle`` is one it
#: homes nothing on, so its first ``submit`` ack can only be a thief's
#: and its first result is a stolen job's.
LOST_REPLIES = {
    "client-submit-ack": ("hot", "submit:3"),
    "step-reply-with-result": ("idle", "step:1"),
    "thief-submit-ack": ("idle", "submit:1"),
    "release-ack": ("hot", "release:1"),
}


def lost_reply_scenario(kind: str, reply: str, **kwargs) -> ClusterScenario:
    """The scenario in which a ``torn`` or ``exit`` fault destroys the
    ``reply`` (a key of :data:`LOST_REPLIES`) of the shard that sends it."""
    who, response = LOST_REPLIES[reply]
    base = ClusterScenario(**kwargs)
    names = base.shard_names()
    ring = HashRing(names)
    homed = Counter(
        ring.route(spec_routing_key(r.spec)) for r in base.requests()
    )
    if who == "hot":
        victim = max(names, key=homed.__getitem__)
    else:
        victim = min(names, key=homed.__getitem__)
        if homed[victim]:
            raise ChaosError(f"the trace leaves no shard idle: {dict(homed)}")
    return dataclasses.replace(
        base,
        faults=(ProcFault(kind=kind, response=response),),
        victim=names.index(victim),
    )


@dataclass
class ClusterReport:
    """What the scenario did and which invariants (if any) it broke."""

    restarts: int = 0
    rounds: int = 0
    faults_fired: list[str] = field(default_factory=list)
    jobs_acked: int = 0
    jobs_completed: int = 0
    #: Typed errors on the ack path (each submit retried next round).
    submit_errors: int = 0
    #: Executed deliveries that resumed from an epoch checkpoint, and
    #: the slices those resumes skipped.
    jobs_resumed: int = 0
    resumed_slices: int = 0
    #: Torn journal lines recovery dropped, summed over incarnations.
    corrupt_lines_dropped: int = 0
    #: The ``epipe`` proof: a submit against a known-dead process raised
    #: the typed error instead of fabricating an ack.
    epipe_typed: bool = False
    steals: int = 0
    handoffs: int = 0
    shard_killed: str = ""
    shard_drained: str = ""
    #: Backlog jobs the (final, completed) drain migrated / expired /
    #: found already owned by the successor.
    drain_moved: int = 0
    drain_expired: int = 0
    drain_deduped: int = 0
    #: Drain attempts, counting ones a crash interrupted.
    drain_attempts: int = 0
    #: The process fault's victim, and its last rejoin attempt.
    victim: str = ""
    victim_pid: int = 0
    rejoin: dict = field(default_factory=dict)
    rpc_retries: int = 0
    stale_responses: int = 0
    #: Jobs that (legally) completed in more than one journal.
    duplicate_executions: int = 0
    journal_records: int = 0
    #: :meth:`~repro.chaos.invariants.Deliveries.digest` of the run.
    outputs_digest: str = ""
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def fault_fired(self) -> bool:
        return bool(self.faults_fired)

    @property
    def rejoined(self) -> bool:
        return bool(self.rejoin.get("ok"))

    def as_dict(self) -> dict:
        body = dict(self.__dict__)
        body["ok"] = self.ok
        return body


def run_cluster_scenario(
    scenario: ClusterScenario, workdir: Path | str
) -> ClusterReport:
    """Execute one scenario under ``workdir`` (a scratch directory)."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    root = workdir / "cluster"
    report = ClusterReport()
    deliveries = Deliveries(
        baseline_outputs(scenario.requests(), workdir / "baseline"),
        report.violations,
    )

    def deliver(result) -> None:
        if deliveries.deliver(result) and result.resumed_slices:
            report.jobs_resumed += 1
            report.resumed_slices += result.resumed_slices

    names = scenario.shard_names()

    def pick(index: int | None) -> str | None:
        return names[index] if index is not None else None

    kill_name = pick(scenario.kill_shard)
    drain_name = pick(scenario.drain_shard)
    pinned = pick(scenario.victim)
    report.shard_killed = kill_name or ""
    report.shard_drained = drain_name or ""
    fault = scenario.proc_fault
    spawned: set[str] = set()

    def factory(name: str, journal_dir: Path) -> ProcShardWorker:
        options = dict(
            pool_size=scenario.pool_size,
            fsync=scenario.fsync,
            checkpoint_every_slices=scenario.checkpoint_every_slices,
        )
        if not scenario.subprocess:
            return ProcShardWorker.loopback(name, journal_dir, **options)
        # Arm the write-path hook only on the victim's FIRST process —
        # the respawned member must not die again into a crash loop.
        first = name not in spawned
        spawned.add(name)
        return ProcShardWorker(
            name,
            journal_dir,
            **options,
            call_timeout_s=scenario.call_timeout_s,
            heartbeat_timeout_s=scenario.heartbeat_timeout_s,
            retry=RetryPolicy(
                attempts=2, base_delay_s=0.01, max_delay_s=0.1,
                seed=sum(name.encode()),
            ),
            chaos_env=fault.spawn_env if fault and name == pinned and first
            else None,
        )

    requests = scenario.requests()
    # The epipe fault holds one job out of the trace: it is submitted to
    # the corpse at fault time (to prove the typed-error path), then
    # resubmitted normally.
    held_back = requests.pop() if fault and fault.kind == "epipe" else None
    acked: set[str] = set()
    killed: set[str] = set()  # persists across incarnations: dead is dead
    #: Shards whose drain *completed* (left the ring, closed).  A drain a
    #: crash interrupted is NOT here — the shard revives as a survivor
    #: next incarnation and is re-drained idempotently.
    drained: set[str] = set()
    deadline = time.monotonic() + scenario.deadline_s
    router: ShardRouter | None = None
    supervisor: ClusterSupervisor | None = None

    def fire(pending: list[JobRequest]) -> None:
        """Hurt the victim process (faults not armed at spawn)."""
        victim = (
            router.shards[pinned]
            if pinned is not None
            else max(
                router.serving_shards(), key=lambda s: (s.queue_depth, s.name)
            )
        )
        report.victim, report.victim_pid = victim.name, victim.pid or 0
        if fault.kind == "sigstop":
            sigstop_pid(victim.pid)
            return
        # sigkill and epipe both start with a kernel-level kill.
        sigkill_pid(victim.pid)
        victim.proc.wait(timeout=10.0)
        if fault.kind == "epipe":
            try:
                victim.submit(held_back)
                report.violations.append(
                    "epipe: submit against a dead process returned "
                    "without a typed transport error (fabricated ack)"
                )
            except ClusterError:  # RpcError or the dead-shard refusal
                report.epipe_typed = True
            pending.append(held_back)

    def settled() -> bool:
        """Has the fault fired and its victim's rejoin succeeded, or run
        out of respawns?"""
        attempts = [r for r in supervisor.rejoins if r.shard == report.victim]
        return report.fault_fired and (
            any(r.ok for r in attempts)
            or len(attempts) >= supervisor.max_respawns_per_shard
        )

    def serve() -> list[JobRequest]:
        """One incarnation: submit, step and hurt until the trace is
        done; returns the requests never acknowledged."""
        pending = [r for r in requests if r.job_id not in acked]
        completions = idle = 0
        while time.monotonic() < deadline:
            report.rounds += 1
            if supervisor is not None:
                supervisor.tick()
            still = []
            for request in pending:
                try:
                    pre = router.submit(request)
                except (OSError, ClusterError):
                    # Typed failure on the ack path: no ack was
                    # fabricated.  The retry is absorbed even if the
                    # shard *journaled* the job before dying — handoff
                    # re-homes it and the next submit finds it.
                    report.submit_errors += 1
                    still.append(request)
                    continue
                acked.add(request.job_id)
                if pre is not None:
                    deliver(pre)
            pending = still
            if router.pending:
                if scenario.steal:
                    router.rebalance()
                before = len(router.results)
                router.step_round()
                completions += len(router.results) - before
            if (
                kill_name is not None
                and kill_name not in killed
                and completions >= scenario.kill_after
            ):
                killed.add(kill_name)
                router.kill_shard(kill_name)
                router.handoff(kill_name)
            if (
                drain_name is not None
                and drain_name not in drained
                and completions >= scenario.drain_after
                and len(router.serving_shards()) > 1
            ):
                report.drain_attempts += 1
                drain = live_drain(router, drain_name)
                # Only reached when no crash point fired inside the
                # drain; an interrupted drain re-runs next incarnation.
                drained.add(drain_name)
                report.drain_moved = drain.moved
                report.drain_expired = drain.expired
                report.drain_deduped = drain.deduped
            if fault is not None and not report.fault_fired:
                if fault.at_spawn:
                    if not router.shards[pinned].alive:
                        report.faults_fired.append(
                            f"{fault.kind}:{fault.response}"
                        )
                        report.victim = pinned
                        report.victim_pid = router.shards[pinned].pid or 0
                elif completions >= fault.after_completions:
                    report.faults_fired.append(
                        f"{fault.kind}@{fault.after_completions}"
                    )
                    fire(pending)
            if router.pending:
                idle = 0
            elif not pending and (fault is None or settled()):
                break
            elif idle >= _IDLE_ROUNDS:
                break
            else:
                idle += 1  # a verdict (or a spawn-armed trigger) brews
        return pending

    try:
        with armed(
            *(f for f in scenario.faults if isinstance(f, FaultSpec))
        ) as controller:
            while True:
                if report.restarts > scenario.max_restarts:
                    raise ChaosError(
                        f"scenario needed more than {scenario.max_restarts} "
                        f"restarts — runaway crash loop"
                    )
                try:
                    router = ShardRouter(
                        root,
                        [n for n in names if n not in killed | drained],
                        worker_factory=factory,
                    )
                    if scenario.subprocess:
                        # scrub_every=0: the workers append concurrently,
                        # and a mid-flush tail would read as corruption.
                        # The rejoin still scrubs a *dead* member's journal.
                        supervisor = ClusterSupervisor(
                            router, scrub_every=0, max_respawns_per_shard=2
                        )
                    # A shard that died (or whose drain completed) in an
                    # earlier incarnation stays out; redo its handoff
                    # (idempotent) before serving.
                    for name in sorted(killed | drained):
                        router.handoff(name, root / name)
                    # Recovered finished results are (re)deliveries.
                    for shard in router.live_shards():
                        report.corrupt_lines_dropped += shard.hello.get(
                            "corrupt_lines_dropped", 0
                        )
                        ids = [j for j in shard.finished_ids() if j in acked]
                        for result in shard.finished_results(ids):
                            result = router._record(result) or result
                            deliver(result)
                    unacked = serve()
                    router.publish_metrics()
                except SimulatedCrash:
                    report.restarts += 1
                    continue
                break
        report.faults_fired += [
            f"{spec.point}:{spec.action}@{spec.hit}"
            for spec in controller.fired
        ]
        for job_id, result in router.results.items():
            if job_id in acked:
                deliver(result)
        report.steals = router.steals
        report.handoffs = router.handoffs
        for shard in router.shards.values():
            report.rpc_retries += shard.rpc.retries
            report.stale_responses += shard.rpc.stale_responses
        if fault is not None:
            _check_victim(report, router, supervisor, fault)
        for request in unacked:
            report.violations.append(
                f"{request.job_id}: never acknowledged "
                f"(submit retries outlasted the run)"
            )
    finally:
        if router is not None:
            router.close()

    report.jobs_acked = len(acked)
    report.jobs_completed = deliveries.completed
    report.outputs_digest = deliveries.digest()
    deliveries.check_acked(acked)
    report.journal_records, report.duplicate_executions = check_journals(
        {name: root / name for name in names}, report.violations
    )
    return report


def _check_victim(report, router, supervisor, fault) -> None:
    """A process fault must have fired and its victim be back: on the
    ring, alive, and healthy to the monitor."""
    if not report.fault_fired:
        report.violations.append(
            f"{fault.kind}: fault never fired (trace too short for its "
            f"trigger)"
        )
        return
    attempts = [r for r in supervisor.rejoins if r.shard == report.victim]
    if attempts:
        report.rejoin = attempts[-1].as_dict()
    victim = report.victim
    if not report.rejoined:
        why = attempts[-1].error if attempts else "no rejoin was attempted"
        report.violations.append(f"{victim}: never rejoined the ring ({why})")
        return
    if victim not in router.ring:
        report.violations.append(
            f"{victim}: rejoin reported ok but the shard is not on the ring"
        )
    if not router.shards[victim].alive:
        report.violations.append(
            f"{victim}: rejoin reported ok but the respawned process is "
            f"not alive"
        )
    state = supervisor.monitor.state(victim)
    if state is not ShardState.HEALTHY:
        report.violations.append(
            f"{victim}: rejoined but monitor says {state.value}"
        )
