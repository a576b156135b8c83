"""Chaos scenarios with *real* process faults over subprocess shards.

The cluster harness (:mod:`repro.cluster.harness`) kills shards by
closing their engines in-process; every fault there is an exception.
This harness spawns three real shard subprocesses and hurts them the
way the kernel does — SIGKILL mid-conversation, SIGSTOP with the
journal flock held, a response frame torn halfway, EPIPE on the ack
path — then lets :class:`~repro.cluster.proc.supervisor.
ProcessSupervisor` notice through phi-accrual over real heartbeats,
hand the victim's journal off, respawn it, scrub-gate it and fold it
back onto the ring.

The invariants at the end are the cluster harness's, unchanged in
meaning but now proven across process death and rejoin:

* **no acknowledged job lost** — an ack crossed the pipe only after the
  worker journaled SUBMITTED, so every acked job reaches a terminal
  result even when the acking process is later SIGKILL'd;
* **typed ack failure** — a submit racing process death surfaces
  :class:`~repro.errors.RpcError`; the harness proves no ack is
  fabricated (the ``epipe`` fault submits to a corpse on purpose);
* **no conflicting client result**, **per-journal single DONE**,
  **MOVED-not-into-void** (the job is SUBMITTED or terminal in another
  journal), **idempotent replay** — per journal, folded after the
  cluster shuts down;
* **bit-identical outputs** — every executed DONE output equals the
  fault-free single-engine baseline even though it crossed the wire
  codec (possibly twice, via handoff).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.procfaults import ProcFault, sigkill_pid, sigstop_pid
from repro.cluster.harness import (
    ClusterScenario,
    _baseline_outputs,
    _outputs_equal,
)
from repro.cluster.lifecycle.health import ShardState
from repro.cluster.proc.rpc import RetryPolicy
from repro.cluster.proc.shard import ProcShardWorker
from repro.cluster.proc.supervisor import ProcessSupervisor
from repro.cluster.ring import HashRing
from repro.cluster.router import ShardRouter, spec_routing_key
from repro.errors import ChaosError, ClusterError, RpcError
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.records import RecordType
from repro.serve.durability.recovery import replay
from repro.serve.jobs import JobStatus

__all__ = [
    "ProcScenario",
    "ProcReport",
    "LOST_REPLIES",
    "lost_reply_scenario",
    "run_proc_scenario",
]


@dataclass(frozen=True)
class ProcScenario:
    """One deterministic multi-process fault experiment."""

    fault: ProcFault | None = None
    seed: int = 0
    n_jobs: int = 12
    n_shards: int = 3
    hot_fraction: float = 0.6
    #: Victim shard by sorted index; ``None`` picks the hottest serving
    #: shard when the fault fires.  ``torn`` and ``exit`` arm the
    #: victim's own write path at *spawn*, so they need the choice up
    #: front.
    victim: int | None = None
    pool_size: int = 1
    #: RPC budget per ordinary call (submit/step/reads).
    call_timeout_s: float = 5.0
    #: RPC budget per heartbeat — short on purpose: a wedged process
    #: should read as a missed heartbeat within a round or two.
    heartbeat_timeout_s: float = 0.75
    spawn_timeout_s: float = 60.0
    max_rounds: int = 200
    deadline_s: float = 180.0

    def __post_init__(self) -> None:
        if self.n_shards < 2:
            raise ChaosError("process faults need at least 2 shards")
        if self.fault is not None:
            if self.fault.at_spawn and self.victim is None:
                raise ChaosError(
                    f"the {self.fault.kind} fault arms the victim at spawn "
                    f"— pick one (victim=<index>)"
                )
            if self.fault.after_completions >= self.n_jobs:
                raise ChaosError(
                    f"fault fires after {self.fault.after_completions} "
                    f"completions but the trace only has {self.n_jobs} jobs"
                )
        if self.victim is not None and not (
            0 <= self.victim < self.n_shards
        ):
            raise ChaosError(
                f"victim index {self.victim} out of range "
                f"for {self.n_shards} shards"
            )

    def cluster_scenario(self) -> ClusterScenario:
        """The in-process twin providing the trace and the baseline."""
        return ClusterScenario(
            seed=self.seed,
            n_jobs=self.n_jobs,
            n_shards=self.n_shards,
            hot_fraction=self.hot_fraction,
        )


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


def lost_reply_scenario(kind: str, reply: str, **kwargs) -> ProcScenario:
    """The scenario in which a ``torn`` or ``exit`` fault destroys the
    ``reply`` (a key of :data:`LOST_REPLIES`) of the shard that sends it."""
    who, response = LOST_REPLIES[reply]
    base = ProcScenario(**kwargs).cluster_scenario()
    names = base.shard_names()
    ring = HashRing(names)
    homed = dict.fromkeys(names, 0)
    for request in base.requests():
        homed[ring.route(spec_routing_key(request.spec))] += 1
    if who == "hot":
        victim = max(names, key=lambda name: homed[name])
    else:
        victim = min(names, key=lambda name: homed[name])
        if homed[victim]:
            raise ChaosError(f"the trace leaves no shard idle: {homed}")
    return ProcScenario(
        fault=ProcFault(kind=kind, response=response),
        victim=names.index(victim),
        **kwargs,
    )


@dataclass
class ProcReport:
    """What the scenario did and which invariants (if any) it broke."""

    rounds: int = 0
    fault: str = ""
    fault_fired: bool = False
    victim: str = ""
    victim_pid: int = 0
    jobs_acked: int = 0
    jobs_completed: int = 0
    #: Typed transport errors surfaced on the ack path (counted, never
    #: swallowed — each one was retried by the harness until acked).
    submit_errors: int = 0
    #: The ``epipe`` proof: a submit against a known-dead process raised
    #: the typed error instead of fabricating an ack.
    epipe_typed: bool = False
    steals: int = 0
    handoffs: int = 0
    rejoins: int = 0
    rejoined: bool = False
    rejoin: dict = field(default_factory=dict)
    rpc_retries: int = 0
    stale_responses: int = 0
    duplicate_executions: int = 0
    journal_records: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        body = dict(self.__dict__)
        body["ok"] = self.ok
        return body


def _wait_for_exit(shard: ProcShardWorker, timeout_s: float = 10.0) -> None:
    """Block until the kernel has reaped the victim (poll() is truthy)."""
    deadline = time.monotonic() + timeout_s
    while shard.proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.01)


def run_proc_scenario(
    scenario: ProcScenario, workdir: Path | str
) -> ProcReport:
    """Execute one scenario under ``workdir`` (a scratch directory)."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    root = workdir / "proc-cluster"
    base = scenario.cluster_scenario()
    baseline = _baseline_outputs(base, workdir)
    names = base.shard_names()
    fault = scenario.fault
    report = ProcReport(fault=fault.kind if fault is not None else "")

    pinned_victim = (
        names[scenario.victim] if scenario.victim is not None else None
    )
    spawned: dict[str, int] = {}

    def factory(name: str, journal_dir: Path) -> ProcShardWorker:
        count = spawned.get(name, 0)
        spawned[name] = count + 1
        chaos_env = None
        # Arm the write-path hook only on the victim's FIRST process —
        # the respawned member must not die again into a crash loop.
        if (
            fault is not None
            and fault.at_spawn
            and name == pinned_victim
            and count == 0
        ):
            chaos_env = fault.spawn_env
        return ProcShardWorker(
            name,
            journal_dir,
            pool_size=scenario.pool_size,
            fsync=FsyncPolicy.NEVER,
            call_timeout_s=scenario.call_timeout_s,
            heartbeat_timeout_s=scenario.heartbeat_timeout_s,
            spawn_timeout_s=scenario.spawn_timeout_s,
            retry=RetryPolicy(
                attempts=2,
                base_delay_s=0.01,
                max_delay_s=0.1,
                seed=sum(name.encode()),
            ),
            chaos_env=chaos_env,
        )

    router = ShardRouter(root, names, worker_factory=factory)
    # scrub_every=0: the workers append to their journals concurrently,
    # and a mid-flush tail would read as spurious corruption.  The
    # rejoin protocol still scrubs — against a *dead* member's journal.
    supervisor = ProcessSupervisor(router, scrub_every=0)

    acked: set[str] = set()
    delivered: dict[str, JobStatus] = {}
    executed_outputs: dict[str, object] = {}

    def deliver(result) -> None:
        prior = delivered.get(result.job_id)
        if prior is not None and prior is not result.status:
            report.violations.append(
                f"{result.job_id}: delivered {prior.value} then "
                f"{result.status.value} (conflicting client results)"
            )
        delivered[result.job_id] = result.status
        if result.status is JobStatus.DONE and not result.recovered:
            executed_outputs.setdefault(result.job_id, result.output)

    requests = base.requests()
    held_back = None
    if fault is not None and fault.kind == "epipe":
        # Held out of the trace; submitted against the corpse at fault
        # time to prove the typed-error path, then resubmitted normally.
        held_back = requests[-1]
        requests = requests[:-1]
    pending_requests = list(requests)
    fired = False

    def pick_victim() -> ProcShardWorker:
        if pinned_victim is not None:
            return router.shards[pinned_victim]
        serving = router.serving_shards()
        return max(serving, key=lambda s: (s.queue_depth, s.name))

    def fire_fault() -> None:
        nonlocal pending_requests
        victim = pick_victim()
        report.victim = victim.name
        report.victim_pid = victim.pid or 0
        if fault.kind == "sigstop":
            sigstop_pid(victim.pid)
            return
        # sigkill and epipe both start with a kernel-level kill.
        sigkill_pid(victim.pid)
        _wait_for_exit(victim)
        if fault.kind == "epipe" and held_back is not None:
            try:
                victim.submit(held_back)
                report.violations.append(
                    "epipe: submit against a dead process returned "
                    "without a typed transport error (fabricated ack)"
                )
            except ClusterError:  # RpcError or the dead-shard refusal
                report.epipe_typed = True
            pending_requests.append(held_back)

    try:
        deadline = time.monotonic() + scenario.deadline_s
        while (
            report.rounds < scenario.max_rounds
            and time.monotonic() < deadline
        ):
            report.rounds += 1
            supervisor.tick()
            still = []
            for request in pending_requests:
                if request.job_id in acked:
                    continue
                try:
                    pre = router.submit(request)
                except ClusterError:
                    # Typed failure on the ack path (RpcError from a
                    # dying pipe, or the ring still routing to a shard
                    # already marked dead): no ack was fabricated.  The
                    # retry is absorbed even if the victim *journaled*
                    # the job before tearing — handoff re-homes it and
                    # the next submit finds the finished result.
                    report.submit_errors += 1
                    still.append(request)
                    continue
                acked.add(request.job_id)
                if pre is not None:
                    deliver(pre)
            pending_requests = still
            if (
                fault is not None
                and not fired
                and not fault.at_spawn
                and len(router.results) >= fault.after_completions
            ):
                fired = True
                report.fault_fired = True
                fire_fault()
            if fault is not None and fault.at_spawn and not fired:
                victim_shard = router.shards[pinned_victim]
                if not victim_shard.alive:
                    fired = True
                    report.fault_fired = True
                    report.victim = pinned_victim
                    report.victim_pid = victim_shard.pid or 0
            if router.pending:
                router.rebalance()
                router.step_round()
                continue
            if pending_requests:
                continue
            if fault is None:
                break
            attempts = [
                r for r in supervisor.rejoins if r.shard == report.victim
            ]
            report.rejoined = any(r.ok for r in attempts)
            if report.rejoined:
                break
            if fired and len(attempts) >= supervisor.max_respawns_per_shard:
                break  # rejoin budget exhausted — report the failure
            # Otherwise keep ticking: a verdict (or the spawn-armed
            # trigger's response count) is still brewing on an idle
            # cluster.
        for job_id, result in router.results.items():
            if job_id in acked:
                deliver(result)
        report.jobs_acked = len(acked)
        report.jobs_completed = sum(
            1 for s in delivered.values() if s is JobStatus.DONE
        )
        report.steals = router.steals
        report.handoffs = router.handoffs
        report.rejoins = len(supervisor.rejoins)
        for shard in router.shards.values():
            report.rpc_retries += shard.rpc.retries
            report.stale_responses += shard.rpc.stale_responses
        victim_attempts = [
            r for r in supervisor.rejoins if r.shard == report.victim
        ]
        if victim_attempts:
            report.rejoin = victim_attempts[-1].as_dict()

        # ---- fault-specific expectations ------------------------------
        if fault is not None:
            if not fired:
                report.violations.append(
                    f"{fault.kind}: fault never fired "
                    f"(trace too short for its trigger)"
                )
            else:
                report.rejoined = any(r.ok for r in victim_attempts)
                if not report.rejoined:
                    why = (
                        victim_attempts[-1].error
                        if victim_attempts
                        else "no rejoin was attempted"
                    )
                    report.violations.append(
                        f"{report.victim}: never rejoined the ring ({why})"
                    )
                else:
                    if report.victim not in router.ring:
                        report.violations.append(
                            f"{report.victim}: rejoin reported ok but the "
                            f"shard is not on the ring"
                        )
                    if not router.shards[report.victim].alive:
                        report.violations.append(
                            f"{report.victim}: rejoin reported ok but the "
                            f"respawned process is not alive"
                        )
                    if (
                        supervisor.monitor.state(report.victim)
                        is not ShardState.HEALTHY
                    ):
                        report.violations.append(
                            f"{report.victim}: rejoined but monitor says "
                            f"{supervisor.monitor.state(report.victim).value}"
                        )
        for request in pending_requests:
            report.violations.append(
                f"{request.job_id}: never acknowledged "
                f"(submit retries exhausted the round budget)"
            )
    finally:
        router.close()

    # ---- invariant: no acknowledged job lost --------------------------
    for job_id in sorted(acked):
        if job_id not in delivered:
            report.violations.append(f"{job_id}: acknowledged but lost")

    # ---- invariants over every shard journal --------------------------
    #: Jobs each journal owns or owned to the end: SUBMITTED there, or
    #: terminal there (rejoin's ``compact()`` keeps only the DONE record
    #: of a finished job, by design).
    held_by_shard: dict[str, set[str]] = {}
    done_by_job: dict[str, int] = {}
    moved: list[tuple[str, str]] = []
    for name in names:
        directory = root / name
        if not directory.exists():
            continue
        journal = JobJournal(directory, fsync=FsyncPolicy.NEVER, lock=False)
        records, scan = journal.scan()
        journal.close()
        report.journal_records += scan.records
        held_by_shard[name] = {
            r.job_id
            for r in records
            if r.type in (RecordType.SUBMITTED, RecordType.DONE)
        }
        per_job_done: dict[str, int] = {}
        for record in records:
            if record.type is RecordType.DONE:
                per_job_done[record.job_id] = (
                    per_job_done.get(record.job_id, 0) + 1
                )
            elif record.type is RecordType.MOVED:
                moved.append((name, record.job_id))
        for job_id, count in sorted(per_job_done.items()):
            if count > 1:
                report.violations.append(
                    f"{name}/{job_id}: {count} DONE records in one journal"
                )
            done_by_job[job_id] = done_by_job.get(job_id, 0) + 1
        state_a, state_b = replay(records), replay(records)
        fold = lambda s: {  # noqa: E731 - local comparison key
            j.job_id: (j.finished, j.moved is None, j.dispatches, j.retries)
            for j in s.jobs.values()
        }
        if fold(state_a) != fold(state_b):
            report.violations.append(f"{name}: journal replay not idempotent")
    report.duplicate_executions = sum(
        1 for count in done_by_job.values() if count > 1
    )

    # ---- invariant: no job moved into the void ------------------------
    for shard_name, job_id in moved:
        elsewhere = any(
            job_id in ids
            for name, ids in held_by_shard.items()
            if name != shard_name
        )
        if not elsewhere:
            report.violations.append(
                f"{shard_name}/{job_id}: MOVED but neither SUBMITTED nor "
                f"DONE anywhere else"
            )

    # ---- invariant: executed outputs match the baseline ---------------
    for job_id, output in sorted(executed_outputs.items()):
        want = baseline.get(job_id)
        if want is None:
            continue
        if not _outputs_equal(output, want):
            report.violations.append(
                f"{job_id}: output differs from fault-free baseline "
                f"(the wire codec must round-trip bit-exact)"
            )
    return report
