"""Live drain: remove a *running* shard from the ring without killing it.

Kill + handoff (PR 7) is the crash path: the journal is all that is
left, and the successors re-execute everything unfinished.  Drain is
the planned path — maintenance, scale-in, a SUSPECT health verdict —
and it must be strictly cheaper: no acked job is lost, *nothing
finished is re-executed*, and the ring churn is the minimal
consistent-hash disruption of removing one node.

The protocol, per backlog job (oldest first), mirrors work stealing's
thief-first ordering so the same safety argument applies::

    successor journal: SUBMITTED            <- the job is never unowned
    --- crashpoint "cluster.drain.move" ---
    drained journal:   MOVED(reason=drain)  <- replay stops covering it

A crash inside the window leaves the job in both journals — both may
execute it, outputs are bit-identical by construction, and the router
delivers first-wins — while a crash before the SUBMITTED leaves the job
exactly where it was: the drained shard is *still alive* in the next
incarnation (drain never removes it durably), so recovery requeues the
job there and a repeated drain re-moves it.  Re-draining is idempotent:
already-moved jobs are out of the queue after replay, and the successor
deduplicates repeats.

Expired-deadline jobs are failed *locally* (journaled TIMEOUT) instead
of migrated — moving a job nobody is waiting for would spend successor
capacity to compute an answer that gets thrown away.

Only after the backlog is empty does the shard leave the ring
(``cluster.drain.finish`` sits just before that edge) and close
cleanly.  Its journal directory survives with every DONE record, so its
finished results remain servable through the ordinary handoff fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.crashpoints import crashpoint, register_crashpoint
from repro.errors import ClusterError

__all__ = ["CP_DRAIN_MOVE", "CP_DRAIN_FINISH", "DrainReport", "drain_shard"]

#: Between the successor's SUBMITTED and the draining shard's MOVED —
#: the steal-window twin for drains.
CP_DRAIN_MOVE = register_crashpoint("cluster.drain.move")
#: After the backlog emptied, before the shard leaves the ring — a
#: crash here must leave a shard that is empty but fully re-drainable.
CP_DRAIN_FINISH = register_crashpoint("cluster.drain.finish")


@dataclass
class DrainReport:
    """What one drain call did."""

    shard: str
    #: Backlog depth when the drain started.
    backlog: int = 0
    #: Jobs migrated to successors (SUBMITTED there, MOVED here).
    moved: int = 0
    #: Jobs failed locally because their deadline had already lapsed.
    expired: int = 0
    #: Jobs that needed no move (the successor already owned/finished
    #: them — leftovers of an earlier crashed drain).
    deduped: int = 0
    #: Per-successor move counts.
    successors: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def drain_shard(router, name: str) -> DrainReport:
    """Drain shard ``name`` out of ``router`` while it is running.

    Admission stops first (the ring's exclude set), the backlog then
    migrates job by job under the thief-first protocol above, and only
    an *empty* shard leaves the ring and closes.  Safe to call again
    after a crash at any point — every step is idempotent.  Raises when
    the shard is dead or is the last one serving.
    """
    shard = router.shards.get(name)
    if shard is None:
        raise ClusterError(f"no shard {name!r}")
    if not shard.alive:
        raise ClusterError(f"shard {name!r} is dead — hand it off instead")
    if len(router.serving_shards()) < 2 and name not in router.draining:
        raise ClusterError(
            f"cannot drain {name!r}: it is the last serving shard"
        )

    # -- stop admitting ------------------------------------------------
    # From here the ring routes around the shard and stealing ignores it
    # in both directions; queued work is drain's to migrate.
    router.draining.add(name)
    shard.draining = True

    report = DrainReport(shard=name, backlog=shard.queue_depth)
    m_moved = router.metrics.counter(
        "cluster_jobs_drained_total", "Jobs migrated off a draining shard"
    )
    now = router.clock()
    for request in shard.backlog():
        if not shard.has_job(request.job_id):
            continue  # finished/moved since the snapshot
        if request.expired(now):
            result = shard.expire(request.job_id, where="during drain")
            router._record(result)
            report.expired += 1
            continue
        successor = router.ring.route(
            router.routing_key(request.spec),
            exclude=router.draining,
        )
        target = router.shards[successor]
        # Successors drop checkpoint resume fields on their side of
        # submit dedup; the checkpoint file is local to this shard.
        request.resume_slice = 0
        request.checkpoint_path = ""
        request.checkpoint_crc = 0
        pre = target.submit(request)
        if pre is not None:
            # The successor already finished this id (an earlier drain's
            # crash window): deliver its result, drop our stale copy.
            router._record(pre)
            shard.release(request.job_id, {"to": successor, "reason": "drain"})
            report.deduped += 1
            continue
        target.jobs_handed_in += 1
        crashpoint(CP_DRAIN_MOVE)
        shard.release(request.job_id, {"to": successor, "reason": "drain"})
        router.owner[request.job_id] = successor
        report.moved += 1
        report.successors[successor] = (
            report.successors.get(successor, 0) + 1
        )
        m_moved.inc(src=name, dst=successor)

    # -- leave the ring ------------------------------------------------
    crashpoint(CP_DRAIN_FINISH)
    if name in router.ring:
        router.ring.remove_node(name)
    router.draining.discard(name)
    shard.draining = False
    # Fold the shard's finished results into first-wins delivery before
    # it closes — post-drain dedup must not depend on an earlier round
    # having already shipped them.  Only the unshipped ones (first-wins
    # would discard the rest), all in one read of the shard.
    unshipped = [j for j in shard.finished_ids() if j not in router.results]
    for result in shard.finished_results(unshipped):
        router._record(result)
    shard.close()
    router.metrics.counter(
        "cluster_drains_total", "Live shard drains completed"
    ).inc(shard=name)
    return report
