"""The cluster control loop: heartbeats → verdicts → repair actions.

:class:`ClusterSupervisor` closes the loop the lower layers leave open.
Per :meth:`tick` (one supervision round, aligned with the router's
lockstep execution rounds):

1. every shard emits a :class:`~repro.cluster.lifecycle.health.ShardHeartbeat`,
   folded by the deterministic phi-accrual
   :class:`~repro.cluster.lifecycle.health.HealthMonitor`;
2. an evidence-driven **DEAD** verdict triggers the failover the
   operator would have typed: ``kill_shard`` + journal ``handoff`` to
   the ring successors;
3. a **SUSPECT** verdict (optionally) triggers a *live drain* instead —
   the shard is still up, so its backlog migrates losslessly and its
   finished results stay servable, strictly cheaper than death;
4. every ``scrub_every`` ticks the anti-entropy scrubber verifies a
   bounded slice of journal segments and cache entries; corruption it
   finds accrues phi against the owning shard (bad durable state *is*
   bad health — it means recovery would be lossy);
5. the lifecycle gauges are published
   (``cluster_shard_state{shard}``, ``cluster_drain_backlog{shard}``,
   ``scrub_segments_verified_total``, ``scrub_corruption_found_total``).

With a respawn budget (``max_respawns_per_shard``) a DEAD verdict also
brings the member *back*, as a partially reconfigurable fabric folds a
rewritten region back in.  After the kill + handoff: scrub the dead
journal (a torn tail from the crash is *expected*), respawn through the
router's ``worker_factory`` over the same directory (construction is
recovery; a process waits bounded on the dir lock, and LockTimeout names
a wedged holder's pid), compact the journal, re-scrub it — it must be
CLEAN or readmission is refused — release recovered jobs the cluster
already owns, ``mark_recovered`` (the one sanctioned exit from DEAD) and
re-enter the ring.  Every step is idempotent or strictly local, so a
crash of the supervisor mid-rejoin leaves a cluster merely degraded.

Everything is deterministic and synchronous — the supervisor is driven,
not threaded — so chaos scenarios can interleave supervision with
crashes reproducibly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.lifecycle.drain import drain_shard
from repro.cluster.lifecycle.health import HealthMonitor, ShardState
from repro.cluster.lifecycle.scrub import AntiEntropyScrubber
from repro.errors import ClusterError, LockTimeout, ReproError

__all__ = ["ClusterSupervisor", "RejoinReport", "SupervisorReport"]


@dataclass
class SupervisorReport:
    """What supervision did across the run."""

    ticks: int = 0
    heartbeats: int = 0
    auto_kills: int = 0
    auto_handoffs: int = 0
    auto_drains: int = 0
    scrub_rounds: int = 0
    transitions: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RejoinReport:
    """One shard's journey from DEAD verdict back onto the ring."""

    shard: str
    #: Supervision round of the DEAD verdict that started this rejoin.
    detect_round: int = 0
    #: Round at which the shard re-entered the ring (0 = never did).
    rejoin_round: int = 0
    #: Corrupt journal lines found by the pre-respawn scrub (a torn
    #: tail from the crash is expected here, and already excluded from
    #: both the handoff fold and the respawn replay).
    scrub_corrupt_lines: int = 0
    #: Journal records dropped by the respawned shard's compaction.
    compacted_records: int = 0
    #: Corrupt lines found by the post-compaction gate scrub (must be 0
    #: for readmission).
    gate_corrupt_lines: int = 0
    #: Jobs the respawn replay requeued from the journal.
    recovered_requeued: int = 0
    #: Recovered-queue jobs released at rejoin because the handoff (or a
    #: delivered result) already owns them.
    deduped_on_rejoin: int = 0
    #: Wall-clock seconds from DEAD verdict to ring re-entry.
    mttr_s: float = 0.0
    ok: bool = False
    error: str = ""

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ClusterSupervisor:
    """Supervise a :class:`~repro.cluster.router.ShardRouter`.

    Parameters
    ----------
    router:
        The cluster front door to supervise (owns the shards).
    monitor / scrubber:
        Injectable for tests; defaults are a fresh
        :class:`HealthMonitor` and a scrubber over the router's shard
        journal directories (plus ``cache`` when given).
    cache:
        Optional :class:`~repro.compile.cache.ArtifactCache` whose disk
        tier the default scrubber should cover.
    scrub_every:
        Run one bounded scrub round every this-many ticks (0 disables).
    drain_on_suspect:
        When True, a SUSPECT verdict triggers an automatic live drain
        (the shard is up — migrate, don't bury).  Off by default: real
        operators usually want a human between "suspicious" and
        "membership change", while DEAD is always acted on.
    max_respawns_per_shard:
        Respawns (see the module docstring) per shard name; a shard that
        keeps dying is left dead for the operator.  0, the default,
        leaves every dead shard dead.
    require_clean_scrub:
        The readmission gate: when True (default) a respawned shard
        whose *compacted* journal still fails CRC verification is shut
        back down instead of rejoining.
    """

    def __init__(
        self,
        router,
        *,
        monitor: HealthMonitor | None = None,
        scrubber: AntiEntropyScrubber | None = None,
        cache=None,
        scrub_every: int = 4,
        drain_on_suspect: bool = False,
        max_respawns_per_shard: int = 0,
        require_clean_scrub: bool = True,
    ) -> None:
        self.router = router
        self.monitor = monitor if monitor is not None else HealthMonitor()
        if scrubber is None:
            scrubber = AntiEntropyScrubber(
                {
                    name: shard.journal_dir
                    for name, shard in router.shards.items()
                },
                cache,
            )
        self.scrubber = scrubber
        self.scrub_every = scrub_every
        self.drain_on_suspect = drain_on_suspect
        self.max_respawns_per_shard = max_respawns_per_shard
        self.require_clean_scrub = require_clean_scrub
        self.report = SupervisorReport()
        #: Every rejoin attempt, successful or not, in order.
        self.rejoins: list[RejoinReport] = []
        self._respawns: dict[str, int] = {}
        self.round = 0
        self._m_state = router.metrics.gauge(
            "cluster_shard_state",
            "Lifecycle state per shard "
            "(0 healthy / 1 suspect / 2 draining / 3 dead)",
        )
        self._m_drain_backlog = router.metrics.gauge(
            "cluster_drain_backlog",
            "Jobs still queued on a draining shard",
        )
        self._m_scrub_segments = router.metrics.counter(
            "scrub_segments_verified_total",
            "Journal segments CRC-verified by the anti-entropy scrubber",
        )
        self._m_scrub_corruption = router.metrics.counter(
            "scrub_corruption_found_total",
            "Corrupt journal lines + quarantined cache entries found",
        )
        self._seen_scrub = (0, 0)  # (segments_verified, corruption_found)

    # ------------------------------------------------------------------
    # one supervision round
    # ------------------------------------------------------------------

    def tick(self) -> list[str]:
        """Heartbeats, verdicts, repair, scrub, gauges — one round.

        Returns the transition strings this tick produced (also appended
        to :attr:`report`).
        """
        self.round += 1
        self.report.ticks += 1
        seen = len(self.monitor.transitions)
        for name in sorted(self.router.shards):
            shard = self.router.shards[name]
            if self.monitor.state(name) is ShardState.DEAD:
                continue  # dead is sticky; nothing to observe
            self.monitor.observe(shard.heartbeat(self.round))
            self.report.heartbeats += 1
        self._act(seen)
        if self.scrub_every and self.round % self.scrub_every == 0:
            self._scrub_tick()
        self.publish_metrics()
        fresh = [
            f"round {t.round_index}: {t.shard} "
            f"{t.before.value}->{t.after.value} ({t.reason})"
            for t in self.monitor.transitions[seen:]
        ]
        self.report.transitions.extend(fresh)
        return fresh

    def _act(self, seen: int) -> None:
        """Turn fresh verdicts into membership actions."""
        for transition in list(self.monitor.transitions[seen:]):
            name = transition.shard
            shard = self.router.shards.get(name)
            if shard is None:
                continue
            if transition.after is ShardState.DEAD:
                if shard.alive and len(self.router.live_shards()) > 1:
                    self.router.kill_shard(name)
                    self.report.auto_kills += 1
                if not shard.alive:
                    self.router.handoff(name)
                    self.report.auto_handoffs += 1
            elif (
                transition.after is ShardState.SUSPECT
                and self.drain_on_suspect
                and shard.alive
                and len(self.router.serving_shards()) > 1
            ):
                self.monitor.mark_draining(name, self.round)
                drain_shard(self.router, name)
                self.monitor.mark_dead(name, self.round, reason="drained")
                self.report.auto_drains += 1
        # Respawn what is still dead (a drained shard included) while
        # its budget lasts.
        for transition in list(self.monitor.transitions[seen:]):
            name = transition.shard
            used = self._respawns.get(name, 0)
            if (
                transition.after is ShardState.DEAD
                and self.monitor.state(name) is ShardState.DEAD
                and used < self.max_respawns_per_shard
            ):
                self._respawns[name] = used + 1
                self.rejoins.append(self.rejoin(name, transition.round_index))

    # ------------------------------------------------------------------
    # the rejoin protocol
    # ------------------------------------------------------------------

    def _scrub_once(self, name: str, journal_dir: Path) -> int:
        """CRC-verify every segment of one directory; corrupt lines."""
        scrubber = AntiEntropyScrubber(
            {name: journal_dir}, segments_per_round=1_000_000
        )
        return scrubber.scrub_all().corrupt_lines_found

    def rejoin(self, name: str, detect_round: int) -> RejoinReport:
        """Respawn, scrub-gate and re-ring one dead shard; never raises —
        failures come back in the report and the shard stays dead."""
        report = RejoinReport(shard=name, detect_round=detect_round)
        started = time.monotonic()
        shard = self.router.shards.get(name)
        journal_dir = Path(
            shard.journal_dir if shard is not None else self.router.root / name
        )
        worker = None
        try:
            if shard is not None and shard.alive:
                raise ClusterError(
                    f"shard {name!r} is alive — rejoin is for the dead"
                )
            report.scrub_corrupt_lines = self._scrub_once(name, journal_dir)
            worker = self.router.worker_factory(name, journal_dir)
            report.recovered_requeued = len(worker.backlog())
            report.compacted_records = worker.compact_journal()
            report.gate_corrupt_lines = self._scrub_once(name, journal_dir)
            if report.gate_corrupt_lines and self.require_clean_scrub:
                raise ClusterError(
                    f"scrub gate refused {name!r}: "
                    f"{report.gate_corrupt_lines} corrupt line(s) survived "
                    f"compaction"
                )
            report.deduped_on_rejoin = self.router.rejoin_shard(name, worker)
            self.monitor.mark_recovered(name, self.round)
            report.rejoin_round = self.round
            report.ok = True
        except LockTimeout as exc:
            report.error = (
                "journal lock still held"
                + (f" by pid {exc.holder_pid}" if exc.holder_pid else "")
                + f": {exc}"
            )
        except ReproError as exc:
            report.error = str(exc)
        if not report.ok and worker is not None:
            try:
                worker.close()
            except ReproError:  # pragma: no cover - teardown best effort
                pass
        report.mttr_s = time.monotonic() - started
        self.report.transitions.append(
            f"round {self.round}: {name} "
            + (
                f"rejoined (mttr {report.mttr_s * 1e3:.0f} ms, "
                f"{report.deduped_on_rejoin} deduped)"
                if report.ok
                else f"rejoin failed ({report.error})"
            )
        )
        return report

    def _scrub_tick(self) -> None:
        self.scrubber.scrub_round()
        self.report.scrub_rounds += 1
        for shard, lines in sorted(
            self.scrubber.last_round_corruption.items()
        ):
            self.monitor.note_corruption(shard, lines, self.round)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def publish_metrics(self) -> None:
        for name, shard in self.router.shards.items():
            state = self.monitor.state(name)
            if shard.draining:
                state = ShardState.DRAINING
            self._m_state.set(float(state.code), shard=name)
            self._m_drain_backlog.set(
                float(shard.queue_depth if shard.draining else 0),
                shard=name,
            )
        scrub = self.scrubber.report
        seen_segments, seen_corruption = self._seen_scrub
        if scrub.segments_verified > seen_segments:
            self._m_scrub_segments.inc(
                scrub.segments_verified - seen_segments
            )
        if scrub.corruption_found > seen_corruption:
            self._m_scrub_corruption.inc(
                scrub.corruption_found - seen_corruption
            )
        self._seen_scrub = (scrub.segments_verified, scrub.corruption_found)

    # ------------------------------------------------------------------
    # supervised execution
    # ------------------------------------------------------------------

    def run(self, *, rebalance: bool = True) -> SupervisorReport:
        """Drain the cluster's queues under supervision.

        The supervised twin of :meth:`ShardRouter.run`: every lockstep
        execution round is preceded by one supervision tick, so health
        verdicts (and their repairs) land while work is in flight.

        ``router.pending`` only counts *live* shards, so jobs stranded
        on a silently-dead shard are invisible to it until the DEAD
        verdict's handoff requeues them — which is why the loop keeps
        ticking through an idle cluster while any shard is still
        SUSPECT (a verdict is brewing) instead of exiting early.
        """
        router = self.router
        idle_ticks = 0
        while True:
            self.tick()
            if router.pending:
                idle_ticks = 0
                if rebalance:
                    router.rebalance()
                router.step_round()
                continue
            verdict_brewing = any(
                state is ShardState.SUSPECT
                for state in self.monitor.states().values()
            ) or bool(router.draining)
            if not verdict_brewing or idle_ticks >= 16:
                break
            idle_ticks += 1
        return self.report
