"""Deterministic phi-accrual shard failure detection.

Classic phi-accrual detectors (Hayashibara et al.) estimate, from the
wall-clock history of heartbeat inter-arrival times, how *suspicious*
a silence is — a continuous ``phi`` score instead of a binary timeout —
and let each consumer pick its own threshold.  The cluster tier is
deterministic and round-based (the router steps shards in lockstep), so
this monitor adapts the idea to simulated rounds: every round each
shard reports a :class:`ShardHeartbeat`, and ``phi`` *accrues* from the
evidence in it —

* a **missing** heartbeat (the shard's engine is gone) accrues hard;
* every fabric sidelined (quarantine + open breakers cover the pool)
  accrues moderately: the shard is up but cannot serve;
* partial sidelining and **queue growth** against the shard's own
  exponentially-weighted history accrue gently: load is piling on a
  shard that is not keeping up;
* a clean round *decays* phi multiplicatively toward zero.

Two thresholds turn the score into the lifecycle state machine
``HEALTHY → SUSPECT → DEAD`` (§13 of DESIGN.md).  DEAD is sticky — a
shard declared dead must re-enter through recovery, never by silently
looking better — and DRAINING is an administrative state the drain verb
sets, not one evidence can reach.  No wall clocks, no randomness: the
same heartbeat sequence always produces the same transition history,
which is what lets the chaos harness pin supervision behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ClusterError

__all__ = [
    "ShardState",
    "ShardHeartbeat",
    "StateTransition",
    "HealthMonitor",
]


class ShardState(enum.Enum):
    """Lifecycle states the supervisor tracks per shard."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DRAINING = "draining"
    DEAD = "dead"

    @property
    def code(self) -> int:
        """Stable numeric encoding for the ``cluster_shard_state`` gauge."""
        return _STATE_CODES[self]


_STATE_CODES = {
    ShardState.HEALTHY: 0,
    ShardState.SUSPECT: 1,
    ShardState.DRAINING: 2,
    ShardState.DEAD: 3,
}


@dataclass(frozen=True)
class ShardHeartbeat:
    """One shard's per-round health report.

    ``journal_records`` is the incarnation's replay debt — how many
    records a restart (or handoff) would have to fold; it feeds the
    scrub scheduler, not phi, but travels with the heartbeat so one
    structure carries everything the supervisor reads per round.
    """

    shard: str
    round_index: int
    alive: bool = True
    draining: bool = False
    queue_depth: int = 0
    breaker_open_fabrics: int = 0
    quarantined_fabrics: int = 0
    total_fabrics: int = 1
    journal_records: int = 0

    @property
    def sidelined_fabrics(self) -> int:
        return self.breaker_open_fabrics + self.quarantined_fabrics

    @property
    def serving_capacity(self) -> int:
        """Fabrics actually able to take a job this round."""
        return max(0, self.total_fabrics - self.sidelined_fabrics)


@dataclass(frozen=True)
class StateTransition:
    """One edge of the lifecycle state machine, with its evidence."""

    round_index: int
    shard: str
    before: ShardState
    after: ShardState
    phi: float
    reason: str


@dataclass
class _ShardTrack:
    state: ShardState = ShardState.HEALTHY
    phi: float = 0.0
    #: EWMA of queue depth — the shard's own notion of "normal" load.
    queue_ewma: float = 0.0
    rounds_seen: int = 0


class HealthMonitor:
    """Fold heartbeats into per-shard phi scores and lifecycle states.

    Parameters
    ----------
    suspect_phi / dead_phi:
        Accrual thresholds for the SUSPECT and DEAD transitions.  With
        the default weights a fully sidelined pool needs three
        consecutive bad rounds to reach SUSPECT and a missing heartbeat
        needs two to reach DEAD — fast enough to matter, slow enough
        that one bad round never kills a shard.
    decay:
        Multiplicative phi decay applied on a clean round (0..1; lower
        forgives faster).
    miss_phi / sidelined_phi / growth_phi:
        Accrual per round for, respectively, a missing heartbeat, a
        fully sidelined fabric pool (scaled by the sidelined fraction
        when partial), and queue depth growing past the EWMA envelope.
    queue_alpha / queue_margin / queue_factor:
        EWMA smoothing for queue depth, and the absolute + relative
        envelope a depth must exceed to count as growth evidence.
    """

    def __init__(
        self,
        *,
        suspect_phi: float = 3.0,
        dead_phi: float = 8.0,
        decay: float = 0.5,
        miss_phi: float = 4.0,
        sidelined_phi: float = 2.0,
        growth_phi: float = 1.0,
        queue_alpha: float = 0.3,
        queue_margin: float = 4.0,
        queue_factor: float = 2.0,
    ) -> None:
        if not 0.0 < suspect_phi < dead_phi:
            raise ClusterError(
                f"need 0 < suspect_phi < dead_phi, got "
                f"{suspect_phi} / {dead_phi}"
            )
        if not 0.0 <= decay < 1.0:
            raise ClusterError(f"decay must be in [0, 1), got {decay}")
        if not 0.0 < queue_alpha <= 1.0:
            raise ClusterError(
                f"queue_alpha must be in (0, 1], got {queue_alpha}"
            )
        self.suspect_phi = suspect_phi
        self.dead_phi = dead_phi
        self.decay = decay
        self.miss_phi = miss_phi
        self.sidelined_phi = sidelined_phi
        self.growth_phi = growth_phi
        self.queue_alpha = queue_alpha
        self.queue_margin = queue_margin
        self.queue_factor = queue_factor
        self._tracks: dict[str, _ShardTrack] = {}
        #: Full transition history, in observation order.
        self.transitions: list[StateTransition] = []

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _track(self, shard: str) -> _ShardTrack:
        track = self._tracks.get(shard)
        if track is None:
            track = self._tracks[shard] = _ShardTrack()
        return track

    def state(self, shard: str) -> ShardState:
        return self._track(shard).state

    def phi(self, shard: str) -> float:
        return self._track(shard).phi

    def states(self) -> dict[str, ShardState]:
        return {name: t.state for name, t in sorted(self._tracks.items())}

    # ------------------------------------------------------------------
    # administrative edges
    # ------------------------------------------------------------------

    def mark_draining(self, shard: str, round_index: int = 0) -> None:
        """Administrative DRAINING (the drain verb owns this edge)."""
        self._transition(
            self._track(shard),
            shard,
            round_index,
            ShardState.DRAINING,
            "drain requested",
        )

    def mark_dead(self, shard: str, round_index: int = 0, reason: str = "killed") -> None:
        """Administrative DEAD (kill / completed drain)."""
        self._transition(
            self._track(shard), shard, round_index, ShardState.DEAD, reason
        )

    def mark_recovered(
        self,
        shard: str,
        round_index: int = 0,
        reason: str = "rejoined after recovery",
    ) -> None:
        """The recovery re-entry edge out of DEAD.

        :meth:`_transition` deliberately refuses to leave DEAD — a state
        *edit* cannot resurrect a shard.  This is the one sanctioned
        exit: the process supervisor calls it only after the full rejoin
        protocol ran (respawn over the journal, replay, scrub gate,
        queue reconciliation), and the track is *replaced*, not patched,
        because the rejoined member is a fresh process whose phi history
        died with its predecessor.
        """
        track = self._track(shard)
        if track.state is not ShardState.DEAD:
            raise ClusterError(
                f"mark_recovered on {shard!r} in state "
                f"{track.state.value}: only DEAD shards re-enter via "
                f"recovery"
            )
        self.transitions.append(
            StateTransition(
                round_index=round_index,
                shard=shard,
                before=ShardState.DEAD,
                after=ShardState.HEALTHY,
                phi=track.phi,
                reason=reason,
            )
        )
        self._tracks[shard] = _ShardTrack()

    def note_corruption(self, shard: str, lines: int, round_index: int = 0) -> None:
        """Scrub found corruption in this shard's journal: accrue hard.

        Corrupt durable state is worse than a slow round — the shard's
        *recovery* story is compromised — so it accrues like a partial
        miss instead of waiting for the damage to surface at replay.
        """
        if lines <= 0:
            return
        track = self._track(shard)
        if track.state is ShardState.DEAD:
            return
        track.phi += self.sidelined_phi
        self._apply_thresholds(
            track, shard, round_index, f"journal corruption ({lines} lines)"
        )

    # ------------------------------------------------------------------
    # the fold
    # ------------------------------------------------------------------

    def observe(self, hb: ShardHeartbeat) -> ShardState:
        """Fold one heartbeat; returns the (possibly new) state."""
        track = self._track(hb.shard)
        if track.state is ShardState.DEAD:
            return track.state  # sticky: dead shards re-enter via recovery
        if not hb.alive:
            track.phi += self.miss_phi
            self._apply_thresholds(
                track, hb.shard, hb.round_index, "missing heartbeat"
            )
            return track.state
        # -- evidence from a live heartbeat -----------------------------
        evidence: list[str] = []
        accrued = 0.0
        if hb.total_fabrics > 0 and hb.serving_capacity == 0:
            accrued += self.sidelined_phi
            evidence.append("no serving capacity")
        elif hb.sidelined_fabrics > 0:
            fraction = hb.sidelined_fabrics / max(1, hb.total_fabrics)
            accrued += self.sidelined_phi * fraction
            evidence.append(
                f"{hb.sidelined_fabrics}/{hb.total_fabrics} fabrics sidelined"
            )
        envelope = (
            self.queue_factor * track.queue_ewma + self.queue_margin
        )
        if track.rounds_seen > 0 and hb.queue_depth > envelope:
            accrued += self.growth_phi
            evidence.append(
                f"queue {hb.queue_depth} past envelope {envelope:.1f}"
            )
        track.queue_ewma = (
            self.queue_alpha * hb.queue_depth
            + (1.0 - self.queue_alpha) * track.queue_ewma
        )
        track.rounds_seen += 1
        if accrued > 0.0:
            track.phi += accrued
            self._apply_thresholds(
                track, hb.shard, hb.round_index, "; ".join(evidence)
            )
        else:
            track.phi *= self.decay
            if (
                track.state is ShardState.SUSPECT
                and track.phi < self.suspect_phi
            ):
                self._transition(
                    track,
                    hb.shard,
                    hb.round_index,
                    ShardState.HEALTHY,
                    "phi decayed below suspect threshold",
                )
        return track.state

    def _apply_thresholds(
        self, track: _ShardTrack, shard: str, round_index: int, reason: str
    ) -> None:
        if track.phi >= self.dead_phi:
            self._transition(
                track, shard, round_index, ShardState.DEAD, reason
            )
        elif (
            track.phi >= self.suspect_phi
            and track.state is ShardState.HEALTHY
        ):
            self._transition(
                track, shard, round_index, ShardState.SUSPECT, reason
            )

    def _transition(
        self,
        track: _ShardTrack,
        shard: str,
        round_index: int,
        after: ShardState,
        reason: str,
    ) -> None:
        if track.state is after:
            return
        if track.state is ShardState.DEAD:
            raise ClusterError(
                f"shard {shard!r} is DEAD; it re-enters via recovery, "
                f"not a state edit"
            )
        self.transitions.append(
            StateTransition(
                round_index=round_index,
                shard=shard,
                before=track.state,
                after=after,
                phi=track.phi,
                reason=reason,
            )
        )
        track.state = after
