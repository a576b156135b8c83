"""``repro.cluster.lifecycle`` — supervision over the sharded tier.

The cluster's analogue of the paper's continuous ICAP readback
scrubbing, one level up: where PR 3 watches *tiles* for silent SEU
corruption and repairs them without stopping the fabric, this package
watches *shards* and *durable state* without stopping the cluster:

* :mod:`~repro.cluster.lifecycle.health` — a deterministic, round-based
  phi-accrual health monitor folding per-shard heartbeats into
  healthy → suspect → dead transitions;
* :mod:`~repro.cluster.lifecycle.drain` — live drain: remove a running
  shard from the ring without killing it, migrating its backlog with
  the same thief-first MOVED protocol work stealing uses;
* :mod:`~repro.cluster.lifecycle.scrub` — an anti-entropy scrubber
  re-verifying journal segment CRCs and artifact-cache disk entries in
  the background, quarantining corruption before recovery needs it;
* :mod:`~repro.cluster.lifecycle.supervisor` — the control loop tying
  them together over a :class:`~repro.cluster.router.ShardRouter`
  (dead shards are handed off automatically and, within a respawn
  budget, scrub-gated back onto the ring; gauges are published).
"""

from repro._lazy import lazy_exports

# Imported on first use: the wire needs ``health`` alone.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cluster.lifecycle.drain": ("DrainReport", "drain_shard"),
        "repro.cluster.lifecycle.health": (
            "HealthMonitor", "ShardHeartbeat", "ShardState", "StateTransition",
        ),
        "repro.cluster.lifecycle.scrub": ("AntiEntropyScrubber", "ScrubReport"),
        "repro.cluster.lifecycle.supervisor": (
            "ClusterSupervisor", "RejoinReport", "SupervisorReport",
        ),
    },
)

__all__ = [
    "AntiEntropyScrubber",
    "ClusterSupervisor",
    "DrainReport",
    "HealthMonitor",
    "RejoinReport",
    "ScrubReport",
    "ShardHeartbeat",
    "ShardState",
    "StateTransition",
    "SupervisorReport",
    "drain_shard",
]
