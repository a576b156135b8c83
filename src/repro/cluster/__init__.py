"""``repro.cluster`` — the sharded scale-out serving tier.

Affinity scheduling promoted one level: where a single
:class:`~repro.serve.service.FabricJobService` keeps same-configuration
jobs on warm *fabrics*, the cluster keeps same-plan-hash jobs on the
same *shard* — a :class:`~repro.cluster.proc.shard.ProcShardWorker`
owning its own fabric pool, artifact-cache slice and journal directory,
in its own process or in this one — behind a
consistent-hash :class:`~repro.cluster.router.ShardRouter`.  Hot shards
shed cold-hash work to idle ones (never breaking a warm run), dead
shards hand their journal off to their ring successors (the PR 5
recovery fold, reused across shard boundaries), and
:mod:`repro.cluster.loadgen` scales the whole design to a million
synthetic jobs with calibrated service times.

:mod:`repro.cluster.lifecycle` supervises the membership itself:
deterministic phi-accrual failure detection over per-round shard
heartbeats, *live* drains that migrate a running shard's backlog
without losing an acked job, and anti-entropy scrubbing that re-verifies
journal CRCs and cache disk entries before recovery has to trust them.

``python -m repro cluster`` demos the tier;
:mod:`repro.cluster.harness` is its deterministic chaos counterpart.
"""

from repro._lazy import lazy_exports

# Imported on first use: a shard subprocess needs only the wire and
# the durable engine, not the router, load generator or harnesses.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cluster.harness": (
            "LOST_REPLIES", "ClusterReport", "ClusterScenario",
            "lost_reply_scenario", "run_cluster_scenario",
        ),
        "repro.cluster.lifecycle": (
            "AntiEntropyScrubber", "ClusterSupervisor", "DrainReport",
            "HealthMonitor", "RejoinReport", "ScrubReport", "ShardHeartbeat",
            "ShardState", "StateTransition", "SupervisorReport", "drain_shard",
        ),
        "repro.cluster.loadgen": (
            "LoadSpec", "LoadReport", "generate_trace", "run_load", "simulate",
        ),
        "repro.cluster.proc": ("ProcShardWorker", "RetryPolicy", "RpcClient"),
        "repro.cluster.ring": ("KEY_BITS", "HashRing", "ring_position"),
        "repro.cluster.router": ("ShardRouter", "spec_routing_key"),
    },
)

__all__ = [
    "KEY_BITS",
    "LOST_REPLIES",
    "AntiEntropyScrubber",
    "ClusterReport",
    "ClusterScenario",
    "ClusterSupervisor",
    "DrainReport",
    "HashRing",
    "HealthMonitor",
    "LoadReport",
    "LoadSpec",
    "ProcShardWorker",
    "RejoinReport",
    "RetryPolicy",
    "RpcClient",
    "ScrubReport",
    "ShardHeartbeat",
    "ShardRouter",
    "ShardState",
    "StateTransition",
    "SupervisorReport",
    "drain_shard",
    "generate_trace",
    "lost_reply_scenario",
    "ring_position",
    "run_cluster_scenario",
    "run_load",
    "simulate",
    "spec_routing_key",
]
