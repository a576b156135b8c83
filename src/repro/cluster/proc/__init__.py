"""True multi-process shards: framed RPC, supervision, ring re-join.

The ``repro.cluster`` tier simulates shard death by closing an engine
in-process; this package makes the failure real.  Each shard runs in
its own OS subprocess behind a CRC-framed, length-prefixed pipe
transport (:mod:`~repro.cluster.proc.wire`), driven by a typed RPC
client with per-call timeouts, correlation ids and bounded jittered
retries (:mod:`~repro.cluster.proc.rpc`).  The router-side handle
(:class:`~repro.cluster.proc.shard.ProcShardWorker`) mirrors the
in-process :class:`~repro.cluster.shard.ShardWorker` surface, so every
protocol above it — routing, stealing, drain, handoff — runs unchanged
over real process boundaries, and
:class:`~repro.cluster.proc.supervisor.ProcessSupervisor` closes the
loop: phi-accrual verdicts over real heartbeats, SIGKILL for the
wedged, journal handoff, respawn, a scrub gate, and ring re-join.
"""

from repro._lazy import lazy_exports

# Imported on first use: the shard subprocess imports ``wire`` alone.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cluster.proc.rpc": ("RemoteOpError", "RetryPolicy", "RpcClient"),
        "repro.cluster.proc.shard": ("ProcShardWorker",),
        "repro.cluster.proc.supervisor": ("ProcessSupervisor", "RejoinReport"),
        "repro.cluster.proc.wire": (
            "FrameDecoder", "decode_frame", "decode_message", "encode_frame",
            "encode_message",
        ),
    },
)

__all__ = [
    "FrameDecoder",
    "ProcShardWorker",
    "ProcessSupervisor",
    "RejoinReport",
    "RemoteOpError",
    "RetryPolicy",
    "RpcClient",
    "decode_frame",
    "decode_message",
    "encode_frame",
    "encode_message",
]
