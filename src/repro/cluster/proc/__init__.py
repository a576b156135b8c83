"""Real shard processes: the wire, the RPC client, the shard handle.

The one shard class, :class:`~repro.cluster.proc.shard.ProcShardWorker`,
runs a shard's op table (:mod:`~repro.cluster.proc.worker`) over either
of two transports: an OS subprocess behind a CRC-framed, length-prefixed
pipe (:mod:`~repro.cluster.proc.wire`) driven by a typed RPC client with
per-call timeouts, correlation ids and bounded jittered retries
(:mod:`~repro.cluster.proc.rpc`) — or an in-process loopback that calls
the same table directly.  Every protocol above it — routing, stealing,
drain, handoff, the supervisor's respawn and rejoin — runs unchanged
over either.
"""

from repro._lazy import lazy_exports

# Imported on first use: the shard subprocess imports ``wire`` alone.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.cluster.proc.rpc": ("RemoteOpError", "RetryPolicy", "RpcClient"),
        "repro.cluster.proc.shard": ("ProcShardWorker",),
        "repro.cluster.proc.wire": (
            "FrameDecoder", "decode_frame", "decode_message", "encode_frame",
            "encode_message",
        ),
    },
)

__all__ = [
    "FrameDecoder",
    "ProcShardWorker",
    "RemoteOpError",
    "RetryPolicy",
    "RpcClient",
    "decode_frame",
    "decode_message",
    "encode_frame",
    "encode_message",
]
