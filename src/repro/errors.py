"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class FabricError(ReproError):
    """Base class for errors raised by the fabric simulator."""


class AssemblerError(FabricError):
    """Raised when assembly source cannot be translated into a program.

    Carries the offending source line number (1-based) when available.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MemoryError_(FabricError):
    """Raised on out-of-range or port-conflicting memory accesses.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`MemoryError`.
    """


class ExecutionError(FabricError):
    """Raised when a tile program performs an illegal operation at runtime."""


class LinkError(FabricError):
    """Raised on illegal interconnect operations.

    Examples: storing to a neighbour without an active link in that
    direction, or configuring a link that would leave the mesh.
    """


class ReconfigError(FabricError):
    """Raised on invalid reconfiguration requests (e.g. oversized images).

    When the failure concerns a specific tile the raiser attaches the
    tile coordinate and the ICAP timeline position so the message reads
    like a configuration-port trace entry::

        IMEM bitstream without a decoded program [tile (1, 0), icap t=1200.00 ns]

    Both fields are optional (kept as attributes for programmatic use)
    so validation errors raised before any tile is involved keep their
    plain form.
    """

    def __init__(
        self,
        message: str,
        *,
        coord: tuple[int, int] | None = None,
        icap_ns: float | None = None,
    ) -> None:
        self.coord = coord
        self.icap_ns = icap_ns
        details = []
        if coord is not None:
            details.append(f"tile {coord}")
        if icap_ns is not None:
            details.append(f"icap t={icap_ns:.2f} ns")
        if details:
            message = f"{message} [{', '.join(details)}]"
        super().__init__(message)


class FaultError(FabricError):
    """Raised by the SEU fault-injection / recovery subsystem.

    Examples: executing an SEU-corrupted instruction word, a recovery
    retry budget exhausted with the fabric still corrupt, or a hard
    fault on a tile with no spare to remap onto.
    """


class ScrubError(FaultError):
    """Raised when readback scrubbing cannot proceed (mismatched golden
    image shapes, scrubbing a coordinate outside the mesh, invalid scrub
    periods)."""


class MappingError(ReproError):
    """Raised when a process-to-tile mapping is infeasible or inconsistent."""


class ProcessNetworkError(ReproError):
    """Raised on malformed process networks (cycles where forbidden, etc.)."""


class KernelError(ReproError):
    """Raised by kernel generators (FFT / JPEG) on invalid parameters."""


class CompileError(ReproError):
    """Raised by the configuration-compilation pipeline (:mod:`repro.compile`).

    Carries the failing pass name and, when the failure concerns a
    specific epoch or tile, their identifiers — so a validation failure
    reads like a compiler diagnostic::

        [validate-links] epoch 'hcp_c0to1': tile (7, 0) links EAST off the mesh
    """

    def __init__(
        self,
        message: str,
        *,
        pass_name: str | None = None,
        epoch: str | None = None,
        coord: tuple[int, int] | None = None,
    ) -> None:
        self.pass_name = pass_name
        self.epoch = epoch
        self.coord = coord
        prefix = f"[{pass_name}] " if pass_name else ""
        where = f"epoch {epoch!r}: " if epoch else ""
        super().__init__(f"{prefix}{where}{message}")


class DSEError(ReproError):
    """Raised by the design-space-exploration driver."""


class ServeError(ReproError):
    """Base class for errors raised by the serving layer."""


class JobRejected(ServeError):
    """Raised when admission control turns a job away.

    Carries the structured rejection ``reason`` (a
    :class:`repro.serve.jobs.RejectReason` value, stored as its string
    so this module stays dependency-free) and, for load-shedding
    rejections, a ``retry_after_s`` hint the client should back off by
    before resubmitting.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "",
        retry_after_s: float = 0.0,
    ) -> None:
        self.reason = reason
        self.retry_after_s = retry_after_s
        super().__init__(message)


class JournalError(ServeError):
    """Raised by the write-ahead job journal on unusable journal state
    (a locked journal directory, an unreadable segment layout, appends
    after close)."""


class JobCancelled(ServeError):
    """Raised inside a worker when a job's cancellation token fires (the
    service's timeout path); the fabric is reset afterwards."""


class ClusterError(ServeError):
    """Raised by the sharded scale-out tier (:mod:`repro.cluster`) on
    misrouted jobs, operations against dead shards, or unusable ring
    configurations."""


class WireError(ClusterError):
    """Raised by the inter-process wire codec on any malformed frame or
    message: bad magic, an impossible length, a CRC mismatch, truncated
    bytes, or a payload that is not the JSON object shape the protocol
    requires.  Decoding either returns an intact message or raises this —
    a corrupt frame can never surface as a wrong payload."""


class RpcError(ClusterError):
    """Raised by the router-side RPC client on transport failure against
    a shard subprocess: a broken pipe on send (EPIPE — the process died
    before acking), EOF on the response stream, or a corrupt frame.
    Carries the shard name and the failing operation."""

    def __init__(self, message: str, *, shard: str = "", op: str = "") -> None:
        self.shard = shard
        self.op = op
        super().__init__(message)


class RpcTimeout(RpcError):
    """Raised when a shard subprocess does not answer an RPC within the
    per-call deadline (retries included) — the signature of a hung
    (SIGSTOP'd, wedged) process rather than a dead one."""


class RpcSequenceError(ClusterError):
    """Raised when a caller breaks the one-request-per-pipe rule of the
    RPC client: a second ``begin`` while a reply is outstanding, or a
    ``finish`` with nothing begun.  A caller bug, not a transport
    failure — so not an :class:`RpcError`, and it says nothing about
    the shard's health."""


class LockTimeout(ReproError):
    """Raised when blocking on a :class:`repro.locks.FileLock` exceeds its
    timeout.  Carries the lock path and, when the holder stamped its pid
    into the lock file, ``holder_pid`` — so a respawned shard that cannot
    reclaim its journal directory can name the process wedging it."""

    def __init__(
        self,
        message: str,
        *,
        path: str = "",
        holder_pid: int | None = None,
    ) -> None:
        self.path = path
        self.holder_pid = holder_pid
        if holder_pid is not None:
            message = f"{message} (held by pid {holder_pid})"
        super().__init__(message)


class ChaosError(ReproError):
    """Raised by the chaos harness on malformed fault plans or scenario
    misuse (never by an injected fault itself — those surface as
    ``SimulatedCrash`` or ``OSError``)."""
