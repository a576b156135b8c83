"""Wire codec of the shard-process transport: CRC-framed, length-prefixed.

The journal (PR 5) frames durable *lines*; this module frames transient
*messages* between the router process and a shard subprocess.  The
failure model is different — a pipe delivers bytes reliably but a dying
process tears its last write anywhere, and a hung process stops mid
frame — so the codec's contract is absolute: ``decode`` either yields
the exact message that was encoded, or raises :class:`~repro.errors.
WireError`.  A corrupt, truncated or hostile byte string can never
surface as a *wrong* payload, and never makes the decoder wait forever
(an impossible declared length fails immediately instead of "needing"
64 MiB more bytes).

Frame layout (big-endian)::

    offset  size  field
    0       2     magic  b"RW"
    2       1     version (0x01)
    3       4     payload length  (<= MAX_FRAME_BYTES)
    7       4     CRC32 of payload
    11      n     payload (canonical JSON, utf-8)

Messages are JSON objects.  Requests carry ``{"id", "op", "params"}``
(the ``id`` is the correlation id the RPC layer matches responses on);
responses carry ``{"id", "ok", "value"}`` or ``{"id", "ok": false,
"error": {"type", "message"}}``.

On top of the frame sit the typed payload codecs: jobs reuse the
journal's bit-exact request/payload encoding
(:mod:`repro.serve.durability.records`), results add a tagged output
codec (``ndarray`` round-trips through ``dtype.str`` + raw bytes, so
recovered outputs stay bit-identical across the process boundary), and
heartbeats serialise :class:`~repro.cluster.lifecycle.health.
ShardHeartbeat` field-for-field.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
import sys
from typing import Any

import numpy as np

from repro.cluster.lifecycle.health import ShardHeartbeat
from repro.errors import WireError
from repro.serve.durability.records import decode_request, encode_request
from repro.serve.jobs import JobRequest, JobResult, JobStatus

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_frame",
    "encode_message",
    "decode_message",
    "FrameDecoder",
    "encode_job",
    "decode_job",
    "encode_result",
    "decode_result",
    "encode_heartbeat",
    "decode_heartbeat",
]

MAGIC = b"RW"
VERSION = 1
_HEADER = struct.Struct(">2sBII")
HEADER_BYTES = _HEADER.size  # 11
#: Ceiling on a declared payload length.  Anything larger is corruption
#: by definition (our biggest messages are single job payloads), and
#: rejecting it *at the header* is what keeps a mutated length field
#: from turning into an unbounded read.
MAX_FRAME_BYTES = 1 << 26  # 64 MiB


# ----------------------------------------------------------------------
# frame layer
# ----------------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a magic + length + CRC32 header."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    crc = binascii.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, VERSION, len(payload), crc) + payload


def _check_header(buf: bytes, offset: int) -> tuple[int, int]:
    """Validate a complete 11-byte header; return (length, crc)."""
    magic, version, length, crc = _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"declared payload length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return length, crc


def try_decode_frame(buf: bytes, offset: int = 0) -> tuple[bytes, int] | None:
    """Decode one frame starting at ``offset``.

    Returns ``(payload, bytes_consumed)``, or ``None`` when ``buf`` is a
    *valid prefix* of a frame and more bytes are needed.  Raises
    :class:`WireError` the moment the bytes present are inconsistent
    with any frame — an incremental reader fails fast instead of
    waiting on garbage.
    """
    avail = len(buf) - offset
    if avail < HEADER_BYTES:
        # Partial header: corrupt magic is detectable from byte one.
        head = bytes(buf[offset : offset + min(avail, len(MAGIC))])
        if head and not MAGIC.startswith(head[: len(MAGIC)]):
            raise WireError(f"bad frame magic prefix {head!r}")
        return None
    length, crc = _check_header(buf, offset)
    if avail < HEADER_BYTES + length:
        return None
    start = offset + HEADER_BYTES
    payload = bytes(buf[start : start + length])
    if binascii.crc32(payload) & 0xFFFFFFFF != crc:
        raise WireError(
            f"frame CRC mismatch over {length}-byte payload"
        )
    return payload, HEADER_BYTES + length


def decode_frame(data: bytes) -> tuple[bytes, int]:
    """Decode the first frame of ``data`` (a complete buffer).

    Unlike :func:`try_decode_frame`, incompleteness is an *error* here:
    the caller claims to hold the whole frame, so missing bytes mean
    truncation, not "wait for more".
    """
    out = try_decode_frame(data, 0)
    if out is None:
        raise WireError(
            f"truncated frame: {len(data)} bytes is not a whole frame"
        )
    return out


# ----------------------------------------------------------------------
# message layer
# ----------------------------------------------------------------------


def encode_message(message: dict) -> bytes:
    """Serialise one protocol message into a framed byte string."""
    try:
        body = json.dumps(
            message, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"unencodable message: {exc}") from exc
    return encode_frame(body)


def decode_message(payload: bytes) -> dict:
    """Parse a frame payload into a protocol message dict."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise WireError(
            f"frame payload is {type(message).__name__}, expected object"
        )
    if not isinstance(message.get("id"), int):
        raise WireError("message missing integer correlation id")
    return message


class FrameDecoder:
    """Incremental frame reassembly over a byte stream.

    ``feed`` buffers arbitrary chunks (pipes deliver whatever they like)
    and yields every complete message; a corrupt frame raises
    :class:`WireError` and poisons the decoder — after a framing error
    the stream has no trustworthy resynchronisation point, exactly like
    a torn journal segment tail.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._poisoned = False

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> list[dict]:
        if self._poisoned:
            raise WireError("decoder poisoned by an earlier framing error")
        self._buf.extend(data)
        messages: list[dict] = []
        offset = 0
        try:
            while True:
                out = try_decode_frame(self._buf, offset)
                if out is None:
                    break
                payload, consumed = out
                messages.append(decode_message(payload))
                offset += consumed
        except WireError:
            self._poisoned = True
            raise
        finally:
            if offset:
                del self._buf[:offset]
        return messages


# ----------------------------------------------------------------------
# typed payload codecs
# ----------------------------------------------------------------------


def _encode_output(value: Any) -> dict:
    """Tag-encode a job output for bit-identical round-tripping."""
    if value is None:
        return {"k": "none"}
    if isinstance(value, np.ndarray):
        return {
            "k": "nd",
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "b64": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode(
                "ascii"
            ),
        }
    if isinstance(value, (bytes, bytearray)):
        return {"k": "bytes", "b64": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, bool):
        return {"k": "json", "v": value}
    if isinstance(value, (int, np.integer)):
        return {"k": "int", "v": int(value)}
    if isinstance(value, (float, np.floating)):
        return {"k": "float", "v": float(value)}
    if isinstance(value, str):
        return {"k": "str", "v": value}
    try:
        json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise WireError(
            f"job output of type {type(value).__name__} is not wire-encodable"
        ) from exc
    return {"k": "json", "v": value}


def _decode_output(data: Any) -> Any:
    if not isinstance(data, dict) or "k" not in data:
        raise WireError(f"malformed output encoding: {data!r}")
    kind = data["k"]
    try:
        if kind == "none":
            return None
        if kind == "nd":
            raw = base64.b64decode(data["b64"].encode("ascii"), validate=True)
            arr = np.frombuffer(raw, dtype=np.dtype(data["dtype"]))
            return arr.reshape([int(s) for s in data["shape"]]).copy()
        if kind == "bytes":
            return base64.b64decode(data["b64"].encode("ascii"), validate=True)
        if kind == "int":
            return int(data["v"])
        if kind == "float":
            return float(data["v"])
        if kind == "str":
            return str(data["v"])
        if kind == "json":
            return data["v"]
    except (KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise WireError(f"corrupt {kind!r} output encoding: {exc}") from exc
    raise WireError(f"unknown output tag {kind!r}")


def encode_job(request: JobRequest) -> dict:
    """Serialise a job request (journal codec + id + resume fields)."""
    return {
        "job_id": request.job_id,
        "data": encode_request(request),
        "resume_slice": request.resume_slice,
        "checkpoint_path": request.checkpoint_path,
        "checkpoint_crc": request.checkpoint_crc,
    }


def decode_job(data: dict) -> JobRequest:
    """Rebuild a job request from its wire form."""
    try:
        request = decode_request(str(data["job_id"]), data["data"])
        request.resume_slice = int(data.get("resume_slice", 0))
        request.checkpoint_path = str(data.get("checkpoint_path", ""))
        request.checkpoint_crc = int(data.get("checkpoint_crc", 0))
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"corrupt job encoding: {exc}") from exc
    return request


def encode_result(result: JobResult) -> dict:
    """Serialise a job result, output included, bit-exactly."""
    return {
        "job_id": result.job_id,
        "status": result.status.value,
        "output": _encode_output(result.output),
        "error": result.error,
        "worker_id": result.worker_id,
        "attempts": result.attempts,
        "warm": result.warm,
        "queue_wait_s": result.queue_wait_s,
        "serve_s": result.serve_s,
        "sim_ns": result.sim_ns,
        "reconfig_ns": result.reconfig_ns,
        "reconfig_saved_ns": result.reconfig_saved_ns,
        "retry_after_s": result.retry_after_s,
        "recovered": result.recovered,
        "resumed_slices": result.resumed_slices,
    }


def decode_result(data: dict) -> JobResult:
    """Rebuild a job result from its wire form."""
    try:
        return JobResult(
            job_id=str(data["job_id"]),
            status=JobStatus(data["status"]),
            output=_decode_output(data["output"]),
            error=str(data.get("error", "")),
            # one string per worker, not one per kept result
            worker_id=sys.intern(str(data.get("worker_id", ""))),
            attempts=int(data.get("attempts", 0)),
            warm=bool(data.get("warm", False)),
            queue_wait_s=float(data.get("queue_wait_s", 0.0)),
            serve_s=float(data.get("serve_s", 0.0)),
            sim_ns=float(data.get("sim_ns", 0.0)),
            reconfig_ns=float(data.get("reconfig_ns", 0.0)),
            reconfig_saved_ns=float(data.get("reconfig_saved_ns", 0.0)),
            retry_after_s=float(data.get("retry_after_s", 0.0)),
            recovered=bool(data.get("recovered", False)),
            resumed_slices=int(data.get("resumed_slices", 0)),
        )
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"corrupt result encoding: {exc}") from exc


_HEARTBEAT_FIELDS = (
    "shard",
    "round_index",
    "alive",
    "draining",
    "queue_depth",
    "breaker_open_fabrics",
    "quarantined_fabrics",
    "total_fabrics",
    "journal_records",
)


def encode_heartbeat(heartbeat: ShardHeartbeat) -> dict:
    """Serialise a heartbeat field-for-field."""
    return {name: getattr(heartbeat, name) for name in _HEARTBEAT_FIELDS}


def decode_heartbeat(data: dict) -> ShardHeartbeat:
    """Rebuild a heartbeat from its wire form."""
    try:
        return ShardHeartbeat(
            shard=str(data["shard"]),
            round_index=int(data["round_index"]),
            alive=bool(data.get("alive", True)),
            draining=bool(data.get("draining", False)),
            queue_depth=int(data.get("queue_depth", 0)),
            breaker_open_fabrics=int(data.get("breaker_open_fabrics", 0)),
            quarantined_fabrics=int(data.get("quarantined_fabrics", 0)),
            total_fabrics=int(data.get("total_fabrics", 1)),
            journal_records=int(data.get("journal_records", 0)),
        )
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"corrupt heartbeat encoding: {exc}") from exc
