"""Journal record model and the payload codec.

A journal record is one JSON object per line (canonical separators,
sorted keys — byte-stable for a given record) with a CRC32 prefix added
by the journal's framing.  Five record types cover a job's whole
lifecycle::

    SUBMITTED       job accepted (spec + encoded payload — everything a
                    restart needs to re-run it from scratch)
    DISPATCHED      job handed to a fabric (worker id, attempt number)
    EPOCH_PROGRESS  epoch slice finished; optionally names a checkpoint
                    file an FFT resume can restore
    RETRY           an attempt failed and a retry was scheduled
    DONE            terminal result (status + compact result fields)
    MOVED           the job left this journal's ownership (stolen by, or
                    handed off to, another shard — cluster routing)

Payloads are numpy arrays (complex FFT vectors, integer JPEG frames);
:func:`encode_payload`/:func:`decode_payload` round-trip them through
JSON exactly, as ``{"dtype", "shape", "b64"}`` (the canonical array's
raw bytes), so a replayed job computes bit-identically to the lost
original.  The older ``{"shape", "values"}`` form still decodes.
"""

from __future__ import annotations

import base64
import enum
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import JournalError
from repro.serve.jobs import JobKind, JobRequest, KernelSpec

__all__ = [
    "RecordType",
    "JournalRecord",
    "encode_payload",
    "decode_payload",
    "encode_request",
    "decode_request",
]


class RecordType(str, enum.Enum):
    """The journal's closed record vocabulary."""

    SUBMITTED = "SUBMITTED"
    DISPATCHED = "DISPATCHED"
    EPOCH_PROGRESS = "EPOCH_PROGRESS"
    RETRY = "RETRY"
    DONE = "DONE"
    #: Ownership of the job left this journal (work stealing or shard
    #: handoff); replay must neither requeue nor serve a result for it —
    #: the destination shard's journal owns the job now.
    MOVED = "MOVED"


@dataclass
class JournalRecord:
    """One journal entry: a type, the job it concerns, and a data dict.

    ``seq`` is assigned by the journal at append time (monotonic across
    segments) and is what makes replay order-independent of file-system
    listing quirks.
    """

    type: RecordType
    job_id: str
    data: dict[str, Any] = field(default_factory=dict)
    seq: int = 0

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no spaces)."""
        body = {
            "t": self.type.value,
            "job": self.job_id,
            "seq": self.seq,
            "data": self.data,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "JournalRecord":
        try:
            body = json.loads(text)
            return cls(
                type=RecordType(body["t"]),
                job_id=str(body["job"]),
                data=dict(body["data"]),
                seq=int(body["seq"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise JournalError(f"malformed journal record: {exc}") from None


# --------------------------------------------------------------------------
# payload codec
# --------------------------------------------------------------------------


def _canonical(kind: JobKind, payload: Any) -> np.ndarray:
    """``payload`` as its kind's canonical array (DESIGN §10)."""
    if kind is JobKind.FFT:
        return np.asarray(payload, dtype=np.complex128)
    if kind is JobKind.JPEG:
        img = np.asarray(payload)
        if img.dtype.kind == "f":
            img = np.clip(np.rint(img), 0, 255)
        return img.astype(np.int64)
    if kind in (JobKind.CONV2D, JobKind.GEMM):
        return np.asarray(payload).astype(np.int64)
    if kind is JobKind.DSP:
        return np.asarray(payload, dtype=np.float64)
    raise JournalError(f"no payload codec for kernel kind {kind!r}")


def encode_payload(kind: JobKind, payload: Any) -> dict[str, Any]:
    """JSON-encode a kernel payload losslessly: its canonical array's
    dtype, shape and raw bytes in base64."""
    arr = np.ascontiguousarray(_canonical(kind, payload))
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "b64": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_payload(kind: JobKind, data: dict[str, Any]) -> Any:
    """Invert :func:`encode_payload` bit-exactly.  The older ``values``
    form (FFT ``[re, im]`` pairs, flat number lists) still decodes, so
    every journal written before the raw-bytes form replays."""
    shape = tuple(int(s) for s in data["shape"])
    if "b64" in data:
        raw = bytearray(base64.b64decode(data["b64"], validate=True))
        flat = np.frombuffer(raw, dtype=np.dtype(data["dtype"]))
        return _canonical(kind, flat).reshape(shape)
    if kind is JobKind.FFT:
        flat = np.array(
            [complex(re, im) for re, im in data["values"]],
            dtype=np.complex128,
        )
        return flat.reshape(shape)
    if kind in (JobKind.JPEG, JobKind.CONV2D, JobKind.GEMM):
        return np.array(data["values"], dtype=np.int64).reshape(shape)
    if kind is JobKind.DSP:
        return np.array(data["values"], dtype=np.float64).reshape(shape)
    raise JournalError(f"no payload codec for kernel kind {kind!r}")


def encode_request(request: JobRequest) -> dict[str, Any]:
    """The SUBMITTED record body: everything a restart needs."""
    return {
        "kind": request.spec.kind.value,
        "params": list(request.spec.params),
        "payload": encode_payload(request.spec.kind, request.payload),
        "timeout_s": request.timeout_s,
        "max_retries": request.max_retries,
        "deadline_s": request.deadline_s,
        "tag": request.tag,
    }


def decode_request(job_id: str, data: dict[str, Any]) -> JobRequest:
    """Rebuild the :class:`JobRequest` a SUBMITTED record described."""
    kind = JobKind(data["kind"])
    spec = KernelSpec(kind, tuple(data["params"]))
    return JobRequest(
        spec=spec,
        payload=decode_payload(kind, data["payload"]),
        timeout_s=float(data.get("timeout_s", 30.0)),
        max_retries=int(data.get("max_retries", 1)),
        deadline_s=float(data.get("deadline_s", 0.0)),
        job_id=job_id,
        tag=str(data.get("tag", "")),
    )
