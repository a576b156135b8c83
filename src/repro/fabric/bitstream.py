"""Partial "bitstream" objects.

On the prototype, reconfiguration payloads live as partial bitstreams on a
CompactFlash card and are pushed through the ICAP.  The model keeps the same
structure — a typed payload addressed at one tile (or one link) — because
the *sizes* of these images are what the cost model charges:

* instruction image: 9 bytes (72 bits) per instruction word;
* data image: 6 bytes (48 bits) per data word;
* link setting: no byte payload; costs the swept per-link time ``L``.

Bitstreams can be serialized to/from compact ``bytes`` so a library user can
stage a reconfiguration plan to disk the way the SystemACE controller would.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import ReconfigError
from repro.fabric.links import Direction

__all__ = [
    "ReconfigKind",
    "PartialBitstream",
    "IMEM_BYTES_PER_WORD",
    "DMEM_BYTES_PER_WORD",
    "program_icap_bytes",
]

#: Bytes streamed per 72-bit instruction word / 48-bit data word.
IMEM_BYTES_PER_WORD = 9
DMEM_BYTES_PER_WORD = 6

_MAGIC = b"RPRB"
_HEADER = struct.Struct("<4sBhhhI")  # magic, kind, row, col, aux, payload words


class ReconfigKind(enum.Enum):
    """What a partial bitstream reconfigures."""

    IMEM = 1
    DMEM = 2
    LINK = 3


@dataclass(frozen=True)
class PartialBitstream:
    """One partial reconfiguration payload.

    Attributes
    ----------
    kind:
        What is being reconfigured.
    coord:
        Target tile (row, col).
    words:
        Payload words: encoded 72-bit instructions for ``IMEM``,
        ``(addr, value)`` pairs flattened for ``DMEM``, empty for ``LINK``.
    aux:
        For ``LINK``: the direction code (0..3) or -1 to detach.
    label:
        Trace label.
    """

    kind: ReconfigKind
    coord: tuple[int, int]
    words: tuple[int, ...] = ()
    aux: int = -1
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is ReconfigKind.LINK:
            if self.words:
                raise ReconfigError("LINK bitstreams carry no payload words")
            if self.aux != -1:
                Direction.from_code(self.aux)  # validates
        elif self.kind is ReconfigKind.DMEM and len(self.words) % 2:
            raise ReconfigError("DMEM payload must be (addr, value) pairs")

    @property
    def payload_words(self) -> int:
        """Memory words written by this bitstream."""
        if self.kind is ReconfigKind.IMEM:
            return len(self.words)
        if self.kind is ReconfigKind.DMEM:
            return len(self.words) // 2
        return 0

    @property
    def nbytes(self) -> int:
        """Bytes pushed through the ICAP for this payload.

        Instruction words are 9 bytes, data words 6 bytes; link settings
        are charged by duration, not bytes.
        """
        if self.kind is ReconfigKind.IMEM:
            return self.payload_words * IMEM_BYTES_PER_WORD
        if self.kind is ReconfigKind.DMEM:
            return self.payload_words * DMEM_BYTES_PER_WORD
        return 0

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the on-flash format."""
        head = _HEADER.pack(
            _MAGIC, self.kind.value, self.coord[0], self.coord[1],
            self.aux, len(self.words),
        )
        body = b"".join(
            w.to_bytes(16, "little", signed=True) for w in self.words
        )
        return head + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PartialBitstream":
        """Parse a serialized bitstream; raises :class:`ReconfigError`."""
        if len(blob) < _HEADER.size:
            raise ReconfigError("truncated bitstream header")
        magic, kind, row, col, aux, nwords = _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise ReconfigError(f"bad magic {magic!r}")
        body = blob[_HEADER.size:]
        if len(body) != nwords * 16:
            raise ReconfigError(
                f"payload length {len(body)} != {nwords} declared words"
            )
        words = tuple(
            int.from_bytes(body[i * 16:(i + 1) * 16], "little", signed=True)
            for i in range(nwords)
        )
        return cls(ReconfigKind(kind), (row, col), words, aux)


def program_icap_bytes(program) -> int:
    """Bytes one load of ``program`` streams: its instruction image plus
    its ``.var`` data image.

    Programs are immutable, so the size is cached on the object (as its
    encoded words are); the compile passes size every load from here.
    """
    cached = program.__dict__.get("_icap_bytes")
    if cached is None:
        cached = program.__dict__["_icap_bytes"] = (
            program.imem_words * IMEM_BYTES_PER_WORD
            + len(program.data_image) * DMEM_BYTES_PER_WORD
        )
    return cached
