"""Partial-reconfiguration payload kinds and sizes.

On the prototype, reconfiguration payloads live as partial bitstreams on a
CompactFlash card and are pushed through the ICAP.  The model keeps only
what the cost model charges, the *size* of each payload addressed at one
tile (or one link):

* instruction image: 9 bytes (72 bits) per instruction word;
* data image: 6 bytes (48 bits) per data word;
* link setting: no byte payload; costs the swept per-link time ``L``.
"""

from __future__ import annotations

import enum

__all__ = [
    "ReconfigKind",
    "IMEM_BYTES_PER_WORD",
    "DMEM_BYTES_PER_WORD",
    "program_icap_bytes",
]

#: Bytes streamed per 72-bit instruction word / 48-bit data word.
IMEM_BYTES_PER_WORD = 9
DMEM_BYTES_PER_WORD = 6


class ReconfigKind(enum.Enum):
    """What a reconfiguration payload reconfigures."""

    IMEM = 1
    DMEM = 2
    LINK = 3


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
