"""The complete baseline JPEG encoder (greyscale, JFIF output).

Composes the process pipeline of Fig. 3 — level shift, 8x8 DCT,
quantization, zig-zag, Huffman — into a decodable JFIF byte stream with
SOI/APP0/DQT/SOF0/DHT/SOS/EOI segments.  Images whose dimensions are not
multiples of 8 are edge-padded, the same alignment that makes the paper's
200x200 test frames occupy 800 blocks with a 256-pixel line stride (see
``repro.mapping.pipeline``).

The encoder exposes per-block hooks so the fabric pipeline and tests can
substitute individual stages (e.g. the tile-computed quantizer) and check
the stream stays decodable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import KernelError
from repro.kernels.jpeg.dct import dct2d, dct2d_batch
from repro.kernels.jpeg.huffman import (
    BitWriter,
    HuffmanTable,
    STD_AC_LUMINANCE,
    STD_DC_LUMINANCE,
    encode_block_coefficients,
)
from repro.kernels.jpeg.quant import (
    LUMINANCE_QTABLE,
    quantize,
    quantize_batch,
    scale_qtable,
)
from repro.kernels.jpeg.zigzag import ZIGZAG_ORDER, zigzag, zigzag_batch

__all__ = ["JPEGEncoder", "encode_image", "as_frame", "blocks_of", "level_shift"]


def level_shift(block: np.ndarray) -> np.ndarray:
    """p0 (shift): centre 8-bit samples around zero."""
    return np.asarray(block, dtype=np.int64) - 128


def as_frame(image) -> np.ndarray:
    """The int64 greyscale frame every JPEG encode path accepts.

    Floats are rounded and clipped to 0..255; anything that is not then
    a 2-D frame of 8-bit samples raises :class:`KernelError`.
    """
    img = np.asarray(image)
    if img.dtype.kind == "f":
        img = np.clip(np.rint(img), 0, 255)
    img = img.astype(np.int64)
    if img.ndim != 2:
        raise KernelError(f"expected a 2-D greyscale image, got shape {img.shape}")
    if img.size and (img.min() < 0 or img.max() > 255):
        raise KernelError("image samples must be 8-bit (0..255)")
    return img


def blocks_of(image: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Edge-pad to 8-multiples and return (blocks, rows, cols) of blocks.

    ``blocks[r, c]`` is the 8x8 tile at block-row r, block-column c.
    """
    img = np.asarray(image)
    if img.ndim != 2:
        raise KernelError(f"expected a 2-D greyscale image, got shape {img.shape}")
    h, w = img.shape
    if h == 0 or w == 0:
        raise KernelError("image must be non-empty")
    ph = (-h) % 8
    pw = (-w) % 8
    padded = np.pad(img, ((0, ph), (0, pw)), mode="edge")
    rows, cols = padded.shape[0] // 8, padded.shape[1] // 8
    blocks = padded.reshape(rows, 8, cols, 8).transpose(0, 2, 1, 3)
    return blocks, rows, cols


def _segment(marker: int, payload: bytes) -> bytes:
    return bytes([0xFF, marker]) + (len(payload) + 2).to_bytes(2, "big") + payload


def _dqt_segment(table: np.ndarray, table_id: int = 0) -> bytes:
    zz = np.asarray(table).reshape(64)[ZIGZAG_ORDER]
    return _segment(0xDB, bytes([table_id]) + bytes(int(v) for v in zz))


def _dht_segment(table: HuffmanTable, table_class: int, table_id: int) -> bytes:
    payload = bytes([(table_class << 4) | table_id])
    payload += bytes(table.bits)
    payload += bytes(table.values)
    return _segment(0xC4, payload)


@dataclass
class JPEGEncoder:
    """Baseline greyscale JPEG encoder.

    Parameters
    ----------
    quality:
        libjpeg-style quality in [1, 100] applied to the Annex-K
        luminance table.
    dct / quantizer:
        Per-block stage hooks — the defaults are the reference
        implementations; the fabric tests inject tile-computed stages.
    restart_interval:
        When positive, emit a DRI segment and an RSTn marker every that
        many blocks (T.81 restart markers: byte-aligned resync points
        that reset the DC predictor, bounding error propagation).
    """

    quality: int = 75
    dc_table: HuffmanTable = STD_DC_LUMINANCE
    ac_table: HuffmanTable = STD_AC_LUMINANCE
    dct: object = None
    quantizer: object = None
    restart_interval: int = 0
    #: Filled by :meth:`encode`: quantized zig-zag vectors per block.
    last_coefficients: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.qtable = scale_qtable(LUMINANCE_QTABLE, self.quality)
        # With the default stages the whole frame can be pushed through the
        # batched numpy path (level shift, stacked-matmul DCT, elementwise
        # quantize, gather zig-zag) — bit-identical to the per-block hooks,
        # see the stage docstrings.  Custom hooks force the per-block loop.
        self._default_stages = self.dct is None and self.quantizer is None
        if self.dct is None:
            self.dct = dct2d
        if self.quantizer is None:
            self.quantizer = lambda c: quantize(c, self.qtable)

    # ------------------------------------------------------------------

    def encode(self, image: np.ndarray) -> bytes:
        """Encode a greyscale image into a JFIF byte stream."""
        img = as_frame(image)
        h, w = img.shape
        blocks, rows, cols = blocks_of(img)

        if self.restart_interval < 0:
            raise KernelError("restart_interval must be non-negative")
        zz_batch = None
        if self._default_stages:
            # blocks is (rows, cols, 8, 8); flattening row-major matches the
            # scan order of the loop below.
            shifted = (blocks.reshape(rows * cols, 8, 8) - 128).astype(np.float64)
            levels = quantize_batch(dct2d_batch(shifted), self.qtable)
            zz_batch = zigzag_batch(levels)
        writer = BitWriter()
        self.last_coefficients = []
        prev_dc = 0
        count = 0
        marker = 0
        total = rows * cols
        for r in range(rows):
            for c in range(cols):
                if zz_batch is not None:
                    zz = zz_batch[count]
                else:
                    zz = self.encode_block_to_zigzag(blocks[r, c])
                self.last_coefficients.append(zz)
                prev_dc = encode_block_coefficients(
                    zz, prev_dc, writer, self.dc_table, self.ac_table
                )
                count += 1
                if (
                    self.restart_interval
                    and count % self.restart_interval == 0
                    and count < total
                ):
                    writer.emit_marker(0xD0 + marker)
                    marker = (marker + 1) % 8
                    prev_dc = 0  # restart resets the DC predictor
        scan = writer.flush()
        return self._wrap_stream(scan, h, w)

    def encode_block_to_zigzag(self, block: np.ndarray) -> np.ndarray:
        """shift -> DCT -> quantize -> zigzag for one 8x8 block."""
        shifted = level_shift(block)
        coefficients = self.dct(shifted.astype(np.float64))
        levels = self.quantizer(coefficients)
        return zigzag(levels)

    # ------------------------------------------------------------------

    def wrap_stream(self, scan: bytes, height: int, width: int) -> bytes:
        """Wrap an entropy-coded scan into a decodable JFIF container.

        Public so callers that produce the scan elsewhere (the fabric
        block pipeline, the serving layer's JPEG sessions) can finish the
        stream with this encoder's tables.
        """
        out = bytearray()
        out += b"\xff\xd8"  # SOI
        out += _segment(
            0xE0,
            b"JFIF\x00" + bytes([1, 1, 0]) + (1).to_bytes(2, "big")
            + (1).to_bytes(2, "big") + bytes([0, 0]),
        )
        out += _dqt_segment(self.qtable, 0)
        sof = bytes([8]) + height.to_bytes(2, "big") + width.to_bytes(2, "big")
        sof += bytes([1])            # one component
        sof += bytes([1, 0x11, 0])   # id 1, 1x1 sampling, qtable 0
        out += _segment(0xC0, sof)
        out += _dht_segment(self.dc_table, 0, 0)
        out += _dht_segment(self.ac_table, 1, 0)
        if self.restart_interval:
            out += _segment(0xDD, self.restart_interval.to_bytes(2, "big"))
        sos = bytes([1, 1, 0x00, 0, 63, 0])  # 1 comp; DC 0 / AC 0; full scan
        out += _segment(0xDA, sos)
        out += scan
        out += b"\xff\xd9"  # EOI
        return bytes(out)

    #: Backwards-compatible private alias.
    _wrap_stream = wrap_stream


def encode_image(image: np.ndarray, quality: int = 75) -> bytes:
    """One-call convenience wrapper around :class:`JPEGEncoder`."""
    return JPEGEncoder(quality=quality).encode(image)
