"""JPEG block pipeline executed on the fabric.

:class:`FabricBlockPipeline` drives one tile through the paper's
per-block stages — shift (p0), DCT as two 8x8 matrix-multiply firings
(p1), Alpha+Quantize via the reciprocal table (p2+p3), Zigzag (p4) — with
the epoch runtime manager accounting every cost:

* the five stage programs are installed once and stay **co-resident**
  (about 160 instruction words), so only the first block pays instruction
  reconfiguration — the single-tile version of Table 4's pinning;
* the DCT coefficient matrix and the quantizer reciprocals are ``data1``:
  loaded through the ICAP once, exactly the 64+64 words Table 3 charges;
* pixels arrive as free host pokes (the camera-side preprocessing).

The epoch schedule is produced by the configuration compiler
(:mod:`repro.kernels.jpeg.lowering` via :func:`repro.compile.compile_jpeg`):
the ``data1`` load is the artifact's setup prologue, pixels flow through
its input port and the five stage firings are its body — bit-identical
to the hand-assembled pre-compiler schedule, and cached per
``(quality, chroma)`` across pipelines.

``encode_image`` runs every block of a greyscale frame through the tile
and entropy-codes the resulting coefficients with the reference Huffman
stage (whose five-way split is modelled separately), returning a
decodable JFIF stream plus the fabric timing report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compile import CompiledArtifact, compile_jpeg
from repro.errors import KernelError
from repro.fabric.icap import IcapPort
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import EpochSpec, RuntimeManager
from repro.kernels.jpeg.encoder import JPEGEncoder, blocks_of
from repro.kernels.jpeg.huffman import BitWriter, encode_block_coefficients
from repro.kernels.jpeg.lowering import REGION_ZZ
from repro.kernels.jpeg.quant import LUMINANCE_QTABLE, alpha_scale_table, scale_qtable

__all__ = ["FabricBlockPipeline", "FabricEncodeResult"]


@dataclass
class FabricEncodeResult:
    """Stream plus fabric accounting of a fabric-encoded frame."""

    stream: bytes
    blocks: int
    total_ns: float
    first_block_ns: float
    steady_block_ns: float
    reconfig_bytes: int

    @property
    def blocks_per_s(self) -> float:
        if self.steady_block_ns <= 0:
            return 0.0
        return 1e9 / self.steady_block_ns


class FabricBlockPipeline:
    """One tile running the per-block JPEG stages under the RTMS.

    ``chroma=True`` loads the Annex K.2 chrominance quantization table
    instead of the luminance one — the same tile programs then process
    Cb/Cr blocks, component-agnostic exactly like the paper's pipeline.
    """

    def __init__(self, quality: int = 75, chroma: bool = False) -> None:
        from repro.kernels.jpeg.quant import CHROMINANCE_QTABLE

        self.quality = quality
        self.chroma = chroma
        base = CHROMINANCE_QTABLE if chroma else LUMINANCE_QTABLE
        self.qtable = scale_qtable(base, quality)
        self.recip = alpha_scale_table(self.qtable, 14)
        self.mesh = Mesh(1, 1)
        self.rtms = RuntimeManager(self.mesh, IcapPort())
        #: The compiled per-block configuration (cached per quality/chroma).
        self.artifact: CompiledArtifact = compile_jpeg(quality, chroma)
        self._programs = tuple(
            spec.programs[(0, 0)] for spec in self.artifact.plan.body
        )
        #: Fabric time of each block of the current ``encode_image`` /
        #: ``encode_block_stack`` call (a serve session encodes blocks for
        #: the life of the process; nothing reads further back).
        self._block_times: list[float] = []
        self._last_block_ns = 0.0
        self._preloaded = False

    # ------------------------------------------------------------------

    @property
    def stage_programs(self) -> tuple:
        """The five co-resident per-block stage programs (public so the
        serving layer can probe their pinning cost)."""
        return self._programs

    def data1_image(self) -> dict[int, int]:
        """The fixed ``data1`` image (DCT coefficients + quantizer
        reciprocals), exactly as :meth:`_preload` charges it."""
        [setup] = self.artifact.plan.setup
        return dict(setup.data_images[(0, 0)])

    def preload_epochs(self) -> list[EpochSpec]:
        """The one-time ``data1`` load epoch (public building block)."""
        return self.artifact.setup_epochs()

    def _preload(self) -> None:
        """Load the fixed data (data1) through the ICAP, once."""
        self.rtms.run_setup(self.artifact)
        self._preloaded = True

    def block_epochs(self, block: np.ndarray, tag: str = "") -> list[EpochSpec]:
        """The epoch schedule of one 8x8 block (public building block).

        Pixels arrive as a free host poke, then the five co-resident
        stage programs fire in order — exactly what :meth:`encode_block`
        executes.  Exposed so external drivers (the fault campaign, a
        serving session) can run blocks through their *own* runtime
        manager / recovery loop and read the result back with
        :meth:`read_zigzag`.
        """
        return self.artifact.bind(block, tag)

    def read_zigzag(self, mesh: Mesh | None = None) -> np.ndarray:
        """Read the 64 zig-zag coefficients back off a mesh (default: own)."""
        tile = (mesh if mesh is not None else self.mesh).tile((0, 0))
        return self.zigzag_from_words(
            lambda coord, base, count: tile.dmem.dump_block(base, count)
        )

    def zigzag_from_words(self, words) -> np.ndarray:
        """The zig-zag vector via a ``words(coord, base, count)`` reader —
        the mesh-agnostic form batched lane views read through."""
        return np.array(words((0, 0), REGION_ZZ, 64))

    def encode_block(self, block: np.ndarray) -> np.ndarray:
        """Run one 8x8 block through the tile; returns the zig-zag vector."""
        if not self._preloaded:
            self._preload()
        start_ns = self.rtms.now_ns
        self.rtms.execute_artifact(self.artifact, block)
        self._last_block_ns = self.rtms.now_ns - start_ns
        return self.read_zigzag()

    def encode_blocks(self, stack: np.ndarray, on_slice=None) -> np.ndarray:
        """Run a ``(K, 8, 8)`` stack of blocks through the tile at once.

        The vector-batched tier (:mod:`repro.fabric.batch`) executes the
        five stage programs once over all K lanes; outputs are
        bit-identical to K sequential :meth:`encode_block` calls, and the
        per-block timing record is kept lane-by-lane (sequential-
        equivalent clock).  Returns the ``(K, 64)`` zig-zag vectors.
        """
        out, _, _ = self.encode_block_stack(stack, on_slice=on_slice)
        return out

    def encode_block_stack(
        self, stack: np.ndarray, on_slice=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`encode_blocks` plus per-block fabric accounting.

        Returns ``(zigzags, sim_ns, reconfig_ns)`` — the ``(K, 64)``
        coefficient rows and two length-K arrays carrying each block's
        simulated fabric time and configuration-port busy time.  The
        serving layer batches the blocks of *several* frames through one
        dispatch and needs the per-lane numbers to keep every job's
        lifecycle records separate.
        """
        stack = np.asarray(stack)
        if stack.ndim != 3 or stack.shape[1:] != (8, 8):
            raise KernelError(
                f"encode_blocks wants a (K, 8, 8) stack, got {stack.shape}"
            )
        # The one-time data1 preload bills to the first block, exactly
        # where the sequential scalar path's rtms-delta accounting puts it.
        setup_sim = setup_busy = 0.0
        if not self._preloaded:
            sim_before = self.rtms.now_ns
            busy_before = self.rtms.icap.total_busy_ns
            self._preload()
            setup_sim = self.rtms.now_ns - sim_before
            setup_busy = self.rtms.icap.total_busy_ns - busy_before
        out = np.empty((len(stack), 64), dtype=np.int64)
        sims = np.empty(len(stack))
        reconfigs = np.empty(len(stack))
        tile = self.mesh.tile((0, 0))
        self._block_times = []
        first = 0
        if any(tile.resident_base(p) is None for p in self._programs):
            # Cold fabric: the first block pays the program pinning on the
            # scalar path (exactly like encode_block), so the batch pilot
            # is warm and replicated lane timings stay honest.
            busy_before = self.rtms.icap.total_busy_ns
            out[0] = self.encode_block(stack[0])
            self._block_times.append(self._last_block_ns)
            sims[0] = setup_sim + self._last_block_ns
            reconfigs[0] = (
                setup_busy + self.rtms.icap.total_busy_ns - busy_before
            )
            first = 1
        if first < len(stack):
            result = self.rtms.execute_artifact_batch(
                self.artifact, list(stack[first:]), on_slice=on_slice
            )
            for lane in result.lanes:
                out[first + lane.index] = self.zigzag_from_words(lane.words)
                sims[first + lane.index] = lane.sim_ns
                reconfigs[first + lane.index] = lane.reconfig_ns
                self._block_times.append(lane.sim_ns)
        return out, sims, reconfigs

    # ------------------------------------------------------------------

    def encode_image(self, image: np.ndarray) -> FabricEncodeResult:
        """Encode a greyscale frame, every block computed on the tile."""
        img = np.asarray(image)
        if img.dtype.kind == "f":
            img = np.clip(np.rint(img), 0, 255)
        img = img.astype(np.int64)
        if img.min() < 0 or img.max() > 255:
            raise KernelError("image samples must be 8-bit (0..255)")
        height, width = img.shape
        blocks, rows, cols = blocks_of(img)

        host = JPEGEncoder(quality=self.quality)
        writer = BitWriter()
        prev_dc = 0
        times = self._block_times = []
        for r in range(rows):
            for c in range(cols):
                zz = self.encode_block(blocks[r, c])
                times.append(self._last_block_ns)
                prev_dc = encode_block_coefficients(zz, prev_dc, writer)
        stream = host._wrap_stream(writer.flush(), height, width)

        steady = sum(times[1:]) / (len(times) - 1) if len(times) > 1 else times[0]
        return FabricEncodeResult(
            stream=stream,
            blocks=len(times),
            total_ns=self.rtms.now_ns,
            first_block_ns=times[0],
            steady_block_ns=steady,
            reconfig_bytes=sum(t.nbytes for t in self.rtms.icap.transfers),
        )
