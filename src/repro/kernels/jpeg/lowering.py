"""Lowering the JPEG block pipeline through the dataflow frontend.

The pipeline is expressed as a five-process chain on a
:class:`~repro.compile.graph.DataflowGraph`: the one-time ``data1`` load
(DCT coefficients + quantizer reciprocals, charged through the ICAP
exactly as Table 3 bills it) is the graph's *setup* process, the
per-block pixel delivery is the input port (free host pokes, validated
as an 8x8 block), and the five co-resident stage firings form the
tagless *body* — :meth:`CompiledArtifact.bind` reproduces the legacy
per-block epoch names (``pixels``, ``stage0_shift64``, …) when tagged.
The chain edges make the stage dataflow explicit (shift → DCT →
DCT^T → quantize → zig-zag), which the graph validates against the
firing order and folds into its cycle-cost estimates.

Stage programs come from the ``lru_cache``-d factories, so every
pipeline/artifact of any quality shares the same program objects — only
the first block of a fabric ever pays instruction reconfiguration.

Importing this module registers the ``jpeg`` kernel frontend (and the
``jpeg-pixels-v1`` input-port encoder factory).
"""

from __future__ import annotations

import numpy as np

from repro.compile.graph import DataflowGraph
from repro.compile.ir import (
    Coord,
    EpochPlan,
    KernelGraph,
    register_port_encoder,
)
from repro.errors import KernelError
from repro.kernels.jpeg.programs import (
    PIXEL_QBITS,
    alpha_quantize_program,
    dct_coefficient_words,
    matmul8_program,
    shift_program,
    zigzag_program,
)
from repro.kernels.jpeg.quant import (
    CHROMINANCE_QTABLE,
    LUMINANCE_QTABLE,
    alpha_scale_table,
    scale_qtable,
)

__all__ = ["lower_jpeg", "stage_programs", "data1_image",
           "REGION_C", "REGION_PIX", "REGION_OUT", "REGION_RECIP",
           "REGION_ZZ"]

# Tile data-memory regions (see kernels/jpeg/programs.py):
REGION_C, REGION_PIX, REGION_OUT, REGION_RECIP, REGION_ZZ = 0, 64, 128, 192, 320


def stage_programs() -> tuple:
    """The five co-resident per-block stage programs (shared objects)."""
    return (
        shift_program(64, REGION_PIX, PIXEL_QBITS),
        matmul8_program(a_base=REGION_C, b_base=REGION_PIX,
                        out_base=REGION_OUT, qbits=30),
        matmul8_program(a_base=REGION_OUT, b_base=REGION_C,
                        out_base=REGION_PIX, qbits=30, transpose_b=True),
        alpha_quantize_program(64, qbits=28, a_base=REGION_PIX,
                               recip_base=REGION_RECIP, out_base=REGION_OUT),
        zigzag_program(a_base=REGION_OUT, out_base=REGION_ZZ),
    )


def data1_image(recip: np.ndarray) -> dict[int, int]:
    """The fixed ``data1`` image: DCT coefficients + quantizer reciprocals."""
    image = {
        REGION_C + i: w for i, w in enumerate(dct_coefficient_words())
    }
    image.update(
        {REGION_RECIP + i: int(r) for i, r in enumerate(recip.reshape(-1))}
    )
    return image


def _pixel_encoder(signature: tuple):
    """The ``jpeg-pixels-v1`` encoder, rebuildable from its signature
    (the artifact cache's disk tier relies on this; see
    :func:`repro.compile.ir.register_port_encoder`)."""
    _tag, base, count = signature
    side = int(count ** 0.5)

    def encode(block) -> dict[Coord, dict[int, int]]:
        block = np.asarray(block)
        if block.shape != (side, side):
            raise KernelError(
                f"expected an {side}x{side} block, got {block.shape}"
            )
        pixels = [int(v) for v in block.reshape(-1).tolist()]
        return {(0, 0): dict(zip(range(base, base + count), pixels))}

    return encode


register_port_encoder("jpeg-pixels-v1", _pixel_encoder)


def lower_jpeg(
    quality: int = 75, chroma: bool = False
) -> tuple[KernelGraph, EpochPlan]:
    """Lower one JPEG block-pipeline configuration to a (graph, plan) pair."""
    base = CHROMINANCE_QTABLE if chroma else LUMINANCE_QTABLE
    qtable = scale_qtable(base, quality)
    recip = alpha_scale_table(qtable, 14)

    graph = DataflowGraph(
        kind="jpeg",
        params={"quality": int(quality), "chroma": bool(chroma)},
        rows=1,
        cols=1,
        link_cost_ns=0.0,
    )
    graph.add_process(
        "preload_data1",
        data_images={(0, 0): data1_image(recip)},
        setup=True,
    )
    graph.set_input("pixels", signature=("jpeg-pixels-v1", REGION_PIX, 64))
    prev = None
    for stage, program in enumerate(stage_programs()):
        prev = graph.add_process(
            f"stage{stage}_{program.name}",
            programs={(0, 0): program},
            run=[(0, 0)],
            after=prev,
        )
    return graph.lower()


# ---------------------------------------------------------------------------
# frontend registration
# ---------------------------------------------------------------------------


def _example_payload(params: dict, rng) -> np.ndarray:
    """A deterministic 16x16 greyscale frame (two 8x8 block rows).

    A smooth field, as a camera produces: a coarse random 3x3 grid,
    interpolated, plus up to 8 levels of noise.  It stays well inside
    the oracle's 60-level bound at every quality, where white noise
    lands exactly on it at quality 60 and below.
    """
    coarse = rng.integers(40, 216, size=(3, 3)).astype(np.float64)
    at = np.linspace(0.0, 2.0, 16)
    rows = np.stack([np.interp(at, (0, 1, 2), col) for col in coarse.T], axis=1)
    field = np.stack([np.interp(at, (0, 1, 2), row) for row in rows])
    noise = rng.integers(-8, 9, size=(16, 16))
    return np.clip(np.rint(field) + noise, 0, 255).astype(np.int64)


def _reference(params: dict, payload) -> bytes:
    """The host software encoder at the same quality (float DCT)."""
    from repro.kernels.jpeg.encoder import JPEGEncoder

    return JPEGEncoder(quality=int(params["quality"])).encode(
        np.asarray(payload)
    )


def _verify(params: dict, payload, output) -> None:
    """JPEG's oracle rule: the stream decodes, and the decoded frame is
    within the quantization bound of the source (the same bound the
    fabric-runner tests pin)."""
    from repro.kernels.jpeg.decoder import decode_image

    frame = np.asarray(payload)
    decoded = decode_image(output)
    if decoded.shape != frame.shape:
        raise KernelError(
            f"decoded shape {decoded.shape} != payload shape {frame.shape}"
        )
    err = int(np.abs(decoded.astype(int) - frame.astype(int)).max())
    if err >= 60:
        raise KernelError(
            f"decoded frame diverged by {err} levels (quantization bound 60)"
        )


def _register() -> None:
    from repro.compile.frontends import KernelFrontend, register_frontend

    register_frontend(
        KernelFrontend(
            kind="jpeg",
            description="single-tile JPEG block pipeline "
            "(shift/DCT/quantize/zig-zag + host Huffman)",
            param_names=("quality", "chroma"),
            defaults=(("quality", 75), ("chroma", False)),
            lower=lambda params: lower_jpeg(
                params["quality"], params["chroma"]
            ),
            example_payload=_example_payload,
            reference=_reference,
            verify=_verify,
            exact=False,
        )
    )


_register()
