"""Differential tests: fast engine vs the reference interpreter.

Every shipped tile program (the FFT butterflies, copies, and twiddle
generators; the JPEG block stages and Huffman helpers) runs through both
execution tiers on identical data.  The fast path — a lowered trace where
the run is proven and admitted, the oracle everywhere else — must be
*architecturally invisible*: final data-memory images,
:class:`TileStats`, memory-port counters, and :class:`ConcurrentRun`
makespans all have to match the reference interpreter bit for bit.

Each single-tile case runs **twice** on fresh tiles so the second pass
exercises the re-run of the already compiled trace, not just the first
run that lowers it.
"""

from __future__ import annotations

import pytest

from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.predecode import COUNTERS
from repro.fabric.simulator import run_concurrent
from repro.fabric.tile import Tile
from repro.kernels.fft.programs import (
    FFTLayout,
    QFORMAT,
    bf_exchange_program,
    bf_internal_program,
    copy_pair_program,
    copy_program,
    local_copy_pair_program,
    local_copy_program,
    twiddle_gather_program,
    twiddle_square_program,
)
from repro.kernels.jpeg.programs import (
    PIXEL_QBITS,
    alpha_quantize_program,
    dc_category_program,
    dct_coefficient_words,
    matmul8_program,
    rle_program,
    shift_program,
    zigzag_program,
)

_M = 8
_LAY = FFTLayout(_M)

#: Shipped programs whose control flow depends on the payload.
_DATA_DEPENDENT = {"jpeg_dc_category", "jpeg_rle"}


def _fft_image() -> dict[int, int]:
    """Deterministic FFT data: points, twiddles, and one staging payload."""
    image: dict[int, int] = {}
    for j in range(_M):
        image[_LAY.re + j] = QFORMAT.encode(0.03 * j - 0.11)
        image[_LAY.im + j] = QFORMAT.encode(0.05 - 0.02 * j)
    for j in range(_LAY.half):
        image[_LAY.wre + j] = QFORMAT.encode(0.9 - 0.1 * j)
        image[_LAY.wim + j] = QFORMAT.encode(-0.05 * j)
    # Staging buffer A holds an arrived partner payload (half re + half im
    # per point-group; the buffer is m words: re then im).
    for j in range(_LAY.half):
        image[_LAY.sa + j] = QFORMAT.encode(0.01 * j + 0.2)
        image[_LAY.sa + _LAY.half + j] = QFORMAT.encode(0.3 - 0.01 * j)
    return image


def _jpeg_image() -> dict[int, int]:
    """Deterministic JPEG data: coefficient matrix, pixels, reciprocals."""
    image = {i: w for i, w in enumerate(dct_coefficient_words())}
    for j in range(64):
        image[64 + j] = ((j * 37 + 11) % 256) - 128  # shifted-sample range
        image[192 + j] = 1 << 10  # plausible Q14 reciprocals
    # Sparse zig-zag vector for the RLE scan (EOB + ZRL paths).
    for j in range(64):
        image[320 + j] = (j % 19 == 0) * (j + 1)
    return image


# (name, program, data image) for every shipped silent tile program.
_CASES = [
    ("fft_bf_internal_span1", bf_internal_program(_M, 1), _fft_image()),
    ("fft_bf_internal_span4", bf_internal_program(_M, 4), _fft_image()),
    ("fft_bf_exchange_lower", bf_exchange_program(_M, True, "A", "B"), _fft_image()),
    ("fft_bf_exchange_upper", bf_exchange_program(_M, False, "A", "B"), _fft_image()),
    ("fft_local_copy", local_copy_program(_M, _LAY.sa, _LAY.sc), _fft_image()),
    (
        "fft_local_copy_pair",
        local_copy_pair_program(
            _LAY.half, _LAY.sa, _LAY.re, _LAY.sa + _LAY.half, _LAY.im
        ),
        _fft_image(),
    ),
    (
        "fft_twiddle_gather",
        twiddle_gather_program(_M, ((0, False), (0, True), (1, False), (3, True))),
        _fft_image(),
    ),
    ("fft_twiddle_square", twiddle_square_program(_M), _fft_image()),
    ("jpeg_shift", shift_program(64, 64, PIXEL_QBITS), _jpeg_image()),
    ("jpeg_matmul8", matmul8_program(), _jpeg_image()),
    ("jpeg_matmul8_bt", matmul8_program(transpose_b=True), _jpeg_image()),
    ("jpeg_alpha_quantize", alpha_quantize_program(), _jpeg_image()),
    ("jpeg_zigzag", zigzag_program(a_base=128, out_base=320), _jpeg_image()),
    ("jpeg_dc_category", dc_category_program(), _jpeg_image()),
    ("jpeg_rle", rle_program(), _jpeg_image()),
]


def _run_single(program, image, engine):
    tile = Tile(name=f"eq-{engine}")
    tile.dmem.load_image(image)
    tile.dmem.reset_counters()
    tile.load_program(program)
    cycles = tile.run(engine=engine)
    return tile, cycles


def _assert_tiles_match(fast: Tile, ref: Tile) -> None:
    assert fast.dmem.dump_block(0, 512) == ref.dmem.dump_block(0, 512)
    assert fast.stats == ref.stats
    assert fast.dmem.reads == ref.dmem.reads
    assert fast.dmem.writes == ref.dmem.writes
    assert (fast.pc, fast.halted) == (ref.pc, ref.halted)


@pytest.mark.parametrize(
    "name,program,image", _CASES, ids=[c[0] for c in _CASES]
)
def test_single_tile_program_equivalence(name, program, image):
    # First pass: compiled fast path vs interpreter.
    fast, fast_cycles = _run_single(program, image, "fast")
    ref, ref_cycles = _run_single(program, image, "reference")
    assert fast_cycles == ref_cycles
    _assert_tiles_match(fast, ref)
    # Second pass on fresh tiles: the lowered trace compiled by the first
    # pass runs again (the two Huffman helpers branch on payload data, are
    # never lowered, and take the decoded blocks both times); the re-run
    # must be just as invisible as the first.
    lowered = COUNTERS.lowered_runs
    fast2, fast2_cycles = _run_single(program, image, "fast")
    assert fast2_cycles == ref_cycles
    _assert_tiles_match(fast2, ref)
    assert COUNTERS.lowered_runs - lowered == (name not in _DATA_DEPENDENT)


def _mesh_pair(engine):
    """Two-tile mesh: west tile streams its points east, east commits."""
    mesh = Mesh(1, 2)
    west, east = mesh.tile((0, 0)), mesh.tile((0, 1))
    for tile in (west, east):
        tile.dmem.load_image(_fft_image())
        tile.dmem.reset_counters()
    mesh.configure_link((0, 0), Direction.EAST)
    west.load_program(copy_program(2 * _M, 0, _LAY.sa, "E"))
    east.load_program(local_copy_program(_M, _LAY.sa, _LAY.sc))
    run = run_concurrent([west, east], engine=engine)
    return mesh, run


def test_concurrent_makespan_equivalence():
    mesh_f, run_f = _mesh_pair("fast")
    mesh_r, run_r = _mesh_pair("reference")
    assert run_f.makespan_ns == run_r.makespan_ns
    assert run_f.busy_ns == run_r.busy_ns
    assert run_f.instructions == run_r.instructions
    for coord in ((0, 0), (0, 1)):
        tf, tr = mesh_f.tile(coord), mesh_r.tile(coord)
        assert tf.dmem.dump_block(0, 512) == tr.dmem.dump_block(0, 512)
        assert tf.stats == tr.stats


def test_concurrent_pair_copy_equivalence():
    """The paired-exchange sweep program through both tiers."""

    def build(engine):
        mesh = Mesh(2, 1)
        north, south = mesh.tile((0, 0)), mesh.tile((1, 0))
        for tile in (north, south):
            tile.dmem.load_image(_fft_image())
            tile.dmem.reset_counters()
        mesh.configure_link((0, 0), Direction.SOUTH)
        mesh.configure_link((1, 0), Direction.NORTH)
        north.load_program(
            copy_pair_program(
                _LAY.half, _LAY.re, _LAY.sa, _LAY.im, _LAY.sa + _LAY.half, "S"
            )
        )
        south.load_program(
            copy_pair_program(
                _LAY.half, _LAY.re, _LAY.sc, _LAY.im, _LAY.sc + _LAY.half, "N"
            )
        )
        run = run_concurrent([north, south], engine=engine)
        return mesh, run

    mesh_f, run_f = build("fast")
    mesh_r, run_r = build("reference")
    assert run_f.makespan_ns == run_r.makespan_ns
    assert run_f.busy_ns == run_r.busy_ns
    for coord in ((0, 0), (1, 0)):
        tf, tr = mesh_f.tile(coord), mesh_r.tile(coord)
        assert tf.dmem.dump_block(0, 512) == tr.dmem.dump_block(0, 512)
        assert tf.stats == tr.stats


def test_rtms_engine_keyword_equivalence():
    """`RuntimeManager(engine=...)` forwards the tier to every epoch."""
    from repro.fabric.rtms import EpochSpec, RuntimeManager

    def run(engine):
        mesh = Mesh(1, 1)
        tile = mesh.tile((0, 0))
        tile.dmem.load_image(_jpeg_image())
        rtms = RuntimeManager(mesh, engine=engine)
        program = shift_program(64, 64, PIXEL_QBITS)
        rtms.execute(
            [EpochSpec("shift", programs={(0, 0): program}, run=[(0, 0)])]
        )
        return rtms.now_ns, tile.dmem.dump_block(0, 512), tile.stats

    ns_f, mem_f, stats_f = run("fast")
    ns_r, mem_r, stats_r = run("reference")
    assert ns_f == ns_r
    assert mem_f == mem_r
    assert stats_f == stats_r
