"""Fabric-executed JPEG blocks: decodability and cost accounting."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.io.images import natural_like
from repro.kernels.jpeg.decoder import decode_image
from repro.kernels.jpeg.encoder import JPEGEncoder
from repro.kernels.jpeg.fabric_runner import FabricBlockPipeline


@pytest.fixture(scope="module")
def encoded():
    image = natural_like(16, 24, seed=6)
    pipeline = FabricBlockPipeline(quality=75)
    result = pipeline.encode_image(image)
    return image, pipeline, result


class TestBlocks:
    def test_block_shape_validated(self):
        with pytest.raises(KernelError):
            FabricBlockPipeline().encode_block(np.zeros((4, 4)))

    def test_block_matches_reference_within_one_level(self, rng):
        block = rng.integers(0, 256, (8, 8))
        pipeline = FabricBlockPipeline(quality=75)
        got = pipeline.encode_block(block)
        want = JPEGEncoder(quality=75).encode_block_to_zigzag(block)
        assert np.abs(got - want).max() <= 1

    def test_chroma_pipeline_uses_k2_table(self, rng):
        from repro.kernels.jpeg.dct import dct2d
        from repro.kernels.jpeg.quant import (
            CHROMINANCE_QTABLE, quantize, scale_qtable,
        )
        from repro.kernels.jpeg.zigzag import zigzag

        block = rng.integers(0, 256, (8, 8))
        pipeline = FabricBlockPipeline(quality=80, chroma=True)
        got = pipeline.encode_block(block)
        qtable = scale_qtable(CHROMINANCE_QTABLE, 80)
        want = zigzag(quantize(dct2d(block.astype(float) - 128), qtable))
        assert np.abs(got - want).max() <= 1


class TestImage:
    def test_stream_is_decodable(self, encoded):
        image, _, result = encoded
        decoded = decode_image(result.stream)
        assert decoded.shape == image.shape
        assert np.abs(decoded.astype(int) - image.astype(int)).max() < 60

    def test_block_count(self, encoded):
        _, _, result = encoded
        assert result.blocks == 2 * 3

    def test_first_block_pays_the_programs(self, encoded):
        """Stage programs install once; later blocks are compute-only."""
        _, pipeline, result = encoded
        program_ns = sum(p.imem_bytes for p in pipeline._programs) / 180e6 * 1e9
        assert result.first_block_ns >= result.steady_block_ns + 0.7 * program_ns
        # and subsequent blocks are flat (no per-block reconfiguration)
        times = pipeline._block_times[1:]
        assert max(times) - min(times) < 10.0

    def test_block_timing_record_does_not_outlive_the_call(self, encoded):
        """A serve session encodes blocks for the life of the process;
        the record holds the current call's blocks only."""
        image, _, result = encoded
        pipeline = FabricBlockPipeline(quality=75)
        first = pipeline.encode_image(image)
        assert len(pipeline._block_times) == result.blocks
        for _ in range(5):
            pipeline.encode_block(image[:8, :8])
        assert len(pipeline._block_times) == result.blocks
        pipeline.encode_blocks(np.stack([image[:8, :8]] * 3))
        assert len(pipeline._block_times) == 3
        again = pipeline.encode_image(image)
        assert len(pipeline._block_times) == again.blocks == result.blocks
        assert first.first_block_ns == result.first_block_ns
        assert first.steady_block_ns == result.steady_block_ns
        assert again.steady_block_ns == pytest.approx(result.steady_block_ns)

    def test_steady_block_rate(self, encoded):
        _, _, result = encoded
        # ~10k cycles/block at 2.5ns -> tens of microseconds
        assert 10_000 < result.steady_block_ns < 100_000
        assert result.blocks_per_s > 10_000

    def test_data1_charged_once(self, encoded):
        """ICAP traffic = data1 (64+64 words) + the five programs, not
        per-block reloads."""
        _, pipeline, result = encoded
        program_bytes = sum(p.imem_bytes for p in pipeline._programs)
        data1_bytes = (64 + 64) * 6
        assert result.reconfig_bytes == program_bytes + data1_bytes

    def test_non_8bit_rejected(self):
        with pytest.raises(KernelError):
            FabricBlockPipeline().encode_image(np.full((8, 8), 999))
