"""Streamed (pipelined) fabric FFT: correctness and timing discipline."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.fft.runner import FabricFFT


def batch(n, count, rng, scale=0.01):
    return [
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
        for _ in range(count)
    ]


class TestCorrectness:
    @pytest.mark.parametrize("cols", [1, 2, 4])
    def test_every_output_matches_numpy(self, cols, rng):
        plan = FFTPlan(16, 4, cols)
        xs = batch(16, 4, rng)
        stream = FabricFFT(plan, link_cost_ns=50.0).run_stream(xs)
        for out, x in zip(stream.outputs, xs):
            np.testing.assert_allclose(out, np.fft.fft(x), atol=1e-6)

    def test_single_transform_stream(self, rng):
        plan = FFTPlan(16, 4, 2)
        xs = batch(16, 1, rng)
        stream = FabricFFT(plan).run_stream(xs)
        assert stream.steady_interval_ns == stream.completion_ns[0]
        np.testing.assert_allclose(
            stream.outputs[0], np.fft.fft(xs[0]), atol=1e-6
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(KernelError):
            FabricFFT(FFTPlan(16, 4, 1)).run_stream([])


class TestTiming:
    def test_completions_increase(self, rng):
        plan = FFTPlan(16, 4, 2)
        stream = FabricFFT(plan).run_stream(batch(16, 5, rng))
        assert list(stream.completion_ns) == sorted(stream.completion_ns)
        assert stream.total_ns == stream.completion_ns[-1]

    def test_warm_transforms_cheaper_than_cold(self, rng):
        """After transform 0 the programs are resident: later transforms
        pay no instruction reconfiguration — partial reconfiguration
        amortized over the stream."""
        plan = FFTPlan(16, 4, 1)
        stream = FabricFFT(plan).run_stream(batch(16, 4, rng))
        warm = stream.steady_interval_ns
        assert warm < stream.latency_ns / 3

    def test_single_column_serializes_transforms(self, rng):
        """With one column there is no spatial pipelining: inter-completion
        gaps must be stable (each transform fully occupies the column)."""
        plan = FFTPlan(16, 4, 1)
        stream = FabricFFT(plan).run_stream(batch(16, 5, rng))
        gaps = [
            b - a
            for a, b in zip(stream.completion_ns[1:], stream.completion_ns[2:])
        ]
        assert max(gaps) / min(gaps) < 1.1

    def test_more_columns_shrink_steady_interval(self, rng):
        """Multi-column plans overlap successive transforms (Sec. 3.3's
        rationale for spending tiles on columns)."""
        one = FabricFFT(FFTPlan(16, 4, 1)).run_stream(batch(16, 6, rng))
        four = FabricFFT(FFTPlan(16, 4, 4)).run_stream(batch(16, 6, rng))
        assert four.steady_interval_ns < one.steady_interval_ns

    def test_link_cost_slows_stream(self, rng):
        cheap = FabricFFT(FFTPlan(16, 4, 2), link_cost_ns=0.0).run_stream(
            batch(16, 4, rng)
        )
        pricey = FabricFFT(FFTPlan(16, 4, 2), link_cost_ns=3000.0).run_stream(
            batch(16, 4, rng)
        )
        assert pricey.total_ns > cheap.total_ns


class TestCoResidency:
    def test_programs_stay_resident_across_transforms(self, rng):
        plan = FFTPlan(16, 4, 1)
        runner = FabricFFT(plan)
        mesh_holder = {}

        # run a 2-transform stream and inspect the mesh state afterwards
        from repro.fabric.icap import IcapPort
        from repro.fabric.mesh import Mesh
        from repro.fabric.rtms import RuntimeManager

        mesh = Mesh(plan.rows, plan.cols)
        rtms = RuntimeManager(mesh, IcapPort(), dataflow=True)
        xs = batch(16, 2, rng)
        rtms.execute(runner.transform_epochs(xs[0], tag="a_"))
        bytes_cold = sum(t.nbytes for t in rtms.icap.transfers)
        rtms.icap.transfers.clear()
        rtms.execute(runner.transform_epochs(xs[1], tag="b_"))
        bytes_warm = sum(t.nbytes for t in rtms.icap.transfers)
        assert bytes_warm < bytes_cold / 3
        # several programs co-resident per tile
        tile = mesh.tile((0, 0))
        assert len(tile._resident) > 2
        del mesh_holder
