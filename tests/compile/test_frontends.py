"""Frontend wiring: default cache, runner integration, DSE hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import cache_stats, clear_cache, get_cache
from repro.compile.frontends import compile_fft, compile_jpeg
from repro.dse.sweep import sweep
from repro.errors import KernelError, ReconfigError
from repro.fabric.icap import IcapPort
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import RuntimeManager
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.fft.runner import FabricFFT
from repro.kernels.jpeg.fabric_runner import FabricBlockPipeline


class TestDefaultCache:
    def test_frontends_share_the_process_cache(self):
        clear_cache()
        a = compile_fft(FFTPlan(16, 16, 1))
        b = compile_fft(FFTPlan(16, 16, 1))
        assert a is b
        assert get_cache().stats.hits == 1
        assert cache_stats().lowers == 1

    def test_runners_compile_through_the_same_cache(self):
        clear_cache()
        fft_a = FabricFFT(FFTPlan(16, 16, 1))
        fft_b = FabricFFT(FFTPlan(16, 16, 1))
        assert fft_a.artifact is fft_b.artifact
        pipe_a = FabricBlockPipeline(quality=75)
        pipe_b = FabricBlockPipeline(quality=75)
        assert pipe_a.artifact is pipe_b.artifact


class TestArtifactExecution:
    def test_mesh_shape_mismatch_is_rejected(self):
        artifact = compile_fft(FFTPlan(64, 8, 2))  # 8x2 mesh
        rtms = RuntimeManager(Mesh(2, 2), IcapPort())
        with pytest.raises(ReconfigError, match="compiled for"):
            rtms.execute_artifact(artifact, np.zeros(64, complex))
        with pytest.raises(ReconfigError):
            rtms.run_setup(artifact)

    def test_bound_input_validates_like_the_legacy_runner(self):
        artifact = compile_fft(FFTPlan(16, 16, 1))
        with pytest.raises(KernelError, match="shape"):
            artifact.bind(np.zeros(8, complex))
        with pytest.raises(KernelError, match="overflow"):
            artifact.bind(np.full(16, 1e6 + 0j))

    def test_fft_through_artifact_matches_numpy(self):
        plan = FFTPlan(64, 16, 1)
        fft = FabricFFT(plan)
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 0.05
        result = fft.run(x)
        rel = np.linalg.norm(result.output - np.fft.fft(x)) / \
            np.linalg.norm(np.fft.fft(x))
        assert rel < 1e-3


class TestDSEHooks:
    def test_sweep_reports_compile_cache_delta(self):
        clear_cache()
        result = sweep(
            lambda n, cols: compile_fft(FFTPlan(n, 16, cols)).artifact_hash,
            {"n": [16, 16], "cols": [1]},
        )
        stats = result.compile_cache
        assert stats is not None
        # Two sweep points, one distinct configuration: 1 lower + 1 hit.
        assert stats.lowers == 1
        assert stats.hits == 1
