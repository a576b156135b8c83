"""One tile running a registered single-tile kernel under the RTMS.

:class:`TileRunner` is what the single-tile kernels (conv2d, gemm, dsp)
share: it compiles the kernel through the frontend registry and keeps a
1x1 mesh and runtime manager whose residency survives between runs.
The artifact's setup prologue (static data through the ICAP) loads
once, before the first run; each payload arrives as free host pokes
through the input port.  A subclass supplies only its layout and
``read_output_words(words)``, the reader the scalar path, the batched
lanes and the serving sessions all decode through.

``run_batch`` goes through the vector-batched tier with the
cold-pilot-first discipline: a cold fabric runs the first payload on
the scalar path (paying setup and program pinning there), so the batch
pilot is warm and replicated lane timings stay honest.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.compile import CompiledArtifact, compile_kernel
from repro.fabric.icap import IcapPort
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import RuntimeManager

__all__ = ["TileRunner"]


class TileRunner:
    """A compiled single-tile kernel on its own resident 1x1 fabric."""

    def __init__(self, kind: str, params: dict[str, Any]) -> None:
        self.mesh = Mesh(1, 1)
        self.rtms = RuntimeManager(self.mesh, IcapPort())
        self.artifact: CompiledArtifact = compile_kernel(kind, params)
        self._programs = tuple(
            program
            for spec in self.artifact.plan.body
            for program in spec.programs.values()
        )
        self._preloaded = False

    def read_output_words(self, words) -> np.ndarray:
        """The kernel's output via a ``words(coord, base, count)`` reader."""
        raise NotImplementedError

    def _preload(self) -> None:
        self.rtms.run_setup(self.artifact)
        self._preloaded = True

    def run(self, payload: Any) -> np.ndarray:
        """Run one payload on the tile; returns the decoded output."""
        if not self._preloaded:
            self._preload()
        self.rtms.execute_artifact(self.artifact, payload)
        tile = self.mesh.tile((0, 0))
        return self.read_output_words(
            lambda coord, base, count: tile.dmem.dump_block(base, count)
        )

    def run_batch(self, payloads) -> np.ndarray:
        """Run a ``(K, ...)`` payload stack through the batched tier.

        Bit-identical to K sequential :meth:`run` calls; returns the
        K outputs stacked.
        """
        payloads = np.asarray(payloads)
        outputs: list = [None] * len(payloads)
        tile = self.mesh.tile((0, 0))
        first = 0
        if not self._preloaded or any(
            tile.resident_base(p) is None for p in self._programs
        ):
            outputs[0] = self.run(payloads[0])
            first = 1
        if first < len(payloads):
            result = self.rtms.execute_artifact_batch(
                self.artifact, list(payloads[first:])
            )
            for lane in result.lanes:
                outputs[first + lane.index] = self.read_output_words(lane.words)
        return np.stack(outputs)
