"""The blocked GEMM executed on the fabric.

:class:`FabricGEMM` is a :class:`~repro.kernels.tile_runner.TileRunner`
over the compiled panel schedule: operands (and the zeroed accumulator)
arrive as free host pokes through the input port, the ``(n/block)^3``
panel programs fire in chain order, and the product is read back from
the C region — signed words, bit-identical to the int64 reference
oracle.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.gemm.programs import GEMMLayout
from repro.kernels.tile_runner import TileRunner

__all__ = ["FabricGEMM"]


class FabricGEMM(TileRunner):
    """One tile running the blocked GEMM under the RTMS.

    ``run(operands)`` multiplies one ``(2, n, n)`` operand pair and
    returns ``A @ B``; ``run_batch`` takes a ``(K, 2, n, n)`` stack.
    """

    def __init__(self, n: int = 8, block: int = 4) -> None:
        self.n = n
        self.block = block
        self.layout = GEMMLayout(n, block)
        super().__init__("gemm", {"n": n, "block": block})

    def read_output_words(self, words) -> np.ndarray:
        lay = self.layout
        out = np.array(
            words((0, 0), lay.c_base, lay.n * lay.n), dtype=np.int64
        )
        return out.reshape(lay.n, lay.n)
