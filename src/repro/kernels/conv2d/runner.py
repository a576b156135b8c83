"""The 3x3 stencil executed on the fabric.

:class:`FabricConv2D` is a :class:`~repro.kernels.tile_runner.TileRunner`
over the compiled stencil artifact: the tap preset loads through the
ICAP once (the artifact's setup prologue), each frame arrives as free
host pokes through the input port, and the looped convolution program
fires once per frame.  Output is read straight from the result region —
``dump_block`` returns signed words, so negative edge responses come
back as-is — and must be bit-identical to the numpy reference oracle.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.conv2d.programs import Conv2DLayout
from repro.kernels.tile_runner import TileRunner

__all__ = ["FabricConv2D"]


class FabricConv2D(TileRunner):
    """One tile running the stencil under the RTMS.

    ``run(frame)`` convolves one ``(size, size)`` frame and returns the
    valid result; ``run_batch`` takes a ``(K, size, size)`` stack.
    """

    def __init__(self, size: int = 16, kernel: str = "sharpen") -> None:
        self.size = size
        self.kernel = kernel
        self.layout = Conv2DLayout(size)
        super().__init__("conv2d", {"size": size, "kernel": kernel})

    def read_output_words(self, words) -> np.ndarray:
        lay = self.layout
        out = np.array(
            words((0, 0), lay.out_base, lay.out_dim * lay.out_dim),
            dtype=np.int64,
        )
        return out.reshape(lay.out_dim, lay.out_dim)
