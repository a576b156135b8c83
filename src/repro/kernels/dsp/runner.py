"""The streaming DSP chain executed on the fabric.

:class:`FabricDSP` is a :class:`~repro.kernels.tile_runner.TileRunner`
over the compiled chain: taps and zero history load through the ICAP
once, each oversampled frame arrives as free host pokes, and the
FIR/decimate/butterfly programs fire in chain order.  The natural-order
spectrum is decoded from the RE/IM regions exactly like the FFT runner
does it (Q30 decode + bit-reversal unscramble) and must match the
word-level reference oracle bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dsp.programs import DSPLayout
from repro.kernels.fft.programs import QFORMAT
from repro.kernels.fft.reference import bit_reverse_indices
from repro.kernels.tile_runner import TileRunner

__all__ = ["FabricDSP"]


class FabricDSP(TileRunner):
    """One tile running the FIR → decimate → FFT chain under the RTMS.

    ``run(x)`` processes one oversampled frame and returns the
    natural-order complex spectrum; ``run_batch`` takes a
    ``(K, n * decim)`` stack.
    """

    def __init__(self, n: int = 16, taps: int = 8, decim: int = 2) -> None:
        self.n = n
        self.taps = taps
        self.decim = decim
        self.layout = DSPLayout(n, taps, decim)
        super().__init__("dsp", {"n": n, "taps": taps, "decim": decim})

    def read_output_words(self, words) -> np.ndarray:
        fft_lay, n = self.layout.fft, self.n
        re = QFORMAT.decode_words(words((0, 0), fft_lay.re, n))
        im = QFORMAT.decode_words(words((0, 0), fft_lay.im, n))
        brev = re + 1j * im
        return brev[bit_reverse_indices(n)]
