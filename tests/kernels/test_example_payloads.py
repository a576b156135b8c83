"""Frontend example payloads pass their own kernel's checks, every draw.

Serving smoke tests and the CI engine probe draw thousands of example
payloads; one that the input encoder or the oracle rejects fails a job
that did nothing wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile.frontends import compile_kernel, get_frontend
from repro.kernels.fft.programs import QFORMAT

DRAWS = 20_000


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_fft_examples_stay_inside_the_encoder_headroom(n):
    frontend = get_frontend("fft")
    params = frontend.canonicalize({"n": n})
    rng = np.random.default_rng(n)
    limit = QFORMAT.max_value / (2 * n)
    worst, worst_peak = None, 0.0
    for _ in range(DRAWS):
        x = frontend.example_payload(params, rng)
        # the encoder's headroom rule (KernelError above the limit)
        peak = float(np.max(np.abs(x.real)) + np.max(np.abs(x.imag)))
        assert peak <= limit / 2
        if peak > worst_peak:
            worst, worst_peak = x, peak
    # and the largest draw really binds
    artifact = compile_kernel("fft", params)
    assert artifact.bind(worst)


@pytest.mark.parametrize("quality", [50, 60, 75, 90])
def test_jpeg_examples_stay_inside_the_oracle_bound(quality):
    frontend = get_frontend("jpeg")
    params = frontend.canonicalize({"quality": quality})
    rng = np.random.default_rng(quality)
    for _ in range(50):
        frame = frontend.example_payload(params, rng)
        # _verify raises past the 60-level quantization bound
        frontend.check_output(params, frame, frontend.reference(params, frame))
