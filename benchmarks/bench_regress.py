"""Benchmark-regression harness: fast path vs reference interpreter.

Times the three workloads every fabric experiment funnels through — the
64-point fabric FFT, the JPEG block pipeline, and one analytic DSE sweep
over the fabric FFT — under both execution tiers, and writes a
machine-readable ``BENCH_fabric.json``::

    [{"bench": "fabric_fft_64pt",
      "wall_s_fast": 0.006, "wall_s_reference": 0.033,
      "simulated_ns": 135562.5, "speedup": 5.4}, ...]

The simulated time is asserted identical between tiers (the fast path
must be architecturally invisible — see ``repro.fabric.predecode`` and
``tests/fabric/test_engine_equivalence.py``); the speedup column is what
the regression smoke test checks (fast must never be slower).

Run directly (``PYTHONPATH=src python benchmarks/bench_regress.py``) or
through :func:`run_benches` from the tier-1 smoke test with reduced
repeats.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np

REFERENCE_ENV = "REPRO_REFERENCE_SIM"
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fabric.json"


# ---------------------------------------------------------------------------
# workloads — each call builds fresh fabric state and returns simulated ns
# ---------------------------------------------------------------------------


def bench_fabric_fft() -> float:
    """Full 64-pt FFT on an 8x2 mesh (the bench_fabric_fft workload)."""
    from repro.kernels.fft.decompose import FFTPlan
    from repro.kernels.fft.runner import FabricFFT

    rng = np.random.default_rng(0)
    x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 0.01
    runner = FabricFFT(FFTPlan(64, 8, 2), link_cost_ns=100.0)
    result = runner.run(x)
    return result.report.total_ns


#: Lanes in the batched-FFT regression bench (64 transforms per call).
BATCH_K = 64


def bench_fabric_fft_batch() -> float:
    """64 transforms through the vector-batched tier in one dispatch.

    Under ``REPRO_REFERENCE_SIM`` the batch tier degrades to sequential
    scalar lanes on the reference interpreter, so both legs execute the
    same 64 jobs and the simulated clocks must agree exactly — the
    sequential-equivalence contract of :mod:`repro.fabric.batch`.
    """
    from repro.kernels.fft.decompose import FFTPlan
    from repro.kernels.fft.runner import FabricFFT

    rng = np.random.default_rng(0)
    xs = (
        rng.standard_normal((BATCH_K, 64))
        + 1j * rng.standard_normal((BATCH_K, 64))
    ) * 0.01
    runner = FabricFFT(FFTPlan(64, 8, 2), link_cost_ns=100.0)
    return runner.run_batch(xs).total_ns


def bench_fabric_jpeg() -> float:
    """JPEG block pipeline on one tile (the bench_fabric_jpeg workload)."""
    from repro.io.images import natural_like
    from repro.kernels.jpeg.fabric_runner import FabricBlockPipeline

    pipeline = FabricBlockPipeline(quality=75)
    result = pipeline.encode_image(natural_like(16, 16, seed=9))
    return result.total_ns


def _fft_cost_point(link_cost_ns: float) -> float:
    from repro.kernels.fft.decompose import FFTPlan
    from repro.kernels.fft.runner import FabricFFT

    rng = np.random.default_rng(1)
    x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 0.01
    runner = FabricFFT(FFTPlan(64, 8, 2), link_cost_ns=link_cost_ns)
    return runner.run(x).report.total_ns


def bench_dse_sweep() -> float:
    """A small link-cost DSE sweep whose points each simulate the fabric."""
    from repro.dse.sweep import sweep

    result = sweep(_fft_cost_point, {"link_cost_ns": [0.0, 100.0]}, processes=1)
    return float(sum(result.values))


BENCHES = [
    ("fabric_fft_64pt", bench_fabric_fft),
    ("fabric_fft_batch64", bench_fabric_fft_batch),
    ("fabric_jpeg_blocks", bench_fabric_jpeg),
    ("dse_link_cost_sweep", bench_dse_sweep),
]

#: Minimum fast-vs-reference speedup each bench must hold.  ``main``
#: (and therefore the CI bench job) fails when a regression drops a
#: bench below its floor; the committed ``BENCH_fabric.json`` is checked
#: against the same table by ``tests/test_bench_regress.py``.
SPEEDUP_FLOORS = {
    "fabric_fft_64pt": 5.0,
    "fabric_fft_batch64": 50.0,
    "fabric_jpeg_blocks": 5.0,
    "dse_link_cost_sweep": 1.0,
}


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _timed(fn, repeats: int) -> tuple[float, float]:
    """(best wall seconds, simulated ns) over ``repeats`` calls."""
    best = float("inf")
    simulated = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        simulated = fn()
        best = min(best, time.perf_counter() - t0)
    return best, simulated


def _with_engine(reference: bool, fn, repeats: int) -> tuple[float, float]:
    prior = os.environ.get(REFERENCE_ENV)
    try:
        if reference:
            os.environ[REFERENCE_ENV] = "1"
        else:
            os.environ.pop(REFERENCE_ENV, None)
        return _timed(fn, repeats)
    finally:
        if prior is None:
            os.environ.pop(REFERENCE_ENV, None)
        else:
            os.environ[REFERENCE_ENV] = prior


def run_benches(repeats: int = 3, output: Path | str = DEFAULT_OUTPUT) -> list[dict]:
    """Time every bench under both tiers and write ``BENCH_fabric.json``."""
    entries = []
    for name, fn in BENCHES:
        _with_engine(False, fn, 1)  # warm imports, caches, and the lowered traces
        wall_fast, sim_fast = _with_engine(False, fn, repeats)
        wall_ref, sim_ref = _with_engine(True, fn, repeats)
        if name == "fabric_fft_batch64":
            # The batch tier replicates the pilot's per-job delta as one
            # k*delta product; the sequential reference accumulates the
            # same delta k times.  Identical mathematically, but float
            # addition order leaves last-ulp dust on a microsecond-scale
            # clock — outputs (the real contract) are asserted
            # bit-identical by tests/fabric/test_batch.py.
            agree = math.isclose(sim_fast, sim_ref, rel_tol=1e-12)
        else:
            agree = sim_fast == sim_ref
        if not agree:
            raise AssertionError(
                f"{name}: simulated time diverged between engines "
                f"(fast {sim_fast} ns vs reference {sim_ref} ns)"
            )
        entries.append(
            {
                "bench": name,
                "wall_s_fast": wall_fast,
                "wall_s_reference": wall_ref,
                "simulated_ns": sim_fast,
                "speedup": wall_ref / wall_fast if wall_fast > 0 else float("inf"),
            }
        )
    output = Path(output)
    output.write_text(json.dumps(entries, indent=2) + "\n")
    return entries


def check_floors(entries: list[dict]) -> None:
    """Raise if any bench regressed below its :data:`SPEEDUP_FLOORS` bar."""
    failures = [
        f"{e['bench']}: speedup {e['speedup']:.2f}x "
        f"< floor {SPEEDUP_FLOORS[e['bench']]:.1f}x"
        for e in entries
        if e["bench"] in SPEEDUP_FLOORS
        and e["speedup"] < SPEEDUP_FLOORS[e["bench"]]
    ]
    if failures:
        raise AssertionError("speedup regression: " + "; ".join(failures))


def main() -> None:
    entries = run_benches()
    width = max(len(e["bench"]) for e in entries)
    print(f"wrote {DEFAULT_OUTPUT}")
    for e in entries:
        print(
            f"{e['bench']:<{width}}  fast {e['wall_s_fast'] * 1e3:8.2f} ms  "
            f"reference {e['wall_s_reference'] * 1e3:8.2f} ms  "
            f"speedup {e['speedup']:5.2f}x  "
            f"simulated {e['simulated_ns'] / 1000:.2f} us"
        )
    check_floors(entries)


if __name__ == "__main__":
    main()
