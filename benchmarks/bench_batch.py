"""Vector-batch scaling benchmark: throughput-per-core vs batch width.

Two questions the tentpole batch tier must answer with numbers:

* **How does throughput scale with K?**  The sweep runs K warm FFT
  transforms through one :meth:`FabricFFT.run_batch` dispatch for
  K in {1, 4, 16, 64} and reports jobs per core-second.  Orchestration
  (pilot scalar run, fingerprint checks, output reads) amortises over
  the lanes, so throughput-per-core must rise monotonically with K —
  the acceptance gate the smoke test checks.
* **Does coalescing pay on a mixed serve trace?**  A 200-job
  FFT/JPEG trace replays against a two-fabric pool under plain
  :class:`AffinityPolicy` and under :class:`BatchCoalescingPolicy`
  (same affinity pick, plus same-configuration grouping into
  :meth:`FabricWorker.execute_batch`).  The *wall-clock* replay-time
  ratio is the coalescing win — simulated fabric time is
  sequential-equivalent by construction, so the win is real compute,
  not accounting.

Writes ``BENCH_batch.json``::

    {"sweep": [{"k": 1, "wall_s": ..., "jobs_per_core_s": ...}, ...],
     "serve": {"jobs": 200, "pool": 2, "wall_s_affinity": ...,
               "wall_s_batch": ..., "coalescing_win": ...}}

Run directly (``PYTHONPATH=src python benchmarks/bench_batch.py``);
``--quick`` shrinks the sweep and the trace for the CI smoke job.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

FULL_KS = (1, 4, 16, 64)
QUICK_KS = (1, 4, 16)
FULL_TRACE_JOBS = 200
QUICK_TRACE_JOBS = 40


# ---------------------------------------------------------------------------
# K sweep: one batched dispatch per width, warm fabric
# ---------------------------------------------------------------------------


def _fft_payloads(k: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((k, 64)) + 1j * rng.standard_normal((k, 64))
    ) * 0.01


def sweep_batch_widths(ks=FULL_KS, repeats: int = 3) -> list[dict]:
    from repro.kernels.fft.decompose import FFTPlan
    from repro.kernels.fft.runner import FabricFFT

    runner = FabricFFT(FFTPlan(64, 8, 2), link_cost_ns=100.0)
    runner.run_batch(_fft_payloads(2))  # warm compile + batch codegen
    entries = []
    for k in ks:
        xs = _fft_payloads(k)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            runner.run_batch(xs)
            best = min(best, time.perf_counter() - t0)
        entries.append(
            {
                "k": k,
                "wall_s": best,
                "jobs_per_core_s": k / best if best > 0 else float("inf"),
            }
        )
    return entries


# ---------------------------------------------------------------------------
# mixed serve trace: affinity vs batch-coalescing replay
# ---------------------------------------------------------------------------


def _mixed_trace(jobs: int) -> list:
    """Deterministic FFT/JPEG mix (3:1) — every payload seeded by index."""
    from repro.io.images import natural_like
    from repro.serve.jobs import JobRequest, fft_spec, jpeg_spec

    rng = np.random.default_rng(42)
    requests = []
    for i in range(jobs):
        if i % 4 == 3:
            requests.append(
                JobRequest(
                    spec=jpeg_spec(75, False),
                    payload=natural_like(16, 16, seed=i),
                )
            )
        else:
            requests.append(
                JobRequest(
                    spec=fft_spec(64, 8, 2),
                    payload=(
                        rng.standard_normal(64)
                        + 1j * rng.standard_normal(64)
                    )
                    * 0.01,
                )
            )
    return requests


def serve_trace_comparison(jobs: int = FULL_TRACE_JOBS, pool_size: int = 2) -> dict:
    from repro.serve.pool import FabricPool
    from repro.serve.scheduler import (
        AffinityPolicy,
        BatchCoalescingPolicy,
        simulate_trace,
    )

    t0 = time.perf_counter()
    affinity = simulate_trace(
        _mixed_trace(jobs), FabricPool(pool_size), AffinityPolicy()
    )
    wall_affinity = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = simulate_trace(
        _mixed_trace(jobs), FabricPool(pool_size), BatchCoalescingPolicy()
    )
    wall_batch = time.perf_counter() - t0

    assert len(affinity.jobs) == len(batched.jobs) == jobs
    return {
        "jobs": jobs,
        "pool": pool_size,
        "wall_s_affinity": wall_affinity,
        "wall_s_batch": wall_batch,
        "coalescing_win": (
            wall_affinity / wall_batch if wall_batch > 0 else float("inf")
        ),
        "makespan_ns_affinity": affinity.makespan_ns,
        "makespan_ns_batch": batched.makespan_ns,
        "warm_jobs_affinity": affinity.warm_jobs,
        "warm_jobs_batch": batched.warm_jobs,
    }


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def run_bench(quick: bool = False, output: Path | str = DEFAULT_OUTPUT) -> dict:
    ks = QUICK_KS if quick else FULL_KS
    jobs = QUICK_TRACE_JOBS if quick else FULL_TRACE_JOBS
    report = {
        "quick": quick,
        "sweep": sweep_batch_widths(ks, repeats=1 if quick else 3),
        "serve": serve_trace_comparison(jobs),
    }
    output = Path(output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    report = run_bench(quick=args.quick, output=args.output)
    print(f"wrote {args.output}")
    for entry in report["sweep"]:
        print(
            f"K={entry['k']:<3d} wall {entry['wall_s'] * 1e3:8.2f} ms  "
            f"throughput {entry['jobs_per_core_s']:8.1f} jobs/core-s"
        )
    serve = report["serve"]
    print(
        f"serve trace ({serve['jobs']} jobs, pool {serve['pool']}): "
        f"affinity {serve['wall_s_affinity']:.2f}s vs "
        f"coalescing {serve['wall_s_batch']:.2f}s — "
        f"win {serve['coalescing_win']:.2f}x"
    )


if __name__ == "__main__":
    main()
