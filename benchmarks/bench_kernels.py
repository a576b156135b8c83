"""Per-kernel benchmark over the dataflow-frontend registry.

For every registered kernel frontend (``fft``, ``jpeg``, ``conv2d``,
``gemm``, ``dsp`` — plus anything a third party registers before
running) this harness serves the same K example payloads three ways
through one warm :func:`repro.serve.sessions.default_session_factory`
session:

* **scalar** — K sequential ``session.run`` calls (the fabric fast
  path, one job per dispatch);
* **batched** — one ``session.run_batch`` dispatch through the
  vector-batched tier;
* **reference** — the frontend's registered host oracle, timed for
  scale (it is also the correctness gate: every batched output must
  pass ``frontend.check_output``, bit-identically for the exact
  kernels).

Writes ``BENCH_kernels.json``::

    [{"kernel": "conv2d", "params": {...}, "k": 32, "exact": true,
      "wall_s_scalar": ..., "wall_s_batched": ..., "wall_s_reference": ...,
      "batch_speedup": ..., "jobs_per_s_batched": ...}, ...]

``batch_speedup`` (scalar wall over batched wall for the same K jobs)
is the regression contract: :data:`SPEEDUP_FLOORS` is enforced by
``main`` (the CI bench job) and re-checked against the committed JSON
by ``tests/test_bench_kernels.py``.

Run directly (``PYTHONPATH=src python benchmarks/bench_kernels.py``);
``--quick`` is the CI smoke job: K=64, no floor check.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

FULL_K = 32
#: The smoke run gates only "batched is not slower than scalar", so it
#: needs a width at which the vector tier's flat dispatch cost is
#: amortised with margin on *every* kernel.  Since the scalar path
#: executes lowered traces the per-kernel break-evens are 8 (fft) to
#: ~38 (jpeg blocks) lanes: at K=8 every batch runs its lanes scalar and
#: the ratio is 1.0 plus noise, at K=32 conv2d wins by only 1.2x; at 64
#: the weakest kernel wins by 2x.  The committed floors stay at FULL_K.
QUICK_K = 64

#: Minimum batched-vs-scalar speedup each kernel must hold at the full
#: K.  Floors are deliberately below steady-state measurements (margin
#: for CI noise) but high enough that losing lane replication or cached
#: batch codegen trips them.  ``--quick`` runs skip the floor check —
#: the floors are measured at FULL_K.
SPEEDUP_FLOORS = {
    "fft": 3.0,
    "jpeg": 2.5,
    "conv2d": 1.3,
    "gemm": 1.5,
    "dsp": 1.5,
}


def _timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernel(kind: str, k: int, repeats: int) -> dict:
    """Time one registered kernel scalar vs batched vs reference."""
    from repro.compile.frontends import get_frontend
    from repro.serve.jobs import spec_for
    from repro.serve.sessions import CancelToken, default_session_factory

    frontend = get_frontend(kind)
    params = frontend.canonicalize(None)
    rng = np.random.default_rng(7)
    payloads = [frontend.example_payload(params, rng) for _ in range(k)]

    session = default_session_factory(spec_for(kind))
    cancel = CancelToken()
    session.run(payloads[0], cancel)  # cold setup + program pinning

    wall_scalar = _timed(
        lambda: [session.run(p, cancel) for p in payloads], repeats
    )
    stats = session.run_batch(payloads, cancel)
    wall_batched = _timed(
        lambda: session.run_batch(payloads, cancel), repeats
    )
    wall_reference = _timed(
        lambda: [frontend.reference(params, p) for p in payloads], repeats
    )

    for payload, stat in zip(payloads, stats):
        frontend.check_output(params, payload, stat.output)

    return {
        "kernel": kind,
        "params": params,
        "k": k,
        "exact": frontend.exact,
        "wall_s_scalar": wall_scalar,
        "wall_s_batched": wall_batched,
        "wall_s_reference": wall_reference,
        "batch_speedup": (
            wall_scalar / wall_batched if wall_batched > 0 else float("inf")
        ),
        "jobs_per_s_batched": (
            k / wall_batched if wall_batched > 0 else float("inf")
        ),
    }


def run_bench(
    quick: bool = False, output: Path | str = DEFAULT_OUTPUT
) -> list[dict]:
    """Bench every registered kernel and write ``BENCH_kernels.json``."""
    from repro.compile.frontends import frontend_names

    k = QUICK_K if quick else FULL_K
    # Best of three on both sides, quick or not: one timed run of a
    # ~35 ms batch can absorb a 100 ms host stall and read as a loss.
    repeats = 3
    entries = [
        bench_kernel(kind, k, repeats) for kind in frontend_names()
    ]
    output = Path(output)
    output.write_text(json.dumps(entries, indent=2) + "\n")
    return entries


def check_floors(entries: list[dict]) -> None:
    """Raise if any kernel regressed below its :data:`SPEEDUP_FLOORS` bar."""
    failures = [
        f"{e['kernel']}: batch speedup {e['batch_speedup']:.2f}x "
        f"< floor {SPEEDUP_FLOORS[e['kernel']]:.1f}x"
        for e in entries
        if e["kernel"] in SPEEDUP_FLOORS
        and e["batch_speedup"] < SPEEDUP_FLOORS[e["kernel"]]
    ]
    if failures:
        raise AssertionError("kernel speedup regression: " + "; ".join(failures))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    entries = run_bench(quick=args.quick, output=args.output)
    width = max(len(e["kernel"]) for e in entries)
    print(f"wrote {args.output}")
    for e in entries:
        print(
            f"{e['kernel']:<{width}}  K={e['k']:<3d} "
            f"scalar {e['wall_s_scalar'] * 1e3:8.2f} ms  "
            f"batched {e['wall_s_batched'] * 1e3:8.2f} ms  "
            f"speedup {e['batch_speedup']:5.2f}x  "
            f"({e['jobs_per_s_batched']:.0f} jobs/s)"
        )
    if not args.quick:
        check_floors(entries)


if __name__ == "__main__":
    main()
