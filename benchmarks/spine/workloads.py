"""The four spine workloads: what each one sends, generated from a seed.

A workload fixes the *shape* of the load (which plans, in what mix, how
many closed-loop clients); the seed fixes the payloads (and, for the
Zipf mix and the sweep order, the sequence).  The program under test
only ever sees the generated :class:`~repro.serve.jobs.JobRequest`
objects or sweep points — never the seed or the workload name.

The three cluster workloads are **closed loops**: ``clients`` callers
each wait for their reply before sending the next job, because the
``ShardRouter`` is a library with no arrival path of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.compile.frontends import get_frontend
from repro.kernels.conv2d import PRESET_TAPS
from repro.kernels.fft.programs import QFORMAT
from repro.serve.jobs import (
    JobKind,
    JobRequest,
    KernelSpec,
    conv2d_spec,
    dsp_spec,
    fft_spec,
    gemm_spec,
    jpeg_spec,
)

SHARDS = ("shard-0", "shard-1")
ZIPF_S = 1.1
#: run_seconds of BENCHMARK.json; traced runs scale their fixed job
#: counts from it so ``--seconds`` still sizes them.
NOMINAL_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Closed-loop callers (0 for the in-process sweep).
    clients: int
    #: Candidate plans.  ``pair`` workloads pick one plan per shard from
    #: two candidate lists (so nothing is ever stolen); ``zipf``
    #: workloads draw from the whole tuple.
    mix: str
    plans: tuple[tuple[KernelSpec, ...], ...]
    #: Jobs of a traced run at ``NOMINAL_SECONDS`` (the traced run does a
    #: fixed amount of work so that its counts repeat exactly).
    trace_jobs: int

    def trace_size(self, seconds: float) -> int:
        return max(24, round(self.trace_jobs * seconds / NOMINAL_SECONDS))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cluster_warm",
            why="two large plans, one per shard, every job warm: ~80% of a "
            "job is step_round and ~60% the tile engine, so engine "
            "speed-ups show here and routing changes must not",
            clients=4,
            mix="pair",
            plans=(
                tuple(fft_spec(64, 8, c) for c in (2, 3, 6, 1)),
                tuple(jpeg_spec(q, False) for q in (75, 60, 90, 50, 85)),
            ),
            trace_jobs=300,
        ),
        Workload(
            name="cluster_tiny",
            why="the two smallest plans, every job warm: execution is a "
            "quarter of a job, so wire, RPC count, journal and router "
            "bookkeeping dominate",
            clients=4,
            mix="pair",
            plans=(
                tuple(conv2d_spec(16, k) for k in PRESET_TAPS),
                (gemm_spec(8, 4),),
            ),
            trace_jobs=900,
        ),
        Workload(
            name="cluster_thrash",
            why="Zipf(1.1) over 8 plans of 5 kinds on 2 resident fabrics, "
            "16 clients: cold sessions, ICAP reloads, stealing and queue "
            "scans dominate; the paper's reconfiguration time can move",
            clients=16,
            mix="zipf",
            plans=(
                (
                    fft_spec(64, 8, 2),
                    conv2d_spec(16, "edge"),
                    jpeg_spec(75, False),
                    gemm_spec(8, 4),
                    dsp_spec(16, 8, 2),
                    conv2d_spec(16, "sharpen"),
                    fft_spec(64, 8, 3),
                    jpeg_spec(50, False),
                ),
            ),
            trace_jobs=300,
        ),
        Workload(
            name="dse_sweep",
            why="the Figs. 10-12 sweep in-process: 204 distinct FFT plans, "
            "each compiled cold and run once on a fresh mesh, so compile "
            "passes are half the time and nothing is amortised",
            clients=0,
            mix="sweep",
            plans=(),
            trace_jobs=48,
        ),
    )
}


def frontend_params(spec: KernelSpec) -> tuple[object, dict]:
    frontend = get_frontend(spec.kind.value)
    return frontend, frontend.params_from_spec(spec.params)


def fft_vector(n: int, rng) -> np.ndarray:
    """A complex vector inside half the encoder's Q-format headroom."""
    half = QFORMAT.max_value / (2 * n) / 4.0
    return half * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


def make_payload(spec: KernelSpec, rng) -> object:
    """One seeded input for ``spec`` on which the job cannot fail.

    The frontends' example payloads are made for a handful of jobs, not
    for thousands.  FFT's is Gaussian, and about one draw in a few
    thousand exceeds the input encoder's headroom check; ours is
    uniform and bounded.  JPEG's is white noise, which at quality <= 60
    lands exactly on the 60-level bound of the frontend's oracle; ours
    is a smooth field (a coarse random grid, interpolated, plus +-8
    levels of noise), which is what a camera produces and stays well
    inside the bound at every quality.  Neither changes what the fabric
    executes: instruction counts do not depend on the data.
    """
    if spec.kind is JobKind.FFT:
        return fft_vector(int(spec.params[0]), rng)
    if spec.kind is JobKind.JPEG:
        coarse = rng.integers(40, 216, size=(3, 3)).astype(np.float64)
        at = np.linspace(0.0, 2.0, 16)
        rows = np.stack([np.interp(at, (0, 1, 2), col) for col in coarse.T], axis=1)
        field = np.stack([np.interp(at, (0, 1, 2), row) for row in rows])
        noise = rng.integers(-8, 9, size=(16, 16))
        return np.clip(np.rint(field) + noise, 0, 255).astype(np.int64)
    frontend, params = frontend_params(spec)
    return frontend.example_payload(params, rng)


def job_stream(
    workload: Workload, plans: tuple[KernelSpec, ...], seed: int
) -> Iterator[JobRequest]:
    """The endless job list of one (workload, seed): same seed, same jobs.

    ``pair`` workloads alternate their two plans; ``zipf`` workloads
    draw the plan by rank.  Every job carries its own seeded payload.
    """
    rng = np.random.default_rng(seed)
    if workload.mix == "zipf":
        weights = np.arange(1, len(plans) + 1, dtype=np.float64) ** -ZIPF_S
        weights /= weights.sum()
    index = 0
    while True:
        if workload.mix == "zipf":
            pick = int(rng.choice(len(plans), p=weights))
        else:
            pick = index % len(plans)
        yield JobRequest(
            spec=plans[pick],
            payload=make_payload(plans[pick], rng),
            job_id=f"{workload.name}-s{seed}-{index}",
        )
        index += 1


def warmup_jobs(
    plans: list[KernelSpec], shard: str, seed: int
) -> list[JobRequest]:
    """One job per plan, submitted straight to ``shard`` before timing."""
    rng = np.random.default_rng([seed, sum(shard.encode())])
    return [
        JobRequest(
            spec=spec,
            payload=make_payload(spec, rng),
            job_id=f"warmup-{shard}-{index}",
        )
        for index, spec in enumerate(plans)
    ]


# ----------------------------------------------------------------------
# dse_sweep
# ----------------------------------------------------------------------

SWEEP_SIZES = ((1024, 64), (256, 32), (64, 8))
SWEEP_LINK_COSTS = tuple(float(c) for c in range(0, 4801, 300))
#: A link cost outside the sweep grid: the warm-up round fills the
#: process-level memos (imports, assembled tile programs) without
#: putting any timed plan into the artifact cache.
WARMUP_LINK_COST = 150.0


@dataclass(frozen=True)
class SweepPoint:
    n: int
    m: int
    cols: int
    link_cost_ns: float
    x: np.ndarray


def _sweep_groups() -> list[tuple[int, int, int]]:
    groups = []
    for n, m in SWEEP_SIZES:
        stages = int(math.log2(n))
        divisors = [c for c in range(1, stages + 1) if stages % c == 0]
        groups.extend((n, m, cols) for cols in divisors[:4])
    return groups


def sweep_rounds(seed: int) -> list[list[SweepPoint]]:
    """The 204-point sweep as 17 rounds of 12 points.

    Every round holds one point of each (n/m, cols) group, so any whole
    number of rounds has the same mix of cheap and expensive points;
    the seed shuffles which link cost each group meets in which round.
    """
    rng = np.random.default_rng(seed)
    groups = _sweep_groups()
    orders = [rng.permutation(len(SWEEP_LINK_COSTS)) for _ in groups]
    return [
        [
            SweepPoint(
                n, m, cols, SWEEP_LINK_COSTS[order[r]], fft_vector(n, rng)
            )
            for (n, m, cols), order in zip(groups, orders)
        ]
        for r in range(len(SWEEP_LINK_COSTS))
    ]


def warmup_round(seed: int) -> list[SweepPoint]:
    rng = np.random.default_rng([seed, 1])
    return [
        SweepPoint(n, m, cols, WARMUP_LINK_COST, fft_vector(n, rng))
        for n, m, cols in _sweep_groups()
    ]
