"""Cluster benchmark: sharded scale-out vs a single serving node.

Drives the :mod:`repro.cluster.loadgen` open-loop simulator with
service times **calibrated from real fabric sessions** (one cold and
one warm job per kernel kind, measured on a
:class:`~repro.serve.pool.FabricWorker` in simulated fabric time) and a
million-job Zipf-skewed trace, then writes a machine-readable
``BENCH_cluster.json``::

    {"calibration": {"warm_service_us": ..., "cold_service_us": ...},
     "load": {"jobs": 1000000, "seed": 0, ...},
     "shards": [{"shards": 1, "p50_ms": ..., "p99_ms": ..., "p999_ms": ...,
                 "speedup_vs_single": ...}, ...],
     "speedup_4_shards": 2.9,
     "drain": {"steady_p99_ms": ..., "drain_p99_ms": ..., "p99_ratio": ...},
     "rejoin": {"model": {"mttr_s": ..., "p99_ratio": ...},
                "measured": {"mttr_s": ..., "ok": true, ...}}}

For every shard count the *same* arrival trace replays on the sharded
cluster and on a single node, so ``speedup_vs_single`` (ratio of
makespans) is the honest scale-out factor under identical offered load.
``speedup_4_shards`` is the headline number the tier-1 regression guard
holds to >= 1.8x (mirroring ``BENCH_serve.json``'s 1.5x affinity
floor).

The ``drain`` leg replays the four-shard trace and live-drains the
hottest shard halfway through (the simulator twin of
:func:`repro.cluster.lifecycle.drain.drain_shard`): the tier-1 guard
holds its ``p99_ratio`` — p99 latency during the drain window over
steady-state p99 — to <= 3x.

The ``rejoin`` leg has two halves.  ``model`` replays the four-shard
trace through :func:`repro.cluster.loadgen.simulate_rejoin` — SIGKILL
the hottest shard, strand arrivals for the detection delay, hand the
backlog off, fold the shard back in cold — and reports the disruption
window's p99 blow-up.  ``measured`` runs a *real* three-subprocess
cluster (:func:`repro.cluster.harness.run_cluster_scenario` with a
process fault) through
an actual SIGKILL and reports the supervisor's wall-clock MTTR from
DEAD verdict to ring re-entry; being wall-clock it is the one leg that
is not bit-deterministic, and the tier-1 guard pins invariants (``ok``,
bounded ``mttr_s``) rather than exact values.

Run directly (``PYTHONPATH=src python benchmarks/bench_cluster.py``) or
through :func:`run_bench` from the tier-1 smoke test with a reduced
trace.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

#: Committed-benchmark shape: the ISSUE's million-job load sweep.
DEFAULT_JOBS = 1_000_000
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
DEFAULT_SEED = 0
DEFAULT_PLANS = 64
DEFAULT_ZIPF_S = 1.1
DEFAULT_UTILIZATION = 0.85

#: The measured rejoin leg runs real OS subprocesses, so it stays small
#: and fixed-size regardless of ``n_jobs`` — it measures MTTR, not load.
REJOIN_MEASURED_JOBS = 60
REJOIN_MEASURED_SHARDS = 3


def measure_rejoin() -> dict:
    """SIGKILL a real subprocess shard and time the supervisor's rejoin.

    Spawns :data:`REJOIN_MEASURED_SHARDS` worker subprocesses, drives a
    small trace, SIGKILLs the hottest shard mid-trace, and lets the
    supervisor (:class:`~repro.cluster.lifecycle.ClusterSupervisor`, with
    a respawn budget) respawn it against its journal, scrub-gate it and
    fold it back onto the ring.
    Returns the invariant-checked summary for the ``measured`` half of
    the ``rejoin`` leg.
    """
    import tempfile

    from repro.chaos import ProcFault
    from repro.cluster.harness import ClusterScenario, run_cluster_scenario

    scenario = ClusterScenario(
        faults=(ProcFault(kind="sigkill", after_completions=20),),
        n_jobs=REJOIN_MEASURED_JOBS,
        n_shards=REJOIN_MEASURED_SHARDS,
    )
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-rejoin-") as workdir:
        report = run_cluster_scenario(scenario, Path(workdir))
    rejoin = report.rejoin
    return {
        "jobs": REJOIN_MEASURED_JOBS,
        "shards": REJOIN_MEASURED_SHARDS,
        "victim": report.victim,
        "mttr_s": rejoin.get("mttr_s", 0.0),
        "recovered_requeued": rejoin.get("recovered_requeued", 0),
        "deduped_on_rejoin": rejoin.get("deduped_on_rejoin", 0),
        "rejoined": report.rejoined,
        "violations": list(report.violations),
        "ok": report.ok,
        "wall_s": time.perf_counter() - t0,
    }


def calibrate() -> dict:
    """Measure warm/cold service times on real fabric sessions.

    Runs one cold job (fresh fabric: full configuration) and one warm
    job (same spec resident) per kernel kind and returns microsecond
    figures in *simulated fabric time* — deterministic, so calibration
    never makes the benchmark machine-dependent.
    """
    import numpy as np

    from repro.serve.jobs import JobRequest, fft_spec, jpeg_spec
    from repro.serve.pool import FabricWorker
    from repro.serve.sessions import CancelToken

    rng = np.random.default_rng(0)
    kinds = {
        "fft": (
            fft_spec(16, 4, 2),
            rng.standard_normal(16) + 1j * rng.standard_normal(16),
        ),
        "jpeg": (jpeg_spec(75, False), rng.integers(0, 256, (8, 8))),
    }
    per_kind = {}
    for name, (spec, payload) in kinds.items():
        worker = FabricWorker(f"cal-{name}")
        cold = worker.execute(
            JobRequest(spec=spec, payload=payload), CancelToken()
        )
        warm = worker.execute(
            JobRequest(spec=spec, payload=payload), CancelToken()
        )
        assert not cold.warm and warm.warm
        warm_us = warm.stats.sim_ns / 1e3
        cold_us = warm_us + cold.stats.reconfig_ns / 1e3
        per_kind[name] = {"warm_us": warm_us, "cold_us": cold_us}
    warm = sum(k["warm_us"] for k in per_kind.values()) / len(per_kind)
    cold = sum(k["cold_us"] for k in per_kind.values()) / len(per_kind)
    return {
        "warm_service_us": warm,
        "cold_service_us": max(cold, warm),
        "per_kind": per_kind,
    }


def run_bench(
    n_jobs: int = DEFAULT_JOBS,
    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    seed: int = DEFAULT_SEED,
    output: Path | str = DEFAULT_OUTPUT,
) -> dict:
    """Sweep shard counts over one calibrated load; write the JSON."""
    from repro.cluster.loadgen import (
        LoadSpec,
        generate_trace,
        simulate,
        simulate_drain,
        simulate_rejoin,
    )

    calibration = calibrate()
    entries = []
    for shards in shard_counts:
        spec = LoadSpec(
            n_jobs=n_jobs,
            n_shards=shards,
            seed=seed,
            n_plans=DEFAULT_PLANS,
            zipf_s=DEFAULT_ZIPF_S,
            utilization=DEFAULT_UTILIZATION,
            warm_service_us=calibration["warm_service_us"],
            cold_service_us=calibration["cold_service_us"],
        )
        trace = generate_trace(spec)
        t0 = time.perf_counter()
        clustered = simulate(spec, trace)
        single = (
            clustered if shards == 1 else simulate(spec, trace, n_shards=1)
        )
        wall_s = time.perf_counter() - t0
        entries.append(
            {
                "shards": shards,
                "jobs": n_jobs,
                "makespan_s": clustered.makespan_s,
                "throughput_jobs_per_s": clustered.throughput_jobs_per_s,
                "mean_ms": clustered.mean_ms,
                "p50_ms": clustered.p50_ms,
                "p99_ms": clustered.p99_ms,
                "p999_ms": clustered.p999_ms,
                "warm_fraction": clustered.warm_fraction,
                "steals": clustered.steals,
                "single_node_makespan_s": single.makespan_s,
                "speedup_vs_single": single.makespan_s / clustered.makespan_s,
                "wall_s": wall_s,
            }
        )
    drain_spec = LoadSpec(
        n_jobs=n_jobs,
        n_shards=4,
        seed=seed,
        n_plans=DEFAULT_PLANS,
        zipf_s=DEFAULT_ZIPF_S,
        utilization=DEFAULT_UTILIZATION,
        warm_service_us=calibration["warm_service_us"],
        cold_service_us=calibration["cold_service_us"],
    )
    t0 = time.perf_counter()
    drain = simulate_drain(drain_spec).as_dict()
    drain["wall_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rejoin_model = simulate_rejoin(drain_spec).as_dict()
    rejoin_model["wall_s"] = time.perf_counter() - t0
    rejoin = {"model": rejoin_model, "measured": measure_rejoin()}

    by_shards = {entry["shards"]: entry for entry in entries}
    report = {
        "calibration": calibration,
        "load": {
            "jobs": n_jobs,
            "seed": seed,
            "n_plans": DEFAULT_PLANS,
            "zipf_s": DEFAULT_ZIPF_S,
            "utilization": DEFAULT_UTILIZATION,
            "shard_counts": list(shard_counts),
        },
        "shards": entries,
        "speedup_4_shards": (
            by_shards[4]["speedup_vs_single"] if 4 in by_shards else None
        ),
        "drain": drain,
        "rejoin": rejoin,
    }
    output = Path(output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> None:
    report = run_bench()
    print(f"wrote {DEFAULT_OUTPUT}")
    cal = report["calibration"]
    print(
        f"calibrated service: warm {cal['warm_service_us']:.1f} us  "
        f"cold {cal['cold_service_us']:.1f} us"
    )
    for entry in report["shards"]:
        print(
            f"shards {entry['shards']:>2}  "
            f"p50 {entry['p50_ms']:8.3f} ms  "
            f"p99 {entry['p99_ms']:8.3f} ms  "
            f"p999 {entry['p999_ms']:8.3f} ms  "
            f"steals {entry['steals']:>7}  "
            f"speedup {entry['speedup_vs_single']:5.2f}x  "
            f"wall {entry['wall_s']:.1f} s"
        )
    print(f"speedup at 4 shards: {report['speedup_4_shards']:.2f}x")
    drain = report["drain"]
    print(
        f"drain leg ({drain['drained_shard']} @ "
        f"{drain['drain_start_s']:.1f} s): "
        f"steady p99 {drain['steady_p99_ms']:.3f} ms  "
        f"drain p99 {drain['drain_p99_ms']:.3f} ms  "
        f"ratio {drain['p99_ratio']:.2f}x"
    )
    model = report["rejoin"]["model"]
    measured = report["rejoin"]["measured"]
    print(
        f"rejoin leg (model, {model['killed_shard']}): "
        f"mttr {model['mttr_s'] * 1e3:.0f} ms  "
        f"window p99 {model['window_p99_ms']:.3f} ms  "
        f"ratio {model['p99_ratio']:.2f}x  "
        f"migrated {model['migrated']}  stranded {model['stranded']}"
    )
    print(
        f"rejoin leg (measured, {measured['shards']} procs): "
        f"mttr {measured['mttr_s'] * 1e3:.0f} ms  "
        f"requeued {measured['recovered_requeued']}  "
        f"deduped {measured['deduped_on_rejoin']}  "
        f"ok {measured['ok']}"
    )


if __name__ == "__main__":
    main()
