"""Resilience benchmark: journal overhead, recovery scaling, shed-vs-collapse.

Three deterministic experiments, one machine-readable
``BENCH_resilience.json``:

1. **journal overhead** — replays the ISSUE's 200-job mixed FFT+JPEG
   trace through the sequential :class:`~repro.serve.durability.engine.
   DurableEngine` and compares a *modeled* journaling cost (counted
   appends and bytes priced at buffered-append constants) against the
   simulated fabric makespan.  The acceptance bar is overhead <= 15 %.
2. **recovery scaling** — journals traces of growing length, then
   constructs a fresh engine over each journal (construction *is*
   recovery) and records the counted scan/replay work: records, bytes,
   segments, recovered results, plus a modeled replay time.  Recovery
   work must scale linearly in the journal, never in wall-clock history.
3. **shed vs collapse** — a seeded discrete-event queue simulation at
   5x overload, once with the :class:`~repro.serve.shedding.LoadShedder`
   in front of admission and once with only a bounded queue.  The
   shedder holds p99 queue delay near its target; the naive queue rides
   the admission cap and p99 runs away to the full backlog drain time.

Every quantity in the report is simulated or counted — no wall-clock
time leaks into the JSON, so the committed artifact is byte-identical
across runs and machines.

Run directly (``PYTHONPATH=src python benchmarks/bench_resilience.py``)
or through :func:`run_bench` from the tier-1 smoke test with reduced
sizes.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_OUTPUT = (
    Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
)

#: Committed-benchmark shapes.
DEFAULT_JOBS = 200
DEFAULT_SEED = 0
DEFAULT_FFT_FRACTION = 0.5
DEFAULT_RECOVERY_LENGTHS = (25, 50, 100, 200)
DEFAULT_ARRIVALS = 2000

#: Modeled journaling constants (page-cache append path, fsync=NEVER):
#: a buffered ``write(2)`` of one framed record plus the per-byte copy.
APPEND_NS = 2_000.0      # syscall + frame bookkeeping per record
BYTE_NS = 0.25           # ~4 GB/s memcpy into the page cache
#: Modeled replay constant: CRC check + JSON decode + fold per record.
REPLAY_NS = 4_000.0

#: Overload simulation shape (simulated seconds, single server).
OVERLOAD_FACTOR = 5.0
SERVICE_S = 0.05
QUEUE_BOUND = 256
SHED_TARGET_S = 0.5
SHED_COLLAPSE_S = 2.0
#: The shedder's hard cap is sized to the delay objective (~1.6x the
#: collapse depth of 40 jobs), not to memory like the naive bound.
SHED_HARD_CAP = 64


def _trace_requests(n_jobs: int, seed: int, fft_fraction: float):
    """A mixed 64-pt-FFT / JPEG-frame trace (production-shaped jobs —
    the chaos runner's 16-pt jobs are sized for crash coverage, not
    for a representative compute/journal ratio)."""
    import numpy as np

    from repro.serve.jobs import JobRequest, fft_spec, jpeg_spec

    rng = np.random.default_rng(seed)
    requests = []
    for index in range(n_jobs):
        if rng.random() < fft_fraction:
            spec = fft_spec(64, 8, 3)
            payload = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        else:
            spec = jpeg_spec(75, False)
            payload = rng.integers(0, 256, size=(8, 8), dtype=np.int64)
        requests.append(
            JobRequest(spec=spec, payload=payload,
                       job_id=f"bench-{index:03d}")
        )
    return requests


def _journal_run(workdir: Path, n_jobs: int, seed: int,
                 fft_fraction: float) -> dict:
    """Replay the trace on a journaled engine; model the append cost."""
    from repro.serve.durability.engine import DurableEngine

    engine = DurableEngine(workdir / f"journal-{n_jobs}")
    for request in _trace_requests(n_jobs, seed, fft_fraction):
        engine.submit(request)
    report = engine.run()
    journal = engine.journal
    journal_ns = journal.appended * APPEND_NS + journal.bytes_written * BYTE_NS
    makespan_ns = report.sim_ns
    engine.close()
    return {
        "jobs": n_jobs,
        "seed": seed,
        "fft_fraction": fft_fraction,
        "records": journal.appended,
        "bytes": journal.bytes_written,
        "segments": len(journal.segments()),
        "rotations": journal.rotations,
        "makespan_ns": makespan_ns,
        "journal_ns": journal_ns,
        "overhead_pct": 100.0 * journal_ns / makespan_ns,
        "model": {"append_ns": APPEND_NS, "byte_ns": BYTE_NS},
    }


def _recovery_point(workdir: Path, n_jobs: int, seed: int,
                    fft_fraction: float) -> dict:
    """Journal one trace, then measure what a cold restart replays."""
    from repro.serve.durability.engine import DurableEngine

    journal_dir = workdir / f"recovery-{n_jobs}"
    engine = DurableEngine(journal_dir)
    for request in _trace_requests(n_jobs, seed, fft_fraction):
        engine.submit(request)
    engine.run()
    engine.close()

    restarted = DurableEngine(journal_dir)
    scan = restarted.scan_report
    replay_bytes = sum(p.stat().st_size for p in restarted.journal.segments())
    point = {
        "jobs": n_jobs,
        "records": scan.records,
        "bytes": replay_bytes,
        "segments": len(restarted.journal.segments()),
        "recovered_finished": restarted.report.recovered_finished,
        "recovered_requeued": restarted.report.recovered_requeued,
        "replay_ns": scan.records * REPLAY_NS + replay_bytes * BYTE_NS,
    }
    restarted.close()
    return point


def _overload_sim(n_arrivals: int, service_s: float, overload: float,
                  shedder, queue_bound: int) -> dict:
    """Seeded discrete-event single-server queue at ``overload`` x."""
    interarrival = service_s / overload
    pending: list[float] = []         # admission times, FIFO
    server_free = 0.0
    waits: list[float] = []
    rejected = {"shed": 0, "admission_cap": 0, "queue_full": 0}

    def start_ready(now: float) -> None:
        nonlocal server_free
        while pending and max(pending[0], server_free) <= now:
            admit_t = pending.pop(0)
            start = max(admit_t, server_free)
            wait = start - admit_t
            waits.append(wait)
            if shedder is not None:
                shedder.observe(wait)
            server_free = start + service_s

    for index in range(n_arrivals):
        now = index * interarrival
        start_ready(now)
        depth = len(pending)
        if shedder is not None:
            decision = shedder.decide(depth)
            if not decision.admit:
                rejected[decision.reason] += 1
                continue
        elif queue_bound and depth >= queue_bound:
            rejected["queue_full"] += 1
            continue
        pending.append(now)
    start_ready(float("inf"))

    waits.sort()
    completed = len(waits)
    p50 = waits[int(0.50 * (completed - 1))] if completed else 0.0
    p99 = waits[int(0.99 * (completed - 1))] if completed else 0.0
    return {
        "policy": "shed" if shedder is not None else "queue_only",
        "arrivals": n_arrivals,
        "completed": completed,
        "rejected": rejected,
        "rejected_total": sum(rejected.values()),
        "mean_wait_s": sum(waits) / completed if completed else 0.0,
        "p50_wait_s": p50,
        "p99_wait_s": p99,
    }


def _overload_section(n_arrivals: int) -> dict:
    from repro.serve.shedding import LoadShedder

    shedder = LoadShedder(
        target_delay_s=SHED_TARGET_S,
        collapse_delay_s=SHED_COLLAPSE_S,
        hard_cap=SHED_HARD_CAP,
        seed=0,
    )
    shed = _overload_sim(
        n_arrivals, SERVICE_S, OVERLOAD_FACTOR, shedder, QUEUE_BOUND
    )
    naive = _overload_sim(
        n_arrivals, SERVICE_S, OVERLOAD_FACTOR, None, QUEUE_BOUND
    )
    return {
        "overload_factor": OVERLOAD_FACTOR,
        "service_s": SERVICE_S,
        "queue_bound": QUEUE_BOUND,
        "shed_hard_cap": SHED_HARD_CAP,
        "target_delay_s": SHED_TARGET_S,
        "collapse_delay_s": SHED_COLLAPSE_S,
        "policies": [shed, naive],
        "p99_ratio": (
            naive["p99_wait_s"] / shed["p99_wait_s"]
            if shed["p99_wait_s"] > 0
            else float("inf")
        ),
    }


def run_bench(
    n_jobs: int = DEFAULT_JOBS,
    recovery_lengths: tuple[int, ...] = DEFAULT_RECOVERY_LENGTHS,
    n_arrivals: int = DEFAULT_ARRIVALS,
    seed: int = DEFAULT_SEED,
    fft_fraction: float = DEFAULT_FFT_FRACTION,
    output: Path | str = DEFAULT_OUTPUT,
    workdir: Path | str | None = None,
) -> dict:
    """Run all three experiments, write ``BENCH_resilience.json``."""
    import tempfile

    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-resilience-") as tmp:
            return run_bench(
                n_jobs=n_jobs,
                recovery_lengths=recovery_lengths,
                n_arrivals=n_arrivals,
                seed=seed,
                fft_fraction=fft_fraction,
                output=output,
                workdir=tmp,
            )
    workdir = Path(workdir)
    report = {
        "journal": _journal_run(workdir, n_jobs, seed, fft_fraction),
        "recovery": [
            _recovery_point(workdir, length, seed, fft_fraction)
            for length in recovery_lengths
        ],
        "overload": _overload_section(n_arrivals),
    }
    output = Path(output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> None:
    report = run_bench()
    print(f"wrote {DEFAULT_OUTPUT}")
    journal = report["journal"]
    print(
        f"journal   {journal['jobs']} jobs  {journal['records']} records  "
        f"{journal['bytes']} B  overhead {journal['overhead_pct']:.2f}% "
        f"of makespan"
    )
    for point in report["recovery"]:
        print(
            f"recovery  {point['jobs']:4d} jobs -> {point['records']:5d} "
            f"records  {point['segments']} segment(s)  "
            f"replay {point['replay_ns'] / 1e6:.2f} ms (modeled)"
        )
    for entry in report["overload"]["policies"]:
        print(
            f"overload  {entry['policy']:<10}  completed "
            f"{entry['completed']:4d}  rejected {entry['rejected_total']:4d}  "
            f"p99 wait {entry['p99_wait_s']:7.2f} s"
        )
    print(f"p99 ratio (queue_only / shed): "
          f"{report['overload']['p99_ratio']:.1f}x")


if __name__ == "__main__":
    main()
