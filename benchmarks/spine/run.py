"""One measured benchmark for the whole stack.

    python3 benchmarks/spine/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

generates the workload's inputs from the seed, runs it, checks every
output against its oracle, and prints every metric as the last line of
stdout.  ``--trace 0`` times the system untouched and reports the
end-to-end metrics; ``--trace 1`` runs a fixed amount of the same job
list through the ladder of :mod:`ladder` and reports the per-layer
metrics.  README.md in this directory says what each metric means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.compile.cache import cache_stats, clear_cache  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.kernels.fft.decompose import FFTPlan  # noqa: E402
from repro.kernels.fft.runner import FabricFFT  # noqa: E402

import ladder  # noqa: E402
from estimate import (  # noqa: E402
    block_median,
    typical,
    typical_percentile,
    typical_rate,
)
from drive import (  # noqa: E402
    OUT_DIR,
    ClosedLoop,
    closed_loop,
    pin_driver,
    cpu_seconds,
    peak_rss_mb,
    results_of,
    start_cluster,
)
from workloads import (  # noqa: E402
    SHARDS,
    WORKLOADS,
    SweepPoint,
    Workload,
    frontend_params,
    job_stream,
    sweep_rounds,
    warmup_round,
)

SETUP_REPEATS = 3
CPU_SAMPLE_S = 1.0
#: Rounds every rung of the ladder advances before the next one runs.
BLOCK_ROUNDS = 8
#: A run that is still going after this many seconds is killed (the
#: driver's own limit is 180).
WATCHDOG_S = 170

Metrics = dict[str, float]


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------


def median_setup(start: Callable[[], object], stop: Callable[[object], None]):
    """Set up ``SETUP_REPEATS`` times; keep the last, report the median."""
    times, live = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if live is not None:
                stop(live)
                live = None
            begin = time.perf_counter()
            live = start()
            times.append(time.perf_counter() - begin)
        kept, live = live, None
        return kept, statistics.median(times)
    finally:
        if live is not None:
            stop(live)


def failed_jobs(jobs, results) -> int:
    """Jobs without a DONE result or whose output fails its oracle."""
    failed = 0
    for job, result in zip(jobs, results):
        frontend, params = frontend_params(job.spec)
        try:
            if result is None or not result.ok:
                raise ReproError("no DONE result")
            frontend.check_output(params, job.payload, result.output)
        except ReproError:
            failed += 1
    return failed


def fft_matches(point: SweepPoint, output) -> bool:
    return bool(
        np.allclose(output, np.fft.fft(point.x), atol=2e-7 * point.n)
    )


# ----------------------------------------------------------------------
# untraced runs: the end-to-end metrics
# ----------------------------------------------------------------------


def measure_cluster(workload: Workload, seed: int, seconds: float):
    cluster, setup_s = median_setup(
        lambda: start_cluster(workload, seed, proc=True), lambda c: c.close()
    )
    try:
        pids = cluster.pids()
        # (results seen, CPU seconds so far), about once a second.
        samples = [(0, cpu_seconds(pids))]
        loop = ClosedLoop(
            cluster.router,
            job_stream(workload, cluster.plans, seed),
            workload.clients,
            seconds=seconds,
        )
        while loop.advance(rounds=1):
            done = len(loop.run.order)
            if loop.elapsed_s >= CPU_SAMPLE_S * len(samples) and done > samples[-1][0]:
                samples.append((done, cpu_seconds(pids)))
        run = loop.run
        rss_mb = peak_rss_mb(pids)
        results = results_of(cluster.router, run.jobs)
    finally:
        cluster.close()
    latency = run.latencies_ms()
    in_order = [latency[index] for index in run.order]
    cpu_ms = [
        (cpu - cpu_before) * 1e3 / (done - done_before)
        for (done_before, cpu_before), (done, cpu) in zip(samples, samples[1:])
    ]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": typical_rate(run.done_s),
        "job_latency_p50_ms": typical_percentile(in_order, 50),
        "job_latency_p90_ms": typical_percentile(in_order, 90),
        "cpu_ms_per_job": statistics.median(cpu_ms),
        "peak_rss_mb": rss_mb,
    }
    return metrics, len(run.jobs), failed_jobs(run.jobs, results)


def sweep_setup(seed: int) -> None:
    """Empty the artifact cache, then one warm-up point per plan shape
    at a link cost the sweep never uses."""
    clear_cache()
    for point in warmup_round(seed):
        output = FabricFFT(
            FFTPlan(point.n, point.m, point.cols), point.link_cost_ns
        ).run(point.x).output
        if not fft_matches(point, output):
            raise RuntimeError(f"warm-up sweep point {point.n}/{point.m} is wrong")


def run_points(points: list[SweepPoint]) -> tuple[list[float], list]:
    """Each point compiled cold and run once on a fresh mesh."""
    walls, results = [], []
    for point in points:
        begin = time.perf_counter()
        fft = FabricFFT(FFTPlan(point.n, point.m, point.cols), point.link_cost_ns)
        results.append(fft.run(point.x))
        walls.append(time.perf_counter() - begin)
    return walls, results


def measure_sweep(workload: Workload, seed: int, seconds: float):
    rounds = sweep_rounds(seed)
    per_round = len(rounds[0])
    _, setup_s = median_setup(lambda: sweep_setup(seed), lambda _: None)
    begin = time.perf_counter()
    points, walls, outputs, round_s, round_cpu = [], [], [], [], []
    for index in itertools.count():
        if index and index % len(rounds) == 0:
            clear_cache()  # a second lap compiles cold again
        batch = rounds[index % len(rounds)]
        cpu_before = cpu_seconds(())
        round_begin = time.perf_counter()
        batch_walls, results = run_points(batch)
        round_s.append(time.perf_counter() - round_begin)
        round_cpu.append(cpu_seconds(()) - cpu_before)
        points += batch
        walls += batch_walls
        outputs += [r.output for r in results]
        if time.perf_counter() - begin >= seconds:
            break
    if cache_stats().hits:
        raise RuntimeError("a sweep point was served from the artifact cache")
    # One chunk per round: every round holds the same mix of points.
    laps = len(round_s)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": per_round / statistics.median(round_s),
        "job_latency_p50_ms": typical_percentile(walls, 50, laps) * 1e3,
        "job_latency_p90_ms": typical_percentile(walls, 90, laps) * 1e3,
        "cpu_ms_per_job": statistics.median(round_cpu) * 1e3 / per_round,
        "peak_rss_mb": peak_rss_mb(()),
    }
    failed = sum(not fft_matches(p, o) for p, o in zip(points, outputs))
    return metrics, len(points), failed


# ----------------------------------------------------------------------
# traced runs: the per-layer metrics
# ----------------------------------------------------------------------


def trace_cluster(workload: Workload, seed: int, seconds: float, names):
    size = workload.trace_size(seconds)
    metrics: Metrics = dict.fromkeys(names, 0.0)
    spans0: list = []  # R0's router calls
    spans: list = []  # R2 - R5
    marks: list[int] = []  # jobs complete at the end of each block
    clock0: list[float] = []  # R0's and R1's own clocks at those moments
    clock1: list[float] = []

    c0 = start_cluster(workload, seed, proc=True)
    try:
        plans = c0.plans
        jobs = list(itertools.islice(job_stream(workload, plans, seed), 2 * size))
        traced_jobs, plain_jobs = jobs[:size], jobs[size:]
        metrics.update(ladder.probe_compile(plans))
        c1 = start_cluster(workload, seed, proc=False)
        try:
            ladder.retire_run_memo(set(plans))
            lower = ladder.LowerRungs(c1.warmups, spans)
            try:
                # All six rungs advance together, a few rounds at a time,
                # so that the host's slow drifts hit them alike.  R0 and
                # R1 make the same calls in the same order; R2 - R5 then
                # run the jobs R1 has just finished, on the shard R1 ran
                # them on.
                rpcs = [shard.rpc for shard in c0.router.shards.values()]
                calls_before = sum(rpc.calls for rpc in rpcs)
                loop0 = ClosedLoop(
                    c0.router, iter(traced_jobs), workload.clients,
                    max_jobs=size, spans=spans0,
                )
                loop1 = ClosedLoop(
                    c1.router, iter(traced_jobs), workload.clients, max_jobs=size
                )
                order = loop1.run.order
                more = True
                while more:
                    more = loop0.advance(BLOCK_ROUNDS)
                    loop1.advance(BLOCK_ROUNDS)
                    for position in range(marks[-1] if marks else 0, len(order)):
                        job = traced_jobs[order[position]]
                        lower.run_job(job, c1.router.owner[job.job_id], position)
                    marks.append(len(order))
                    clock0.append(loop0.elapsed_s)
                    clock1.append(loop1.elapsed_s)
            finally:
                lower.close()
            run0, run1 = loop0.run, loop1.run
            metrics["rpc.calls_per_job"] = (
                sum(rpc.calls for rpc in rpcs) - calls_before
            ) / size
            steals0 = c0.router.steals
            res0 = results_of(c0.router, traced_jobs)
            res1 = [c1.router.results.get(traced_jobs[index].job_id) for index in order]
            problems = ladder.agreement(
                (steals0, c1.router.steals),
                (run0, run1),
                (res0, results_of(c1.router, traced_jobs)),
            ) or ladder.nesting_problems(lower, res1)
            metrics["compile.cache_hit_rate"] = cache_stats().hit_rate
        finally:
            c1.close()
        served = size + len(plans) * len(SHARDS)
        metrics.update(ladder.probe_journal(c0, traced_jobs, served))
        metrics["rpc.ping_us"] = ladder.probe_ping(c0)
        # The next jobs of the list, untraced and undisturbed.
        plain = closed_loop(
            c0.router, iter(plain_jobs), workload.clients, max_jobs=size
        )
        metrics["rpc.retries"] = float(sum(rpc.retries for rpc in rpcs))
        failed = failed_jobs(jobs, res0 + results_of(c0.router, plain_jobs))
    finally:
        c0.close()

    def span_ms(name: str) -> float:
        """Typical time a job spends in the R2 - R5 spans called ``name``."""
        spent = [0.0, *itertools.accumulate(ladder.per_job_s(spans, name, size))]
        return 1e3 * block_median(marks, [spent[mark] for mark in marks])

    bind_ms, execute_ms, read_ms = (
        span_ms("kernels.bind"), span_ms("fabric.execute"),
        span_ms("kernels.read_output"),
    )
    rung_ms = [
        1e3 * block_median(marks, clock0), 1e3 * block_median(marks, clock1),
        span_ms("engine"), span_ms("worker"), span_ms("session"),
        bind_ms + execute_ms + read_ms,
    ]
    selfs = [upper - below for upper, below in zip(rung_ms, rung_ms[1:])]
    layers = (
        "repro.cluster.proc", "repro.cluster.router", "repro.serve.durability",
        "repro.serve.pool", "repro.serve.sessions",
    )
    rows = [
        *zip(layers, selfs),
        ("repro.kernels bind", bind_ms),
        ("repro.fabric execute", execute_ms),
        ("repro.kernels read_output", read_ms),
    ]
    execute_s = ladder.span_total_s(spans, "fabric.execute")
    cold_ms = [
        (end - start) * 1e3
        for (name, key, start, end) in spans
        if name == "worker" and not lower.worker.warm[key]
    ]
    for call in ("submit", "rebalance", "step_round"):
        metrics[f"router.{call}_ms_per_job"] = (
            1e3 * ladder.span_total_s(spans0, f"router.{call}") / size
        )
    metrics.update(
        {
            "router.rounds_per_job": run0.rounds / size,
            "router.steals_per_job": steals0 / size,
            "router.latency_p99_ms": float(np.percentile(run0.latencies_ms(), 99)),
            "proc.self_ms_per_job": selfs[0],
            "router.self_ms_per_job": selfs[1],
            "engine.self_ms_per_job": selfs[2],
            "pool.self_ms_per_job": selfs[3],
            "session.self_ms_per_job": selfs[4],
            "pool.warm_share": sum(r.warm for r in res0) / size,
            "pool.cold_start_ms": statistics.fmean(cold_ms) if cold_ms else 0.0,
            "kernels.bind_us_per_job": 1e3 * bind_ms,
            "kernels.read_output_us_per_job": 1e3 * read_ms,
            "fabric.execute_ms_per_job": execute_ms,
            "fabric.instr_per_job": lower.instructions / size,
            "fabric.cycles_per_job": lower.cycles / size,
            "fabric.instr_per_host_s": lower.instructions / execute_s,
            "sim_us_per_job": statistics.fmean(r.sim_ns for r in res0) / 1e3,
            "reconfig_us_per_job": statistics.fmean(r.reconfig_ns for r in res0) / 1e3,
            "failed_share": failed / len(jobs),
            "trace.overhead_share": rung_ms[0] * typical_rate(plain.done_s) / 1e3 - 1.0,
            **ladder.probe_wire(traced_jobs, res0),
        }
    )
    if workload.mix == "zipf":
        engine_spans = [s for s in spans if s[0] == "engine"]
        metrics.update(
            ladder.model_errors(len(plans), seed, engine_spans, lower.engine.warm, run0)
        )
    detail = {"jobs": size, "spans": {"R0": spans0, "R2-R5": spans}}
    return metrics, len(jobs), failed, rows, problems, detail


def trace_sweep(workload: Workload, seed: int, seconds: float, names):
    size = workload.trace_size(seconds)
    rounds = sweep_rounds(seed)
    per_round = len(rounds[0])
    laps = max(1, size // per_round)
    if 2 * laps > len(rounds):
        raise SystemExit("--seconds too large for a traced dse_sweep")
    traced = [p for batch in rounds[:laps] for p in batch]
    plain = [p for batch in rounds[laps:2 * laps] for p in batch]
    size = len(traced)
    metrics: Metrics = dict.fromkeys(names, 0.0)
    sweep_setup(seed)
    spans: list = []
    artifacts, outputs, reports, instr, cyc = zip(
        *(
            ladder.sweep_point_decomposed(point, index, spans)
            for index, point in enumerate(traced)
        )
    )
    instructions, cycles = sum(instr), sum(cyc)
    metrics["compile.cache_hit_rate"] = cache_stats().hit_rate
    metrics["compile.warm_lookup_us"] = ladder.sweep_warm_lookup_us(traced)
    plain_walls, plain_results = run_points(plain)
    failed = sum(
        not fft_matches(p, o)
        for p, o in zip(traced + plain, [*outputs, *(r.output for r in plain_results)])
    )
    # One chunk per round: every round holds the same mix of points.
    def typical_ms(values: list[float]) -> float:
        return 1e3 * typical(values, chunks=laps)

    inner = ("compile", "kernels.bind", "fabric.execute", "kernels.read_output")
    ms = {
        name: typical_ms(ladder.per_job_s(spans, name, size))
        for name in ("point", *inner)
    }
    passes = {
        f"compile.pass_ms.{name}": typical_ms(
            [
                sum(t.wall_ns for t in a.pass_timings if t.name == name) / 1e9
                for a in artifacts
            ]
        )
        for name in ladder.PASS_NAMES
    }
    metrics.update(
        {
            "compile.cold_ms_per_plan": ms["compile"],
            **passes,
            "kernels.bind_us_per_job": 1e3 * ms["kernels.bind"],
            "kernels.read_output_us_per_job": 1e3 * ms["kernels.read_output"],
            "fabric.execute_ms_per_job": ms["fabric.execute"],
            "fabric.instr_per_job": instructions / size,
            "fabric.cycles_per_job": cycles / size,
            "fabric.instr_per_host_s": instructions
            / ladder.span_total_s(spans, "fabric.execute"),
            "sim_us_per_job": statistics.fmean(r.total_ns for r in reports) / 1e3,
            "reconfig_us_per_job": statistics.fmean(r.reconfig_ns for r in reports) / 1e3,
            "failed_share": failed / (2 * size),
            "trace.overhead_share": ms["point"] / typical_ms(plain_walls) - 1.0,
        }
    )
    rows = (
        [(f"repro.compile pass {name}", passes[f"compile.pass_ms.{name}"])
         for name in ladder.PASS_NAMES]
        + [
            ("repro.compile lowering + cache", ms["compile"] - sum(passes.values())),
            (
                "repro.kernels.fft runner (mesh, manager)",
                ms["point"] - sum(ms[name] for name in inner),
            ),
            ("repro.kernels bind", ms["kernels.bind"]),
            ("repro.fabric execute", ms["fabric.execute"]),
            ("repro.kernels read_output", ms["kernels.read_output"]),
        ]
    )
    detail = {"jobs": size, "spans": {"sweep": spans}}
    return metrics, 2 * size, failed, rows, [], detail


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def fingerprint() -> dict:
    model = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout, read without starting a process."""
    head = REPO / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (REPO / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def ladder_table(title: str, rows, problems) -> str:
    total = sum(self_ms for _, self_ms in rows)
    lines = [title, f"{'layer':<44}{'self ms/job':>12}{'share %':>9}"]
    for name, self_ms in rows:
        lines.append(f"{name:<44}{self_ms:>12.4f}{100 * self_ms / total:>9.2f}")
    lines.append(f"{'total (top rung)':<44}{total:>12.4f}{100.0:>9.2f}")
    largest = max(rows, key=lambda row: row[1])
    lines.append(f"largest share: {largest[0]}")
    low_name, low = min(rows, key=lambda row: row[1])
    nested = "ok" if low >= -0.05 * total else "NOT NESTED"
    lines.append(
        f"nesting: {nested} (lowest self time {100 * low / total:.2f}% of the "
        f"top rung, {low_name})"
    )
    lines += [f"disagreement: {p}" for p in problems]
    return "\n".join(lines)


def on_timeout(signum, frame):
    raise TimeoutError(f"benchmark stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    workload = WORKLOADS[args.workload]
    sweep = workload.mix == "sweep"

    # Shards and journal directories are reaped on every exit path:
    # the watchdog and SIGTERM unwind through the same ``finally``s.
    signal.signal(signal.SIGALRM, on_timeout)
    signal.signal(signal.SIGTERM, on_timeout)
    signal.alarm(WATCHDOG_S)
    pin_driver()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stamp = fingerprint()
    print(f"spine {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}  {json.dumps(stamp)}")
    problems: list[str] = []
    if args.trace:
        trace = trace_sweep if sweep else trace_cluster
        metrics, attempted, failed, rows, problems, detail = trace(
            workload, args.seed, args.seconds, list(units)
        )
        table = ladder_table(
            f"ladder {args.workload} seed {args.seed}: {detail['jobs']} jobs",
            rows, problems,
        )
        print(table)
        (OUT_DIR / f"ladder-{args.workload}.txt").write_text(table + "\n")
        (OUT_DIR / f"trace-{args.workload}.json").write_text(
            json.dumps(
                {
                    "fingerprint": stamp, "workload": args.workload,
                    "seed": args.seed, "ladder": rows, **detail,
                }
            )
        )
    else:
        measure = measure_sweep if sweep else measure_cluster
        metrics, attempted, failed = measure(workload, args.seed, args.seconds)
    signal.alarm(0)

    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not produced: {sorted(missing)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    for name, entry in result["metrics"].items():
        print(f"  {name:<34}{entry['value']:>16.6g} {entry['unit']}")
    with open(HERE / "history.jsonl", "a") as history:
        history.write(
            json.dumps(
                {
                    "time": time.time(), "workload": args.workload,
                    "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "fingerprint": stamp, **result,
                }
            )
            + "\n"
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
