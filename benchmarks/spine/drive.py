"""Driving the cluster: set-up, the closed loop, and /proc accounting.

Everything here calls only public entry points of ``repro`` — the
router's ``submit`` / ``rebalance`` / ``step_round`` and a shard's
``submit`` / ``step_one`` — so what it times is what a client of the
library would see.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.cluster.proc.shard import ProcShardWorker
from repro.cluster.router import ShardRouter
from repro.compile.cache import clear_cache
from repro.serve.jobs import JobRequest, JobResult, KernelSpec

from workloads import SHARDS, Workload, warmup_jobs

#: Everything a run writes lives under here (journals, traces, history).
OUT_DIR = Path(__file__).resolve().parent / "out"

Spans = list  # of (name, key, start_s, end_s)

#: The CPUs this process may use, read before anything is pinned.
CPUS = sorted(os.sched_getaffinity(0))


def pin_driver() -> None:
    """Pin this process to the first CPU; shards are pinned round-robin.

    Left to the scheduler, the driver and the shard it is talking to end
    up on one CPU in some runs (a pipe wake-up then costs ~40 us) and on
    two in others (~100 us, the idle vCPU has to be woken), and
    throughput is bimodal by 15-30 %.  A fixed placement — driver and
    shard 0 on the first CPU, shard ``i`` on CPU ``i mod nproc`` — keeps
    every run in the same regime and still lets shards run in parallel.
    """
    os.sched_setaffinity(0, {CPUS[0]})



def scratch_dir(prefix: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


def timed(spans: Spans | None, name: str, key, fn: Callable, *args):
    """Call ``fn``; with tracing on, record one span around it."""
    if spans is None:
        return fn(*args)
    start = time.perf_counter()
    out = fn(*args)
    spans.append((name, key, start, time.perf_counter()))
    return out


# ----------------------------------------------------------------------
# cluster lifetime
# ----------------------------------------------------------------------


@dataclass
class Cluster:
    """A router over two shards plus the journal root it must clean up."""

    router: ShardRouter
    root: Path
    plans: tuple[KernelSpec, ...]
    proc: bool
    #: The warm-up jobs each shard ran, in order (the ladder's lower
    #: rungs replay them to start from the same resident plans).
    warmups: dict[str, list[JobRequest]] = field(default_factory=dict)

    def pids(self) -> list[int]:
        if not self.proc:
            return []
        return [s.pid for s in self.router.shards.values() if s.alive]

    def close(self) -> None:
        """Stop every shard (kill what does not stop) and drop the root."""
        try:
            self.router.close()
        finally:
            for shard in self.router.shards.values():
                child = getattr(shard, "proc", None)
                if child is not None and child.poll() is None:
                    shard.kill()
            shutil.rmtree(self.root, ignore_errors=True)


def _pick_pair(
    router: ShardRouter, first: tuple[KernelSpec, ...], second: tuple[KernelSpec, ...]
) -> tuple[KernelSpec, KernelSpec]:
    """One plan of each candidate list, homed on different shards."""
    for a in first:
        for b in second:
            if router.shard_for(a) != router.shard_for(b):
                return a, b
    raise RuntimeError("no candidate pair lands on two different shards")


def start_cluster(workload: Workload, seed: int, *, proc: bool) -> Cluster:
    """Spawn the shards, compile every plan, run one warm-up job per
    plan per shard.  Timing of a run starts after this returns."""
    clear_cache()  # every set-up compiles its plans, repeats included
    root = scratch_dir(f"{workload.name}-")
    if proc:
        factory = lambda name, directory: ProcShardWorker(  # noqa: E731
            name, directory, pool_size=1, max_batch=1, fsync="never"
        )
    else:
        factory = None  # the router's default in-process ShardWorker
    router = ShardRouter(
        root, SHARDS, pool_size=1, max_batch=1, fsync="never",
        worker_factory=factory,
    )
    cluster = Cluster(router, root, (), proc)
    try:
        if proc:
            for index, name in enumerate(SHARDS):
                os.sched_setaffinity(
                    router.shards[name].pid, {CPUS[index % len(CPUS)]}
                )
        if workload.mix == "pair":
            cluster.plans = _pick_pair(router, *workload.plans)
        else:
            cluster.plans = workload.plans[0]
            for spec in cluster.plans:
                router.shard_for(spec)
        for name in SHARDS:
            shard = router.shards[name]
            # Plans homed here go last, so a shard starts the timed
            # phase with one of its own plans resident.
            ordered = sorted(
                cluster.plans, key=lambda spec: router.shard_for(spec) == name
            )
            cluster.warmups[name] = warmup_jobs(ordered, name, seed)
            for job in cluster.warmups[name]:
                shard.submit(job)
            while shard.queue_depth:
                result = shard.step_one()
                if result is None or not result.ok:
                    raise RuntimeError(f"warm-up job failed on {name}: {result}")
    except BaseException:
        cluster.close()
        raise
    return cluster


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


@dataclass
class LoopRun:
    """What one closed-loop phase did."""

    jobs: list[JobRequest] = field(default_factory=list)
    submit_s: list[float] = field(default_factory=list)
    done_s: list[float] = field(default_factory=list)
    #: Job indices in the order their results became visible.
    order: list[int] = field(default_factory=list)
    rounds: int = 0

    @property
    def wall_s(self) -> float:
        """Times are on the loop's own clock, which starts at 0."""
        return max(self.done_s)

    def latencies_ms(self) -> list[float]:
        return [(d - s) * 1e3 for s, d in zip(self.submit_s, self.done_s)]


class ClosedLoop:
    """``clients`` callers, each waiting for its reply before its next job.

    Issues jobs until ``seconds`` have passed or ``max_jobs`` were sent,
    then drains what is in flight.  A job's latency runs from its
    ``router.submit`` call to the round after which its result is in
    ``router.results``.  The loop never looks at the clock to decide
    *what* to do next, only *whether* to issue more, so the schedule of
    a fixed ``max_jobs`` run repeats exactly.

    :meth:`advance` runs some rounds and returns; the loop keeps its own
    clock, which stands still between calls, so a caller may do other
    work between rounds (sample /proc, run the same jobs through another
    rung) without that time showing in ``run``.
    """

    def __init__(
        self,
        router: ShardRouter,
        stream: Iterator[JobRequest],
        clients: int,
        *,
        seconds: float | None = None,
        max_jobs: int | None = None,
        spans: Spans | None = None,
    ) -> None:
        self.router, self.stream, self.clients = router, stream, clients
        self.seconds, self.max_jobs, self.spans = seconds, max_jobs, spans
        self.run = LoopRun()
        self._inflight: dict[str, int] = {}
        self._stopped_at = time.perf_counter()
        self._away_s = self._stopped_at  # so that the loop's clock starts at 0

    def _now(self) -> float:
        return time.perf_counter() - self._away_s

    @property
    def elapsed_s(self) -> float:
        """The loop's clock at the end of the last :meth:`advance`."""
        return self._stopped_at - self._away_s

    def _may_issue(self) -> bool:
        if self.max_jobs is not None and len(self.run.jobs) >= self.max_jobs:
            return False
        return self.seconds is None or self._now() < self.seconds

    def advance(self, rounds: int | None = None) -> bool:
        """Run up to ``rounds`` rounds (all of them by default); true
        while the loop has more to do."""
        self._away_s += time.perf_counter() - self._stopped_at
        run, router, spans, inflight = self.run, self.router, self.spans, self._inflight
        more = True
        while more and rounds != 0:
            while len(inflight) < self.clients and self._may_issue():
                job = next(self.stream)
                index = len(run.jobs)
                run.jobs.append(job)
                run.submit_s.append(self._now())
                run.done_s.append(0.0)
                inflight[job.job_id] = index
                timed(spans, "router.submit", index, router.submit, job)
            if inflight:
                timed(spans, "router.rebalance", run.rounds, router.rebalance)
                timed(spans, "router.step_round", run.rounds, router.step_round)
                run.rounds += 1
                seen = self._now()
                for job_id in [j for j in inflight if j in router.results]:
                    index = inflight.pop(job_id)
                    run.done_s[index] = seen
                    run.order.append(index)
                if rounds is not None:
                    rounds -= 1
            more = bool(inflight) or self._may_issue()
        self._stopped_at = time.perf_counter()
        return more


def closed_loop(router: ShardRouter, stream, clients: int, **limits) -> LoopRun:
    """One :class:`ClosedLoop` run from start to drained."""
    loop = ClosedLoop(router, stream, clients, **limits)
    loop.advance()
    return loop.run


def results_of(router: ShardRouter, jobs: Iterable[JobRequest]) -> list[JobResult | None]:
    return [router.results.get(job.job_id) for job in jobs]


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids: Iterable[int]) -> float:
    """user+sys CPU of this process and ``pids`` from /proc/<pid>/stat."""
    total = 0.0
    for pid in (os.getpid(), *pids):
        # The command name (field 2) may hold spaces: split after it.
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(") ", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed VmHWM of this process and ``pids``."""
    total_kb = 0
    for pid in (os.getpid(), *pids):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0
