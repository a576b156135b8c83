"""The traced run: a ladder of nested public entry points.

Each rung runs the *same jobs on the same shard in the same order*
through one entry point lower in the stack, so a layer's self time is
the rung minus the rung below::

    R0  ShardRouter over ProcShardWorker   (the measured system)
    R1  ShardRouter over in-process ShardWorker
    R2  DurableEngine.submit + step
    R3  FabricWorker.execute
    R4  session.run            (plus cold session construction)
    R5  artifact.bind -> RuntimeManager.execute -> read_output

All six advance together, a few rounds at a time (see
``run.trace_cluster``), so the host's drifts cancel in the differences.

``dse_sweep`` has its own, shorter ladder: ``FabricFFT(...)``
construction (the compile, split by ``pass_timings``) and the body of
``.run`` (mesh construction / bind / execute / read_output).

All spans come from this directory, around calls into the program; the
program itself is not instrumented.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import loadgen
from repro.cluster.proc import wire
from repro.compile.cache import cache_stats, clear_cache
from repro.compile.frontends import compile_fft, compile_kernel
from repro.compile.passes import DEFAULT_PASSES
from repro.fabric.icap import IcapPort
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import RuntimeManager
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.fft.runner import FabricFFT
from repro.kernels.jpeg.encoder import blocks_of
from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import JobJournal
from repro.serve.durability.records import encode_request
from repro.serve.durability.recovery import replay
from repro.serve.jobs import JobKind, JobRequest, KernelSpec
from repro.serve.pool import FabricWorker
from repro.serve.sessions import CancelToken, default_session_factory

from drive import Cluster, LoopRun, Spans, scratch_dir, timed
from workloads import SHARDS, ZIPF_S, SweepPoint, frontend_params, make_payload

PASS_NAMES = tuple(name for name, _ in DEFAULT_PASSES)

#: The jobs in execution order, each with the shard that ran it.
Schedule = list[tuple[JobRequest, str]]
#: The warm-up jobs each shard ran before the schedule, in order.
Warmups = dict[str, list[JobRequest]]


@dataclass
class RungRun:
    """What one rung produced for every job of the schedule."""

    outputs: list = field(default_factory=list)
    warm: list[bool] = field(default_factory=list)
    sim_ns: list[float] = field(default_factory=list)
    reconfig_ns: list[float] = field(default_factory=list)

    def add(self, output, warm: bool, sim_ns: float, reconfig_ns: float) -> None:
        self.outputs.append(output)
        self.warm.append(warm)
        self.sim_ns.append(sim_ns)
        self.reconfig_ns.append(reconfig_ns)


def span_total_s(spans: Spans, name: str) -> float:
    return sum(end - start for n, _, start, end in spans if n == name)


def per_job_s(spans: Spans, name: str, size: int) -> list[float]:
    """Seconds each job spent in the spans called ``name``."""
    out = [0.0] * size
    for span_name, key, start, end in spans:
        if span_name == name:
            out[key] += end - start
    return out


# ----------------------------------------------------------------------
# R2 - R5
# ----------------------------------------------------------------------


def _resident(sessions: dict, name: str, spec: KernelSpec):
    """The shard's session for ``spec``: the resident one, or a cold one."""
    session = sessions.get(name)
    warm = session is not None and session.config_key == spec.config_key
    if not warm:
        session = sessions[name] = default_session_factory(spec)
    return session, warm


def _tile_counts(mesh) -> tuple[int, int]:
    """Instructions and cycles every tile of ``mesh`` has executed."""
    tiles = list(mesh)
    return (
        sum(t.stats.instructions for t in tiles),
        sum(t.stats.cycles for t in tiles),
    )


def _run_decomposed(session, job: JobRequest, index: int, cold: bool, spans: Spans):
    """One job as the three calls every session's ``run`` is made of."""
    rtms, artifact = session.rtms, session.artifact

    def execute(epochs) -> None:
        start = time.perf_counter()
        for epoch in epochs:
            rtms.execute([epoch])
        spans.append(("fabric.execute", index, start, time.perf_counter()))

    def span(name: str, fn, *args):
        return timed(spans, name, index, fn, *args)

    if cold and artifact.plan.setup:
        span("fabric.execute", rtms.run_setup, artifact)
    if job.spec.kind is JobKind.JPEG:
        blocks, rows, cols = blocks_of(np.asarray(job.payload).astype(np.int64))
        out = []
        for r in range(rows):
            for c in range(cols):
                execute(span("kernels.bind", artifact.bind, blocks[r, c]))
                out.append(span("kernels.read_output", session.pipeline.read_zigzag))
        return out
    tag = f"j{index}_"
    if job.spec.kind is JobKind.FFT:
        payload = np.asarray(job.payload, dtype=np.complex128)
        execute(span("kernels.bind", artifact.bind, payload, tag))
        return span("kernels.read_output", session.fft.read_output, session.mesh)
    execute(span("kernels.bind", artifact.bind, job.payload, tag))
    mesh = session.mesh
    return span(
        "kernels.read_output",
        session.runner.read_output_words,
        lambda coord, base, count: mesh.tile(coord).dmem.dump_block(base, count),
    )


def retire_run_memo(specs: set[KernelSpec], streak: int = 16) -> None:
    """Stream ``streak`` distinct payloads through every plan.

    The tile run memo replays a program whose inputs it has seen and
    gives up on one after 12 misses in a row — the state a server is in
    after its first few jobs of a plan.  Running a job several times
    back to back would instead keep the memo alive and let the lower
    rungs replay what the first one recorded; retiring it first makes
    every rung execute.
    """
    rng = np.random.default_rng(0)
    for spec in sorted(specs, key=lambda s: s.config_key):
        session = default_session_factory(spec)
        for _ in range(streak):
            session.run(make_payload(spec, rng), CancelToken())


class LowerRungs:
    """R2 - R5: each job through all four, back to back.

    Each rung keeps its own engines, workers and sessions (one per
    shard), so all four see the same warm/cold sequence; running them
    job by job instead of rung by rung puts the four timings of a job
    within milliseconds of each other, where the machine's slow drifts
    cancel in the differences.
    """

    def __init__(self, warmups: Warmups, spans: Spans) -> None:
        self.spans = spans
        self.engine, self.worker = RungRun(), RungRun()
        self.session, self.fabric = RungRun(), RungRun()
        self.instructions = self.cycles = 0
        self._root = scratch_dir("rungs-")
        self._engines = {
            name: DurableEngine(
                self._root / name, pool_size=1, max_batch=1, fsync="never"
            )
            for name in SHARDS
        }
        self._workers = {name: FabricWorker("fabric-0") for name in SHARDS}
        self._sessions4: dict = {}
        self._sessions5: dict = {}
        try:
            for name, jobs in warmups.items():
                for job in jobs:
                    self.run_job(job, name, None)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()
        shutil.rmtree(self._root, ignore_errors=True)

    def run_job(self, job: JobRequest, name: str, index: int | None) -> None:
        """``index`` is the job's place in the schedule; ``None`` for a
        warm-up job, which is run but not recorded."""
        record = index is not None
        spans = self.spans if record else []

        start = time.perf_counter()
        self._engines[name].submit(job)
        result = self._engines[name].step()
        spans.append(("engine", index, start, time.perf_counter()))

        start = time.perf_counter()
        run = self._workers[name].execute(job, CancelToken())
        spans.append(("worker", index, start, time.perf_counter()))

        # A cold job builds its session inside the span, as the pool would.
        start = time.perf_counter()
        session4, warm4 = _resident(self._sessions4, name, job.spec)
        stats = session4.run(job.payload, CancelToken())
        spans.append(("session", index, start, time.perf_counter()))

        # R5 runs on a session built outside its spans.
        session, warm = _resident(self._sessions5, name, job.spec)
        rtms, mesh = session.rtms, session.rtms.mesh
        instr, cycles = _tile_counts(mesh) if warm else (0, 0)
        now, busy = rtms.now_ns, rtms.icap.total_busy_ns
        output = _run_decomposed(session, job, index, not warm, spans)
        if not record:
            return
        self.engine.add(result.output, result.warm, result.sim_ns, result.reconfig_ns)
        self.worker.add(
            run.stats.output, run.warm, run.stats.sim_ns, run.stats.reconfig_ns
        )
        self.session.add(stats.output, warm4, stats.sim_ns, stats.reconfig_ns)
        self.fabric.add(
            output, warm, rtms.now_ns - now, rtms.icap.total_busy_ns - busy
        )
        after = _tile_counts(mesh)
        self.instructions += after[0] - instr
        self.cycles += after[1] - cycles


def nesting_problems(lower: LowerRungs, reference: list) -> list[str]:
    """Where R2 - R5 fail to reproduce R1 (``reference``: R1's results in
    schedule order): the rungs are only nested if they did the same work."""
    problems = []
    expected = (
        [r.warm for r in reference],
        [r.sim_ns for r in reference],
        [r.reconfig_ns for r in reference],
    )
    for name, rung in (("R2", lower.engine), ("R3", lower.worker), ("R4", lower.session)):
        if not all(map(outputs_equal, rung.outputs, (r.output for r in reference))):
            problems.append(f"{name} outputs differ from R1")
        if (rung.warm, rung.sim_ns, rung.reconfig_ns) != expected:
            problems.append(f"{name} warm flags or simulated times differ from R1")
    if (lower.fabric.sim_ns, lower.fabric.reconfig_ns) != expected[1:]:
        problems.append("R5 simulated times differ from R1")
    return problems


# ----------------------------------------------------------------------
# layer probes (calls into one layer's public functions)
# ----------------------------------------------------------------------


def probe_wire(jobs: list[JobRequest], results: list) -> dict[str, float]:
    """Encode/decode cost and size of the two payload-bearing frames of
    a job: the ``submit`` request and the ``step`` response."""
    encode_s = decode_s = 0.0
    size = 0
    for job, result in zip(jobs, results):
        start = time.perf_counter()
        frames = (
            wire.encode_message(
                {"id": 1, "op": "submit", "params": {"job": wire.encode_job(job)}}
            ),
            wire.encode_message(
                {
                    "id": 2,
                    "ok": True,
                    "value": {"idle": False, "result": wire.encode_result(result)},
                }
            ),
        )
        mid = time.perf_counter()
        decoder = wire.FrameDecoder()
        request, response = (decoder.feed(frame)[0] for frame in frames)
        wire.decode_job(request["params"]["job"])
        wire.decode_result(response["value"]["result"])
        end = time.perf_counter()
        encode_s += mid - start
        decode_s += end - mid
        size += sum(len(frame) for frame in frames)
    n = len(jobs)
    return {
        "wire.encode_us_per_job": encode_s / n * 1e6,
        "wire.decode_us_per_job": decode_s / n * 1e6,
        "wire.bytes_per_job": size / n,
    }


def probe_journal(cluster: Cluster, jobs: list[JobRequest], served: int) -> dict[str, float]:
    """Append cost on a scratch journal; record counts and replay cost
    over the journals the run left (``served`` jobs, warm-ups included)."""
    bodies = [encode_request(job) for job in jobs]
    root = scratch_dir("journal-probe-")
    try:
        journal = JobJournal(root, fsync="never", lock=False)
        start = time.perf_counter()
        for job, body in zip(jobs, bodies):
            journal.submitted(job.job_id, body)
        append_s = time.perf_counter() - start
        journal.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    records = size = 0
    replay_s = 0.0
    for name in SHARDS:
        left = JobJournal(cluster.root / name, fsync="never", lock=False)
        start = time.perf_counter()
        scanned, report = left.scan()
        replay(scanned)
        replay_s += time.perf_counter() - start
        left.close()
        records += report.records
        size += report.bytes_scanned
    return {
        "journal.append_us": append_s / len(jobs) * 1e6,
        "journal.records_per_job": records / served,
        "journal.bytes_per_job": size / served,
        "journal.replay_ms_per_krec": replay_s * 1e3 / (records / 1000.0),
    }


def probe_ping(cluster: Cluster, calls: int = 200) -> float:
    """Median round trip of the cheapest RPC, in microseconds."""
    samples = []
    for shard in cluster.router.shards.values():
        for _ in range(calls):
            start = time.perf_counter()
            shard.rpc.call("ping")
            samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def probe_compile(plans: tuple[KernelSpec, ...]) -> dict[str, float]:
    """Cold compile of every plan (pass by pass), then cached lookups."""
    clear_cache()
    requests = [(spec.kind.value, frontend_params(spec)[1]) for spec in plans]
    start = time.perf_counter()
    artifacts = [compile_kernel(kind, params) for kind, params in requests]
    cold_s = time.perf_counter() - start
    lookups = 50
    start = time.perf_counter()
    for _ in range(lookups):
        for kind, params in requests:
            compile_kernel(kind, params)
    warm_s = time.perf_counter() - start
    return {
        "compile.cold_ms_per_plan": cold_s / len(plans) * 1e3,
        "compile.warm_lookup_us": warm_s / (lookups * len(plans)) * 1e6,
        **_pass_ms(artifacts),
    }


def _pass_ms(artifacts) -> dict[str, float]:
    totals = dict.fromkeys(PASS_NAMES, 0.0)
    for artifact in artifacts:
        for timing in artifact.pass_timings:
            totals[timing.name] += timing.wall_ns
    return {
        f"compile.pass_ms.{name}": total / len(artifacts) / 1e6
        for name, total in totals.items()
    }


def model_errors(
    n_plans: int, seed: int, engine_spans: Spans, warm: list[bool],
    measured: LoopRun,
) -> dict[str, float]:
    """``cluster.loadgen`` fed the measured warm and cold service times,
    at the same shard count, plan count, Zipf exponent and steal margin,
    offered the rate the real cluster sustained: model / measured - 1."""
    service = [end - start for _, _, start, end in engine_spans]
    warm_s = [s for s, w in zip(service, warm) if w]
    cold_s = [s for s, w in zip(service, warm) if not w]
    warm_us = statistics.fmean(warm_s) * 1e6
    cold_us = max(warm_us, statistics.fmean(cold_s) * 1e6 if cold_s else warm_us)
    rate = len(measured.jobs) / measured.wall_s
    report = loadgen.simulate(
        loadgen.LoadSpec(
            n_jobs=len(measured.jobs),
            n_shards=len(SHARDS),
            seed=seed,
            n_plans=n_plans,
            n_tenants=1,
            zipf_s=ZIPF_S,
            fabrics_per_shard=1,
            warm_service_us=warm_us,
            cold_service_us=cold_us,
            utilization=min(2.0, rate * cold_us * 1e-6 / len(SHARDS)),
            steal_margin=2,
        )
    )
    latency = np.asarray(measured.latencies_ms())
    return {
        "loadgen.jobs_per_s_err": report.throughput_jobs_per_s / rate - 1.0,
        "loadgen.latency_p50_err": report.p50_ms / float(np.percentile(latency, 50)) - 1.0,
        "loadgen.latency_p99_err": report.p99_ms / float(np.percentile(latency, 99)) - 1.0,
    }


# ----------------------------------------------------------------------
# the cluster ladder
# ----------------------------------------------------------------------


def outputs_equal(a, b) -> bool:
    if isinstance(a, (bytes, bytearray)) or isinstance(b, (bytes, bytearray)):
        return bytes(a) == bytes(b)
    return np.array_equal(np.asarray(a), np.asarray(b))


def schedule_of(cluster: Cluster, run: LoopRun) -> Schedule:
    """The jobs in completion order, each with the shard that ran it."""
    return [
        (run.jobs[index], cluster.router.owner[run.jobs[index].job_id])
        for index in run.order
    ]


def agreement(steals: tuple[int, int], runs: tuple[LoopRun, LoopRun], results) -> list[str]:
    """Where the subprocess cluster (R0) and the in-process one (R1)
    disagree: steals, schedule, warm flags or outputs."""
    problems = []
    if steals[0] != steals[1]:
        problems.append(f"steals {steals[0]} != {steals[1]}")
    if runs[0].order != runs[1].order or runs[0].rounds != runs[1].rounds:
        problems.append("completion order or round count differs")
    for a, b in zip(*results):
        if a is None or b is None or a.warm != b.warm:
            problems.append(f"warm flag differs on {a and a.job_id}")
            break
        if not outputs_equal(a.output, b.output):
            problems.append(f"output differs on {a.job_id}")
            break
    return problems


# ----------------------------------------------------------------------
# the sweep ladder
# ----------------------------------------------------------------------


def sweep_point_decomposed(point: SweepPoint, index: int, spans: Spans):
    """One sweep point as the calls ``FabricFFT(...)`` and ``.run`` make."""

    def span(name: str, fn, *args):
        return timed(spans, name, index, fn, *args)

    begin = time.perf_counter()
    fft = span(
        "compile", FabricFFT, FFTPlan(point.n, point.m, point.cols), point.link_cost_ns
    )
    mesh = Mesh(fft.plan.rows, fft.plan.cols)
    rtms = RuntimeManager(mesh, IcapPort(), link_cost_ns=point.link_cost_ns)
    epochs = span("kernels.bind", fft.artifact.bind, point.x, "")
    report = span("fabric.execute", rtms.execute, epochs)
    output = span("kernels.read_output", fft.read_output, mesh)
    spans.append(("point", index, begin, time.perf_counter()))
    return (fft.artifact, output, report, *_tile_counts(mesh))


def sweep_warm_lookup_us(points: list[SweepPoint]) -> float:
    """Cached ``compile_fft`` of plans the traced phase just compiled."""
    recent = points[-24:]  # well inside the cache's 64-entry LRU
    before = cache_stats().snapshot()
    start = time.perf_counter()
    for point in recent:
        compile_fft(FFTPlan(point.n, point.m, point.cols), point.link_cost_ns)
    elapsed = time.perf_counter() - start
    if cache_stats().delta(before).misses:
        raise RuntimeError("warm lookup probe missed the artifact cache")
    return elapsed / len(recent) * 1e6
