"""A kept session, powered on, serves exactly as a fresh one.

A :class:`~repro.serve.pool.FabricWorker` keeps the sessions it built
and, on a cold start to a kept configuration, powers that session on
instead of building a new one.  These tests hold such a worker to one
that builds a fresh session on every cold start, over switch sequences
of every registered kernel that include a job that raises, a resume from
an epoch checkpoint and an ``execute_batch`` group.  Per job they
compare the result fields; per job end the fabric (memories, counters,
``TileStats``, the ICAP transfer log, timing); per ``execute`` call the
``EpochReport`` s.  From a configuration's third job on a kept session
runs its cold starts as generated epoch functions, which a third leg
holds to the reference interpreter.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile.frontends import get_frontend
from repro.errors import JobCancelled
from repro.fabric.rtms import RuntimeManager
from repro.serve.durability.resume import write_checkpoint
from repro.serve.jobs import JobRequest, spec_for
from repro.serve.pool import KEPT_SESSIONS, FabricWorker
from repro.serve.sessions import (
    CancelToken,
    _BaseSession,
    default_session_factory,
)

#: Two configurations of every registered kernel.
CONFIGS = {
    "conv2d": ({}, {"size": 8, "kernel": "blur"}),
    "dsp": ({}, {"taps": 4}),
    "fft": ({"n": 16, "m": 4, "cols": 2}, {"n": 16, "m": 4, "cols": 1}),
    "gemm": ({}, {"n": 4, "block": 2}),
    "jpeg": ({}, {"quality": 50}),
}

#: ``(op, config)``; ``batch`` runs a group of three.  Config 0's fourth
#: cold start comes after two jobs on its session, so it runs cold-start
#: epoch functions; ``resume`` is a cold placement.
SEQUENCE = [
    ("job", 0), ("job", 0), ("job", 1), ("job", 0), ("job", 1),
    ("fail", 0), ("job", 0), ("job", 0), ("job", 1), ("batch", 0),
    ("job", 1), ("batch", 1), ("resume", 0), ("job", 0), ("job", 1),
    ("job", 0),
]


class FreshWorker(FabricWorker):
    """A worker that builds a new session on every cold start."""

    def _cold_session(self, spec):
        return self._session_factory(spec)


class _FailAt(CancelToken):
    """Raises :class:`JobCancelled` at the ``n``-th slice boundary."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def check(self) -> None:
        self.n -= 1
        if self.n < 0:
            raise JobCancelled("failed mid-job")


def _fabric(rtms: RuntimeManager) -> tuple:
    """Everything a job leaves on a fabric, as comparable values."""
    return (
        rtms.now_ns,
        rtms.icap.total_busy_ns,
        rtms.icap.busy_until_ns,
        list(rtms.icap.transfers),
        dict(rtms.tile_ready_ns),
        rtms.mesh.links.as_dict(),
        rtms.mesh.links.reconfig_count,
        [
            (
                tile.dmem.snapshot(),
                (tile.dmem.reads, tile.dmem.writes, tile.dmem.reconfig_writes),
                tile.imem.snapshot(),
                tile.imem.reconfig_writes,
                dataclasses.astuple(tile.stats),
                (tile.pc, tile.halted, tile.program),
                tile.resident_programs(),
            )
            for tile in rtms.mesh
        ],
    )


@pytest.fixture
def log(monkeypatch):
    """Every ``execute`` call's epoch reports and the fabric at every
    job's end, in order."""
    entries: list = []
    execute, jobs_done = RuntimeManager.execute, _BaseSession._jobs_done

    def recording_execute(rtms, epochs):
        report = execute(rtms, epochs)
        entries.append([dataclasses.astuple(e) for e in report.epochs])
        return report

    def recording_done(session, count=1):
        entries.append((session.config_key, _fabric(session.rtms)))
        jobs_done(session, count)

    monkeypatch.setattr(RuntimeManager, "execute", recording_execute)
    monkeypatch.setattr(_BaseSession, "_jobs_done", recording_done)
    return entries


def _payloads(kind: str, params: dict, count: int, seed: int) -> list:
    frontend = get_frontend(kind)
    canonical = frontend.canonicalize(params)
    rng = np.random.default_rng(seed)
    return [frontend.example_payload(canonical, rng) for _ in range(count)]


def _checkpoint(spec, payload, directory) -> tuple[str, int]:
    """A slice-1 checkpoint of ``payload``'s job on a fresh session
    (none for JPEG, whose session has no epoch checkpoints)."""
    session = default_session_factory(spec)
    written = []

    def progress(done, rtms):
        if done == 1:
            written.append(write_checkpoint(directory, "resume", done, rtms))

    session.progress = progress
    session.run(payload, CancelToken())
    return written[0] if written else ("", 0)


def _run(worker: FabricWorker, steps, specs, payloads, checkpoint) -> list:
    """Each step's outcome as comparable values."""
    out = []
    for index, (op, which) in enumerate(steps):
        spec, payload = specs[which], payloads[which][index]
        request = JobRequest(spec=spec, payload=payload, job_id=f"j{index}")
        try:
            if op == "batch":
                group = [
                    JobRequest(spec=spec, payload=p, job_id=f"j{index}.{lane}")
                    for lane, p in enumerate(payloads[which][index:index + 3])
                ]
                runs = worker.execute_batch(group, CancelToken())
            elif op == "fail":
                runs = [worker.execute(request, _FailAt(1))]
            else:
                if op == "resume":
                    request.resume_slice = 1
                    request.checkpoint_path, request.checkpoint_crc = checkpoint
                runs = [worker.execute(request, CancelToken())]
        except JobCancelled:
            out.append("raised")
            continue
        for run in runs:
            output = run.stats.output
            out.append((
                run.warm,
                output if isinstance(output, bytes) else output.tobytes(),
                run.stats.sim_ns,
                run.stats.reconfig_ns,
                run.reconfig_saved_ns,
                run.stats.slices,
                run.resumed_slices,
            ))
    return out


def _legs(log, monkeypatch, steps, specs, payloads, checkpoint=None):
    """The kept worker's, the fresh worker's and the reference
    interpreter's ``(outcomes, log)``, and the kept worker."""
    legs = []
    for worker_type, reference in (
        (FabricWorker, False), (FreshWorker, False), (FreshWorker, True)
    ):
        if reference:
            monkeypatch.setenv("REPRO_REFERENCE_SIM", "1")
        else:
            monkeypatch.delenv("REPRO_REFERENCE_SIM", raising=False)
        worker = worker_type("fabric-0")
        log.clear()
        outcomes = _run(worker, steps, specs, payloads, checkpoint)
        legs.append((outcomes, list(log)))
        if worker_type is FabricWorker:
            kept = worker
    return legs, kept


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_a_switch_sequence_equals_fresh_sessions(kind, log, monkeypatch, tmp_path):
    specs = [spec_for(kind, params) for params in CONFIGS[kind]]
    payloads = [
        _payloads(kind, params, len(SEQUENCE) + 2, seed)
        for seed, params in enumerate(CONFIGS[kind])
    ]
    resume_at = SEQUENCE.index(("resume", 0))
    checkpoint = _checkpoint(specs[0], payloads[0][resume_at], tmp_path)
    (kept, fresh, reference), worker = _legs(
        log, monkeypatch, SEQUENCE, specs, payloads, checkpoint
    )
    assert kept == fresh
    assert kept[0] == reference[0]
    assert "raised" in kept[0]
    resumed = [outcome[6] for outcome in kept[0] if outcome != "raised"]
    assert any(resumed) is (kind != "jpeg")  # JPEG has no epoch checkpoints
    # config 0's kept session ran a cold start as epoch functions
    session = worker._kept[specs[0].config_key]
    assert False in session.rtms._jobs[id(session.artifact)][2]


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_power_on_gives_what_construction_gives(kind):
    spec = spec_for(kind, CONFIGS[kind][0])
    session = default_session_factory(spec)
    for payload in _payloads(kind, CONFIGS[kind][0], 3, 1):
        session.run(payload, CancelToken())
    tiles = list(session.rtms.mesh)
    tiles[0].imem.corrupt_slot(0)
    session.power_on()
    fresh = default_session_factory(spec)
    assert _fabric(session.rtms) == _fabric(fresh.rtms)
    assert all(a is b for a, b in zip(session.rtms.mesh, tiles))
    assert session.jobs_run == fresh.jobs_run == 0

    def flags(s) -> tuple:  # the preload flags and JPEG's per-call state
        pipeline = getattr(s, "pipeline", None)
        return tuple(
            getattr(owner, name, None)
            for owner, name in ((s, "_preloaded"), (pipeline, "_preloaded"),
                                (pipeline, "_block_times"),
                                (pipeline, "_last_block_ns"))
        )

    assert flags(session) == flags(fresh)


def test_kept_sessions_are_bounded_and_dropped_by_eject():
    worker = FabricWorker("fabric-0")
    sizes = range(4, 5 + KEPT_SESSIONS)  # one more than the bound
    for size in sizes:
        spec = spec_for("conv2d", {"size": size})
        payload = _payloads("conv2d", {"size": size}, 1, size)[0]
        worker.execute(JobRequest(spec=spec, payload=payload), CancelToken())
    assert len(worker._kept) == KEPT_SESSIONS
    # the least recently started went first
    assert spec_for("conv2d", {"size": 4}).config_key not in worker._kept
    worker.eject("fabric replaced")
    assert worker._kept == {} and worker.session is None


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=10))
def test_random_switch_sequences(log, monkeypatch, order):
    specs = [
        spec_for("fft", CONFIGS["fft"][0]),
        spec_for("conv2d", {}),
        spec_for("jpeg", {}),
    ]
    payloads = [
        _payloads(spec.kind.value, params, len(order), 7)
        for spec, params in zip(specs, (CONFIGS["fft"][0], {}, {}))
    ]
    steps = [("job", which) for which in order]
    (kept, fresh, reference), _ = _legs(log, monkeypatch, steps, specs, payloads)
    assert kept == fresh == reference
