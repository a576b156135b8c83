"""Lowered plans: a warm job replays its artifact's recorded epoch schedule.

The second job of an artifact on a runtime manager records a
``LoweredPlan``; every later job whose fabric configuration at job start
equals the plan's replays it.  Replay must be invisible: these tests
hold it, with exact equality and no clock, to the same jobs run with
lowering impossible (the fast engine behind a no-op ``phase_hook``,
which the plan guard refuses) and to the reference interpreter.

* every registered kernel, five warm jobs;
* the invalidation matrix: each event makes the next job fall back once
  (``plan_fallbacks`` + 1), after which jobs replay again, equal throughout;
* a hypothesis leg over job orders of two artifacts sharing one mesh.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compile.frontends import compile_kernel, compile_plan, get_frontend
from repro.compile.ir import IRBuilder
from repro.errors import ExecutionError, FaultError, JobCancelled
from repro.fabric import predecode as pd
from repro.fabric import rtms as rtms_module
from repro.fabric import simulator
from repro.fabric.assembler import assemble
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import EpochSpec, RuntimeManager
from repro.kernels.jpeg.encoder import blocks_of
from repro.serve.jobs import fft_spec
from repro.serve.sessions import CancelToken, FFTSession

KINDS = ("conv2d", "dsp", "fft", "gemm", "jpeg")
LINK_COST_NS = 100.0


def _artifact(kind: str, **params):
    frontend = get_frontend(kind)
    return compile_kernel(kind, frontend.canonicalize(params or None))


def _payloads(kind: str, count: int, seed: int = 0) -> list:
    """``count`` inputs of one work item of ``kind``'s default artifact."""
    frontend = get_frontend(kind)
    params = frontend.canonicalize(None)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        payload = frontend.example_payload(params, rng)
        if kind == "jpeg":  # the artifact encodes one 8x8 block
            payload = blocks_of(np.asarray(payload).astype(np.int64))[0][0, 0]
        out.append(payload)
    return out


def _no_op(spec, tiles) -> None:
    """A phase hook: its presence alone makes the plan guard refuse."""


class Fabric:
    """A runtime manager on its own mesh, with one kind of execution."""

    def __init__(self, rows: int, cols: int, how: str = "lowered") -> None:
        self.mesh = Mesh(rows, cols)
        self.rtms = RuntimeManager(
            self.mesh,
            IcapPort(),
            link_cost_ns=LINK_COST_NS,
            engine="reference" if how == "reference" else None,
        )
        if how == "unlowered":
            self.rtms.phase_hook = _no_op

    @classmethod
    def trio(cls, artifact) -> list["Fabric"]:
        """Lowered, unlowered and reference fabrics, set up alike."""
        fabrics = [
            cls(artifact.rows, artifact.cols, how)
            for how in ("lowered", "unlowered", "reference")
        ]
        for fabric in fabrics:
            fabric.rtms.run_setup(artifact)
        return fabrics

    def job(self, artifact, payload, tag: str = "") -> tuple:
        """Run one work item; returns its report and the plan-counter
        deltas ``(plan_runs, plan_fallbacks)`` it caused."""
        before = (pd.COUNTERS.plan_runs, pd.COUNTERS.plan_fallbacks)
        report = self.rtms.execute_artifact(artifact, payload, tag)
        after = (pd.COUNTERS.plan_runs, pd.COUNTERS.plan_fallbacks)
        return report, (after[0] - before[0], after[1] - before[1])

    def state(self) -> dict:
        """Everything a job can leave behind, as comparable values."""
        rtms = self.rtms
        return {
            "now_ns": rtms.now_ns,
            "icap_busy_ns": rtms.icap.total_busy_ns,
            "icap_until_ns": rtms.icap.busy_until_ns,
            "transfers": list(rtms.icap.transfers),
            "tile_ready_ns": dict(rtms.tile_ready_ns),
            "links": self.mesh.links.as_dict(),
            "link_changes": self.mesh.links.reconfig_count,
            "tiles": {
                tile.coord: (
                    tile.dmem.snapshot(),
                    (tile.dmem.reads, tile.dmem.writes, tile.dmem.reconfig_writes),
                    tile.imem.reconfig_writes,
                    dataclasses.replace(tile.stats),
                    (tile.pc, tile.halted, tile.program),
                    tile.resident_programs(),
                )
                for tile in self.mesh
            },
        }


def _totals(report) -> tuple:
    return (
        report.total_ns,
        report.compute_ns,
        report.reconfig_ns,
        report.overlapped_ns,
        report.link_changes,
    )


def _same_job(fabrics, artifact, payload, tag: str = "") -> list[tuple]:
    """Run one job on every fabric; assert reports and states equal."""
    runs = [fabric.job(artifact, payload, tag) for fabric in fabrics]
    first, _ = runs[0]
    for (report, _), fabric in zip(runs[1:], fabrics[1:]):
        assert report.epochs == first.epochs
        assert _totals(report) == _totals(first)
        assert fabric.state() == fabrics[0].state()
    return [deltas for _, deltas in runs]


# ----------------------------------------------------------------------
# (a) every registered kernel: replay == unlowered == reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_warm_jobs_replay_bit_equal(kind):
    artifact = _artifact(kind)
    fabrics = Fabric.trio(artifact)
    lowered_deltas = []
    for index, payload in enumerate(_payloads(kind, 5)):
        deltas = _same_job(fabrics, artifact, payload, f"j{index}_")
        lowered_deltas.append(deltas[0])
        assert deltas[1] == deltas[2] == (0, 0)  # never replayed, never guarded
    # the first job records nothing, the second records, the rest replay
    assert lowered_deltas == [(0, 0), (0, 0), (1, 0), (1, 0), (1, 0)]


def test_bound_epochs_executed_one_call_each_replay_too():
    """The serving sessions' slice loop: one ``execute`` call per epoch."""
    artifact = _artifact("fft")
    lowered, unlowered, _ = Fabric.trio(artifact)
    for index, payload in enumerate(_payloads("fft", 4)):
        runs = []
        for fabric in (lowered, unlowered):
            before = pd.COUNTERS.plan_runs
            epochs = [
                fabric.rtms.execute([epoch]).epochs[0]
                for epoch in artifact.bind(payload, f"j{index}_")
            ]
            runs.append((epochs, pd.COUNTERS.plan_runs - before))
        assert runs[0][0] == runs[1][0]
        assert lowered.state() == unlowered.state()
        assert runs[0][1] == (1 if index >= 2 else 0)


# ----------------------------------------------------------------------
# (b) the invalidation matrix
# ----------------------------------------------------------------------


def _warm_pair(kind: str = "fft"):
    """A lowered and an unlowered fabric three jobs in: a plan replays."""
    artifact = _artifact(kind)
    lowered, unlowered, _ = Fabric.trio(artifact)
    fabrics = [lowered, unlowered]
    payloads = _payloads(kind, 8, seed=1)
    for index in range(3):
        deltas = _same_job(fabrics, artifact, payloads[index], f"j{index}_")
    assert deltas[0] == (1, 0)  # job 3 replayed
    return artifact, fabrics, payloads[3:]


def _falls_back_once_then_replays(artifact, fabrics, payloads) -> None:
    deltas = _same_job(fabrics, artifact, payloads[0], "after_")
    assert deltas[0] == (0, 1)
    replays = 0
    for index, payload in enumerate(payloads[1:4]):
        deltas = _same_job(fabrics, artifact, payload, f"then{index}_")
        assert deltas[0][1] == 0
        replays += deltas[0][0]
    assert replays >= 2


def _flip_a_link(fabric: Fabric) -> None:
    mesh = fabric.mesh
    coord = (0, 0)
    current = mesh.active_link(coord)
    other = next(
        d for d in (Direction.EAST, Direction.SOUTH) if d is not current
    )
    mesh.configure_link(coord, other)


def _checkpoint_restore(fabric: Fabric, artifact, payload) -> None:
    checkpoint = fabric.rtms.checkpoint()
    fabric.rtms.execute_artifact(artifact, payload, "rolled_back_")
    fabric.rtms.restore(checkpoint)


EVENTS = {
    "link-flipped": lambda fabric, artifact, payload: _flip_a_link(fabric),
    "checkpoint-restore": _checkpoint_restore,
    "reset": lambda fabric, artifact, payload: fabric.rtms.reset(),
    "dataflow-toggled": lambda fabric, artifact, payload: setattr(
        fabric.rtms, "dataflow", not fabric.rtms.dataflow
    ),
}


@pytest.mark.parametrize("event", sorted(EVENTS))
def test_event_makes_the_next_job_fall_back_once(event):
    artifact, fabrics, payloads = _warm_pair()
    for fabric in fabrics:
        EVENTS[event](fabric, artifact, payloads[0])
    assert fabrics[0].state() == fabrics[1].state()
    _falls_back_once_then_replays(artifact, fabrics, payloads[1:])


def _filler_artifact():
    """A one-tile artifact whose program fills most of the instruction
    memory: installing it evicts every other resident program."""
    program = assemble("\n".join(["NOP"] * 480 + ["HALT"]), name="filler")
    builder = IRBuilder("filler", {}, 1, 1, LINK_COST_NS)
    builder.emit(EpochSpec(name="fill", programs={(0, 0): program}, run=[(0, 0)]))
    return compile_plan(builder.graph(), builder.plan())


def test_eviction_by_another_artifact_on_the_mesh():
    artifact, fabrics, payloads = _warm_pair("conv2d")
    filler = _filler_artifact()
    _same_job(fabrics, filler, None, "thrash_")
    assert fabrics[0].mesh.tile((0, 0)).resident_programs()[0].name == "filler"
    _falls_back_once_then_replays(artifact, fabrics, payloads)


def test_seu_between_jobs_faults_at_the_word():
    artifact, fabrics, payloads = _warm_pair()
    plan = next(p for p in fabrics[0].rtms._plans.values() if p is not None)
    step = next(step for step in plan.steps if step.starts)
    tile, program = step.starts[0]
    coord = tile.coord
    for fabric in fabrics:
        corrupted = fabric.mesh.tile(coord)
        corrupted.imem.corrupt_slot(corrupted.resident_base(program))
    outcomes = []
    for fabric in fabrics:
        before = pd.COUNTERS.plan_fallbacks
        with pytest.raises(FaultError, match="SEU-corrupted instruction word"):
            fabric.rtms.execute_artifact(artifact, payloads[0], "seu_")
        outcomes.append(pd.COUNTERS.plan_fallbacks - before)
    assert outcomes == [1, 0]
    assert fabrics[0].state() == fabrics[1].state()
    for fabric in fabrics:
        fabric.mesh.tile(coord).imem.repair_slot(
            fabric.mesh.tile(coord).resident_base(program)
        )
    for index, payload in enumerate(payloads[1:4]):
        _same_job(fabrics, artifact, payload, f"repaired{index}_")


def test_seu_mid_job_faults_at_the_word():
    """The per-run corruption check: an SEU between two epochs of a
    replaying job stops the replay at the very run that reaches it."""
    artifact, fabrics, payloads = _warm_pair()
    plan = next(p for p in fabrics[0].rtms._plans.values() if p is not None)
    at = next(i for i, step in enumerate(plan.steps) if i > 3 and step.starts)
    tile, program = plan.steps[at].starts[0]
    coord = tile.coord
    raised = []
    for fabric in fabrics:
        epochs = artifact.bind(payloads[0], "mid_")
        for epoch in epochs[:at]:
            fabric.rtms.execute([epoch])
        corrupted = fabric.mesh.tile(coord)
        corrupted.imem.corrupt_slot(corrupted.resident_base(program))
        with pytest.raises(FaultError) as info:
            fabric.rtms.execute([epochs[at]])
        raised.append(str(info.value))
    assert raised[0] == raised[1]
    assert fabrics[0].state() == fabrics[1].state()


def test_link_flipped_mid_job_ends_the_replay():
    """A link set between two epochs of a replaying job changes what the
    next epoch must reconfigure: the job finishes through the planner."""
    artifact, fabrics, payloads = _warm_pair()
    plan = next(p for p in fabrics[0].rtms._plans.values() if p is not None)
    at, (_, coord, _, _, direction) = next(
        (i, op)
        for i, step in enumerate(plan.steps)
        for op in step.txn.ops
        if i > 0 and op[0].name == "LINK"
    )
    reports = []
    for fabric in fabrics:
        epochs = artifact.bind(payloads[0], "mid_")
        for epoch in epochs[:at]:
            fabric.rtms.execute([epoch])
        fabric.mesh.configure_link(coord, direction)  # already where it goes
        reports.append(fabric.rtms.execute(epochs[at:]).epochs)
    assert reports[0] == reports[1]
    assert reports[0][0].link_changes == plan.steps[at].txn.link_changes - 1
    assert fabrics[0].state() == fabrics[1].state()


def test_cycle_budget_a_trace_crosses(monkeypatch):
    artifact, fabrics, payloads = _warm_pair()
    monkeypatch.setattr(
        rtms_module,
        "run_concurrent",
        functools.partial(simulator.run_concurrent, max_cycles_per_tile=5),
    )
    messages = []
    for fabric in fabrics:
        with pytest.raises(ExecutionError, match="exceeded 5 cycles") as info:
            fabric.rtms.execute_artifact(artifact, payloads[0], "budget_")
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert fabrics[0].state() == fabrics[1].state()
    monkeypatch.undo()
    _falls_back_once_then_replays(artifact, fabrics, payloads[1:])


def test_cancel_mid_job_then_resume_from_the_checkpoint():
    spec = fft_spec(64, 8, 2)
    sessions = [FFTSession(spec), FFTSession(spec)]
    sessions[1].rtms.phase_hook = _no_op
    payloads = _payloads("fft", 8, seed=2)

    def same_run(run) -> list[tuple[int, int]]:
        deltas = []
        outputs = []
        for session in sessions:
            before = (pd.COUNTERS.plan_runs, pd.COUNTERS.plan_fallbacks)
            stats = run(session)
            outputs.append((stats.output.tobytes(), stats.sim_ns, stats.reconfig_ns))
            deltas.append((
                pd.COUNTERS.plan_runs - before[0],
                pd.COUNTERS.plan_fallbacks - before[1],
            ))
        assert outputs[0] == outputs[1]
        states = [Fabric.state(_AsFabric(s)) for s in sessions]
        assert states[0] == states[1]
        return deltas

    for payload in payloads[:3]:
        deltas = same_run(lambda s: s.run(payload, CancelToken()))
    assert deltas[0] == (1, 0)

    checkpoints = []
    for session in sessions:
        token = CancelToken()

        def progress(done, rtms, token=token):
            if done == 20:
                checkpoints.append(rtms.checkpoint())
                token.cancel()

        session.progress = progress
        with pytest.raises(JobCancelled):
            session.run(payloads[3], token)
        session.progress = None
    same_run(
        lambda s: s.run_resumed(
            payloads[3], CancelToken(), 20, checkpoints[sessions.index(s)]
        )
    )
    deltas = same_run(lambda s: s.run(payloads[4], CancelToken()))
    assert deltas[0] == (0, 1)
    for payload in payloads[5:]:
        deltas = same_run(lambda s: s.run(payload, CancelToken()))
        assert deltas[0] == (1, 0)


class _AsFabric:
    """A session seen as a :class:`Fabric` (for :meth:`Fabric.state`)."""

    def __init__(self, session) -> None:
        self.rtms = session.rtms
        self.mesh = session.mesh


# ----------------------------------------------------------------------
# (c) two artifacts sharing one mesh, any job order
# ----------------------------------------------------------------------

PAIRS = [
    (("conv2d", {}), ("gemm", {})),
    (("dsp", {}), ("jpeg", {})),
    (("jpeg", {"quality": 75}), ("jpeg", {"quality": 50})),
    (("fft", {"link_cost_ns": 0.0}), ("fft", {"link_cost_ns": 100.0})),
]


@settings(max_examples=25, deadline=None)
@given(
    pair=st.sampled_from(PAIRS),
    order=st.lists(st.integers(0, 1), min_size=2, max_size=9),
)
def test_two_artifacts_sharing_a_mesh_any_order(pair, order):
    artifacts = [_artifact(kind, **params) for kind, params in pair]
    rows, cols = artifacts[0].rows, artifacts[0].cols
    assert (artifacts[1].rows, artifacts[1].cols) == (rows, cols)
    fabrics = [Fabric(rows, cols, "lowered"), Fabric(rows, cols, "unlowered")]
    for fabric in fabrics:
        for artifact in artifacts:
            fabric.rtms.run_setup(artifact)
    payloads = [_payloads(kind, len(order), seed=3) for kind, _ in pair]
    for index, which in enumerate(order):
        _same_job(fabrics, artifacts[which], payloads[which][index], f"j{index}_")
