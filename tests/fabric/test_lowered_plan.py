"""Lowered plans: a job runs its artifact's derived epoch plan.

The ``cold-deltas`` pass derives, per artifact, every bound epoch's
reconfiguration delta and run-tile facts from two start states (cold:
after the setup prologue; resident: where a job leaves the fabric).  A
job whose tiles hold one of those states at job start runs that plan
(``plan_runs`` + 1); from an artifact's third job on a runtime manager a
resident job calls generated epoch functions.  It must be invisible:
these tests hold it, with exact equality and no clock, to the same jobs
run with lowering impossible (the fast engine behind a no-op
``phase_hook``, which the plan guard refuses) and to the reference
interpreter.

* every registered kernel, five jobs, each one running a derived plan;
* the invalidation matrix: an event that moves residency or links makes
  the next job fall back once (``plan_fallbacks`` + 1); one that leaves
  them alone lets it run the plan; equal throughout;
* a hypothesis leg over job orders of two artifacts sharing one mesh.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compile.frontends import compile_kernel, compile_plan, get_frontend
from repro.compile.ir import IRBuilder
from repro.errors import ExecutionError, FaultError, JobCancelled
from repro.fabric import predecode as pd
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
            engine="reference" if how == "reference" else "fast",
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
    # cold, then resident: every job runs its derived plan
    assert lowered_deltas == [(1, 0)] * 5


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
        assert runs[0][1] == 1


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


def _falls_back_once_then_replays(
    artifact, fabrics, payloads, first: tuple = (0, 1)
) -> None:
    deltas = _same_job(fabrics, artifact, payloads[0], "after_")
    assert deltas[0] == first
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


#: Each event, and the plan counters of the job after it: a flipped link
#: is in neither start state, so that job falls back; a restore brings
#: back the resident state, and reset and dataflow leave residency and
#: links alone, so the guard rightly lets those jobs run the plan.
EVENTS = {
    "link-flipped": (lambda fabric, artifact, payload: _flip_a_link(fabric), (0, 1)),
    "checkpoint-restore": (_checkpoint_restore, (1, 0)),
    "reset": (lambda fabric, artifact, payload: fabric.rtms.reset(), (1, 0)),
    "dataflow-toggled": (
        lambda fabric, artifact, payload: setattr(
            fabric.rtms, "dataflow", not fabric.rtms.dataflow
        ),
        (1, 0),
    ),
}


@pytest.mark.parametrize("event", sorted(EVENTS))
def test_event_makes_the_next_job_fall_back_once(event):
    artifact, fabrics, payloads = _warm_pair()
    happen, first = EVENTS[event]
    for fabric in fabrics:
        happen(fabric, artifact, payloads[0])
    assert fabrics[0].state() == fabrics[1].state()
    _falls_back_once_then_replays(artifact, fabrics, payloads[1:], first)


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


def _first_run(plan, after: int = -1) -> tuple[int, tuple, object]:
    """``(index, coord, program)`` of the first run tile of the resident
    plan past epoch ``after``."""
    epochs = plan.resident[1]
    index = next(i for i, epoch in enumerate(epochs) if i > after and epoch.runs)
    return index, plan.specs[index].run[0], epochs[index].runs[0][0]


def test_seu_between_jobs_faults_at_the_word():
    """Residency and links are as the plan left them, so the guard lets
    the job run the plan; the per-run corruption check sends the phase
    that reaches the word to the oracle, which faults there."""
    artifact, fabrics, payloads = _warm_pair()
    _, coord, program = _first_run(artifact.epoch_plan)
    for fabric in fabrics:
        corrupted = fabric.mesh.tile(coord)
        corrupted.imem.corrupt_slot(corrupted.resident_base(program))
    outcomes = []
    for fabric in fabrics:
        before = (pd.COUNTERS.plan_runs, pd.COUNTERS.plan_fallbacks)
        with pytest.raises(FaultError, match="SEU-corrupted instruction word"):
            fabric.rtms.execute_artifact(artifact, payloads[0], "seu_")
        outcomes.append((
            pd.COUNTERS.plan_runs - before[0],
            pd.COUNTERS.plan_fallbacks - before[1],
        ))
    assert outcomes == [(1, 0), (0, 0)]
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
    at, coord, program = _first_run(artifact.epoch_plan, after=3)
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
    derived = artifact.epoch_plan.resident[1]
    at, (_, coord, _, _, direction) = next(
        (i, op)
        for i, txn in enumerate(derived)
        for op in txn.ops
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
    assert reports[0][0].link_changes == derived[at].link_changes - 1
    assert fabrics[0].state() == fabrics[1].state()


def test_cycle_budget_a_trace_crosses():
    artifact, fabrics, payloads = _warm_pair()
    messages = []
    for fabric in fabrics:
        fabric.rtms.max_cycles_per_tile = 5
        with pytest.raises(ExecutionError, match="exceeded 5 cycles") as info:
            fabric.rtms.execute_artifact(artifact, payloads[0], "budget_")
        messages.append(str(info.value))
        del fabric.rtms.max_cycles_per_tile  # back to the class default
    assert messages[0] == messages[1]
    assert fabrics[0].state() == fabrics[1].state()
    _falls_back_once_then_replays(artifact, fabrics, payloads[1:])


def test_cancel_mid_job_then_resume_from_the_checkpoint():
    spec = fft_spec(64, 8, 2)
    sessions = [FFTSession(spec), FFTSession(spec)]
    for session in sessions:
        session.rtms.engine = "fast"  # whatever REPRO_REFERENCE_SIM says
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
    # the resumed job ended in the resident state: the next job runs it
    deltas = same_run(lambda s: s.run(payloads[4], CancelToken()))
    assert deltas[0] == (1, 0)
    for payload in payloads[5:]:
        deltas = same_run(lambda s: s.run(payload, CancelToken()))
        assert deltas[0] == (1, 0)


def test_changed_control_word_reanalyses_only_its_epoch(monkeypatch):
    """A fingerprint word rewritten between two slices of a replaying job
    fails that epoch's per-run compare: its phase alone is analysed
    afresh (the word is back before the next one), the replay goes on,
    and the job stays equal to the oracle."""
    program = assemble(
        """
        .org 16
        .var p
        .word p, 2
        ADD 8, @p, #1
        ADD 9, 9, 8
        HALT
        """,
        name="pointer",
    )
    builder = IRBuilder("pointer", {}, 1, 1, LINK_COST_NS)
    for index in range(3):
        builder.emit(EpochSpec(
            name=f"run{index}", programs={(0, 0): program}, run=[(0, 0)]
        ))
    artifact = compile_plan(builder.graph(), builder.plan())
    fabrics = Fabric.trio(artifact)
    for index in range(3):
        deltas = _same_job(fabrics, artifact, None, f"j{index}_")
    assert deltas[0] == (1, 0)
    analysed = []
    analyse = simulator.FastPhase.analyse.__func__
    monkeypatch.setattr(
        simulator.FastPhase, "analyse",
        classmethod(lambda cls, tiles: analysed.append(tiles) or analyse(cls, tiles)),
    )
    reports = []
    for fabric in fabrics:
        analysed.clear()
        before = pd.COUNTERS.plan_runs
        epochs = artifact.bind(None, "poked_")
        dmem = fabric.mesh.tile((0, 0)).dmem
        report = []
        for epoch, pointer in zip(epochs, (2, 5, 2)):
            dmem.poke(16, pointer)  # the pointer ``p``
            report += fabric.rtms.execute([epoch]).epochs
        reports.append(report)
        if fabric is fabrics[0]:
            assert pd.COUNTERS.plan_runs == before + 1
            assert len(analysed) == 1  # epoch 1 only; epoch 2 replays
    assert reports[0] == reports[1] == reports[2]
    assert fabrics[0].state() == fabrics[1].state() == fabrics[2].state()


def test_a_second_manager_replays_without_compiling():
    """Epoch functions are generated once per derived plan: a re-created
    session binds them at its third job and compiles nothing."""
    artifact = _artifact("fft")
    payloads = _payloads("fft", 3, seed=4)
    first = Fabric(artifact.rows, artifact.cols)
    first.rtms.run_setup(artifact)
    for index, payload in enumerate(payloads):
        first.job(artifact, payload, f"j{index}_")
    compiled = pd.COUNTERS.statements
    second = Fabric.trio(artifact)
    deltas = [
        _same_job(second, artifact, payload, f"j{index}_")[0]
        for index, payload in enumerate(payloads)
    ]
    assert deltas == [(1, 0)] * 3
    assert pd.COUNTERS.statements == compiled


@pytest.mark.parametrize("kind", KINDS)
def test_sliced_replay_equals_unlowered_epoch_by_epoch(kind):
    """Every kind, one ``execute`` per epoch: each replayed
    ``EpochReport``, the ``Transfer`` log, tile stats and memory counters
    equal the unlowered run's after every slice."""
    artifact = _artifact(kind)
    lowered, unlowered, _ = Fabric.trio(artifact)
    for index, payload in enumerate(_payloads(kind, 4, seed=5)):
        for epoch in artifact.bind(payload, f"j{index}_"):
            reports = [
                fabric.rtms.execute([epoch]).epochs
                for fabric in (lowered, unlowered)
            ]
            assert reports[0] == reports[1]
            assert lowered.state() == unlowered.state()


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
