"""The derived epoch plan against the live planner, epoch by epoch.

The ``cold-deltas`` pass derives every bound epoch's reconfiguration
transaction and run-tile facts from the plan alone, walking a
``FabricShadow`` from two start states.  These tests replay the same jobs
on a live mesh through the planner path (a no-op ``phase_hook`` keeps the
runtime manager off the derived plan) and hold each derived transaction
``==`` what ``ReconfigPlanner.plan`` emits there, epoch by epoch:

* every registered kernel's default plan, and the twelve ``dse_sweep``
  FFT shapes at link costs 0 and 4800, cold then resident;
* a hypothesis leg over random schedules of co-resident programs near the
  512-word instruction-memory edge, eviction inside one epoch included.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compile.cache import ArtifactCache
from repro.compile.frontends import (
    compile_fft,
    compile_jpeg,
    compile_kernel,
    compile_plan,
    frontend_names,
    get_frontend,
)
from repro.compile.ir import IRBuilder
from repro.fabric.assembler import assemble
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.predecode import predecode
from repro.fabric.rtms import EpochSpec, RuntimeManager
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.jpeg.encoder import blocks_of
from repro.units import INSTR_MEM_WORDS


def _sweep_shapes() -> list[tuple[int, int, int]]:
    """The twelve ``(n, m, cols)`` groups of the ``dse_sweep`` workload."""
    shapes = []
    for n, m in ((1024, 64), (256, 32), (64, 8)):
        stages = int(math.log2(n))
        divisors = [c for c in range(1, stages + 1) if stages % c == 0]
        shapes += [(n, m, cols) for cols in divisors[:4]]
    return shapes


def _no_op(spec, tiles) -> None:
    """A phase hook: its presence keeps jobs off the derived plan."""


def _planner_fabric(artifact) -> RuntimeManager:
    rtms = RuntimeManager(
        Mesh(artifact.rows, artifact.cols), IcapPort(),
        link_cost_ns=artifact.plan.link_cost_ns, engine="fast",
    )
    rtms.phase_hook = _no_op
    return rtms


def _payload(kind: str):
    frontend = get_frontend(kind)
    params = frontend.canonicalize(None)
    payload = frontend.example_payload(params, np.random.default_rng(0))
    if kind == "jpeg":  # the artifact encodes one 8x8 block
        payload = blocks_of(np.asarray(payload).astype(np.int64))[0][0, 0]
    return payload


def _ops(txn) -> list[tuple]:
    """A transaction's payloads, targets by identity."""
    return [(kind, coord, nbytes, label, id(target))
            for kind, coord, nbytes, label, target in txn.ops]


def _assert_job_matches(rtms: RuntimeManager, artifact, payload, start) -> None:
    """Run one job on the planner path, checking each epoch's planned
    transaction and run tiles against the derived ``start``."""
    plan = artifact.epoch_plan
    state, derived = start
    assert rtms._residency(plan.coords) == state
    mesh = rtms.mesh
    epochs = artifact.bind(payload, "j_")
    assert len(epochs) == len(derived)
    for spec, txn in zip(epochs, derived):
        runs = txn.runs
        live = rtms.planner.plan(
            programs=spec.programs, data_images=spec.data_images, links=spec.links
        )
        assert _ops(txn) == _ops(live), spec.name
        assert txn.total_bytes == live.total_bytes
        assert txn.link_changes == live.link_changes
        report = rtms.execute([spec]).epochs[0]
        assert (report.reconfig_bytes, report.link_changes) == (
            txn.total_bytes, txn.link_changes,
        )
        assert len(runs) == len(spec.run)
        for coord, run in zip(spec.run, runs):
            tile = mesh.tile(coord)
            program, decoded, base = run
            assert tile.program is program
            assert tile.resident_base(program) == base
            assert decoded is predecode(program)


def _assert_both_starts(artifact, payloads) -> None:
    rtms = _planner_fabric(artifact)
    rtms.run_setup(artifact)
    plan = artifact.epoch_plan
    _assert_job_matches(rtms, artifact, payloads[0], plan.cold)
    assert rtms._residency(plan.coords) == plan.end
    assert plan.resident is not None
    _assert_job_matches(rtms, artifact, payloads[1], plan.resident)


@pytest.mark.parametrize("kind", frontend_names())
def test_every_registered_kernel_matches_the_planner(kind):
    artifact = compile_kernel(kind, get_frontend(kind).canonicalize(None))
    payload = _payload(kind)
    _assert_both_starts(artifact, [payload, payload])


@pytest.mark.parametrize("kind", frontend_names())
def test_every_registered_kernel_has_a_resident_plan(kind):
    artifact = compile_kernel(kind, get_frontend(kind).canonicalize(None))
    assert artifact.epoch_plan.resident is not None


@pytest.mark.parametrize("link_cost_ns", [0.0, 4800.0])
@pytest.mark.parametrize("shape", _sweep_shapes(), ids=str)
def test_sweep_shapes_match_the_planner(shape, link_cost_ns):
    n, m, cols = shape
    artifact = compile_fft(FFTPlan(n, m, cols), link_cost_ns)
    rng = np.random.default_rng(n + cols)
    payloads = [
        (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / (4 * n)
        for _ in range(2)
    ]
    _assert_both_starts(artifact, payloads)


def test_the_plan_is_not_pickled_and_is_derived_again(tmp_path):
    first = ArtifactCache(disk_dir=tmp_path)
    artifact = compile_jpeg(75, cache=first)
    assert "epoch_plan" not in artifact.__getstate__()
    assert pickle.loads(pickle.dumps(artifact)).epoch_plan is None
    revived = compile_jpeg(75, cache=ArtifactCache(disk_dir=tmp_path))
    assert revived is not artifact
    plan = revived.epoch_plan
    assert plan is not None and plan.resident is not None
    assert len(plan.cold[1]) == len(revived.bind(np.zeros((8, 8))))
    assert revived.cold_bytes == artifact.cold_bytes


# ----------------------------------------------------------------------
# random schedules near the instruction-memory edge
# ----------------------------------------------------------------------

#: Programs of 100-300 words: two or three fill a tile's 512 words, so
#: random loads keep evicting.
_SIZES = (100, 150, 200, 250, 300)
_PROGRAMS = [
    assemble(
        ".var x\n.word x, 1\n" * (size // 50 % 2)
        + "\n".join(["NOP"] * (size - 1) + ["HALT"]),
        name=f"p{size}",
    )
    for size in _SIZES
]
_COORDS = ((0, 0), (0, 1))
_LINKS = {(0, 0): (None, Direction.EAST), (0, 1): (None, Direction.WEST)}


@st.composite
def _schedules(draw):
    epochs = []
    for index in range(draw(st.integers(2, 8))):
        programs = {
            coord: _PROGRAMS[draw(st.integers(0, len(_PROGRAMS) - 1))]
            for coord in _COORDS
            if draw(st.booleans())
        }
        links = {
            coord: _LINKS[coord][draw(st.integers(0, 1))]
            for coord in _COORDS
            if draw(st.booleans())
        }
        images = {
            coord: {3: index} for coord in _COORDS if draw(st.integers(0, 3)) == 0
        }
        epochs.append(EpochSpec(
            f"e{index}", programs=programs, links=links, data_images=images,
            run=sorted(programs),
        ))
    return epochs


@settings(max_examples=60, deadline=None)
@given(epochs=_schedules())
def test_random_schedules_near_the_imem_edge(epochs):
    assert sum(p.imem_words for p in _PROGRAMS[-2:]) > INSTR_MEM_WORDS
    builder = IRBuilder("edge", {}, 1, 2, 100.0)
    for spec in epochs:
        builder.emit(spec)
    artifact = compile_plan(builder.graph(), builder.plan())
    rtms = _planner_fabric(artifact)
    estimate = rtms.switch_cost(epochs)
    _assert_job_matches(rtms, artifact, None, artifact.epoch_plan.cold)
    assert artifact.cold_bytes == tuple(
        txn.total_bytes for txn in artifact.epoch_plan.cold[1]
    )
    assert estimate == pytest.approx(
        rtms.icap.total_busy_ns, rel=1e-12, abs=1e-9
    )
    if artifact.epoch_plan.resident is not None:
        _assert_job_matches(rtms, artifact, None, artifact.epoch_plan.resident)
