"""Batch/scalar equivalence of the vector-batched execution tier.

The contract of :mod:`repro.fabric.batch` is *bit-identity*: executing K
payloads through one batched dispatch must leave every lane's final data
memory — and therefore every decoded output — exactly equal to K
sequential scalar ``execute_artifact`` runs, including lanes whose
control flow diverges from the pilot and degrades to the scalar path.
Hypothesis drives the equivalence over random payload batches seeded
with exact fixed-point edge values; a hand-assembled branchy program
proves one lane's divergence never poisons its batch mates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.fabric.assembler import assemble
from repro.fabric.batch import DEFAULT_MIN_VECTOR_LANES
from repro.fabric.icap import IcapPort
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import EpochSpec, RuntimeManager
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.fft.runner import FabricFFT

PLAN = FFTPlan(64, 8, 2)


@pytest.fixture(scope="module")
def runner():
    return FabricFFT(PLAN, link_cost_ns=100.0)


def _warm_rtms(runner):
    mesh = Mesh(PLAN.rows, PLAN.cols)
    rtms = RuntimeManager(mesh, IcapPort(), link_cost_ns=100.0)
    rtms.run_setup(runner.artifact)
    rtms.execute(runner.artifact.pin_epochs())
    return rtms


def _batch_outputs(runner, payloads, **kwargs):
    rtms = _warm_rtms(runner)
    result = rtms.execute_artifact_batch(
        runner.artifact, payloads, **kwargs
    )
    return [runner.read_output_words(l.words) for l in result.lanes], result


# ---------------------------------------------------------------------------
# hypothesis: random batches, fixed-point edge values
# ---------------------------------------------------------------------------

#: Exact fixed-point edge magnitudes (NaN-free by construction): zero,
#: one quantum of the Q-format, and the headroom-safe extremes the FFT
#: input encoder accepts.
_EDGES = (0.0, 2.0**-16, -(2.0**-16), 0.05, -0.05)


@st.composite
def payload_batches(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    xs = (
        rng.standard_normal((k, 64)) + 1j * rng.standard_normal((k, 64))
    ) * 0.01
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        lane = draw(st.integers(min_value=0, max_value=k - 1))
        pos = draw(st.integers(min_value=0, max_value=63))
        xs[lane, pos] = draw(st.sampled_from(_EDGES)) + 1j * draw(
            st.sampled_from(_EDGES)
        )
    return xs


class TestEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(payload_batches())
    def test_random_batches_bit_identical(self, runner, xs):
        outs, result = _batch_outputs(
            runner, list(xs), min_vector_lanes=2
        )
        assert not result.degraded, result.degrade_reason
        assert any(lane.batched for lane in result.lanes)
        for x, out in zip(xs, outs):
            assert np.array_equal(out, runner.run(x).output)

    def test_single_lane_batch_matches_scalar(self, runner):
        rng = np.random.default_rng(7)
        x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 0.01
        outs, result = _batch_outputs(runner, [x])
        # one lane is below every sensible vector floor: scalar path
        assert result.degraded
        assert not result.lanes[0].batched
        assert np.array_equal(outs[0], runner.run(x).output)

    def test_mismatched_lane_shapes_rejected_cleanly(self, runner):
        rng = np.random.default_rng(8)
        good = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 0.01
        bad = np.zeros(32, dtype=np.complex128)
        rtms = _warm_rtms(runner)
        before = rtms.now_ns
        with pytest.raises(ReproError):
            rtms.execute_artifact_batch(
                runner.artifact, [good, bad, good], min_vector_lanes=2
            )
        # validation happens during binding, before anything executes
        assert rtms.now_ns == before
        result = rtms.execute_artifact_batch(
            runner.artifact, [good, good], min_vector_lanes=2
        )
        assert np.array_equal(
            runner.read_output_words(result.lanes[0].words),
            runner.read_output_words(result.lanes[1].words),
        )

    def test_empty_batch_rejected(self, runner):
        rtms = _warm_rtms(runner)
        with pytest.raises(ReproError):
            rtms.execute_artifact_batch(runner.artifact, [])


# ---------------------------------------------------------------------------
# per-lane divergence: a hand-assembled branchy program
# ---------------------------------------------------------------------------

def _branchy_program():
    # assembled fresh per test: the footprint profiler caches its control
    # fingerprint on the decoded program, so sharing one program object
    # across tests would couple their warm paths
    return assemble(
        """
        .var ctl
        .var out
            BNZ ctl, special
            MOV out, #111
            JMP end
        special:
            MOV out, #222
        end:
            HALT
        """
    )


class _CtlPort:
    """Input port poking the per-lane control word."""

    name = "ctl"

    def bind(self, payload, tag=""):
        return EpochSpec(name=f"{tag}in", pokes={(0, 0): {0: int(payload)}})


class _CtlPlan:
    input_port = _CtlPort()


class _CtlArtifact:
    """Duck-typed artifact: one tile, control flow decided per lane."""

    rows = 1
    cols = 1
    artifact_hash = ""
    plan = _CtlPlan()

    def __init__(self):
        self.program = _branchy_program()

    def bind(self, payload, tag=""):
        return [
            self.plan.input_port.bind(payload, tag),
            EpochSpec(
                name=f"{tag}run",
                programs={(0, 0): self.program},
                run=[(0, 0)],
            ),
        ]

    def setup_epochs(self):
        return []


class TestDivergence:
    def _run(self, payloads, warm=0):
        mesh = Mesh(1, 1)
        rtms = RuntimeManager(mesh, IcapPort())
        artifact = _CtlArtifact()
        # pin the program and profile the footprint on the warm path
        rtms.execute_artifact(artifact, warm, tag="warm_")
        return rtms.execute_artifact_batch(
            artifact, payloads, min_vector_lanes=2
        )

    def test_diverged_lane_degrades_alone(self):
        result = self._run([0, 0, 1, 0])
        assert not result.degraded, result.degrade_reason
        by_index = {lane.index: lane for lane in result.lanes}
        assert by_index[2].diverged and not by_index[2].batched
        assert by_index[1].batched and by_index[3].batched
        for index, expect in enumerate((111, 111, 222, 111)):
            assert by_index[index].words((0, 0), 1, 1) == [expect], index

    def test_all_lanes_agreeing_with_pilot_stay_batched(self):
        result = self._run([1, 1, 1], warm=1)
        assert not result.degraded
        for lane in result.lanes:
            assert lane.words((0, 0), 1, 1) == [222]
        assert sum(lane.batched for lane in result.lanes) == 2

    def test_pilot_footprint_miss_degrades_exactly(self):
        # the profiled fingerprint (ctl=0) doesn't match the pilot's
        # control word: the whole dispatch demotes to scalar lanes, and
        # every output is still exact
        result = self._run([1, 1, 1], warm=0)
        assert result.degraded
        assert "footprint" in result.degrade_reason
        for lane in result.lanes:
            assert not lane.batched
            assert lane.words((0, 0), 1, 1) == [222]


# ---------------------------------------------------------------------------
# the vector floor: below ``min_vector_lanes`` every lane runs scalar
# ---------------------------------------------------------------------------


class TestJitTier:
    def test_off_tier_runs_every_lane_scalar(self, runner):
        rng = np.random.default_rng(9)
        xs = (
            rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        ) * 0.01
        outs, result = _batch_outputs(
            runner, list(xs), min_vector_lanes=len(xs) + 1
        )
        assert result.degraded
        assert result.degrade_reason == "vector tier disabled"
        assert not any(lane.batched for lane in result.lanes)
        for x, out in zip(xs, outs):
            assert np.array_equal(out, runner.run(x).output)

    def test_default_floor_keeps_small_batches_scalar(self, runner):
        assert DEFAULT_MIN_VECTOR_LANES >= 2
        rng = np.random.default_rng(11)
        xs = (
            rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        ) * 0.01
        _, result = _batch_outputs(runner, list(xs))  # default floor
        assert result.degraded  # 2 lanes < floor: scalar path, still exact
