"""The switch-cost table vs the runtime manager, pair by pair.

The artifact's ``switch_table[i][j]`` claims to equal
``RuntimeManager.switch_cost([e_i, e_j]) - switch_cost([e_i])`` on a
fresh mesh — the marginal price of configuration ``j`` right after
``i``.  These tests check *every* epoch pair of both kernels' plans
against the live runtime manager, so the analytic table can never drift
from the executable truth.
"""

from __future__ import annotations

import pytest

from repro.compile.frontends import compile_fft, compile_jpeg
from repro.fabric.bitstream import DMEM_BYTES_PER_WORD, IMEM_BYTES_PER_WORD
from repro.fabric.icap import IcapPort
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import RuntimeManager
from repro.kernels.fft.decompose import FFTPlan


def _assert_parity(artifact) -> None:
    plan = artifact.plan
    epochs = list(plan.epochs)
    assert artifact.epoch_names == tuple(spec.name for spec in epochs)
    n = len(epochs)
    assert len(artifact.switch_table) == n
    for i, first in enumerate(epochs):
        rtms = RuntimeManager(
            Mesh(plan.rows, plan.cols), IcapPort(),
            link_cost_ns=plan.link_cost_ns,
        )
        base = rtms.switch_cost([first])
        for j, second in enumerate(epochs):
            expected = rtms.switch_cost([first, second]) - base
            got = artifact.switch_cost_ns(i, j)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-9), (
                f"table[{i}][{j}] ({first.name} -> {second.name}): "
                f"table says {got}, runtime says {expected}"
            )


class TestSwitchTableParity:
    def test_fft_plan_every_pair(self):
        # 64-point FFT over two columns with a non-zero link cost: the
        # richest plan (twiddles, HCP copies, exchanges, commit).
        artifact = compile_fft(FFTPlan(64, 8, 2), link_cost_ns=100.0)
        assert len(artifact.plan.epochs) > 10
        _assert_parity(artifact)

    def test_fft_single_column_zero_link_cost(self):
        _assert_parity(compile_fft(FFTPlan(16, 16, 1)))

    def test_jpeg_plan_every_pair(self):
        artifact = compile_jpeg(75)
        assert len(artifact.plan.epochs) == 6  # preload + 5 stages
        _assert_parity(artifact)

    def test_jpeg_chroma_variant(self):
        _assert_parity(compile_jpeg(90, chroma=True))


def _eager_table(plan) -> list[list[float]]:
    """The full pairwise table the switch-table pass used to build
    eagerly — all E² pairs priced up front."""
    epochs = plan.epochs
    transfer_ns = IcapPort().transfer_ns
    pieces = []
    for spec in epochs:
        loads = []
        for coord, program in sorted(spec.programs.items()):
            nbytes = len(program.encoded()) * IMEM_BYTES_PER_WORD
            if program.data_image:
                nbytes += len(program.data_image) * DMEM_BYTES_PER_WORD
            loads.append((coord, program, transfer_ns(nbytes)))
        images = [
            transfer_ns(len(image) * DMEM_BYTES_PER_WORD)
            for _, image in sorted(spec.data_images.items())
            if image
        ]
        pieces.append((loads, images, sorted(spec.links.items())))
    table = []
    for previous in epochs:
        resident, links = previous.programs, previous.links
        row = []
        for loads, images, targets in pieces:
            total = 0.0
            for coord, program, ns in loads:
                if resident.get(coord) is not program:
                    total += ns
            for ns in images:
                total += ns
            for coord, direction in targets:
                if links.get(coord) != direction:
                    total += plan.link_cost_ns
            row.append(total)
        table.append(row)
    return table


class TestOnDemandEqualsEager:
    """Each on-demand entry is the very float the eager table held."""

    @pytest.mark.parametrize(
        "artifact_fn",
        [
            lambda: compile_fft(FFTPlan(64, 8, 2), link_cost_ns=100.0),
            lambda: compile_fft(FFTPlan(16, 16, 1)),
            lambda: compile_jpeg(75),
            lambda: compile_jpeg(90, chroma=True),
        ],
        ids=["fft64x8x2", "fft16x16x1", "jpeg75", "jpeg90-chroma"],
    )
    def test_every_entry_is_bit_identical(self, artifact_fn):
        artifact = artifact_fn()
        eager = _eager_table(artifact.plan)
        n = len(eager)
        got = [[artifact.switch_cost_ns(i, j) for j in range(n)]
               for i in range(n)]
        assert got == eager
        assert artifact.switch_table == tuple(map(tuple, eager))


class TestColdDeltasParity:
    """``cold_bytes`` must equal what a cold fabric actually streams."""

    @pytest.mark.parametrize(
        "artifact_fn",
        [
            lambda: compile_fft(FFTPlan(64, 16, 1)),
            lambda: compile_jpeg(50),
        ],
        ids=["fft", "jpeg"],
    )
    def test_executed_reconfig_bytes_match(self, artifact_fn):
        import numpy as np

        artifact = artifact_fn()
        rtms = RuntimeManager(Mesh(artifact.rows, artifact.cols), IcapPort())
        if artifact.kind == "fft":
            payload = np.zeros(artifact.plan.params_dict()["n"], complex)
        else:
            payload = np.zeros((8, 8))
        setup_report = rtms.run_setup(artifact)
        body_report = rtms.execute_artifact(artifact, payload)
        executed = [epoch.reconfig_bytes for epoch in setup_report.epochs]
        # The late-bound input epoch streams nothing (host pokes).
        body = [epoch.reconfig_bytes for epoch in body_report.epochs]
        if artifact.plan.input_port is not None:
            assert body[0] == 0
            body = body[1:]
        executed.extend(body)
        assert tuple(executed) == artifact.cold_bytes
        assert sum(executed) == artifact.total_cold_bytes
