"""Reconfiguration planning: deltas, pinning, overlap scheduling."""

import pytest

from repro.fabric.assembler import assemble
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.reconfig import ReconfigPlanner
from repro.units import IMEM_WORD_RELOAD_NS

PROG_A = assemble(".var a\n.word a, 1\nNOP\nHALT", name="A")
PROG_B = assemble("NOP\nNOP\nHALT", name="B")


@pytest.fixture
def planner():
    mesh = Mesh(2, 2)
    return ReconfigPlanner(mesh, IcapPort(), link_cost_ns=100.0)


class TestPlan:
    def test_program_load_emits_imem_and_dmem(self, planner):
        txn = planner.plan(programs={(0, 0): PROG_A})
        kinds = [b.kind.value for b in txn.bitstreams]
        assert len(txn.bitstreams) == 2  # imem + data image
        assert txn.total_bytes == 2 * 9 + 1 * 6

    def test_program_without_data_image(self, planner):
        txn = planner.plan(programs={(0, 0): PROG_B})
        assert len(txn.bitstreams) == 1
        assert txn.total_bytes == 3 * 9

    def test_pinning_skips_resident_program(self, planner):
        planner.mesh.tile((0, 0)).load_program(PROG_A)
        txn = planner.plan(programs={(0, 0): PROG_A})
        assert txn.bitstreams == []

    def test_force_reload_overrides_pinning(self, planner):
        planner.mesh.tile((0, 0)).load_program(PROG_A)
        txn = planner.plan(programs={(0, 0): PROG_A}, force_program_reload=True)
        assert len(txn.bitstreams) == 2

    def test_link_delta_only(self, planner):
        planner.mesh.configure_link((0, 0), Direction.EAST)
        txn = planner.plan(links={(0, 0): Direction.EAST,
                                  (0, 1): Direction.SOUTH})
        assert txn.link_changes == 1

    def test_data_images(self, planner):
        txn = planner.plan(data_images={(1, 1): {5: 42, 6: 43}})
        assert txn.total_bytes == 12
        assert txn.memory_words == 2

    def test_empty_data_image_skipped(self, planner):
        txn = planner.plan(data_images={(1, 1): {}})
        assert txn.bitstreams == []

    def test_duration_upper_bound(self, planner):
        txn = planner.plan(
            programs={(0, 0): PROG_B}, links={(0, 1): Direction.SOUTH}
        )
        expected = 3 * IMEM_WORD_RELOAD_NS + 100.0
        assert txn.duration_ns(planner.icap, 100.0) == pytest.approx(expected)


class TestApply:
    def test_apply_mutates_mesh(self, planner):
        txn = planner.plan(
            programs={(0, 0): PROG_A},
            data_images={(0, 1): {7: 9}},
            links={(1, 0): Direction.NORTH},
        )
        planner.apply(txn.ops, {}, 0.0)
        assert planner.mesh.tile((0, 0)).program is PROG_A
        assert planner.mesh.tile((0, 1)).dmem.peek(7) == 9
        assert planner.mesh.active_link((1, 0)) is Direction.NORTH

    def test_apply_serializes_on_port(self, planner):
        txn = planner.plan(
            programs={(0, 0): PROG_B, (0, 1): PROG_B},
        )
        ready = {}
        busy_ns, end_ns = planner.apply(txn.ops, ready, 0.0)
        # two 3-instruction images, back to back on one port
        assert busy_ns == pytest.approx(6 * IMEM_WORD_RELOAD_NS)
        assert end_ns == pytest.approx(6 * IMEM_WORD_RELOAD_NS)
        assert ready[(0, 1)] > ready[(0, 0)]
        assert ready[(0, 1)] == end_ns

    def test_busy_tile_delays_its_reload(self, planner):
        txn = planner.plan(programs={(0, 0): PROG_B})
        ready = {(0, 0): 5000.0}
        planner.apply(txn.ops, ready, 0.0)
        assert planner.icap.transfers[0].start_ns == 5000.0
        assert ready[(0, 0)] == pytest.approx(5000.0 + 3 * IMEM_WORD_RELOAD_NS)

    def test_busy_other_tile_does_not_delay(self, planner):
        txn = planner.plan(programs={(0, 0): PROG_B})
        ready = {(1, 1): 5000.0}
        planner.apply(txn.ops, ready, 0.0)
        assert planner.icap.transfers[0].start_ns == 0.0
        assert ready[(1, 1)] == 5000.0  # untouched tiles keep their time

    def test_link_charged_fixed_cost(self, planner):
        txn = planner.plan(links={(0, 0): Direction.EAST})
        busy_ns, end_ns = planner.apply(txn.ops, {}, 0.0)
        assert busy_ns == pytest.approx(100.0)
        assert end_ns == pytest.approx(100.0)

    def test_reconfig_marks_counters(self, planner):
        txn = planner.plan(data_images={(0, 0): {1: 2}})
        planner.apply(txn.ops, {}, 0.0)
        assert planner.mesh.tile((0, 0)).dmem.reconfig_writes == 1

    def test_empty_transaction(self, planner):
        ready = {}
        assert planner.apply(planner.plan().ops, ready, 42.0) == (0.0, 42.0)
        assert ready == {} and planner.icap.transfers == []

    def test_negative_link_cost_rejected(self):
        with pytest.raises(Exception):
            ReconfigPlanner(Mesh(1, 1), IcapPort(), link_cost_ns=-1)


class TestReconfigErrorContext:
    """ReconfigError carries the tile coordinate and ICAP timestamp."""

    def test_plain_message_without_context(self):
        from repro.errors import ReconfigError

        err = ReconfigError("bad image")
        assert str(err) == "bad image"
        assert err.coord is None and err.icap_ns is None

    def test_coord_and_timestamp_render_like_a_trace_entry(self):
        from repro.errors import ReconfigError

        err = ReconfigError("bad image", coord=(1, 0), icap_ns=1200.0)
        assert err.coord == (1, 0)
        assert err.icap_ns == 1200.0
        assert str(err) == "bad image [tile (1, 0), icap t=1200.00 ns]"

    def test_fault_hierarchy(self):
        from repro.errors import FabricError, FaultError, ScrubError

        assert issubclass(FaultError, FabricError)
        assert issubclass(ScrubError, FaultError)
