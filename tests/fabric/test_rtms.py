"""Runtime manager: epoch sequencing, overlap accounting, reports."""

import pytest

from repro.fabric.assembler import assemble
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import EpochSpec, RuntimeManager
from repro.units import CYCLE_NS, IMEM_WORD_RELOAD_NS

WORK = assemble("\n".join(["NOP"] * 99) + "\nHALT", name="work100")
TINY = assemble("HALT", name="tiny")


@pytest.fixture
def rtms():
    return RuntimeManager(Mesh(2, 2), IcapPort(), link_cost_ns=200.0)


class TestBasics:
    def test_single_epoch_compute(self, rtms):
        report = rtms.execute(
            [EpochSpec("e", programs={(0, 0): WORK}, run=[(0, 0)])]
        )
        epoch = report.epochs[0]
        assert epoch.compute_ns == pytest.approx(100 * CYCLE_NS)
        # compute waits for the program load
        assert epoch.end_ns == pytest.approx(
            100 * IMEM_WORD_RELOAD_NS + 100 * CYCLE_NS
        )

    def test_pinned_program_not_recharged(self, rtms):
        spec = EpochSpec("e", programs={(0, 0): WORK}, run=[(0, 0)])
        rtms.execute([spec])
        second = rtms.execute(
            [EpochSpec("again", programs={(0, 0): WORK}, run=[(0, 0)])]
        )
        assert second.epochs[0].reconfig_ns == 0.0

    def test_restart_reruns_program(self, rtms):
        spec = EpochSpec("e", programs={(0, 0): WORK}, run=[(0, 0)])
        rtms.execute([spec])
        report = rtms.execute([EpochSpec("re", run=[(0, 0)])])
        assert report.epochs[0].compute_ns == pytest.approx(100 * CYCLE_NS)

    def test_link_changes_charged(self, rtms):
        report = rtms.execute(
            [EpochSpec("links", links={(0, 0): Direction.EAST,
                                       (0, 1): Direction.SOUTH})]
        )
        epoch = report.epochs[0]
        assert epoch.link_changes == 2
        assert epoch.reconfig_ns == pytest.approx(400.0)

    def test_unchanged_link_free(self, rtms):
        rtms.execute([EpochSpec("a", links={(0, 0): Direction.EAST})])
        report = rtms.execute([EpochSpec("b", links={(0, 0): Direction.EAST})])
        assert report.epochs[0].link_changes == 0

    def test_pokes_are_free_and_applied(self, rtms):
        report = rtms.execute(
            [EpochSpec("p", pokes={(0, 0): {7: 99}})]
        )
        assert rtms.mesh.tile((0, 0)).dmem.peek(7) == 99
        assert report.epochs[0].reconfig_ns == 0.0

    def test_data_images_are_charged(self, rtms):
        report = rtms.execute(
            [EpochSpec("d", data_images={(0, 0): {7: 99}})]
        )
        assert report.epochs[0].reconfig_bytes == 6
        assert report.epochs[0].reconfig_ns > 0


class TestOverlap:
    def test_reconfig_overlaps_other_tiles_compute(self, rtms):
        # Tile (0,0) computes while tile (0,1) is reconfigured: total time
        # should be close to max of the two, not the sum.
        rtms.execute([EpochSpec("load", programs={(0, 0): WORK})])
        report = rtms.execute(
            [
                EpochSpec(
                    "overlap",
                    programs={(0, 1): WORK},  # 5000 ns of ICAP
                    run=[(0, 0)],             # 250 ns of compute
                )
            ]
        )
        epoch = report.epochs[0]
        assert epoch.duration_ns == pytest.approx(100 * IMEM_WORD_RELOAD_NS)
        assert epoch.compute_ns == pytest.approx(100 * CYCLE_NS)
        # the reload is partly exposed: only the compute's span hides it
        assert epoch.overlapped_ns == pytest.approx(epoch.compute_ns)

    def test_overlapped_ns_reported(self, rtms):
        rtms.execute([EpochSpec("load", programs={(0, 0): WORK})])
        report = rtms.execute(
            [EpochSpec("o", programs={(0, 1): TINY}, run=[(0, 0)])]
        )
        epoch = report.epochs[0]
        # the tiny reload (50ns) hides under the 250ns compute entirely
        assert epoch.overlapped_ns == pytest.approx(epoch.reconfig_ns)

    def test_busy_tile_defers_reconfig(self, rtms):
        # Run a tile, then reconfigure the same tile: the reload cannot
        # start before the tile's own compute ends.
        rtms.execute([EpochSpec("a", programs={(0, 0): WORK}, run=[(0, 0)])])
        t_after_first = rtms.now_ns
        report = rtms.execute([EpochSpec("b", programs={(0, 0): TINY})])
        assert report.epochs[0].start_ns == pytest.approx(t_after_first)


class TestReports:
    def test_run_report_totals(self, rtms):
        report = rtms.execute(
            [
                EpochSpec("one", programs={(0, 0): WORK}, run=[(0, 0)]),
                EpochSpec("two", run=[(0, 0)]),
            ]
        )
        assert report.total_ns == report.epochs[-1].end_ns
        assert report.compute_ns == pytest.approx(2 * 100 * CYCLE_NS)
        assert len(report.gantt().splitlines()) == 2

    def test_utilization(self, rtms):
        report = rtms.execute(
            [EpochSpec("e", programs={(0, 0): WORK}, run=[(0, 0)])]
        )
        util = report.utilization(1)
        assert 0 < util < 1  # reload time keeps it below 1
        assert report.utilization(0) == 0.0

    def test_depends_on_gates_start(self, rtms):
        rtms.execute(
            [EpochSpec("a", programs={(0, 0): WORK}, run=[(0, 0)])]
        )
        finish = rtms.tile_ready_ns[(0, 0)]
        report = rtms.execute(
            [EpochSpec("b", programs={(0, 1): TINY}, run=[(0, 1)],
                       depends_on=[(0, 0)])]
        )
        # (0,1) could start after its own 50ns reload, but the dependency
        # on (0,0) pushes the compute to `finish`.
        epoch = report.epochs[0]
        assert epoch.end_ns >= finish

    def test_link_cost_property(self, rtms):
        rtms.link_cost_ns = 500.0
        assert rtms.link_cost_ns == 500.0
        with pytest.raises(Exception):
            rtms.link_cost_ns = -1

    def test_reset(self, rtms):
        rtms.execute([EpochSpec("e", programs={(0, 0): TINY}, run=[(0, 0)])])
        rtms.reset()
        assert rtms.now_ns == 0.0
        assert rtms.tile_ready_ns == {}


class TestSwitchCost:
    """switch_cost() must agree with executed reconfig_ns (satellite)."""

    def _spec(self):
        return EpochSpec(
            "mix",
            programs={(0, 0): WORK, (0, 1): TINY},
            data_images={(1, 0): {3: 7, 4: 9}},
            links={(0, 0): Direction.EAST, (1, 0): Direction.NORTH},
            run=[(0, 0)],
        )

    def test_agrees_with_executed_report_single_spec(self, rtms):
        spec = self._spec()
        estimate = rtms.switch_cost(spec)
        report = rtms.execute([spec])
        assert estimate == pytest.approx(report.epochs[0].reconfig_ns)
        assert estimate > 0

    def test_agrees_with_executed_report_sequence(self, rtms):
        specs = [
            self._spec(),
            # second epoch: WORK pinned from the first, link unchanged,
            # fresh data image -> only the image + the new link charge.
            EpochSpec(
                "warm",
                programs={(0, 0): WORK},
                data_images={(0, 1): {1: 2}},
                links={(0, 0): Direction.EAST, (0, 1): Direction.SOUTH},
            ),
        ]
        estimate = rtms.switch_cost(specs)
        report = rtms.execute(specs)
        executed = sum(e.reconfig_ns for e in report.epochs)
        assert estimate == pytest.approx(executed)

    def test_no_side_effects(self, rtms):
        spec = self._spec()
        rtms.switch_cost(spec)
        # nothing loaded, nothing scheduled, no link flipped
        assert rtms.icap.total_busy_ns == 0.0
        assert rtms.mesh.tile((0, 0)).resident_base(WORK) is None
        assert rtms.mesh.active_link((0, 0)) is None
        assert rtms.now_ns == 0.0

    def test_warm_fabric_costs_nothing(self, rtms):
        spec = EpochSpec(
            "p", programs={(0, 0): WORK}, links={(0, 0): Direction.EAST}
        )
        rtms.execute([spec])
        assert rtms.switch_cost(spec) == 0.0

    def test_pinned_within_sequence(self, rtms):
        a = EpochSpec("a", programs={(0, 0): WORK})
        b = EpochSpec("b", programs={(0, 0): WORK})
        assert rtms.switch_cost([a, b]) == pytest.approx(rtms.switch_cost(a))
