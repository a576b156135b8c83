"""Energy model: term composition and design trade-offs."""

import math

import pytest

from repro.errors import FabricError
from repro.fabric.energy import EnergyBreakdown, EnergyModel


class TestTerms:
    def test_compute_scaling(self):
        model = EnergyModel(instruction_pj=20.0)
        assert model.compute_nj(1000) == pytest.approx(20.0)

    def test_reconfig_scaling(self):
        model = EnergyModel(icap_byte_pj=50.0)
        assert model.reconfig_nj(200) == pytest.approx(10.0)

    def test_link_scaling(self):
        assert EnergyModel(link_switch_nj=2.0).link_nj(5) == 10.0

    def test_static_mw_times_ns_is_pj(self):
        model = EnergyModel(tile_static_mw=1.0)
        # 1 mW over 1000 ns = 1000 pJ = 1 nJ per tile
        assert model.static_nj(3, 1000.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("kwargs", [
        {"instruction_pj": -1}, {"icap_byte_pj": -1},
        {"link_switch_nj": -1}, {"tile_static_mw": -1},
        {"instruction_pj": math.nan}, {"icap_byte_pj": math.nan},
        {"link_switch_nj": math.nan}, {"tile_static_mw": math.nan},
    ])
    def test_negative_constants_rejected(self, kwargs):
        with pytest.raises(FabricError):
            EnergyModel(**kwargs)

    def test_negative_inputs_rejected(self):
        model = EnergyModel()
        with pytest.raises(FabricError):
            model.compute_nj(-1)
        with pytest.raises(FabricError):
            model.static_nj(-1, 10)

    @pytest.mark.parametrize("value", [math.nan, -1.0])
    @pytest.mark.parametrize("term", [
        lambda model, v: model.compute_nj(v),
        lambda model, v: model.reconfig_nj(v),
        lambda model, v: model.link_nj(v),
        lambda model, v: model.static_nj(v, 10.0),
        lambda model, v: model.static_nj(1, v),
    ], ids=["compute", "reconfig", "link", "static-tiles", "static-duration"])
    def test_nan_and_negative_inputs_rejected(self, term, value):
        with pytest.raises(FabricError):
            term(EnergyModel(), value)


class TestBreakdown:
    def test_total(self):
        b = EnergyBreakdown(1.0, 2.0, 3.0, 4.0)
        assert b.total_nj == 10.0
        assert "total=10.0nJ" in str(b)


class TestRunEnergy:
    def test_from_real_run(self):
        from repro.fabric.assembler import assemble
        from repro.fabric.icap import IcapPort
        from repro.fabric.links import Direction
        from repro.fabric.mesh import Mesh
        from repro.fabric.rtms import EpochSpec, RuntimeManager

        mesh = Mesh(1, 2)
        rtms = RuntimeManager(mesh, IcapPort(), link_cost_ns=100.0)
        prog = assemble("\n".join(["NOP"] * 20) + "\nHALT", name="w")
        report = rtms.execute(
            [EpochSpec("e", programs={(0, 0): prog},
                       links={(0, 0): Direction.EAST}, run=[(0, 0)])]
        )
        instructions = sum(t.stats.instructions for t in mesh)
        breakdown = EnergyModel().run_energy_nj(report, len(mesh), instructions)
        assert breakdown.compute_nj > 0
        assert breakdown.reconfig_nj > 0   # the program image went over ICAP
        assert breakdown.link_nj == pytest.approx(1.0)  # one switch
        assert breakdown.static_nj > 0


class TestSteadyState:
    def test_static_dominates_idle_design(self):
        model = EnergyModel()
        idle = model.steady_state_mw(n_tiles=10, instructions_per_s=0)
        assert idle == pytest.approx(10 * model.tile_static_mw)

    def test_power_monotone_in_activity(self):
        model = EnergyModel()
        slow = model.steady_state_mw(4, instructions_per_s=1e8)
        fast = model.steady_state_mw(4, instructions_per_s=4e8)
        assert fast > slow

    def test_performance_per_watt_tradeoff(self):
        """More tiles raise throughput linearly but static power too;
        performance/watt saturates — the paper's motivation for reuse."""
        model = EnergyModel()
        ratios = []
        for tiles in (1, 4, 16, 64):
            throughput = tiles * 1e6          # ideal linear scaling
            instr_rate = tiles * 4e8          # each tile saturated
            power = model.steady_state_mw(tiles, instr_rate)
            ratios.append(throughput / power)
        # per-watt efficiency stops improving once dynamic power dominates
        assert ratios[-1] / ratios[0] < 2.0
