"""Configurations, epochs and switch costs."""

import math

import pytest

from repro.errors import ProcessNetworkError
from repro.fabric.links import Direction
from repro.pn.epoch import Configuration, Epoch, reconfig_cost_ns
from repro.pn.network import ProcessNetwork
from repro.pn.process import Process
from repro.units import DMEM_WORD_RELOAD_NS, IMEM_WORD_RELOAD_NS


@pytest.fixture
def network():
    return ProcessNetwork(
        [
            Process("a", 100, insts=20, data1=8),
            Process("b", 100, insts=30),
        ]
    )


class TestConfiguration:
    def test_tiles_and_processes_on(self):
        c = Configuration("C1", binding={"a": (0, 0), "b": (0, 0), "c": (0, 1)})
        assert c.tiles() == {(0, 0), (0, 1)}
        assert c.processes_on((0, 0)) == ["a", "b"]

    def test_changed_links(self):
        c1 = Configuration("C1", links={(0, 0): Direction.EAST})
        c2 = Configuration("C2", links={(0, 0): Direction.SOUTH,
                                        (0, 1): Direction.EAST})
        assert c1.changed_links(c2) == 2
        assert c1.changed_links(c1) == 0

    def test_moved_processes(self):
        c1 = Configuration("C1", binding={"a": (0, 0), "b": (0, 1)})
        c2 = Configuration("C2", binding={"a": (0, 0), "b": (1, 1)})
        assert c1.moved_processes(c2) == ["b"]


class TestEpoch:
    def test_negative_duration_rejected(self):
        with pytest.raises(ProcessNetworkError):
            Epoch(Configuration("C"), duration_ns=-1)

    @pytest.mark.parametrize("duration_ns", [math.nan, -1.0, math.inf])
    def test_duration_must_be_finite_and_non_negative(self, duration_ns):
        with pytest.raises(ProcessNetworkError):
            Epoch(Configuration("C"), duration_ns=duration_ns)


class TestReconfigCost:
    def test_link_cost_counted(self, network):
        c1 = Configuration("C1", links={(0, 0): Direction.EAST})
        c2 = Configuration("C2", links={(0, 0): Direction.SOUTH})
        cost = reconfig_cost_ns(c1, c2, network, link_cost_ns=700.0)
        assert cost == pytest.approx(700.0)

    def test_new_binding_pays_swap_in(self, network):
        c1 = Configuration("C1", binding={"a": (0, 0)})
        c2 = Configuration("C2", binding={"a": (0, 0), "b": (0, 0)})
        cost = reconfig_cost_ns(c1, c2, network, link_cost_ns=0.0)
        assert cost == pytest.approx(30 * IMEM_WORD_RELOAD_NS)

    def test_resident_binding_is_free(self, network):
        c1 = Configuration("C1", binding={"a": (0, 0)})
        c2 = Configuration("C2", binding={"a": (0, 0)})
        assert reconfig_cost_ns(c1, c2, network, 0.0) == 0.0

    def test_data1_charged_with_instructions(self, network):
        c1 = Configuration("C1")
        c2 = Configuration("C2", binding={"a": (0, 0)})
        cost = reconfig_cost_ns(c1, c2, network, 0.0)
        assert cost == pytest.approx(
            20 * IMEM_WORD_RELOAD_NS + 8 * DMEM_WORD_RELOAD_NS
        )

    def test_explicit_resident_set(self, network):
        c1 = Configuration("C1")
        c2 = Configuration("C2", binding={"a": (0, 0)})
        resident = {("a", (0, 0))}
        assert reconfig_cost_ns(c1, c2, network, 0.0, resident=resident) == 0.0

    def test_negative_link_cost_rejected(self, network):
        with pytest.raises(ProcessNetworkError):
            reconfig_cost_ns(Configuration("a"), Configuration("b"),
                             network, -1.0)
