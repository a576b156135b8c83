"""Payload sizes: what a program load, a data image and a link cost."""

import pytest

from repro.errors import LinkError
from repro.fabric.assembler import assemble
from repro.fabric.bitstream import program_icap_bytes
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.reconfig import ReconfigPlanner


@pytest.fixture
def planner():
    return ReconfigPlanner(Mesh(1, 2), IcapPort(), link_cost_ns=100.0)


class TestSizing:
    def test_imem_bytes(self, planner):
        program = assemble("NOP\nNOP\nHALT", name="three")
        assert program_icap_bytes(program) == 27  # 9 bytes per 72-bit word
        assert planner.plan(programs={(0, 0): program}).total_bytes == 27

    def test_dmem_bytes_per_pair(self, planner):
        txn = planner.plan(data_images={(0, 0): {10: 99, 11: 98}})
        assert txn.total_bytes == 12  # 6 bytes per 48-bit word

    def test_link_costs_no_bytes(self, planner):
        txn = planner.plan(links={(0, 0): Direction.EAST})
        assert txn.total_bytes == 0
        assert txn.link_changes == 1

    def test_link_direction_validated(self, planner):
        with pytest.raises(LinkError):  # no tile north of row 0
            planner.plan(links={(0, 0): Direction.NORTH})
