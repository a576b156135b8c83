"""Physical constants and unit conversions (the paper's published rates)."""

import pytest

from repro import units


class TestPublishedConstants:
    def test_clock(self):
        assert units.TILE_CLOCK_HZ == 400e6
        assert units.CYCLE_NS == pytest.approx(2.5)

    def test_icap_rate(self):
        assert units.ICAP_BYTES_PER_S == 180e6

    def test_memory_geometry(self):
        assert units.DATA_MEM_WORDS == 512
        assert units.INSTR_MEM_WORDS == 512
        assert units.DATA_WORD_BITS == 48
        assert units.INSTR_WORD_BITS == 72
        assert units.LINK_WIRES == 48  # "a link ... of size 48 lines"

    def test_derived_reload_costs(self):
        # Sec 3.1: "reloading one location in data memory takes 33.33 ns,
        # executing an instruction takes 2.5 ns"
        assert units.DMEM_WORD_RELOAD_NS == pytest.approx(33.33, abs=0.01)
        assert units.IMEM_WORD_RELOAD_NS == pytest.approx(50.0)

    def test_tile_area(self):
        assert units.TILE_AREA_SLICE_LUTS == 200


class TestConversions:
    def test_throughput(self):
        assert units.throughput_per_s(1000.0) == pytest.approx(1e6)
        with pytest.raises(ValueError):
            units.throughput_per_s(0)
