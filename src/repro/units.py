"""Physical constants and unit helpers shared across the library.

All times inside the library are expressed in **nanoseconds** (float) and all
frequencies in **hertz** unless a name says otherwise.  The constants below
are the published reMORPH / ICAP figures the paper's evaluation is built on
(IPDPSW 2013, Sections 2-3):

* tiles clock at 400 MHz, i.e. one instruction every 2.5 ns;
* the reconfiguration port (ICAP) sustains 180 MB/s;
* a data-memory word is 48 bits (6 bytes) -> 33.33 ns to reload one word;
* an instruction-memory word is 72 bits (9 bytes) -> 50 ns to reload one.
"""

from __future__ import annotations

NS_PER_S = 1e9
US_PER_S = 1e6
MS_PER_S = 1e3

#: Tile clock frequency (Hz).  reMORPH tiles run at 300-400 MHz depending on
#: the device speed grade; the paper's numbers all use 400 MHz.
TILE_CLOCK_HZ: float = 400e6

#: Duration of one tile clock cycle in nanoseconds (2.5 ns at 400 MHz).
CYCLE_NS: float = NS_PER_S / TILE_CLOCK_HZ

#: Sustained ICAP reconfiguration bandwidth in bytes per second (180 MB/s,
#: achievable per Liu et al., FPL 2009 -- reference [2] of the paper).
ICAP_BYTES_PER_S: float = 180e6

#: Width of a data-memory word in bits (two 512x48 BRAMs per tile).
DATA_WORD_BITS: int = 48

#: Width of an instruction-memory word in bits (one 512x72 BRAM per tile).
INSTR_WORD_BITS: int = 72

#: Number of data words per tile data memory.
DATA_MEM_WORDS: int = 512

#: Number of instruction words per tile instruction memory.
INSTR_MEM_WORDS: int = 512

#: Number of wires in one inter-tile link (one data word wide).
LINK_WIRES: int = DATA_WORD_BITS

#: Time to reload one data-memory word over the ICAP, in ns.
#: 48 bits = 6 bytes; 6 / 180e6 s = 33.33 ns.  Quoted directly in Sec. 3.1.
DMEM_WORD_RELOAD_NS: float = (DATA_WORD_BITS / 8) / ICAP_BYTES_PER_S * NS_PER_S

#: Time to reload one instruction-memory word over the ICAP, in ns.
#: 72 bits = 9 bytes; 9 / 180e6 s = 50 ns.
IMEM_WORD_RELOAD_NS: float = (INSTR_WORD_BITS / 8) / ICAP_BYTES_PER_S * NS_PER_S

#: Area of one tile in slice LUTs (Sec. 2: "a very low footprint of 200
#: slice LUTs").
TILE_AREA_SLICE_LUTS: int = 200


def throughput_per_s(period_ns: float) -> float:
    """Items per second given a steady-state period in ns."""
    if period_ns <= 0:
        raise ValueError(f"period must be positive, got {period_ns}")
    return NS_PER_S / period_ns
