"""Cycle-accurate functional model of a reMORPH-style CGRA fabric.

The fabric is a 2-D mesh of coarse-grain tiles.  Each tile is a small 48-bit
processor with a 512-word instruction memory and a 512-word dual-port data
memory, connected to its four nearest neighbours through single-word links of
which at most one per direction is active at a time.  Tiles are reconfigured
at runtime through a bandwidth-limited reconfiguration port (ICAP model):
instruction images, data images and link settings can all be changed while
*other* tiles keep computing -- this partial overlap is the paper's central
mechanism.

Public surface
--------------
:class:`~repro.fabric.isa.Instruction` / :mod:`~repro.fabric.assembler`
    the tile instruction set and a two-pass assembler for it.
:class:`~repro.fabric.tile.Tile`
    functional + cycle-counting execution of one tile.
:class:`~repro.fabric.mesh.Mesh`
    the tile array and its reconfigurable near-neighbour links.
:class:`~repro.fabric.icap.IcapPort`
    the serializing reconfiguration channel (180 MB/s by default).
:class:`~repro.fabric.rtms.RuntimeManager`
    the epoch scheduler (MicroBlaze stand-in) that applies configurations
    and accounts reconfiguration/computation overlap.
"""

from repro.fabric.isa import (
    AddrMode,
    Instruction,
    Opcode,
    Operand,
    direct,
    imm,
    indirect,
)
from repro.fabric.assembler import Program, assemble
from repro.fabric.memory import DataMemory, InstructionMemory
from repro.fabric.fixedpoint import FixedPointFormat, Q30
from repro.fabric.links import Direction, LinkState
from repro.fabric.tile import Tile, TileStats
from repro.fabric.mesh import Mesh
from repro.fabric.icap import IcapPort
from repro.fabric.bitstream import ReconfigKind
from repro.fabric.reconfig import ReconfigPlanner, ReconfigTransaction
from repro.fabric.rtms import EpochReport, EpochSpec, RunReport, RuntimeManager
from repro.fabric.simulator import ConcurrentRun, run_concurrent
from repro.fabric.area import area_slice_luts
from repro.fabric.trace import EventKind, TraceEvent, Tracer, trace_report
from repro.fabric.energy import EnergyBreakdown, EnergyModel

__all__ = [
    "AddrMode",
    "ConcurrentRun",
    "DataMemory",
    "Direction",
    "EnergyBreakdown",
    "EnergyModel",
    "EpochReport",
    "EpochSpec",
    "EventKind",
    "TraceEvent",
    "Tracer",
    "trace_report",
    "FixedPointFormat",
    "IcapPort",
    "Instruction",
    "InstructionMemory",
    "LinkState",
    "Mesh",
    "Opcode",
    "Operand",
    "Program",
    "Q30",
    "ReconfigKind",
    "ReconfigPlanner",
    "ReconfigTransaction",
    "RunReport",
    "RuntimeManager",
    "Tile",
    "TileStats",
    "area_slice_luts",
    "assemble",
    "direct",
    "imm",
    "indirect",
    "run_concurrent",
]
