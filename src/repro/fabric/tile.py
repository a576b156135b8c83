"""The processing element (tile / grain) of the fabric.

A tile owns one instruction memory, one data memory and a program counter.
It executes the ISA of :mod:`repro.fabric.isa` functionally while counting
cycles (2.5 ns each at the 400 MHz reference clock).  The only way a tile
talks to the outside world is the ``SNB`` instruction, which stores one word
into the data memory of the neighbour its write port is currently linked to
— exactly the semi-systolic shared-memory communication of reMORPH ("Each
tile reads data from its local memory but can write to either its own memory
or the neighbour's memory", Sec. 2).

Tiles can run standalone (``neighbour_resolver=None`` makes ``SNB`` an
error) or inside a :class:`~repro.fabric.mesh.Mesh`, which installs a
resolver enforcing link legality.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.fabric.assembler import Program
from repro.fabric.isa import (
    ALU_OPS,
    BRANCH_OPS,
    AddrMode,
    Instruction,
    Opcode,
    Operand,
    evaluate_alu,
)
from repro.fabric.links import Direction
from repro.fabric.memory import DataMemory, InstructionMemory
from repro.units import CYCLE_NS

__all__ = ["Tile", "TileStats"]

#: Callable the mesh installs so a tile can perform neighbour stores:
#: (direction, neighbour_addr, value) -> None.
NeighbourResolver = Callable[[Direction, int, int], None]


@dataclass
class TileStats:
    """Execution statistics for one tile."""

    instructions: int = 0
    cycles: int = 0
    halts: int = 0
    neighbour_stores: int = 0
    branches_taken: int = 0

    @property
    def time_ns(self) -> float:
        """Busy time in nanoseconds at the reference clock."""
        return self.cycles * CYCLE_NS

    def reset(self) -> None:
        self.instructions = 0
        self.cycles = 0
        self.halts = 0
        self.neighbour_stores = 0
        self.branches_taken = 0


@dataclass
class Tile:
    """One coarse-grain processing element.

    Parameters
    ----------
    coord:
        (row, col) position in the mesh; purely informational for
        standalone tiles.
    name:
        Optional label used in traces and error messages.
    """

    coord: tuple[int, int] = (0, 0)
    name: str = ""
    dmem: DataMemory = field(default_factory=DataMemory)
    imem: InstructionMemory = field(default_factory=InstructionMemory)
    stats: TileStats = field(default_factory=TileStats)
    neighbour_resolver: NeighbourResolver | None = None

    def __post_init__(self) -> None:
        self.pc = 0
        self.halted = True
        self.program: Program | None = None
        #: Co-resident programs: id(program) -> (program, base).
        self._resident: dict[int, tuple[Program, int]] = {}
        self._next_free = 0

    def __repr__(self) -> str:  # keep dataclass repr short: memories are big
        label = self.name or f"tile{self.coord}"
        return f"<Tile {label} pc={self.pc} halted={self.halted}>"

    # ------------------------------------------------------------------
    # program loading (co-residency: many small programs share the imem)
    # ------------------------------------------------------------------

    def resident_base(self, program: Program) -> int | None:
        """Instruction-memory base of a resident program, or None."""
        entry = self._resident.get(id(program))
        return entry[1] if entry is not None else None

    def resident_programs(self) -> tuple[Program, ...]:
        """The co-resident programs, in install order."""
        return tuple(program for program, _base in self._resident.values())

    def configuration(self) -> tuple:
        """Selection, residency and memory shape as comparable values:
        what a reconfiguration delta and the fast engine's eligibility
        depend on besides links and memory contents.  Programs appear by
        ``id``; a holder keeps :meth:`resident_programs` alive."""
        return (
            id(self.program),
            self.pc,
            self.halted,
            tuple(self._resident),
            self._next_free,
            self.imem.has_corruption,
            self.dmem.size,
            self.imem.size,
        )

    @property
    def imem_free_words(self) -> int:
        return self.imem.size - self._next_free

    def install_program(self, program: Program, *, reconfig: bool = False) -> int:
        """Install a program without evicting residents; returns its base.

        Programs are packed bump-allocator style; when the free region
        cannot hold the image, every resident is evicted first (the
        simple wholesale-replacement policy a partial bitstream region
        would use).  Branch targets are relocated to the load base.
        ``reconfig=True`` marks the words as ICAP traffic for statistics;
        the *time* cost is accounted by the reconfiguration planner.

        .. note::
           Installing **starts** the program: the freshly installed image
           becomes the current selection and the pc points at its entry
           (an already-resident program is *not* re-selected — the call
           just returns its base).  Epoch schedules that co-install many
           programs re-select the one they want with :meth:`start` before
           each run.
        """
        existing = self.resident_base(program)
        if existing is not None:
            return existing
        if program.imem_words > self.imem.size:
            raise ExecutionError(
                f"{program.name!r} ({program.imem_words} words) exceeds the "
                f"instruction memory"
            )
        if self._next_free + program.imem_words > self.imem.size:
            self.evict_programs()
        base = self._next_free
        # Relocated images are cached per (program, base): programs are
        # immutable and epoch schedules re-install the same few programs
        # at the same bases over and over after evictions.
        reloc_cache = program.__dict__.setdefault("_relocated", {})
        image = reloc_cache.get(base)
        if image is None:
            from repro.fabric.isa import relocate

            image = reloc_cache[base] = [
                relocate(instr, base) for instr in program.instructions
            ]
        self.imem.load(image, base=base, reconfig=reconfig)
        self.dmem.load_image(program.data_image, reconfig=reconfig)
        self._resident[id(program)] = (program, base)
        self._next_free = base + program.imem_words
        # A freshly installed program becomes the current selection (the
        # pc points at its entry); epoch schedules re-select per run.
        self.start(program)
        return base

    def evict_programs(self) -> None:
        """Drop every resident program (wholesale imem replacement)."""
        self.imem.clear()
        self._resident.clear()
        self._next_free = 0
        self.program = None
        self.halted = True

    def start(self, program: Program) -> None:
        """Point the pc at a resident program's entry."""
        entry = self._resident.get(id(program))
        if entry is None:
            raise ExecutionError(
                f"{self!r}: {program.name!r} is not resident; install it first"
            )
        self.program = program
        self.pc = entry[1]
        self.halted = False

    def load_program(self, program: Program, *, reconfig: bool = False) -> None:
        """Evict residents, install ``program`` at base 0 and start it.

        The single-program convenience used by standalone tiles and
        tests; epoch schedules prefer :meth:`install_program` +
        :meth:`start` so small programs stay co-resident.  The start is
        implicit in :meth:`install_program` (a fresh install always
        selects the program), so no extra :meth:`start` call is needed.
        """
        self.evict_programs()
        self.install_program(program, reconfig=reconfig)

    # ------------------------------------------------------------------
    # checkpointing (epoch-boundary recovery)
    # ------------------------------------------------------------------

    def capture(self) -> dict:
        """Snapshot all architecturally visible tile state.

        Covers both memories, the residency table (so restored programs
        stay pinned), the bump allocator and the control state (pc /
        halted / selected program).  Statistics are *not* captured: a
        rolled-back epoch's work really happened and stays counted, the
        same way its ICAP traffic stays on the timeline.
        """
        return {
            "dmem": self.dmem.snapshot(),
            "imem": self.imem.snapshot(),
            "resident": dict(self._resident),
            "next_free": self._next_free,
            "pc": self.pc,
            "halted": self.halted,
            "program": self.program,
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`capture` snapshot (memories + control state).

        The *time* cost of streaming the words back through the ICAP is
        charged by the caller (the fault campaign's repair path); this
        method only performs the state mutation.
        """
        self.dmem.load_words(state["dmem"])
        self.imem.load_slots(state["imem"])
        self._resident = dict(state["resident"])
        self._next_free = state["next_free"]
        self.pc = state["pc"]
        self.halted = state["halted"]
        self.program = state["program"]

    def restart(self) -> None:
        """Rewind the pc to the current program's entry without touching
        memories.

        Used when the same instructions run again on new data — the
        paper's "In each iteration, the same set of instructions are
        executed by updating the base addresses" idiom.
        """
        if self.program is None:
            raise ExecutionError(f"{self!r} has no program loaded")
        self.start(self.program)

    def addr(self, symbol: str) -> int:
        """Resolve a symbol of the loaded program."""
        if self.program is None:
            raise ExecutionError(f"{self!r} has no program loaded")
        return self.program.addr(symbol)

    # ------------------------------------------------------------------
    # operand evaluation
    # ------------------------------------------------------------------

    def _read(self, operand: Operand) -> int:
        if operand.mode is AddrMode.IMM:
            return operand.value
        if operand.mode is AddrMode.DIR:
            return self.dmem.read(operand.value)
        pointer = self.dmem.read(operand.value)
        return self.dmem.read(pointer)

    def _write_addr(self, operand: Operand) -> int:
        if operand.mode is AddrMode.DIR:
            return operand.value
        if operand.mode is AddrMode.IND:
            return self.dmem.read(operand.value)
        raise ExecutionError("immediate destination")  # pragma: no cover - isa checks

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> int:
        """Execute one instruction; returns the cycles it consumed.

        Returns 0 when the tile is already halted.
        """
        if self.halted:
            return 0
        instr: Instruction = self.imem.fetch(self.pc)
        cycles = instr.cycles
        op = instr.opcode
        next_pc = self.pc + 1

        if op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            self.halted = True
            self.stats.halts += 1
        elif op in ALU_OPS:
            a = self._read(instr.src1)
            b = self._read(instr.src2)
            try:
                result = evaluate_alu(op, a, b, instr.aux)
            except ExecutionError as exc:
                raise ExecutionError(f"{self!r} pc={self.pc} {instr}: {exc}") from None
            self.dmem.write(self._write_addr(instr.dst), result)
        elif op is Opcode.MOV:
            self.dmem.write(self._write_addr(instr.dst), self._read(instr.src1))
        elif op is Opcode.ABS:
            self.dmem.write(self._write_addr(instr.dst), abs(self._read(instr.src1)))
        elif op is Opcode.NEG:
            self.dmem.write(self._write_addr(instr.dst), -self._read(instr.src1))
        elif op is Opcode.NOT:
            self.dmem.write(self._write_addr(instr.dst), ~self._read(instr.src1))
        elif op is Opcode.JMP:
            next_pc = instr.aux
        elif op in BRANCH_OPS:
            value = self._read(instr.src1)
            taken = {
                Opcode.BZ: value == 0,
                Opcode.BNZ: value != 0,
                Opcode.BNEG: value < 0,
                Opcode.BPOS: value > 0,
            }[op]
            if taken:
                next_pc = instr.aux
                self.stats.branches_taken += 1
        elif op is Opcode.SNB:
            if self.neighbour_resolver is None:
                raise ExecutionError(
                    f"{self!r}: SNB outside a mesh (no neighbour resolver)"
                )
            direction = Direction.from_code(instr.aux)
            naddr = self._write_addr(instr.dst)
            value = self._read(instr.src1)
            self.neighbour_resolver(direction, naddr, value)
            self.stats.neighbour_stores += 1
        else:  # pragma: no cover - enum closed
            raise ExecutionError(f"unimplemented opcode {op}")

        self.pc = next_pc
        self.stats.instructions += 1
        self.stats.cycles += cycles
        return cycles

    def run(self, max_cycles: int = 10_000_000, *, engine: str | None = None) -> int:
        """Run until ``HALT``; returns cycles consumed by this call.

        ``engine`` selects the execution tier: ``"fast"`` (the lowered
        trace, else predecoded closures), ``"reference"`` (the per-instruction
        interpreter above), or ``None`` for *auto* — fast unless the
        ``REPRO_REFERENCE_SIM`` environment variable forces the oracle.
        Both tiers are observationally identical (memories, stats,
        counters, exceptions); the differential tests enforce it.

        The budget semantics are shared by both tiers and by
        :func:`~repro.fabric.simulator.run_concurrent`: ``consumed`` is
        checked **after** each instruction with ``consumed > max_cycles``,
        so a run finishing at exactly ``max_cycles`` is legal and the
        instruction that crosses the budget (including a ``HALT``) raises
        :class:`ExecutionError` — in practice a runaway kernel loop.
        """
        if self.program is None:
            raise ExecutionError(f"{self!r} has no program loaded")
        from repro.fabric import predecode as _pd

        if _pd.resolve_engine(engine) == "fast":
            decoded = _pd.decode_for_tile(self)
            if decoded is not None:
                return self._run_fast(decoded[0], decoded[1], max_cycles)
        return self._run_reference(max_cycles)

    def _run_reference(self, max_cycles: int) -> int:
        """The oracle run loop (one :meth:`step` per instruction)."""
        consumed = 0
        while not self.halted:
            consumed += self.step()
            if consumed > max_cycles:
                raise ExecutionError(
                    f"{self!r} exceeded {max_cycles} cycles without halting"
                )
        return consumed

    def _run_fast(self, dec, base: int, max_cycles: int) -> int:
        """Fast-tier run: the lowered trace, else decoded blocks."""
        from repro.fabric import predecode as _pd

        if self.halted:
            return 0
        consumed = _pd.run_lowered(
            self, _pd.footprint_for(self, dec, base), base, max_cycles
        )
        if consumed is not None:
            return consumed
        boundary, consumed = _pd.run_block(self, dec, base, max_cycles)
        if boundary == _pd.BLOCK_BUDGET:
            raise ExecutionError(
                f"{self!r} exceeded {max_cycles} cycles without halting"
            )
        # BLOCK_EXIT: the pc left the decoded image (co-residency
        # fall-through) — finish on the reference interpreter.
        while not self.halted:
            consumed += self.step()
            if consumed > max_cycles:
                raise ExecutionError(
                    f"{self!r} exceeded {max_cycles} cycles without halting"
                )
        return consumed

    def run_ns(self, max_cycles: int = 10_000_000, *, engine: str | None = None) -> float:
        """Like :meth:`run` but returns elapsed nanoseconds."""
        return self.run(max_cycles, engine=engine) * CYCLE_NS
