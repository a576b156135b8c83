"""Instruction set of a reMORPH-style tile.

The published tile supports "arithmetic and logic operations along with
direct and indirect addressing", enough to execute complete C-style loops on
48-bit words (IPDPSW 2013, Sec. 2).  This module defines a concrete ISA with
those properties:

* three-address register-memory instructions — every operand lives in the
  tile's 512-word data memory, which doubles as the register file;
* addressing modes: immediate (sources only), direct, and register-indirect
  (the operand's address is read from a data-memory word, which is how the
  kernels implement base-address updates between loop iterations);
* ALU ops (``ADD``/``SUB``/``MUL``/logic/shifts), a fixed-point multiply
  ``MULQ`` with a per-instruction shift amount, and conditional branches
  that test a data-memory word;
* ``SNB`` — *store to neighbour*: writes a word into the adjacent tile's
  data memory through the currently active link, the only inter-tile
  communication primitive of the semi-systolic fabric.

Timing model: the data memory is dual-ported (two reads and one write per
cycle, Sec. 2).  An instruction therefore takes ``ceil(reads / 2)`` cycles,
minimum one — e.g. an ``ADD`` of two direct operands is single-cycle while
an ``ADD`` with two indirect sources needs two cycles for the four reads
(two pointers + two values).

Instructions also define a dense 72-bit encoding (:meth:`Instruction.encode`):
one instruction occupies one 72-bit instruction-memory word, i.e. 9 bytes
over the ICAP.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from repro.errors import ExecutionError
from repro.fabric.fixedpoint import WORD_BITS, wrap_word

__all__ = [
    "AddrMode",
    "Opcode",
    "Operand",
    "Instruction",
    "imm",
    "direct",
    "indirect",
    "ALU_OPS",
    "BRANCH_OPS",
    "UNARY_OPS",
]


class AddrMode(enum.Enum):
    """Operand addressing mode."""

    #: Immediate constant (sources only).
    IMM = "imm"
    #: Direct: the operand is ``dmem[value]``.
    DIR = "dir"
    #: Register-indirect: the operand is ``dmem[dmem[value]]``.
    IND = "ind"


class Opcode(enum.Enum):
    """Tile opcodes.

    The mnemonic set is intentionally small; everything the shipped kernels
    need (C-style loops, pointer walks, complex butterflies, zig-zag
    permutations, neighbour copies) is expressible with it.
    """

    NOP = "NOP"
    HALT = "HALT"
    MOV = "MOV"
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"       # full-width wrapping integer multiply
    MULQ = "MULQ"     # fixed-point multiply: (a*b + round) >> q
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    SHL = "SHL"       # logical shift left
    SHR = "SHR"       # logical shift right (zero fill)
    SRA = "SRA"       # arithmetic shift right
    MIN = "MIN"
    MAX = "MAX"
    ABS = "ABS"
    NEG = "NEG"
    NOT = "NOT"
    JMP = "JMP"
    BZ = "BZ"         # branch if operand == 0
    BNZ = "BNZ"       # branch if operand != 0
    BNEG = "BNEG"     # branch if operand < 0
    BPOS = "BPOS"     # branch if operand > 0
    SNB = "SNB"       # store word to neighbour data memory


#: Two-source ALU operations (dst, src1, src2).
ALU_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.MULQ,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.SRA,
        Opcode.MIN,
        Opcode.MAX,
    }
)

#: One-source operations (dst, src1).
UNARY_OPS = frozenset({Opcode.MOV, Opcode.ABS, Opcode.NEG, Opcode.NOT})

#: Conditional branches (test operand, target).
BRANCH_OPS = frozenset({Opcode.BZ, Opcode.BNZ, Opcode.BNEG, Opcode.BPOS})


#: Dense opcode → encoding-slot index (hoisted out of ``encode``; the
#: per-call ``list(Opcode).index`` walk dominated bitstream sizing).
_OPCODE_INDEX = {op: i for i, op in enumerate(Opcode)}
#: Addressing-mode → 2-bit encoding field.
_MODE_CODE = {AddrMode.IMM: 0, AddrMode.DIR: 1, AddrMode.IND: 2}


@dataclass(frozen=True)
class Operand:
    """One instruction operand: an addressing mode plus its value field.

    For :attr:`AddrMode.IMM` the value is the constant itself (any signed
    48-bit integer); for the memory modes it is a data-memory address in
    ``[0, 512)``.
    """

    mode: AddrMode
    value: int

    def __post_init__(self) -> None:
        if self.mode is AddrMode.IMM:
            if not -(1 << (WORD_BITS - 1)) <= self.value < (1 << (WORD_BITS - 1)):
                raise ValueError(f"immediate {self.value} exceeds 48-bit range")
        else:
            if not 0 <= self.value < 512:
                raise ValueError(
                    f"address {self.value} outside data memory [0, 512)"
                )

    @property
    def reads(self) -> int:
        """Data-memory read ports consumed when used as a *source*."""
        if self.mode is AddrMode.IMM:
            return 0
        if self.mode is AddrMode.DIR:
            return 1
        return 2  # indirect: pointer + value

    def __str__(self) -> str:
        if self.mode is AddrMode.IMM:
            return f"#{self.value}"
        if self.mode is AddrMode.DIR:
            return str(self.value)
        return f"@{self.value}"


def imm(value: int) -> Operand:
    """Immediate operand."""
    return Operand(AddrMode.IMM, value)


def direct(addr: int) -> Operand:
    """Direct data-memory operand."""
    return Operand(AddrMode.DIR, addr)


def indirect(addr: int) -> Operand:
    """Register-indirect operand (``dmem[dmem[addr]]``)."""
    return Operand(AddrMode.IND, addr)


@dataclass(frozen=True)
class Instruction:
    """One decoded tile instruction.

    Field usage by opcode class:

    ======================  =======  =======  =======  ==============
    class                   dst      src1     src2     aux
    ======================  =======  =======  =======  ==============
    ALU (ADD..MAX)          write    read     read     MULQ: q shift
    unary (MOV/ABS/NEG/NOT) write    read     --       --
    JMP                     --       --       --       target pc
    branch (BZ..BPOS)       --       test     --       target pc
    SNB                     n.addr   read     --       direction code
    NOP / HALT              --       --       --       --
    ======================  =======  =======  =======  ==============

    For ``SNB`` the destination operand addresses the *neighbour's* data
    memory (direct or indirect through the *local* memory) and ``aux`` holds
    a :class:`~repro.fabric.links.Direction` value's code.
    """

    opcode: Opcode
    dst: Operand | None = None
    src1: Operand | None = None
    src2: Operand | None = None
    aux: int = 0

    def __post_init__(self) -> None:
        op = self.opcode
        if op in ALU_OPS:
            self._require(self.dst is not None and self.src1 is not None
                          and self.src2 is not None, "needs dst, src1, src2")
            self._require(self.dst.mode is not AddrMode.IMM,
                          "destination cannot be immediate")
            if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
                pass  # shift amount may be any operand
            if op is Opcode.MULQ and not 0 < self.aux < WORD_BITS:
                raise ValueError(f"MULQ shift must be in (0, {WORD_BITS}), got {self.aux}")
        elif op in UNARY_OPS:
            self._require(self.dst is not None and self.src1 is not None
                          and self.src2 is None, "needs dst, src1")
            self._require(self.dst.mode is not AddrMode.IMM,
                          "destination cannot be immediate")
        elif op is Opcode.JMP:
            self._require(self.dst is None and self.src1 is None, "takes only a target")
            self._require(self.aux >= 0, "target must be non-negative")
        elif op in BRANCH_OPS:
            self._require(self.src1 is not None, "needs a test operand")
            self._require(self.aux >= 0, "target must be non-negative")
        elif op is Opcode.SNB:
            self._require(self.dst is not None and self.src1 is not None,
                          "needs neighbour address and source")
            self._require(self.dst.mode is not AddrMode.IMM,
                          "neighbour address cannot be immediate")
            self._require(0 <= self.aux < 4, "direction code must be 0..3")
        elif op in (Opcode.NOP, Opcode.HALT):
            self._require(self.dst is None and self.src1 is None and
                          self.src2 is None, "takes no operands")
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown opcode {op}")

    def _require(self, cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"{self.opcode.value}: {msg}")

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------

    @cached_property
    def read_ports(self) -> int:
        """Total data-memory reads issued by this instruction.

        Cached: instructions are frozen, so the count never changes, and
        the execution engines consult it on hot paths (the cache write
        goes through the instance ``__dict__``, which frozen dataclasses
        permit).
        """
        reads = 0
        for src in (self.src1, self.src2):
            if src is not None:
                reads += src.reads
        if self.dst is not None and self.dst.mode is AddrMode.IND:
            reads += 1  # pointer fetch for the write address
        return reads

    @cached_property
    def cycles(self) -> int:
        """Execution latency in tile cycles (cached, see :attr:`read_ports`).

        The dual-port data memory sustains two reads per cycle, so an
        instruction needing ``r`` reads takes ``max(1, ceil(r / 2))``
        cycles.  All shipped kernels keep their inner loops at one or two
        reads per instruction, i.e. single-cycle.
        """
        return max(1, math.ceil(self.read_ports / 2))

    # ------------------------------------------------------------------
    # encoding (72-bit words)
    # ------------------------------------------------------------------

    _OPCODE_BITS = 6
    _MODE_BITS = 2
    _ADDR_BITS = 9  # 512-word memory

    def encode(self) -> int:
        """Pack into one 72-bit instruction word (cached per instruction).

        Layout (LSB first): opcode(6) | aux(12) | 3 x [mode(2)+field(16)].
        A field keeps the low 16 bits of its operand value, so the word
        is lossy for values outside ``0..0xFFFF`` (wide or negative
        immediates): ``program_fingerprint`` appends those in full, and
        the simulator executes the decoded :class:`Instruction` objects.
        """
        return self._encoded

    @cached_property
    def _encoded(self) -> int:
        word = _OPCODE_INDEX[self.opcode] & 0x3F
        word |= (self.aux & 0xFFF) << 6
        shift = 18
        for operand in (self.dst, self.src1, self.src2):
            if operand is not None:
                mode = _MODE_CODE[operand.mode]
                field = operand.value & 0xFFFF
                word |= (mode | (field << 2)) << shift
            shift += 18
        return word & ((1 << 72) - 1)

    def __str__(self) -> str:
        parts = [self.opcode.value]
        ops = [str(o) for o in (self.dst, self.src1, self.src2) if o is not None]
        if self.opcode is Opcode.JMP or self.opcode in BRANCH_OPS:
            ops.append(f"->{self.aux}")
        if self.opcode is Opcode.MULQ:
            ops.append(f"q={self.aux}")
        if self.opcode is Opcode.SNB:
            ops.append(f"dir={self.aux}")
        if ops:
            parts.append(" " + ", ".join(ops))
        return "".join(parts)


def relocate(instr: Instruction, base: int) -> Instruction:
    """Rebase an instruction's control-flow target by ``base``.

    Branch/jump targets are absolute instruction addresses; loading a
    program at a non-zero instruction-memory offset (co-residency)
    requires adding the offset to every target.  All other fields are
    position-independent (data addresses are absolute by design).
    """
    if base == 0:
        return instr
    if instr.opcode is Opcode.JMP or instr.opcode in BRANCH_OPS:
        return Instruction(
            instr.opcode,
            dst=instr.dst,
            src1=instr.src1,
            src2=instr.src2,
            aux=instr.aux + base,
        )
    return instr


def evaluate_alu(opcode: Opcode, a: int, b: int, aux: int = 0) -> int:
    """Pure ALU semantics on signed 48-bit words (wrapping).

    Exposed as a module-level function so property tests can check the ALU
    against Python integer arithmetic without running a tile.
    """
    a = wrap_word(a)
    b = wrap_word(b)
    if opcode is Opcode.ADD:
        return wrap_word(a + b)
    if opcode is Opcode.SUB:
        return wrap_word(a - b)
    if opcode is Opcode.MUL:
        return wrap_word(a * b)
    if opcode is Opcode.MULQ:
        return wrap_word((a * b + (1 << (aux - 1))) >> aux)
    if opcode is Opcode.AND:
        return wrap_word((a & ((1 << WORD_BITS) - 1)) & (b & ((1 << WORD_BITS) - 1)))
    if opcode is Opcode.OR:
        return wrap_word((a & ((1 << WORD_BITS) - 1)) | (b & ((1 << WORD_BITS) - 1)))
    if opcode is Opcode.XOR:
        return wrap_word((a & ((1 << WORD_BITS) - 1)) ^ (b & ((1 << WORD_BITS) - 1)))
    if opcode is Opcode.SHL:
        _check_shift(b)
        return wrap_word(a << b)
    if opcode is Opcode.SHR:
        _check_shift(b)
        return wrap_word((a & ((1 << WORD_BITS) - 1)) >> b)
    if opcode is Opcode.SRA:
        _check_shift(b)
        return wrap_word(a >> b)
    if opcode is Opcode.MIN:
        return min(a, b)
    if opcode is Opcode.MAX:
        return max(a, b)
    raise ExecutionError(f"{opcode} is not an ALU opcode")


def _check_shift(amount: int) -> None:
    if not 0 <= amount < WORD_BITS:
        raise ExecutionError(f"shift amount {amount} outside [0, {WORD_BITS})")
