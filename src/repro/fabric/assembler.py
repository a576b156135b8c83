"""Two-pass assembler for the tile ISA.

Kernels ship their tile code as small assembly texts; this module turns them
into :class:`Program` objects (decoded instructions + initial data image +
symbol table).  The language is deliberately tiny:

.. code-block:: text

    ; comments start with ';'
    .equ  N, 8              ; symbolic constant
    .org  0                 ; set the data allocation pointer
    .var  acc               ; allocate one data word, name it
    .var  buf, 16           ; allocate 16 consecutive words
    .word acc, 0            ; initial value(s) starting at a symbol/address
    .word buf+2, 5, 6, 7    ; symbol plus constant offset

    start:
        MOV   acc, #0
        MOV   ptr, #buf     ; '#name' immediates may reference symbols
    loop:
        ADD   acc, acc, @ptr
        ADD   ptr, ptr, #1
        SUB   cnt, cnt, #1
        BNZ   cnt, loop
        SNB.E 0, acc        ; store to neighbour dmem[0] over the east link
        HALT

Operand syntax: ``#x`` immediate (number or symbol), ``x`` direct
data-memory address (number or ``.var``/``.equ`` symbol, optional ``+k``
offset), ``@x`` register-indirect.  ``MULQ dst, a, b, q`` carries the
fixed-point shift in its fourth field.  ``LDI`` is accepted as an alias of
``MOV`` with an immediate source.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.fabric.bitstream import IMEM_BYTES_PER_WORD
from repro.fabric.isa import (
    ALU_OPS,
    BRANCH_OPS,
    UNARY_OPS,
    AddrMode,
    Instruction,
    Opcode,
    Operand,
)
from repro.fabric.links import Direction
from repro.units import DATA_MEM_WORDS, INSTR_MEM_WORDS

__all__ = ["Program", "assemble"]

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass
class Program:
    """An assembled tile program.

    Attributes
    ----------
    name:
        Human-readable identifier (shows up in traces and bitstreams).
    instructions:
        Decoded instructions; index == program counter.
    symbols:
        Name -> data-memory address for every ``.var`` (and address-valued
        ``.equ``) symbol.
    data_image:
        Initial data-memory contents (``.word`` directives), applied by the
        loader before execution.
    labels:
        Name -> instruction index for every code label.
    """

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    data_image: dict[int, int] = field(default_factory=dict)
    labels: dict[str, int] = field(default_factory=dict)
    source: str = ""

    @property
    def imem_words(self) -> int:
        """Instruction-memory words occupied (one per instruction)."""
        return len(self.instructions)

    @property
    def imem_bytes(self) -> int:
        """Bytes of instruction image pushed through the ICAP on a load."""
        return self.imem_words * IMEM_BYTES_PER_WORD

    def addr(self, symbol: str) -> int:
        """Resolve a ``.var`` symbol to its data-memory address."""
        try:
            return self.symbols[symbol]
        except KeyError:
            raise AssemblerError(f"unknown symbol {symbol!r} in program {self.name!r}") from None

    def encoded(self) -> list[int]:
        """The 72-bit encodings of all instructions (bitstream payload).

        Cached after the first call (instructions are immutable); the
        reconfiguration planner sizes bitstreams from this every epoch.
        """
        cached = self.__dict__.get("_encoded_words")
        if cached is None:
            cached = [instr.encode() for instr in self.instructions]
            self.__dict__["_encoded_words"] = cached
        return list(cached)

    def __getstate__(self) -> dict:
        """Pickling support (the compile cache's on-disk artifact store):
        drop the derived caches stashed in ``__dict__`` — the encoded
        words are cheap to rebuild and the predecoded table caches
        compiled traces that cannot be pickled at all."""
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def disassemble(self) -> str:
        """Human-readable listing with addresses and label annotations."""
        by_pc = {pc: name for name, pc in self.labels.items()}
        lines = [f"; program {self.name!r}: {self.imem_words} words"]
        for name, addr in sorted(self.symbols.items(), key=lambda kv: kv[1]):
            lines.append(f"; .var {name} @ {addr}")
        for pc, instr in enumerate(self.instructions):
            label = f"{by_pc[pc]}:" if pc in by_pc else ""
            lines.append(f"{pc:4d}  {label:<12} {instr}")
        return "\n".join(lines)

    def lint(self) -> list[str]:
        """Static checks; returns warnings (empty = clean).

        Flags out-of-range control-flow targets, unreachable
        instructions, and paths that can fall off the end of the
        program — the mistakes that turn into runaway tiles at runtime.
        """
        from repro.fabric.isa import BRANCH_OPS, Opcode

        warnings: list[str] = []
        n = len(self.instructions)
        if n == 0:
            return ["program has no instructions"]

        successors: list[list[int]] = []
        for pc, instr in enumerate(self.instructions):
            succ: list[int] = []
            if instr.opcode is Opcode.HALT:
                pass
            elif instr.opcode is Opcode.JMP:
                succ.append(instr.aux)
            elif instr.opcode in BRANCH_OPS:
                succ.extend((pc + 1, instr.aux))
            else:
                succ.append(pc + 1)
            for target in succ:
                if target >= n and not (
                    target == n and instr.opcode not in BRANCH_OPS
                    and instr.opcode is not Opcode.JMP
                ):
                    if instr.opcode is Opcode.JMP or instr.opcode in BRANCH_OPS:
                        warnings.append(
                            f"pc {pc}: control-flow target {target} is "
                            f"outside the program"
                        )
            successors.append(succ)

        # reachability from entry 0
        reachable = set()
        stack = [0]
        while stack:
            pc = stack.pop()
            if pc in reachable or pc >= n:
                continue
            reachable.add(pc)
            stack.extend(t for t in successors[pc] if t < n)
        for pc in range(n):
            if pc not in reachable:
                warnings.append(f"pc {pc}: unreachable instruction")

        # fall-off-the-end: a reachable non-control instruction at n-1
        # whose successor is n
        for pc in reachable:
            if n in successors[pc]:
                warnings.append(
                    f"pc {pc}: execution can fall off the end of the "
                    f"program (missing HALT?)"
                )
        return warnings

    def __len__(self) -> int:
        return len(self.instructions)


class _Assembler:
    """Internal two-pass assembler state."""

    def __init__(self, source: str, name: str) -> None:
        self.source = source
        self.name = name
        self.symbols: dict[str, int] = {}
        self.equs: dict[str, int] = {}
        self.labels: dict[str, int] = {}
        self.data_image: dict[int, int] = {}
        self.alloc_ptr = 0

    # -- shared helpers -------------------------------------------------

    def _strip(self, line: str) -> str:
        if ";" in line:
            line = line.split(";", 1)[0]
        return line.strip()

    def _parse_int(self, text: str, lineno: int) -> int:
        try:
            return int(text, 0)
        except ValueError:
            raise AssemblerError(f"expected integer, got {text!r}", lineno) from None

    def _resolve_value(self, text: str, lineno: int) -> int:
        """Resolve a number, symbol, or ``symbol+offset`` expression."""
        text = text.strip()
        base, offset = text, 0
        if "+" in text:
            base, off_text = text.rsplit("+", 1)
            base = base.strip()
            offset = self._parse_int(off_text.strip(), lineno)
        elif "-" in text[1:]:  # allow leading minus for plain negatives
            head, tail = text[0], text[1:]
            if "-" in tail and _NAME_RE.match(text.split("-", 1)[0].strip() or "_"):
                parts = text.rsplit("-", 1)
                if _NAME_RE.match(parts[0].strip()):
                    base = parts[0].strip()
                    offset = -self._parse_int(parts[1].strip(), lineno)
        if _NAME_RE.match(base):
            if base in self.symbols:
                return self.symbols[base] + offset
            if base in self.equs:
                return self.equs[base] + offset
            raise AssemblerError(f"unknown symbol {base!r}", lineno)
        return self._parse_int(base, lineno) + offset

    # -- pass 1: labels, directives, allocation -------------------------

    def pass1(self) -> list[tuple[int, str]]:
        """Collect labels/symbols; return (lineno, text) for instruction lines."""
        pending: list[tuple[int, str]] = []
        pc = 0
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            line = self._strip(raw)
            if not line:
                continue
            match = _LABEL_RE.match(line)
            if match:
                label, rest = match.group(1), match.group(2).strip()
                if label in self.labels:
                    raise AssemblerError(f"duplicate label {label!r}", lineno)
                self.labels[label] = pc
                if not rest:
                    continue
                line = rest
            if line.startswith("."):
                self._directive(line, lineno)
                continue
            pending.append((lineno, line))
            pc += 1
        if pc > INSTR_MEM_WORDS:
            raise AssemblerError(
                f"program {self.name!r} has {pc} instructions; "
                f"instruction memory holds {INSTR_MEM_WORDS}"
            )
        return pending

    def _directive(self, line: str, lineno: int) -> None:
        parts = line.split(None, 1)
        directive = parts[0].lower()
        args = parts[1] if len(parts) > 1 else ""
        fields = [f.strip() for f in args.split(",")] if args else []
        if directive == ".equ":
            if len(fields) != 2 or not _NAME_RE.match(fields[0]):
                raise AssemblerError(".equ needs 'name, value'", lineno)
            self.equs[fields[0]] = self._resolve_value(fields[1], lineno)
        elif directive == ".org":
            if len(fields) != 1:
                raise AssemblerError(".org needs one address", lineno)
            addr = self._resolve_value(fields[0], lineno)
            if not 0 <= addr <= DATA_MEM_WORDS:
                raise AssemblerError(f".org address {addr} out of range", lineno)
            self.alloc_ptr = addr
        elif directive == ".var":
            if not fields or not _NAME_RE.match(fields[0]):
                raise AssemblerError(".var needs a name", lineno)
            count = 1
            if len(fields) == 2:
                count = self._resolve_value(fields[1], lineno)
            elif len(fields) > 2:
                raise AssemblerError(".var takes 'name[, count]'", lineno)
            if count < 1:
                raise AssemblerError(f".var count must be >= 1, got {count}", lineno)
            name = fields[0]
            if name in self.symbols or name in self.equs:
                raise AssemblerError(f"duplicate symbol {name!r}", lineno)
            if self.alloc_ptr + count > DATA_MEM_WORDS:
                raise AssemblerError(
                    f".var {name!r} overflows data memory "
                    f"({self.alloc_ptr} + {count} > {DATA_MEM_WORDS})",
                    lineno,
                )
            self.symbols[name] = self.alloc_ptr
            self.alloc_ptr += count
        elif directive == ".word":
            if len(fields) < 2:
                raise AssemblerError(".word needs 'addr, v0[, v1 ...]'", lineno)
            base = self._resolve_value(fields[0], lineno)
            for offset, text in enumerate(fields[1:]):
                addr = base + offset
                if not 0 <= addr < DATA_MEM_WORDS:
                    raise AssemblerError(f".word address {addr} out of range", lineno)
                self.data_image[addr] = self._resolve_value(text, lineno)
        else:
            raise AssemblerError(f"unknown directive {directive!r}", lineno)

    # -- pass 2: instructions -------------------------------------------

    def _operand(self, text: str, lineno: int) -> Operand:
        text = text.strip()
        if not text:
            raise AssemblerError("empty operand", lineno)
        if text.startswith("#"):
            return Operand(AddrMode.IMM, self._resolve_value(text[1:], lineno))
        if text.startswith("@"):
            addr = self._resolve_value(text[1:], lineno)
            self._check_addr(addr, lineno)
            return Operand(AddrMode.IND, addr)
        addr = self._resolve_value(text, lineno)
        self._check_addr(addr, lineno)
        return Operand(AddrMode.DIR, addr)

    def _check_addr(self, addr: int, lineno: int) -> None:
        if not 0 <= addr < DATA_MEM_WORDS:
            raise AssemblerError(f"address {addr} outside data memory", lineno)

    def _target(self, text: str, lineno: int) -> int:
        text = text.strip()
        if text in self.labels:
            return self.labels[text]
        value = self._resolve_value(text, lineno)
        if value < 0:
            raise AssemblerError(f"branch target {value} is negative", lineno)
        return value

    def pass2(self, pending: list[tuple[int, str]]) -> list[Instruction]:
        instructions = []
        for lineno, line in pending:
            instructions.append(self._instruction(line, lineno))
        return instructions

    def _instruction(self, line: str, lineno: int) -> Instruction:
        parts = line.split(None, 1)
        mnemonic = parts[0].upper()
        args = [a for a in (parts[1].split(",") if len(parts) > 1 else []) if a.strip()]

        snb_dir: Direction | None = None
        if mnemonic.startswith("SNB."):
            snb_dir = Direction.from_name(mnemonic[4:])
            mnemonic = "SNB"
        if mnemonic == "LDI":
            mnemonic = "MOV"

        try:
            opcode = Opcode(mnemonic)
        except ValueError:
            raise AssemblerError(f"unknown mnemonic {parts[0]!r}", lineno) from None

        try:
            return self._build(opcode, args, snb_dir, lineno)
        except (ValueError, AssemblerError) as exc:
            if isinstance(exc, AssemblerError):
                raise
            raise AssemblerError(str(exc), lineno) from None

    def _build(
        self,
        opcode: Opcode,
        args: list[str],
        snb_dir: Direction | None,
        lineno: int,
    ) -> Instruction:
        if opcode in (Opcode.NOP, Opcode.HALT):
            self._arity(opcode, args, 0, lineno)
            return Instruction(opcode)
        if opcode is Opcode.JMP:
            self._arity(opcode, args, 1, lineno)
            return Instruction(opcode, aux=self._target(args[0], lineno))
        if opcode in BRANCH_OPS:
            self._arity(opcode, args, 2, lineno)
            return Instruction(
                opcode,
                src1=self._operand(args[0], lineno),
                aux=self._target(args[1], lineno),
            )
        if opcode is Opcode.SNB:
            if snb_dir is None:
                raise AssemblerError("SNB needs a direction suffix (SNB.N/E/S/W)", lineno)
            self._arity(opcode, args, 2, lineno)
            return Instruction(
                opcode,
                dst=self._operand(args[0], lineno),
                src1=self._operand(args[1], lineno),
                aux=snb_dir.code,
            )
        if opcode in UNARY_OPS:
            self._arity(opcode, args, 2, lineno)
            return Instruction(
                opcode,
                dst=self._operand(args[0], lineno),
                src1=self._operand(args[1], lineno),
            )
        if opcode is Opcode.MULQ:
            self._arity(opcode, args, 4, lineno)
            return Instruction(
                opcode,
                dst=self._operand(args[0], lineno),
                src1=self._operand(args[1], lineno),
                src2=self._operand(args[2], lineno),
                aux=self._resolve_value(args[3], lineno),
            )
        if opcode in ALU_OPS:
            self._arity(opcode, args, 3, lineno)
            return Instruction(
                opcode,
                dst=self._operand(args[0], lineno),
                src1=self._operand(args[1], lineno),
                src2=self._operand(args[2], lineno),
            )
        raise AssemblerError(f"unhandled opcode {opcode}", lineno)  # pragma: no cover

    def _arity(self, opcode: Opcode, args: list[str], expected: int, lineno: int) -> None:
        if len(args) != expected:
            raise AssemblerError(
                f"{opcode.value} expects {expected} operand(s), got {len(args)}",
                lineno,
            )


def assemble(source: str, name: str = "program") -> Program:
    """Assemble source text into a :class:`Program`.

    Raises :class:`~repro.errors.AssemblerError` (with a line number) on any
    syntax or range error.
    """
    asm = _Assembler(source, name)
    pending = asm.pass1()
    instructions = asm.pass2(pending)
    return Program(
        name=name,
        instructions=instructions,
        symbols=dict(asm.symbols),
        data_image=dict(asm.data_image),
        labels=dict(asm.labels),
        source=source,
    )
