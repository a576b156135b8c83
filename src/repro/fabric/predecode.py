"""The fast-path execution engine: predecoding, footprint proofs, lowering.

The reference interpreter (:meth:`repro.fabric.tile.Tile.step`) re-derives
everything per instruction: it fetches through the bounds-checked
instruction memory, dispatches on :class:`~repro.fabric.isa.Opcode` enum
identity, evaluates operands through dataclass attribute walks and, worst
of all, recomputes the ``Instruction.cycles`` timing property on every
step.  That is the right shape for an oracle and exactly the wrong shape
for throughput.

This module adds the fast tier of the two-tier engine:

* :func:`predecode` translates a :class:`~repro.fabric.assembler.Program`
  **once** into a :class:`DecodedProgram`: a flat table of specialized,
  code-generated Python closures (one per instruction, with addressing
  modes, constants and wrapping arithmetic baked in) plus pre-computed
  per-instruction cycle/read/write counts.  The result is cached on the
  ``Program`` object, and is position-independent (branch targets are kept
  program-local), so one decode serves every tile and load base.
* :func:`footprint_for` *proves*, per ``(program, entry pc)``, that control
  flow, addresses and shift amounts never depend on payload data, and in
  the same walk **lowers** the pinned trace: the whole control slice is
  constant-folded and every data-plane instruction becomes one Python
  statement with literal addresses (the repeated body of a long counted
  loop is compiled once, over a table of its addresses).
  :func:`run_lowered` executes that code for any run whose live memory
  matches the proof's fingerprint, whose trace fits the cycle budget and
  whose neighbour stores go through the active link — no dispatch, no
  loop counters, no pointer arithmetic, no branches.
* :func:`run_block` executes a decoded program in a tight loop until a
  *communication boundary*: a ``HALT``, an ``SNB`` neighbour store (when
  the caller asked to stop there), an exhausted cycle budget, or the pc
  leaving the program region.  It is the path for every run the lowering
  does not cover: unproven programs, phases the concurrent simulator must
  interleave store by store, budget edges and faults (it stops at the
  exact pc with exactly flushed partial statistics).

Every path here is *observationally identical* to the reference
interpreter: same memory images, same :class:`~repro.fabric.tile.TileStats`,
same access counters, same exceptions at the same instruction.  The
differential tests in ``tests/fabric/test_engine_equivalence.py`` and
``tests/fabric/test_lowering.py`` enforce this.  Set
``REPRO_REFERENCE_SIM=1`` (or pass ``engine="reference"`` to the run APIs)
to force the oracle path when debugging.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable

from repro.errors import ExecutionError, MemoryError_
from repro.fabric.fixedpoint import wrap_word
from repro.fabric.isa import (
    ALU_OPS,
    BRANCH_OPS,
    UNARY_OPS,
    AddrMode,
    Instruction,
    Opcode,
    evaluate_alu,
)
from repro.fabric.links import Direction
from repro.units import DATA_MEM_WORDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.assembler import Program
    from repro.fabric.tile import Tile

__all__ = [
    "DecodedProgram",
    "EngineCounters",
    "COUNTERS",
    "predecode",
    "run_block",
    "run_lowered",
    "reference_forced",
    "resolve_engine",
    "VALID_ENGINES",
    "BLOCK_HALT",
    "BLOCK_COMM",
    "BLOCK_BUDGET",
    "BLOCK_EXIT",
    "BLOCK_LIMIT",
]

# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------

#: Environment variable forcing the reference interpreter everywhere.
REFERENCE_ENV = "REPRO_REFERENCE_SIM"

_TRUTHY = ("1", "true", "yes", "on")

#: The engine names :func:`resolve_engine` accepts.
VALID_ENGINES = ("fast", "reference")


def reference_forced() -> bool:
    """True when ``REPRO_REFERENCE_SIM`` forces the oracle interpreter."""
    return os.environ.get(REFERENCE_ENV, "").strip().lower() in _TRUTHY


def resolve_engine(engine: str | None) -> str:
    """Normalize an ``engine`` keyword against the environment override.

    ``None`` means *auto*: fast unless ``REPRO_REFERENCE_SIM`` forces the
    oracle.  Explicit ``"fast"`` / ``"reference"`` keywords always win.
    Unknown names raise a :class:`ValueError` naming the valid engines
    instead of silently falling back.
    """
    if engine is None:
        return "reference" if reference_forced() else "fast"
    if engine not in VALID_ENGINES:
        valid = ", ".join(repr(name) for name in VALID_ENGINES)
        raise ValueError(
            f"unknown engine {engine!r}: valid engines are {valid} "
            f"(or None for auto via {REFERENCE_ENV})"
        )
    return engine


@dataclass
class EngineCounters:
    """What the fast engine did in this process (read by tests and CI).

    A *tile run* is one entry-to-``HALT`` execution started on the fast
    engine; it is either ``lowered`` (straight-line trace) or a
    ``fallback`` (:func:`run_block` / the oracle: unproven footprint,
    interleaved phase, budget edge, missing link, corrupted imem).
    A *plan* counter counts whole artifact jobs, not tile runs.
    """

    #: Traces compiled (one per proven ``(program, entry pc)`` that ran).
    traces_lowered: int = 0
    #: Source statements compiled for them (re-rolled loops count once).
    statements: int = 0
    lowered_runs: int = 0
    fallback_runs: int = 0
    #: Cumulative seconds in the proof/lowering walk and ``compile()``.
    lowering_s: float = 0.0
    #: Artifact jobs that replayed their lowered plan, and jobs whose
    #: recorded plan failed its guard (``RuntimeManager._begin_job``).
    plan_runs: int = 0
    plan_fallbacks: int = 0


COUNTERS = EngineCounters()


# ---------------------------------------------------------------------------
# block boundaries
# ---------------------------------------------------------------------------

#: The tile executed a ``HALT``.
BLOCK_HALT = 0
#: The tile stopped *before* an ``SNB`` (communication boundary).
BLOCK_COMM = 1
#: The cycle budget was exceeded (checked after each instruction, matching
#: the reference ``consumed > max_cycles`` semantics).
BLOCK_BUDGET = 2
#: The pc left the decoded program's region (co-residency fall-through);
#: callers resume with the reference interpreter for exact semantics.
BLOCK_EXIT = 3
#: The caller's ``max_instrs`` limit was reached (single-stepping tiles
#: that other tiles store into keeps global time order exact).
BLOCK_LIMIT = 4

# instruction kinds in the decoded table
_K_PLAIN = 0
_K_BRANCH = 1
_K_JMP = 2
_K_HALT = 3
_K_SNB = 4
_K_NOP = 5

_N = DATA_MEM_WORDS
_MASK = (1 << 48) - 1
_SIGN = 1 << 47

class _FusedFault(Exception):
    """Internal: an instruction inside a fused superblock raised.

    Carries the number of instructions the block *completed* before the
    fault plus the original exception, so :func:`run_block` can flush
    partial statistics exactly as the per-instruction path would have.
    """

    def __init__(self, index: int, exc: BaseException) -> None:
        self.index = index
        self.exc = exc


#: Directions indexed by their ``SNB`` aux code.
_DIRS = tuple(Direction)

#: Shared globals for the generated closures and lowered traces.
_GEN_GLOBALS = {
    "ExecutionError": ExecutionError,
    "MemoryError_": MemoryError_,
    "_FusedFault": _FusedFault,
    "_DIRS": _DIRS,
}


@dataclass(eq=False)  # identity semantics: decoded tables key the phase-analysis memo
class DecodedProgram:
    """A program predecoded into flat, position-independent tables.

    Branch/jump targets are *program-local* (the relocation offset is
    re-applied by the driver through the load base), so one decode is
    shared by every tile and every co-residency base — a strictly better
    cache key than ``(program, base)``.
    """

    name: str
    #: Original decoded instructions (for error messages / introspection).
    instrs: list[Instruction]
    #: Per-pc kind code (plain / branch / jmp / halt / snb / nop).
    kinds: list[int]
    #: Per-pc specialized closure (None for JMP/HALT/NOP).
    fns: list[Callable | None]
    #: Per-pc control-flow target (branches and jumps; 0 elsewhere).
    targets: list[int]
    #: Per-pc cycle cost (the dual-port timing model, precomputed).
    cycles: list[int]
    #: Per-pc data-memory read-port count (statically known per instruction).
    reads: list[int]
    #: Per-pc local data-memory writes (0 or 1; SNB writes remotely).
    writes: list[int]
    #: Directions this program can store toward (``SNB`` aux fields).
    snb_dirs: frozenset[Direction] = field(default_factory=frozenset)
    #: Per-pc fused superblock (or None): ``(fn, count, cycles, reads,
    #: writes, cycle_prefix, read_prefix, write_prefix, branch_target)``
    #: covering the maximal straightline run of plain instructions
    #: starting at that pc, optionally ending in a conditional branch
    #: (``branch_target >= 0``; the function then returns the branch
    #: outcome).  One Python call instead of ``count`` — the prefix
    #: tuples restore exact per-instruction statistics if an instruction
    #: inside the block faults.
    blocks: list[tuple | None] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.instrs)

    @property
    def has_snb(self) -> bool:
        return bool(self.snb_dirs)


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------


def _wrap_expr(expr: str) -> str:
    """48-bit two's-complement wrap of an arbitrary int expression."""
    return f"((({expr}) + {_SIGN}) & {_MASK}) - {_SIGN}"


def _read_code(operand, temp: str) -> tuple[list[str], str]:
    """(setup statements, value expression) for a source operand."""
    if operand.mode is AddrMode.IMM:
        return [], repr(operand.value)
    if operand.mode is AddrMode.DIR:
        return [], f"w[{operand.value}]"
    # register-indirect: pointer fetch with the same bounds check (and the
    # same error message) the reference data memory applies
    stmts = [
        f"{temp} = w[{operand.value}]",
        f"if {temp} < 0 or {temp} >= {_N}: "
        f"raise MemoryError_('address %d outside data memory [0, {_N})' % {temp})",
    ]
    return stmts, f"w[{temp}]"


def _write_addr_code(operand, temp: str, *, check: bool = True) -> tuple[list[str], str]:
    """(setup statements, address expression) for a destination operand."""
    if operand.mode is AddrMode.DIR:
        return [], repr(operand.value)
    stmts = [f"{temp} = w[{operand.value}]"]
    if check:
        stmts.append(
            f"if {temp} < 0 or {temp} >= {_N}: "
            f"raise MemoryError_('address %d outside data memory [0, {_N})' % {temp})"
        )
    return stmts, temp


_SHIFT_OPS = (Opcode.SHL, Opcode.SHR, Opcode.SRA)


def _alu_expr(op: Opcode, aux: int, x: str, y: str) -> str:
    """Expression for ALU ``op`` over the operand expressions ``x``, ``y``.

    Mirrors :func:`repro.fabric.isa.evaluate_alu` exactly, including the
    wrap-to-48-bit semantics; the shift range check is the caller's.
    """
    if op is Opcode.ADD:
        return _wrap_expr(f"{x} + {y}")
    if op is Opcode.SUB:
        return _wrap_expr(f"{x} - {y}")
    if op is Opcode.MUL:
        return _wrap_expr(f"{x} * {y}")
    if op is Opcode.MULQ:
        return _wrap_expr(f"({x} * {y} + {1 << (aux - 1)}) >> {aux}")
    if op is Opcode.AND:
        return _wrap_expr(f"{x} & {y}")
    if op is Opcode.OR:
        return _wrap_expr(f"{x} | {y}")
    if op is Opcode.XOR:
        return _wrap_expr(f"{x} ^ {y}")
    if op is Opcode.SHL:
        return _wrap_expr(f"{x} << {y}")
    if op is Opcode.SHR:
        return _wrap_expr(f"({x} & {_MASK}) >> {y}")
    if op is Opcode.SRA:
        return f"{x} >> {y}"  # result always in range
    if op is Opcode.MIN:
        return f"{x} if {x} < {y} else {y}"
    if op is Opcode.MAX:
        return f"{x} if {x} > {y} else {y}"
    raise AssertionError(f"not an ALU opcode: {op}")  # pragma: no cover


def _unary_expr(op: Opcode, x: str) -> str:
    """Expression for a unary ``op`` (MOV/ABS/NEG/NOT) over ``x``."""
    if op is Opcode.MOV:
        return x
    if op is Opcode.ABS:
        return _wrap_expr(f"abs({x})")
    if op is Opcode.NEG:
        return _wrap_expr(f"-{x}")
    return _wrap_expr(f"~{x}")


def _alu_body(op: Opcode, aux: int, *, static_shift: bool = False) -> list[str]:
    """Statements computing ``r`` from operand temps ``x`` and ``y``.

    ``static_shift`` elides the shift range check (same message as the
    reference) when the decode already proved the (immediate) amount in
    range.
    """
    body = [f"r = {_alu_expr(op, aux, 'x', 'y')}"]
    if op in _SHIFT_OPS and not static_shift:
        body.insert(
            0,
            "if y < 0 or y >= 48: "
            "raise ExecutionError('shift amount %d outside [0, 48)' % y)",
        )
    return body


_BRANCH_EXPR = {
    Opcode.BZ: "x == 0",
    Opcode.BNZ: "x != 0",
    Opcode.BNEG: "x < 0",
    Opcode.BPOS: "x > 0",
}


def _plain_lines(instr: Instruction) -> tuple[list[str], bool]:
    """(body statements, can_raise) for a PLAIN (ALU / unary) instruction.

    ``can_raise`` is True when the generated code contains any runtime
    check that may fault (indirect addressing bounds, dynamic shift
    amounts); fused superblocks use it to place fault-progress markers.
    Evaluation order of operand side effects follows the reference
    interpreter exactly (sources before the destination for ALU ops, the
    destination first for unary moves).
    """
    op = instr.opcode
    body: list[str] = []
    can_raise = any(
        operand is not None and operand.mode is AddrMode.IND
        for operand in (instr.src1, instr.src2, instr.dst)
    )
    if op in ALU_OPS:
        s1, e1 = _read_code(instr.src1, "p1")
        s2, e2 = _read_code(instr.src2, "p2")
        body += s1 + [f"x = {e1}"] + s2 + [f"y = {e2}"]
        static_shift = (
            op in _SHIFT_OPS
            and instr.src2.mode is AddrMode.IMM
            and 0 <= instr.src2.value < 48
        )
        if op in _SHIFT_OPS and not static_shift:
            can_raise = True
        body += _alu_body(op, instr.aux, static_shift=static_shift)
        sd, ed = _write_addr_code(instr.dst, "q")
        body += sd + [f"w[{ed}] = r"]
    elif op in UNARY_OPS:
        sd, ed = _write_addr_code(instr.dst, "q")
        s1, e1 = _read_code(instr.src1, "p1")
        body += sd + s1 + [f"x = {e1}", f"r = {_unary_expr(op, 'x')}"]
        body += [f"w[{ed}] = r"]
    else:  # pragma: no cover - callers dispatch on kind first
        raise AssertionError(f"not a plain opcode: {op}")
    return body, can_raise


def _gen_instruction(i: int, instr: Instruction) -> list[str] | None:
    """Source lines of the specialized closure for one instruction.

    Returns ``None`` for instructions that need no closure (NOP, HALT,
    JMP); evaluation order of operand side effects follows the reference
    interpreter exactly (sources before the destination for ALU ops, the
    destination first for unary moves and SNB).
    """
    op = instr.opcode
    body: list[str] = []
    if op in ALU_OPS or op in UNARY_OPS:
        body, _ = _plain_lines(instr)
    elif op in BRANCH_OPS:
        s1, e1 = _read_code(instr.src1, "p1")
        body += s1 + [f"x = {e1}", f"return {_BRANCH_EXPR[op]}"]
    elif op is Opcode.SNB:
        # the neighbour address is *not* bounds-checked locally — the
        # neighbour's data memory performs the check on write, exactly
        # like the reference ``_write_addr`` / resolver pair
        sd, ed = _write_addr_code(instr.dst, "q", check=False)
        s1, e1 = _read_code(instr.src1, "p1")
        body += sd + [f"naddr = {ed}"] + s1 + [f"x = {e1}"]
        body += [f"res(_d, naddr, x)"]
        header = f"def _f{i}(w, res, _d=_DIRS[{instr.aux}]):"
        return [header] + [f"    {line}" for line in body]
    else:  # NOP / HALT / JMP need no closure
        return None
    return [f"def _f{i}(w):"] + [f"    {line}" for line in body]


def predecode(program: "Program") -> DecodedProgram:
    """Translate ``program`` into its fast-path tables (cached).

    The decode happens at most once per :class:`Program` instance; the
    result is stored on the program object itself so its lifetime tracks
    the program's.
    """
    cached = program.__dict__.get("_predecoded")
    if cached is not None:
        return cached

    instrs = list(program.instructions)
    kinds: list[int] = []
    targets: list[int] = []
    cycles: list[int] = []
    reads: list[int] = []
    writes: list[int] = []
    snb_dirs: set[Direction] = set()
    source_lines: list[str] = []
    fn_index: list[bool] = []

    for i, instr in enumerate(instrs):
        op = instr.opcode
        if op is Opcode.NOP:
            kinds.append(_K_NOP)
        elif op is Opcode.HALT:
            kinds.append(_K_HALT)
        elif op is Opcode.JMP:
            kinds.append(_K_JMP)
        elif op in BRANCH_OPS:
            kinds.append(_K_BRANCH)
        elif op is Opcode.SNB:
            kinds.append(_K_SNB)
            snb_dirs.add(Direction.from_code(instr.aux))
        else:
            kinds.append(_K_PLAIN)
        targets.append(instr.aux if (op is Opcode.JMP or op in BRANCH_OPS) else 0)
        cycles.append(instr.cycles)
        reads.append(instr.read_ports)
        writes.append(1 if (op in ALU_OPS or op in UNARY_OPS) else 0)
        gen = _gen_instruction(i, instr)
        if gen is None:
            fn_index.append(False)
        else:
            fn_index.append(True)
            source_lines.extend(gen)

    # --- fused superblocks: one generated function per maximal run of
    # plain instructions (not crossing any branch/jump target) -----------
    n = len(instrs)
    leaders = {
        targets[i]
        for i in range(n)
        if kinds[i] in (_K_BRANCH, _K_JMP)
    }
    block_meta: list[tuple[int, int, int, tuple, tuple, tuple, int]] = []
    i = 0
    while i < n:
        if kinds[i] != _K_PLAIN:
            i += 1
            continue
        j = i + 1
        while j < n and kinds[j] == _K_PLAIN and j not in leaders:
            j += 1
        # A trailing conditional branch folds into the block (the fused
        # function then returns the branch outcome), so a whole loop body
        # costs one Python call per iteration.
        tail_branch = j < n and kinds[j] == _K_BRANCH
        plain_count = j - i
        count = plain_count + (1 if tail_branch else 0)
        if count >= 2:
            lines = [f"def _b{i}(w):"]
            bodies = [_plain_lines(instrs[k]) for k in range(i, j)]
            if tail_branch:
                instr = instrs[j]
                s1, e1 = _read_code(instr.src1, "p1")
                bodies.append(
                    (
                        s1 + [f"x = {e1}", f"return {_BRANCH_EXPR[instr.opcode]}"],
                        instr.src1.mode is AddrMode.IND,
                    )
                )
            fallible = any(cr for _, cr in bodies)
            indent = "    "
            if fallible:
                lines.append("    _i = 0")
                lines.append("    try:")
                indent = "        "
            for k, (body, can_raise) in enumerate(bodies):
                if fallible and can_raise and k > 0:
                    lines.append(f"{indent}_i = {k}")
                lines.extend(f"{indent}{stmt}" for stmt in body)
            if fallible:
                lines.append("    except BaseException as e:")
                lines.append("        raise _FusedFault(_i, e) from None")
            source_lines.extend(lines)
            cyc_prefix = [0]
            read_prefix = [0]
            write_prefix = [0]
            for k in range(i, i + count):
                cyc_prefix.append(cyc_prefix[-1] + cycles[k])
                read_prefix.append(read_prefix[-1] + reads[k])
                write_prefix.append(write_prefix[-1] + (1 if k < j else 0))
            block_meta.append(
                (
                    i,
                    count,
                    plain_count,
                    tuple(cyc_prefix),
                    tuple(read_prefix),
                    tuple(write_prefix),
                    targets[j] if tail_branch else -1,
                )
            )
        i = j

    namespace: dict[str, object] = {}
    if source_lines:
        code = compile("\n".join(source_lines), f"<predecode:{program.name}>", "exec")
        exec(code, _GEN_GLOBALS, namespace)
    fns: list[Callable | None] = [
        namespace[f"_f{i}"] if present else None  # type: ignore[misc]
        for i, present in enumerate(fn_index)
    ]
    blocks: list[tuple | None] = [None] * n
    for start, count, plain_count, cyc_prefix, read_prefix, write_prefix, btarget in block_meta:
        blocks[start] = (
            namespace[f"_b{start}"],
            count,
            cyc_prefix[-1],
            read_prefix[-1],
            plain_count,
            cyc_prefix,
            read_prefix,
            write_prefix,
            btarget,
        )

    decoded = DecodedProgram(
        name=program.name,
        instrs=instrs,
        kinds=kinds,
        fns=fns,
        targets=targets,
        cycles=cycles,
        reads=reads,
        writes=writes,
        snb_dirs=frozenset(snb_dirs),
        blocks=blocks,
    )
    program.__dict__["_predecoded"] = decoded
    return decoded


def decode_for_tile(tile: "Tile") -> tuple[DecodedProgram, int] | None:
    """(decoded program, base) for a tile, or None when ineligible.

    Eligibility mirrors what the generated closures assume: the standard
    512-word data memory, a resident selected program, and a pc inside
    its image.  Ineligible tiles simply take the reference interpreter.
    """
    program = tile.program
    if program is None or tile.dmem.size != DATA_MEM_WORDS:
        return None
    if tile.imem.has_corruption:
        # An SEU-corrupted instruction word must fault when (and only
        # when) the pc actually reaches it; the decoded closures bypass
        # the instruction memory, so fall back to the reference
        # interpreter, whose fetch path raises FaultError on the word.
        return None
    base = tile.resident_base(program)
    if base is None:
        return None
    local = tile.pc - base
    if not 0 <= local < len(program.instructions):
        return None
    return predecode(program), base


# ---------------------------------------------------------------------------
# the block driver
# ---------------------------------------------------------------------------


def run_block(
    tile: "Tile",
    dec: DecodedProgram,
    base: int,
    budget: int,
    *,
    stop_at_comm: bool = False,
    exec_comm_first: bool = True,
    max_instrs: int | None = None,
) -> tuple[int, int]:
    """Execute decoded instructions in a tight loop; returns
    ``(boundary, cycles_consumed)``.

    * ``budget`` — remaining cycle budget; the check is applied **after
      each instruction** with the reference ``consumed > budget``
      semantics (a run consuming exactly the budget is legal; the
      instruction that crosses it trips :data:`BLOCK_BUDGET`).
    * ``stop_at_comm`` — stop *before* executing an ``SNB`` so the caller
      can sequence the store as a global heap event.  An ``SNB`` sitting
      at the entry pc is executed when ``exec_comm_first`` (the caller
      scheduled this event at exactly that store's start time).
    * ``max_instrs`` — stop after that many instructions
      (:data:`BLOCK_LIMIT`); the concurrent simulator single-steps tiles
      that other tiles can store into.

    The tile's pc, halted flag, statistics and data-memory access
    counters are updated before returning, also when an exception
    propagates (partial progress is flushed exactly as the reference
    interpreter would leave it).
    """
    dmem = tile.dmem
    w = dmem._words
    kinds = dec.kinds
    fns = dec.fns
    targets = dec.targets
    cyc_arr = dec.cycles
    rd_arr = dec.reads
    blocks = dec.blocks
    n = len(kinds)

    limit = -1 if max_instrs is None else max_instrs
    resolver = tile.neighbour_resolver
    pc = tile.pc - base
    cyc = 0
    instrs = 0
    branches = 0
    reads = 0
    writes = 0
    nstores = 0
    halted = False
    boundary = BLOCK_EXIT
    try:
        while 0 <= pc < n:
            blk = blocks[pc]
            if blk is not None and limit < 0:
                (bfn, bcount, bcyc, brd, bwrites,
                 cyc_prefix, read_prefix, write_prefix, btarget) = blk
                if cyc + bcyc <= budget:
                    # The whole block fits the budget, so the reference's
                    # after-each-instruction check cannot trip inside it;
                    # one Python call covers the straightline run (plus,
                    # when btarget >= 0, the trailing conditional branch).
                    try:
                        taken = bfn(w)
                    except _FusedFault as fault:
                        done = fault.index
                        cyc += cyc_prefix[done]
                        instrs += done
                        reads += read_prefix[done]
                        writes += write_prefix[done]
                        pc += done
                        exc = fault.exc
                        if isinstance(exc, ExecutionError):
                            raise ExecutionError(
                                f"{tile!r} pc={base + pc} "
                                f"{dec.instrs[pc]}: {exc}"
                            ) from None
                        raise exc from None
                    cyc += bcyc
                    instrs += bcount
                    reads += brd
                    writes += bwrites
                    if btarget >= 0 and taken:
                        branches += 1
                        pc = btarget
                    else:
                        pc += bcount
                    continue
            k = kinds[pc]
            if k == 0:  # ALU / MOV / ABS / NEG / NOT
                try:
                    fns[pc](w)
                except ExecutionError as exc:
                    raise ExecutionError(
                        f"{tile!r} pc={base + pc} {dec.instrs[pc]}: {exc}"
                    ) from None
                cyc += cyc_arr[pc]
                instrs += 1
                reads += rd_arr[pc]
                writes += 1
                pc += 1
            elif k == 1:  # conditional branch
                if fns[pc](w):
                    branches += 1
                    npc = targets[pc]
                else:
                    npc = pc + 1
                cyc += cyc_arr[pc]
                instrs += 1
                reads += rd_arr[pc]
                pc = npc
            elif k == 2:  # JMP
                cyc += cyc_arr[pc]
                instrs += 1
                pc = targets[pc]
            elif k == 5:  # NOP
                cyc += cyc_arr[pc]
                instrs += 1
                pc += 1
            elif k == 3:  # HALT
                cyc += cyc_arr[pc]
                instrs += 1
                halted = True
                pc += 1
                boundary = BLOCK_BUDGET if cyc > budget else BLOCK_HALT
                break
            else:  # SNB
                if stop_at_comm and not (exec_comm_first and instrs == 0):
                    boundary = BLOCK_COMM
                    break
                if resolver is None:
                    raise ExecutionError(
                        f"{tile!r}: SNB outside a mesh (no neighbour resolver)"
                    )
                # the operand reads precede the store: a store the link
                # (or the neighbour's bounds check) refuses has made them
                reads += rd_arr[pc]
                fns[pc](w, resolver)
                cyc += cyc_arr[pc]
                instrs += 1
                nstores += 1
                pc += 1
            if cyc > budget:
                boundary = BLOCK_BUDGET
                break
            if instrs == limit:
                boundary = BLOCK_LIMIT
                break
    finally:
        tile.pc = base + pc
        if halted:
            tile.halted = True
        stats = tile.stats
        stats.instructions += instrs
        stats.cycles += cyc
        stats.branches_taken += branches
        stats.neighbour_stores += nstores
        if halted:
            stats.halts += 1
        dmem.reads += reads
        dmem.writes += writes
    return boundary, cyc


# ---------------------------------------------------------------------------
# footprint profiling and trace lowering
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Footprint:
    """One entry-to-``HALT`` run, proven data-independent and lowered.

    Produced by :func:`footprint_for`'s one-time taint-tracking profile.
    The *addresses* a shipped kernel program touches are functions of its
    control state only (loop counters and pointers initialised from
    immediates or from the ``.var`` data image), never of the payload
    data flowing through — the profiler proves this per program by
    tainting every unfingerprinted data read and bailing out if a taint
    ever reaches a branch test, a pointer fetch or a shift amount.

    When the proof succeeds, ``fingerprint`` pins the few control words
    the run consumed before writing them (usually none); any later run
    whose memory matches the fingerprint is guaranteed — by determinism
    of the untainted control slice — to execute the very same trace: it
    touches exactly ``local`` at home, stores exactly to
    ``remote[direction]`` next door, and retires exactly ``instructions``
    in ``cycles``.  The concurrent simulator uses that to prove whole
    exchange phases conflict-free, and :func:`run_lowered` uses it to
    replace the run by ``statements``: the same walk constant-folds every
    untainted instruction (its result is identical in every matching
    run) and emits one Python statement per tainted one.
    """

    #: Control words read before written: ``((addr, value), ...)``.
    fingerprint: tuple[tuple[int, int], ...]
    #: Every local data-memory address the run reads or writes.
    local: frozenset[int]
    #: Direction code -> neighbour addresses stored via ``SNB``.
    remote: dict[int, frozenset[int]]
    #: Total cycles of the run.
    cycles: int
    #: Program-local pcs that ever read or produced *tainted* (payload)
    #: data during the profiled run.  Everything outside this set is pure
    #: control: given a matching fingerprint its operands and results are
    #: identical in every run, which is what lets the vector-batched tier
    #: (:mod:`repro.fabric.batch`) execute those instructions once on
    #: lane 0 and broadcast, vectorizing only the data-plane pcs.
    vector_pcs: frozenset[int] = frozenset()
    #: The lowered trace over ``w`` (own words) and ``n`` (the words of
    #: the neighbour behind the link), one ``(template, args)`` per
    #: statement — ``template.format(*args)`` is the Python source:
    #: data-plane instructions in program order, every ``SNB`` as a
    #: direct store, then the final values of the control words the run
    #: rewrote.  Dropped once compiled into ``chunks``.
    statements: tuple[tuple[str, tuple[int, ...]], ...] = ()
    #: Exact statistics of the run (what the interpreter would accrue).
    instructions: int = 0
    branches: int = 0
    reads: int = 0
    writes: int = 0
    neighbour_stores: int = 0
    #: Program-local pc after the ``HALT``.
    final_pc: int = 0
    #: ``statements`` compiled by :func:`_compile_trace` at the first run.
    chunks: tuple[Callable, ...] | None = None

    @cached_property
    def direction(self) -> Direction | None:
        """The one direction the run stores toward (``None``: none, or
        several — a lowered trace has one neighbour memory ``n``)."""
        if len(self.remote) != 1:
            return None
        (code,) = self.remote
        return _DIRS[code]


class _Bail(Exception):
    """Internal: the footprint is data-dependent (or too hairy to prove)."""


#: Instruction cap for one profiling run; programs running longer than
#: this are simply treated as unprovable (conservative scheduling).
_PROFILE_MAX_INSTRS = 1_000_000

#: Statements per generated function.  One function per trace would be
#: simplest, but CPython's compiler keeps arena in proportion to the
#: largest function it has compiled (a 600-statement trace left 5 MB in
#: every serving process, a 9 600-statement one 100 MB); bounded chunks
#: called in sequence cost no speed and no memory.
_CHUNK_STATEMENTS = 48


def _lit(value: int) -> str:
    """Source literal for a folded word (parenthesised when negative)."""
    return repr(value) if value >= 0 else f"({value})"


def _slot(index: int, taint: bool) -> str:
    """Template text of operand ``index``: a memory word, or a literal."""
    return f"w[{{{index}}}]" if taint else f"{{{index}}}"


@lru_cache(maxsize=None)
def _alu_template(op: Opcode, aux: int, taint1: bool, taint2: bool) -> str:
    return "w[{0}] = " + _alu_expr(op, aux, _slot(1, taint1), _slot(2, taint2))


@lru_cache(maxsize=None)
def _unary_template(op: Opcode) -> str:
    return "w[{0}] = " + _unary_expr(op, _slot(1, True))


#: Neighbour-store templates, indexed by the taint of the stored value.
_SNB_TEMPLATES = ("n[{0}] = " + _slot(1, False), "n[{0}] = " + _slot(1, True))


def _profile_footprint(
    dec: DecodedProgram, entry: int, words: list[int]
) -> Footprint | None:
    """Interpret one run on a memory *snapshot*, tracking address taint.

    Returns ``None`` when the footprint cannot be proven data-independent
    (tainted control flow, runaway loop, any execution error, or a pc
    falling out of the program region) — callers then schedule the tile
    conservatively and run it per instruction, which is always sound.
    """
    w = list(words)
    size = len(w)
    instrs = dec.instrs
    targets = dec.targets
    cyc_arr = dec.cycles
    rd_arr = dec.reads
    wr_arr = dec.writes
    n = dec.n
    written: dict[int, bool] = {}  # addr -> taint of current value
    fingerprint: dict[int, int] = {}
    local: set[int] = set()
    remote: dict[int, set[int]] = {}
    vector_pcs: set[int] = set()
    statements: list[tuple[str, tuple[int, ...]]] = []

    def read(addr: int, control: bool) -> tuple[int, bool]:
        local.add(addr)
        taint = written.get(addr)
        if taint is not None:
            if control and taint:
                raise _Bail  # computed from payload data: not provable
            return w[addr], taint
        if control:
            fingerprint.setdefault(addr, w[addr])
            return w[addr], False
        return w[addr], True  # unfingerprinted payload read

    def read_operand(operand, control: bool) -> tuple[int, bool, int]:
        """(value, taint, statement argument) of a source operand.

        A tainted word lives in memory (its producer was emitted as a
        store), so a statement names its address; an untainted one is
        the same in every matching run, so a statement inlines its value.
        """
        mode = operand.mode
        if mode is AddrMode.IMM:
            return operand.value, False, operand.value
        addr = operand.value
        if mode is AddrMode.IND:
            addr, _ = read(addr, True)  # pointer fetch is control
            if not 0 <= addr < size:
                raise _Bail
        value, taint = read(addr, control)
        return value, taint, addr if taint else value

    def write_addr(operand) -> int:
        if operand.mode is AddrMode.DIR:
            return operand.value
        pointer, _ = read(operand.value, True)
        return pointer

    pc = entry
    cyc = count = branches = reads = writes = nstores = 0
    try:
        while 0 <= pc < n:
            count += 1
            if count > _PROFILE_MAX_INSTRS:
                raise _Bail
            instr = instrs[pc]
            op = instr.opcode
            cyc += cyc_arr[pc]
            reads += rd_arr[pc]
            writes += wr_arr[pc]
            nxt = pc + 1
            if op is Opcode.HALT:
                # Control words the run rewrote hold the same final value
                # in every matching run; nothing in the trace reads them
                # from memory, so they are stored once, at the end.
                statements.extend(
                    ("w[{0}] = {1}", (addr, w[addr]))
                    for addr, taint in sorted(written.items())
                    if not taint
                )
                return Footprint(
                    fingerprint=tuple(sorted(fingerprint.items())),
                    local=frozenset(local),
                    remote={d: frozenset(s) for d, s in remote.items()},
                    cycles=cyc,
                    vector_pcs=frozenset(vector_pcs),
                    statements=tuple(statements),
                    instructions=count,
                    branches=branches,
                    reads=reads,
                    writes=writes,
                    neighbour_stores=nstores,
                    final_pc=nxt,
                )
            if op is Opcode.NOP:
                pass
            elif op in ALU_OPS:
                a, t1, e1 = read_operand(instr.src1, False)
                b, t2, e2 = read_operand(instr.src2, False)
                if t2 and op in _SHIFT_OPS:
                    raise _Bail  # data-dependent shift may fault mid-run
                result = evaluate_alu(op, a, b, instr.aux)
                addr = write_addr(instr.dst)
                if not 0 <= addr < size:
                    raise _Bail
                local.add(addr)
                written[addr] = t1 or t2
                if t1 or t2:
                    vector_pcs.add(pc)
                    statements.append(
                        (_alu_template(op, instr.aux, t1, t2), (addr, e1, e2))
                    )
                w[addr] = result
            elif op in UNARY_OPS:
                addr = write_addr(instr.dst)
                value, taint, e1 = read_operand(instr.src1, False)
                if not 0 <= addr < size:
                    raise _Bail
                local.add(addr)
                written[addr] = taint
                if taint:
                    vector_pcs.add(pc)
                    statements.append((_unary_template(op), (addr, e1)))
                if op is Opcode.ABS:
                    value = abs(value)
                elif op is Opcode.NEG:
                    value = -value
                elif op is Opcode.NOT:
                    value = ~value
                w[addr] = wrap_word(value)
            elif op is Opcode.JMP:
                nxt = targets[pc]
            elif op in BRANCH_OPS:
                value, _, _ = read_operand(instr.src1, True)
                taken = (
                    value == 0 if op is Opcode.BZ
                    else value != 0 if op is Opcode.BNZ
                    else value < 0 if op is Opcode.BNEG
                    else value > 0
                )
                if taken:
                    nxt = targets[pc]
                    branches += 1
            elif op is Opcode.SNB:
                naddr = write_addr(instr.dst)
                _, taint, e1 = read_operand(instr.src1, False)
                if not 0 <= naddr < size:
                    raise _Bail  # would fault in the neighbour: not provable
                if taint:
                    vector_pcs.add(pc)
                remote.setdefault(instr.aux, set()).add(naddr)
                statements.append((_SNB_TEMPLATES[taint], (naddr, e1)))
                nstores += 1
            pc = nxt
        raise _Bail  # fell out of the region without halting
    except _Bail:
        return None
    except Exception:  # any simulated fault: schedule conservatively
        return None


def footprint_for(tile: "Tile", dec: DecodedProgram, base: int) -> Footprint | None:
    """Validated footprint of the run the tile is about to perform.

    Profiles at most once per ``(program, entry pc)`` (cached on the
    decoded program); on every use the control fingerprint is re-checked
    against the live memory, so a changed control word simply demotes the
    tile to conservative scheduling and per-instruction execution for
    that run.
    """
    cache = dec.__dict__.get("_footprints")
    if cache is None:
        cache = dec.__dict__["_footprints"] = {}
    entry = tile.pc - base
    if entry not in cache:
        started = time.perf_counter()
        cache[entry] = _profile_footprint(dec, entry, tile.dmem._words)
        COUNTERS.lowering_s += time.perf_counter() - started
    footprint = cache[entry]
    if footprint is None:
        return None
    w = tile.dmem._words
    for addr, value in footprint.fingerprint:
        if w[addr] != value:
            return None
    return footprint


def _longest_repeat(templates: list[str], at: int) -> tuple[int, int]:
    """``(period, repeats)`` of the longest periodic stretch starting at
    ``at`` whose period fits a chunk (``(1, 1)`` when nothing repeats)."""
    best = (1, 1)
    first = templates[at]
    for period in range(1, min(_CHUNK_STATEMENTS, (len(templates) - at) // 2 + 1)):
        if templates[at + period] != first:
            continue
        body = templates[at:at + period]
        repeats = 1
        while templates[at + repeats * period:at + (repeats + 1) * period] == body:
            repeats += 1
        if repeats * period > best[0] * best[1]:
            best = (period, repeats)
    return best


def _compile_trace(footprint: Footprint, name: str) -> tuple[Callable, ...]:
    """Compile ``footprint.statements`` into bounded ``(w, n)`` functions.

    Folding the control slice leaves the data-plane statements of a
    counted loop as one body repeated with different addresses.  Where
    re-rolling such a stretch saves at least a chunk of statements it is
    compiled once, as a ``for`` over the table of the arguments that
    vary (``compile()`` costs ~15 us and ~150 bytes a statement, and a
    conv2d frame is 3 700 of them); everything else stays straight-line.
    """
    started = time.perf_counter()
    rows = footprint.statements
    templates = [template for template, _ in rows]
    #: (source lines, loop table or None), in trace order
    units: list[tuple[list[str], tuple | None]] = []
    at = 0
    while at < len(rows):
        period, repeats = _longest_repeat(templates, at)
        if (repeats - 1) * period < _CHUNK_STATEMENTS:
            template, args = rows[at]
            units.append(([template.format(*map(_lit, args))], None))
            at += 1
            continue
        body, columns = [], []
        for k in range(period):
            template, args = rows[at + k]
            slots = []
            for j, value in enumerate(args):
                column = [
                    rows[at + r * period + k][1][j] for r in range(repeats)
                ]
                if column.count(value) == repeats:
                    slots.append(_lit(value))  # loop-invariant: inline
                else:
                    slots.append(f"a{len(columns)}")
                    columns.append(column)
            body.append("    " + template.format(*slots))
        targets = "".join(f"a{i}, " for i in range(len(columns)))
        units.append((
            [f"for {targets or '_'} in _rows{len(units)}:"] + body,
            tuple(zip(*columns)) if columns else (None,) * repeats,
        ))
        at += period * repeats

    chunks = []
    lines: list[str] = []
    tables: dict[str, tuple] = {}

    def flush() -> None:
        namespace: dict[str, object] = {}
        source = "def _t(w, n):\n    " + "\n    ".join(lines)
        exec(
            compile(source, f"<trace:{name}#{len(chunks)}>", "exec"),
            {**_GEN_GLOBALS, **tables},
            namespace,
        )
        chunks.append(namespace["_t"])
        COUNTERS.statements += len(lines)
        lines.clear()
        tables.clear()

    for index, (unit, table) in enumerate(units):
        if lines and len(lines) + len(unit) > _CHUNK_STATEMENTS:
            flush()
        lines.extend(unit)
        if table is not None:
            tables[f"_rows{index}"] = table
    if lines:
        flush()
    footprint.chunks = tuple(chunks)
    footprint.statements = ()
    COUNTERS.traces_lowered += 1
    COUNTERS.lowering_s += time.perf_counter() - started
    return footprint.chunks


def run_lowered(
    tile: "Tile", footprint: Footprint | None, base: int, budget: int
) -> int | None:
    """Run the tile entry-to-``HALT`` as its lowered trace; returns cycles.

    ``footprint`` must come from :func:`footprint_for` for the run the
    tile is about to perform (``None``: unproven, or the fingerprint no
    longer matches).  Returns ``None`` — nothing executed — whenever the
    per-instruction path has to decide the run instead: the trace does
    not fit ``budget`` (``run_block`` trips on the crossing instruction),
    or it stores toward a direction whose link is not active / whose
    memory is not the standard size (``run_block`` raises at the ``SNB``).
    """
    if footprint is None or footprint.cycles > budget:
        COUNTERS.fallback_runs += 1
        return None
    dmem = tile.dmem
    neighbour = None
    if footprint.remote:
        # The mesh's resolver carries the port lookup; a standalone tile
        # or a hand-installed resolver has none and takes the slow path.
        port = getattr(tile.neighbour_resolver, "port", None)
        direction = footprint.direction
        if port is not None and direction is not None:
            neighbour = port(direction)
        if neighbour is None or neighbour.size != _N:
            COUNTERS.fallback_runs += 1
            return None
        neighbour.writes += footprint.neighbour_stores
        neighbour = neighbour._words
    chunks = footprint.chunks
    if chunks is None:
        chunks = _compile_trace(footprint, tile.program.name)
    w = dmem._words
    for chunk in chunks:
        chunk(w, neighbour)
    tile.pc = base + footprint.final_pc
    tile.halted = True
    stats = tile.stats
    stats.instructions += footprint.instructions
    stats.cycles += footprint.cycles
    stats.branches_taken += footprint.branches
    stats.neighbour_stores += footprint.neighbour_stores
    stats.halts += 1
    dmem.reads += footprint.reads
    dmem.writes += footprint.writes
    COUNTERS.lowered_runs += 1
    return footprint.cycles
