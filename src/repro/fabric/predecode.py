"""The fast-path execution engine: footprint proofs and trace lowering.

The reference interpreter (:meth:`repro.fabric.tile.Tile.step`) re-derives
everything per instruction: it fetches through the bounds-checked
instruction memory, dispatches on :class:`~repro.fabric.isa.Opcode` enum
identity, evaluates operands through dataclass attribute walks and, worst
of all, recomputes the ``Instruction.cycles`` timing property on every
step.  That is the right shape for an oracle and exactly the wrong shape
for throughput.

The fast engine does not interpret at all: a tile run is either its
lowered trace or the oracle.

* :func:`predecode` translates a :class:`~repro.fabric.assembler.Program`
  **once** into a :class:`DecodedProgram`: the per-instruction branch
  targets and cycle/read/write counts the footprint profiler walks, and
  the directions the program can store toward.  The result is cached on
  the ``Program`` object, and is position-independent (branch targets are
  kept program-local), so one decode serves every tile and load base.
* :func:`footprint_for` *proves*, per ``(program, entry pc)``, that control
  flow, addresses and shift amounts never depend on payload data, and in
  the same walk **lowers** the pinned trace: the whole control slice is
  constant-folded and every data-plane instruction becomes one Python
  statement with literal addresses (the repeated body of a long counted
  loop is compiled once, over a table of its addresses).
* :func:`run_lowered` executes that code for any run whose live memory
  matches the proof's fingerprint, whose trace fits the cycle budget and
  whose neighbour stores go through the active link — no dispatch, no
  loop counters, no pointer arithmetic, no branches.  Every other run
  (an unproven program, a phase whose stores must interleave, a budget
  edge, a fault) goes to the oracle from its start state, which raises
  the exact exception at the exact pc with exact partial statistics.

Both paths are *observationally identical*: same memory images, same
:class:`~repro.fabric.tile.TileStats`, same access counters, same
exceptions at the same instruction.  The differential tests in
``tests/fabric/test_engine_equivalence.py`` and
``tests/fabric/test_lowering.py`` enforce this.  Set
``REPRO_REFERENCE_SIM=1`` (or pass ``engine="reference"`` to the run APIs)
to force the oracle path when debugging.
"""

from __future__ import annotations

import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable

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
    from repro.fabric.memory import DataMemory
    from repro.fabric.tile import Tile

__all__ = [
    "DecodedProgram",
    "EngineCounters",
    "COUNTERS",
    "predecode",
    "admit_lowered",
    "run_trace",
    "run_lowered",
    "reference_forced",
    "resolve_engine",
    "VALID_ENGINES",
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
    ``fallback`` to the oracle: an unproven footprint, a phase not proven
    conflict-free, a budget edge, a missing link, or a tile the engine
    cannot decode (corrupted imem, a non-standard memory, a pc outside
    the image).
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
    #: Artifact jobs that ran their derived epoch plan, and jobs in
    #: neither of its start states (``RuntimeManager._begin_job``).
    plan_runs: int = 0
    plan_fallbacks: int = 0


COUNTERS = EngineCounters()


_N = DATA_MEM_WORDS
_MASK = (1 << 48) - 1
_SIGN = 1 << 47

#: Directions indexed by their ``SNB`` aux code.
_DIRS = tuple(Direction)


@dataclass(eq=False)  # identity semantics: decoded tables key the phase-analysis memo
class DecodedProgram:
    """A program predecoded into flat, position-independent tables.

    Branch/jump targets are *program-local* (the relocation offset is
    re-applied by the driver through the load base), so one decode is
    shared by every tile and every co-residency base — a strictly better
    cache key than ``(program, base)``.
    """

    name: str
    #: Original decoded instructions (what the footprint profiler walks).
    instrs: list[Instruction]
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

    @property
    def n(self) -> int:
        return len(self.instrs)


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
    decoded = DecodedProgram(
        name=program.name,
        instrs=instrs,
        targets=[
            instr.aux if instr.opcode is Opcode.JMP or instr.opcode in BRANCH_OPS
            else 0
            for instr in instrs
        ],
        cycles=[instr.cycles for instr in instrs],
        reads=[instr.read_ports for instr in instrs],
        writes=[
            1 if instr.opcode in ALU_OPS or instr.opcode in UNARY_OPS else 0
            for instr in instrs
        ],
        snb_dirs=frozenset(
            Direction.from_code(instr.aux)
            for instr in instrs if instr.opcode is Opcode.SNB
        ),
    )
    program.__dict__["_predecoded"] = decoded
    return decoded


def decode_for_tile(tile: "Tile") -> tuple[DecodedProgram, int] | None:
    """(decoded program, base) for a tile, or None when ineligible.

    Eligibility mirrors what the lowered traces assume: the standard
    512-word data memory, a resident selected program, and a pc inside
    its image.  Ineligible tiles simply take the reference interpreter.
    """
    program = tile.program
    if program is None or tile.dmem.size != DATA_MEM_WORDS:
        return None
    if tile.imem.has_corruption:
        # An SEU-corrupted instruction word must fault when (and only
        # when) the pc actually reaches it; the lowered traces bypass
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
# expression generation
# ---------------------------------------------------------------------------


def _wrap_expr(expr: str) -> str:
    """48-bit two's-complement wrap of an arbitrary int expression."""
    return f"((({expr}) + {_SIGN}) & {_MASK}) - {_SIGN}"


_SHIFT_OPS = (Opcode.SHL, Opcode.SHR, Opcode.SRA)


def _alu_raw(op: Opcode, aux: int, x: str, y: str) -> str | None:
    """The expression :func:`_alu_expr` wraps to 48 bits (``None``: the
    op's result is in range without a wrap)."""
    if op is Opcode.ADD:
        return f"{x} + {y}"
    if op is Opcode.SUB:
        return f"{x} - {y}"
    if op is Opcode.MUL:
        return f"{x} * {y}"
    if op is Opcode.MULQ:
        return f"({x} * {y} + {1 << (aux - 1)}) >> {aux}"
    if op is Opcode.AND:
        return f"{x} & {y}"
    if op is Opcode.OR:
        return f"{x} | {y}"
    if op is Opcode.XOR:
        return f"{x} ^ {y}"
    if op is Opcode.SHL:
        return f"{x} << {y}"
    if op is Opcode.SHR:
        return f"({x} & {_MASK}) >> {y}"
    return None


def _alu_expr(op: Opcode, aux: int, x: str, y: str) -> str:
    """Expression for ALU ``op`` over the operand expressions ``x``, ``y``.

    Mirrors :func:`repro.fabric.isa.evaluate_alu` exactly, including the
    wrap-to-48-bit semantics; the shift range check is the caller's.
    """
    raw = _alu_raw(op, aux, x, y)
    if raw is not None:
        return _wrap_expr(raw)
    if op is Opcode.SRA:
        return f"{x} >> {y}"  # result always in range
    if op is Opcode.MIN:
        return f"{x} if {x} < {y} else {y}"
    if op is Opcode.MAX:
        return f"{x} if {x} > {y} else {y}"
    raise AssertionError(f"not an ALU opcode: {op}")  # pragma: no cover


def _unary_raw(op: Opcode, x: str) -> str | None:
    """The expression :func:`_unary_expr` wraps (``None`` for MOV)."""
    if op is Opcode.MOV:
        return None
    if op is Opcode.ABS:
        return f"abs({x})"
    if op is Opcode.NEG:
        return f"-{x}"
    return f"~{x}"


def _unary_expr(op: Opcode, x: str) -> str:
    """Expression for a unary ``op`` (MOV/ABS/NEG/NOT) over ``x``."""
    raw = _unary_raw(op, x)
    return x if raw is None else _wrap_expr(raw)


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
#: this are simply treated as unprovable (they run on the oracle).
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


#: Template -> the same statement with its 48-bit wrap left out.
_UNWRAPPED: dict[str, str] = {}
#: Template -> its lane-axis form where the text differs: ``w``/``n``
#: are ``(512, K)`` int64 arrays, whose wrap-around keeps every other op
#: exact mod 2**48 (``_mulq`` needs the full 96-bit product).
_LANES: dict[str, str] = {}
#: Templates of ADD/SUB/NEG: their result reduced mod 2**48 depends only
#: on their operands mod 2**48, so they may consume unwrapped values.
_ADDITIVE: set[str] = set()


def _template(op: Opcode, raw: str | None, wrapped: str, lanes: str = "") -> str:
    template = "w[{0}] = " + wrapped
    if raw is not None:
        _UNWRAPPED[template] = "w[{0}] = " + raw
    if lanes:
        _LANES[template] = "w[{0}] = " + lanes
    if op in (Opcode.ADD, Opcode.SUB, Opcode.NEG):
        _ADDITIVE.add(template)
    return template


@lru_cache(maxsize=None)
def _alu_template(op: Opcode, aux: int, taint1: bool, taint2: bool) -> str:
    x, y = _slot(1, taint1), _slot(2, taint2)
    lanes = {
        Opcode.MULQ: f"_mulq({x}, {y}, {aux})",
        Opcode.MIN: f"np.minimum({x}, {y})",
        Opcode.MAX: f"np.maximum({x}, {y})",
    }.get(op, "")
    return _template(
        op, _alu_raw(op, aux, x, y), _alu_expr(op, aux, x, y), lanes
    )


@lru_cache(maxsize=None)
def _unary_template(op: Opcode) -> str:
    x = _slot(1, True)
    lanes = f"+{x}" if op is Opcode.MOV else ""  # a copy, never a row view
    return _template(op, _unary_raw(op, x), _unary_expr(op, x), lanes)


#: Neighbour-store templates, indexed by the taint of the stored value.
_SNB_TEMPLATES = ("n[{0}] = " + _slot(1, False), "n[{0}] = " + _slot(1, True))


def _profile_footprint(
    dec: DecodedProgram, entry: int, words: list[int]
) -> Footprint | None:
    """Interpret one run on a memory *snapshot*, tracking address taint.

    Returns ``None`` when the footprint cannot be proven data-independent
    (tainted control flow, runaway loop, any execution error, or a pc
    falling out of the program region) — callers then run it on the
    oracle, which is always sound.
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
                remote.setdefault(instr.aux, set()).add(naddr)
                statements.append((_SNB_TEMPLATES[taint], (naddr, e1)))
                nstores += 1
            pc = nxt
        raise _Bail  # fell out of the region without halting
    except _Bail:
        return None
    except Exception:  # any simulated fault: the oracle raises it
        return None


def footprint_for(tile: "Tile", dec: DecodedProgram, base: int) -> Footprint | None:
    """Validated footprint of the run the tile is about to perform.

    Profiles at most once per ``(program, entry pc)`` (cached on the
    decoded program); on every use the control fingerprint is re-checked
    against the live memory, so a changed control word simply sends that
    run to the oracle.
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
    ``at`` whose loop fits a chunk beside its register loads and stores
    (``(1, 1)`` when nothing repeats)."""
    best = (1, 1)
    first = templates[at]
    longest = _CHUNK_STATEMENTS - 2
    for period in range(1, min(longest, (len(templates) - at) // 2 + 1)):
        if templates[at + period] != first:
            continue
        body = templates[at:at + period]
        repeats = 1
        while templates[at + repeats * period:at + (repeats + 1) * period] == body:
            repeats += 1
        if repeats * period > best[0] * best[1]:
            best = (period, repeats)
    return best


@dataclass
class _Unit:
    """A straight-line statement, or a re-rolled loop over ``table``;
    statements are ``(template, slot texts)``."""

    body: list[tuple[str, tuple[str, ...]]]
    table: tuple | None = None
    #: Per loop column: ``"w"``/``"n"`` (addresses there) or ``"v"``.
    kinds: tuple[str, ...] = ()

    def column(self, k: int) -> tuple:
        return tuple(row[k] for row in self.table)


#: A literal word of ``w``, and a loop column of ``w``/``n``, in source.
_WORD = re.compile(r"\bw\[(\d+)\]")
_COLUMN = re.compile(r"\b([wn])\[a(\d+)\]")


def _independent(unit: _Unit, regs: set[int]) -> bool:
    """Whether a loop's iterations can run as one array statement per
    body line: every literal word it touches is a local written before it
    is read in each iteration, and no word (or neighbour word) one
    iteration writes is touched by another."""
    body = [template.format(*slots).split(" = ", 1) for template, slots in unit.body]
    written = {int(m[1]) for lhs, _ in body if (m := _WORD.fullmatch(lhs))}
    seen: set[int] = set()
    stores, loads = set(), set()
    for lhs, rhs in body:
        for addr in map(int, _WORD.findall(rhs)):
            if addr not in regs or (addr in written and addr not in seen):
                return False
        loads.update(int(k) for _, k in _COLUMN.findall(rhs))
        if m := _WORD.fullmatch(lhs):
            if int(m[1]) not in regs:
                return False
            seen.add(int(m[1]))
        elif m := _COLUMN.fullmatch(lhs):
            stores.add((m[1], int(m[2])))
        else:
            return False  # a literal neighbour word, stored every iteration
    owner: dict[tuple[str, int], int] = {}
    for i, row in enumerate(unit.table):
        for memory, k in stores:
            if owner.setdefault((memory, row[k]), i) != i:
                return False
    return all(
        owner.get(("w", row[k]), i) == i
        for i, row in enumerate(unit.table) for k in loads
    )


def _chunk_source(
    units: list[_Unit], lanes: bool = False
) -> tuple[list[str], dict[str, tuple]]:
    """Body lines and loop tables of one chunk, register-allocated.

    A literal word the chunk touches more than once lives in the local
    ``r<addr>`` when no loop column of the chunk can address it: loaded
    at entry if read before written, stored once at exit.  A result whose
    every consumer is an ADD/SUB/NEG stays unwrapped, because the 48-bit
    wrap is reduction mod 2**48 and those ops commute with it; a store
    to ``w``/``n`` and every other consumer sees a wrapped value.

    ``lanes`` emits the same trace over ``(512, K)`` int64 arrays, one
    column per lane (:data:`_LANES`); a loop whose iterations are
    independent (:func:`_independent`) becomes one array statement per
    body line over its address columns, its locals one row per iteration.
    """
    # The chunk as executed, each loop body twice (the second pass shows
    # every loop-carried use): (statement id, template, reads, written).
    flat = []
    aliased: set[int] = set()
    for u, unit in enumerate(units):
        aliased.update(
            addr for k, kind in enumerate(unit.kinds) if kind == "w"
            for addr in unit.column(k)
        )
        for _ in range(1 if unit.table is None else 2):
            for s, (template, slots) in enumerate(unit.body):
                lhs, rhs = template.format(*slots).split(" = ", 1)
                target = _WORD.fullmatch(lhs)
                reads = [int(addr) for addr in _WORD.findall(rhs)]
                flat.append(((u, s), template, reads, target and int(target[1])))
    uses = Counter()
    first: dict[int, bool] = {}  # word -> read before written
    for _, _, reads, written in flat:
        uses.update(reads)
        first.update((addr, True) for addr in reads if addr not in first)
        if written is not None:
            uses[written] += 1
            first.setdefault(written, False)
    regs = {addr for addr, count in uses.items() if count > 1} - aliased

    unwrapped: dict[tuple[int, int], bool] = {}
    for i, (sid, template, _, written) in enumerate(flat):
        if written not in regs or template not in _UNWRAPPED:
            continue
        ok = True
        for j in range(i + 1, len(flat)):
            _, consumer, reads, rewritten = flat[j]
            if written in reads and consumer not in _ADDITIVE:
                ok = False
                break
            if rewritten == written:
                break
        unwrapped[sid] = unwrapped.get(sid, True) and ok
    last = {written: sid for sid, _, _, written in flat if written in regs}
    wrap_at_exit = {addr for addr, sid in last.items() if unwrapped.get(sid)}

    def statement(sid, template: str, slots) -> str:
        if lanes and template in _LANES:
            template = _LANES[template]
        elif unwrapped.get(sid):
            template = _UNWRAPPED[template]
        text = template.format(*slots)
        if not regs:
            return text
        return _WORD.sub(lambda m: f"r{m[1]}" if int(m[1]) in regs else m[0], text)

    lines: list[str] = []
    tables: dict[str, tuple] = {}
    loads = sorted(addr for addr in regs if first[addr])
    if loads:  # lane rows by fancy index: copies, never views into ``w``
        words = f"w[{loads}]" if lanes else ", ".join(f"w[{a}]" for a in loads)
        lines.append(", ".join(f"r{a}" for a in loads) + f"{',' * lanes} = {words}")
    for u, unit in enumerate(units):
        if unit.table is None:
            lines.append(statement((u, 0), *unit.body[0]))
        elif lanes and _independent(unit, regs):
            for k, kind in enumerate(unit.kinds):
                tables[f"a{u}_{k}"] = (kind, unit.column(k))
            rows = [statement((u, s), *row) for s, row in enumerate(unit.body)]
            lines += [re.sub(r"\ba(\d+)\b", rf"a{u}_\1", row) for row in rows]
            lines += [
                f"r{addr} = _last(r{addr})"
                for addr in sorted({w for sid, _, _, w in flat if sid[0] == u} & regs)
            ]
        else:
            targets = "".join(f"a{i}, " for i in range(len(unit.kinds))) or "_"
            lines.append(f"for {targets} in _rows{u}:")
            tables[f"_rows{u}"] = unit.table
            lines.extend(
                "    " + statement((u, s), *row) for s, row in enumerate(unit.body)
            )
    stores = sorted(last)
    if stores:
        lines.append(
            ", ".join(f"w[{a}]" for a in stores) + " = "
            + ", ".join(
                _wrap_expr(f"r{a}") if a in wrap_at_exit else f"r{a}"
                for a in stores
            )
        )
    return lines, tables


def _trace_units(rows) -> list[_Unit]:
    """Trace statements as units: a periodic stretch whose re-rolling
    saves at least a chunk of statements becomes one loop over the table
    of the arguments that vary (loop-invariant ones stay literals)."""
    templates = [template for template, _ in rows]
    units: list[_Unit] = []
    at = 0
    while at < len(rows):
        period, repeats = _longest_repeat(templates, at)
        if (repeats - 1) * period < _CHUNK_STATEMENTS:
            template, args = rows[at]
            units.append(_Unit([(template, tuple(map(_lit, args)))]))
            at += 1
            continue
        body, columns, kinds = [], [], []
        for k in range(period):
            template, args = rows[at + k]
            slots = []
            for j, value in enumerate(args):
                column = [
                    rows[at + r * period + k][1][j] for r in range(repeats)
                ]
                if column.count(value) == repeats:
                    slots.append(_lit(value))  # loop-invariant: inline
                    continue
                slots.append(f"a{len(columns)}")
                columns.append(column)
                kinds.append(
                    "w" if f"w[{{{j}}}]" in template
                    else "n" if f"n[{{{j}}}]" in template else "v"
                )
            body.append((template, tuple(slots)))
        table = tuple(zip(*columns)) if columns else (None,) * repeats
        units.append(_Unit(body, table, tuple(kinds)))
        at += period * repeats
    return units


def _chunk_groups(units: list[_Unit]) -> list[list[_Unit]]:
    """Units packed into chunks of at most ``_CHUNK_STATEMENTS`` lines,
    two of them kept for the register loads and stores."""
    groups: list[list[_Unit]] = [[]]
    size = 0
    for unit in units:
        length = len(unit.body) + (unit.table is not None)
        if groups[-1] and size + length > _CHUNK_STATEMENTS - 2:
            groups.append([])
            size = 0
        groups[-1].append(unit)
        size += length
    return groups if groups[0] else []


def _compile_trace(footprint: Footprint, name: str) -> tuple[Callable, ...]:
    """Compile ``footprint.statements`` into bounded ``(w, n)`` functions.

    Folding the control slice leaves the data-plane statements of a
    counted loop as one body repeated with different addresses, which
    compiles once as a ``for`` over an address table (``compile()`` costs
    ~15 us and ~150 bytes a statement, and a conv2d frame is 3 700 of
    them); each chunk keeps its busy words in locals (:func:`_chunk_source`).
    """
    started = time.perf_counter()
    units = _trace_units(footprint.statements)
    chunks = []
    for group in _chunk_groups(units):
        lines, tables = _chunk_source(group)
        namespace: dict[str, object] = {}
        source = "def _t(w, n):\n    " + "\n    ".join(lines)
        exec(
            compile(source, f"<trace:{name}#{len(chunks)}>", "exec"),
            tables,
            namespace,
        )
        chunks.append(namespace["_t"])
        COUNTERS.statements += len(lines)
    footprint.chunks = tuple(chunks)
    footprint.statements = ()
    COUNTERS.traces_lowered += 1
    COUNTERS.lowering_s += time.perf_counter() - started
    return footprint.chunks


def lane_source(statements) -> str:
    """A lowered trace's ``statements`` over a lane axis, as
    self-contained source: one ``_t<i>(w, n)`` per chunk, over
    ``(512, K)`` int64 lane arrays, each preceded by its tables (``np``,
    ``_mulq`` and ``_last`` are the caller's globals)."""
    parts = []
    for index, group in enumerate(_chunk_groups(_trace_units(statements))):
        lines, tables = _chunk_source(group, lanes=True)
        for table, value in tables.items():
            if table.startswith("_rows"):
                parts.append(f"{table} = {value!r}")
            else:
                kind, column = value
                shape = "" if kind in "wn" else "[:, None]"
                parts.append(f"{table} = np.array({list(column)!r}){shape}")
        parts.append(f"def _t{index}(w, n):\n    " + "\n    ".join(lines))
        COUNTERS.statements += len(lines)
    return "\n".join(parts) + "\n"


def admit_lowered(
    tile: "Tile", footprint: Footprint | None, budget: int
) -> "tuple[bool, DataMemory | None]":
    """``(admitted, neighbour memory)`` of a run about to start.

    ``footprint`` must come from :func:`footprint_for` for the run the
    tile is about to perform (``None``: unproven, or the fingerprint no
    longer matches).  The run is refused when its trace does not fit
    ``budget`` (the oracle trips on the crossing instruction), or when it
    stores toward a direction whose link is not active or whose memory is
    not the standard size (the oracle raises at the ``SNB``).  The
    neighbour memory is ``None`` for a trace that stores nowhere.
    """
    if footprint is None or footprint.cycles > budget:
        return False, None
    if not footprint.remote:
        return True, None
    # The mesh's resolver carries the port lookup; a standalone tile or a
    # hand-installed resolver has none and takes the oracle.
    port = getattr(tile.neighbour_resolver, "port", None)
    direction = footprint.direction
    if port is None or direction is None:
        return False, None
    neighbour = port(direction)
    return neighbour is not None and neighbour.size == _N, neighbour


def run_trace(
    tile: "Tile", footprint: Footprint, base: int, neighbour: "DataMemory | None"
) -> int:
    """Run an admitted run (:func:`admit_lowered`) entry-to-``HALT`` as
    its lowered trace, with the interpreter's statistics; returns cycles."""
    words = None
    if neighbour is not None:
        neighbour.writes += footprint.neighbour_stores
        words = neighbour._words
    chunks = footprint.chunks
    if chunks is None:
        chunks = _compile_trace(footprint, tile.program.name)
    dmem = tile.dmem
    w = dmem._words
    for chunk in chunks:
        chunk(w, words)
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


def run_lowered(
    tile: "Tile", footprint: Footprint | None, base: int, budget: int
) -> int | None:
    """Run the tile entry-to-``HALT`` as its lowered trace; returns cycles.

    Returns ``None`` — nothing executed, one fallback counted — when
    :func:`admit_lowered` refuses the run: the caller then runs it on the
    oracle, which decides it exactly.
    """
    admitted, neighbour = admit_lowered(tile, footprint, budget)
    if not admitted:
        COUNTERS.fallback_runs += 1
        return None
    return run_trace(tile, footprint, base, neighbour)
