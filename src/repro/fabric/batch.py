"""Vector-batched execution of compiled artifacts over a lane axis.

K pending work items that share one :class:`~repro.compile.ir.CompiledArtifact`
execute the *same* instruction trace — the footprint profiler
(:func:`repro.fabric.predecode.footprint_for`) proves per program that
control flow, addresses and shift amounts are functions of a small
fingerprinted control slice, never of the payload data.  This module
exploits that proof: instead of K sequential interpreter runs, the data
memory of every tile becomes a ``(512, K)`` ``int64`` array (one column
per lane) and the predecoded superblocks are lifted into generated
batched-numpy source executed once for all lanes.

The taint split does the heavy lifting.  The profiler records which pcs
ever touch payload (tainted) data (``Footprint.vector_pcs``); everything
else is pure control whose operands are bit-identical across lanes, so
the generated code executes those instructions *once* on lane 0 with
plain Python integers and broadcasts the result — only the data plane
pays numpy-vector cost.

Execution is **pilot-driven**: lane 0 runs through the ordinary engine
on the real mesh (exact timing, statistics, ICAP charges) while a phase
hook installed on the :class:`~repro.fabric.rtms.RuntimeManager`
advances all K columns through each epoch's compute phase just before
the pilot does.  Safety nets, in order:

* a phase is batched only when every tile decodes, every footprint
  validates, and the concurrent simulator's phase analysis proves the
  exchange conflict-free (all tiles in FULL mode);
* a per-lane *fingerprint mask* compares each lane's control words
  against the profiled fingerprint — a diverging lane is degraded to the
  scalar path (checkpoint/rollback replay) without poisoning the batch,
  because every vector operation is lane-wise and all addresses come
  from lane 0;
* after the artifact completes, lane 0's column is cross-checked
  word-for-word against the pilot's real memory; any mismatch (or any
  exception inside the vector tier) degrades **all** non-pilot lanes to
  scalar replay.  The vector tier can therefore be slow, never wrong.

An optional JIT tier compiles the generated superblock functions with
numba when importable (``REPRO_BATCH_JIT=auto|numba|numpy|off``); absent
numba the exec'd numpy source runs as-is.  Generated sources are
persisted in the :class:`~repro.compile.cache.ArtifactCache` disk tier
beside the artifact, keyed by plan hash + codegen version.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import ReproError
from repro.fabric import predecode as _pd
from repro.fabric.fixedpoint import wrap_word
from repro.fabric.isa import ALU_OPS, AddrMode, Instruction, Opcode
from repro.fabric.links import Direction
from repro.fabric.predecode import (
    _BRANCH_EXPR,
    _K_BRANCH,
    _K_JMP,
    _K_NOP,
    _K_PLAIN,
    _K_SNB,
    _wrap_expr,
    DecodedProgram,
    Footprint,
)
from repro.units import DATA_MEM_WORDS

__all__ = [
    "BatchDegrade",
    "BatchError",
    "BatchResult",
    "LaneResult",
    "BATCH_JIT_ENV",
    "CODEGEN_VERSION",
    "VALID_JIT_TIERS",
    "resolve_jit_tier",
    "generate_batch_source",
    "batch_code_for",
    "execute_artifact_batch",
]

#: Environment variable selecting the JIT tier of the batched code.
BATCH_JIT_ENV = "REPRO_BATCH_JIT"
#: Tier names :func:`resolve_jit_tier` accepts (``auto`` resolves away).
VALID_JIT_TIERS = ("auto", "numba", "numpy", "off")
#: Bumped whenever the generated-source shape changes; persisted sources
#: with a different version are regenerated (cache key = plan hash + this).
CODEGEN_VERSION = 1

#: Below this lane count the vector tier costs more than it saves: numpy
#: per-op dispatch overhead is flat in K, so a dispatch has a fixed wall
#: cost that only amortises past a number of lanes, and smaller batches
#: run their lanes scalar (as lowered traces) instead.  The break-even
#: depends on how much per-epoch orchestration a kernel has for the
#: lanes to share — measured against the lowered scalar path: fft(64,8,2)
#: 8 lanes, gemm 14, dsp 20, conv2d 24, jpeg 38 blocks.  16 bounds the
#: loss on either side at about 2x (fft forfeits 2.1x at 15 lanes, jpeg
#: loses 2.0x at 16 blocks).  Callers that know better (tests, the numba
#: tier where the flat cost collapses) pass ``min_vector_lanes``.
DEFAULT_MIN_VECTOR_LANES = 16

_N = DATA_MEM_WORDS
_MASK = (1 << 48) - 1
_M24 = (1 << 24) - 1

#: Instruction-count ceiling of one batched tile run (the pilot enforces
#: the real cycle budget; this only bounds a runaway before degrading).
_MAX_STEPS = 10_000_000


class BatchError(ReproError):
    """A caller error of the batched execution tier (bad lane shapes,
    unknown JIT tier, lane count mismatch)."""


class BatchDegrade(Exception):
    """Internal: this phase (or batch) cannot be executed vectorized.

    Never propagates out of :func:`execute_artifact_batch` — it demotes
    lanes to the scalar replay path, which is always available.
    """


# ---------------------------------------------------------------------------
# JIT tier selection
# ---------------------------------------------------------------------------

_NUMBA_PROBED = False
_NUMBA = None


def _numba_module():
    """The imported ``numba`` module, or None (probed once)."""
    global _NUMBA_PROBED, _NUMBA
    if not _NUMBA_PROBED:
        _NUMBA_PROBED = True
        try:  # pragma: no cover - depends on environment
            import numba  # type: ignore[import-not-found]

            _NUMBA = numba
        except Exception:
            _NUMBA = None
    return _NUMBA


def resolve_jit_tier(mode: str | None = None) -> str:
    """Normalize a JIT tier request to ``numba``/``numpy``/``off``.

    ``None`` consults ``REPRO_BATCH_JIT`` (default ``auto``).  ``auto``
    degrades gracefully: numba when importable, else the exec'd numpy
    source.  An explicit ``numba`` without numba installed — or any
    unknown name — raises a :class:`ValueError` naming the valid tiers.
    """
    if mode is None:
        mode = os.environ.get(BATCH_JIT_ENV, "").strip().lower() or "auto"
    if mode not in VALID_JIT_TIERS:
        valid = ", ".join(repr(name) for name in VALID_JIT_TIERS)
        raise ValueError(
            f"unknown batch JIT tier {mode!r}: valid tiers are {valid} "
            f"(set via {BATCH_JIT_ENV})"
        )
    if mode == "auto":
        return "numba" if _numba_module() is not None else "numpy"
    if mode == "numba" and _numba_module() is None:
        raise ValueError(
            f"{BATCH_JIT_ENV}=numba but numba is not importable; "
            f"use 'auto' to degrade gracefully to the numpy tier"
        )
    return mode


class _JitThunk:
    """Lazy numba wrapper: first call tries the jitted function, any
    compile/execution failure permanently falls back to the Python fn."""

    __slots__ = ("py", "jitted", "chosen")

    def __init__(self, py: Callable, jitted: Callable) -> None:
        self.py = py
        self.jitted = jitted
        self.chosen: Callable | None = None

    def __call__(self, w):
        fn = self.chosen
        if fn is None:  # pragma: no cover - needs numba installed
            try:
                result = self.jitted(w)
                self.chosen = self.jitted
                return result
            except BatchDegrade:
                raise
            except Exception:
                self.chosen = self.py
                return self.py(w)
        return fn(w)


# ---------------------------------------------------------------------------
# batched code generation
# ---------------------------------------------------------------------------


def _vwrap(expr: str) -> str:
    """48-bit wrap of an int64 vector expression.

    ``(v * 2**16) >> 16`` sign-extends bit 47 through int64's documented
    modular overflow — two numpy ops instead of add/mask/sub three.
    """
    return f"((({expr}) * 65536) >> 16)"


def _sread(operand, temp: str) -> tuple[list[str], str]:
    """(setup, value expr) reading a source operand on lane 0 (control)."""
    if operand.mode is AddrMode.IMM:
        return [], repr(operand.value)
    if operand.mode is AddrMode.DIR:
        return [], f"int(w[{operand.value}, 0])"
    stmts = [
        f"{temp} = int(w[{operand.value}, 0])",
        f"if {temp} < 0 or {temp} >= {_N}: raise _Degrade('oob pointer')",
    ]
    return stmts, f"int(w[{temp}, 0])"


def _vread(operand, temp: str) -> tuple[list[str], str]:
    """(setup, value expr) reading a source operand as a lane vector."""
    if operand.mode is AddrMode.IMM:
        return [], repr(operand.value)
    if operand.mode is AddrMode.DIR:
        return [], f"w[{operand.value}]"
    stmts = [
        f"{temp} = int(w[{operand.value}, 0])",
        f"if {temp} < 0 or {temp} >= {_N}: raise _Degrade('oob pointer')",
    ]
    return stmts, f"w[{temp}]"


def _waddr(operand, temp: str) -> tuple[list[str], str]:
    """(setup, address expr) for a destination operand (lane-0 pointer)."""
    if operand.mode is AddrMode.DIR:
        return [], repr(operand.value)
    stmts = [
        f"{temp} = int(w[{operand.value}, 0])",
        f"if {temp} < 0 or {temp} >= {_N}: raise _Degrade('oob store')",
    ]
    return stmts, temp


def _scalar_alu(op: Opcode, instr: Instruction) -> list[str]:
    """Lane-0 Python-int ALU body (mirrors the scalar engine exactly)."""
    aux = instr.aux
    if op is Opcode.ADD:
        return [f"r = {_wrap_expr('x + y')}"]
    if op is Opcode.SUB:
        return [f"r = {_wrap_expr('x - y')}"]
    if op is Opcode.MUL:
        return [f"r = {_wrap_expr('x * y')}"]
    if op is Opcode.MULQ:
        rnd = 1 << (aux - 1)
        return [f"r = {_wrap_expr(f'(x * y + {rnd}) >> {aux}')}"]
    if op is Opcode.AND:
        return [f"r = {_wrap_expr('x & y')}"]
    if op is Opcode.OR:
        return [f"r = {_wrap_expr('x | y')}"]
    if op is Opcode.XOR:
        return [f"r = {_wrap_expr('x ^ y')}"]
    if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
        check = ["if y < 0 or y >= 48: raise _Degrade('shift range')"]
        static = instr.src2.mode is AddrMode.IMM and 0 <= instr.src2.value < 48
        prefix = [] if static else check
        if op is Opcode.SHL:
            return prefix + [f"r = {_wrap_expr('x << y')}"]
        if op is Opcode.SHR:
            return prefix + [f"r = {_wrap_expr(f'(x & {_MASK}) >> y')}"]
        return prefix + ["r = x >> y"]
    if op is Opcode.MIN:
        return ["r = x if x < y else y"]
    if op is Opcode.MAX:
        return ["r = x if x > y else y"]
    raise AssertionError(f"not an ALU opcode: {op}")  # pragma: no cover


def _vector_alu(op: Opcode, instr: Instruction) -> list[str]:
    """Lane-vector numpy ALU body, bit-exact against the scalar engine.

    Operands ``x``/``y`` are int64 lane vectors (or Python-int immediates
    — at least one is a vector, else the pc would be scalar-classified).
    All intermediates rely on numpy's modular int64 overflow, which
    preserves values mod 2**48; :func:`_vwrap` folds back to signed.
    """
    aux = instr.aux
    if op is Opcode.ADD:
        return [f"r = {_vwrap('x + y')}"]
    if op is Opcode.SUB:
        return [f"r = {_vwrap('x - y')}"]
    if op is Opcode.MUL:
        return [f"r = {_vwrap('x * y')}"]
    if op is Opcode.MULQ:
        # 24-bit limb split: the full 96-bit product's bits [aux, aux+48)
        # reconstructed from int64 partial products.  With x = xh*2^24+xl
        # (xl unsigned low limb, xh arithmetic high limb), the rounded sum
        # p = x*y + rnd is hi*2^48 + md*2^24 + lo2 where every term fits
        # int64; the shift then splits exactly because lo2 in [0, 2^24).
        rnd = 1 << (aux - 1)
        body = [
            f"xl = x & {_M24}",
            "xh = x >> 24",
            f"yl = y & {_M24}",
            "yh = y >> 24",
            f"lo = xl * yl + {rnd}",
            "md = xh * yl + xl * yh + (lo >> 24)",
        ]
        if aux >= 24:
            body.append(
                f"r = {_vwrap(f'xh * yh * {1 << (48 - aux)} + (md >> {aux - 24})')}"
            )
        else:
            body.append(
                f"r = {_vwrap(f'xh * yh * {1 << (48 - aux)} + md * {1 << (24 - aux)} + ((lo & {_M24}) >> {aux})')}"
            )
        return body
    if op is Opcode.AND:
        return [f"r = {_vwrap('x & y')}"]
    if op is Opcode.OR:
        return [f"r = {_vwrap('x | y')}"]
    if op is Opcode.XOR:
        return [f"r = {_vwrap('x ^ y')}"]
    if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
        # Shift amounts are control-proven (the profiler bails on tainted
        # amounts), so ``y`` is always a lane-0 Python int here.
        check = ["if y < 0 or y >= 48: raise _Degrade('shift range')"]
        static = instr.src2.mode is AddrMode.IMM and 0 <= instr.src2.value < 48
        prefix = [] if static else check
        if op is Opcode.SHL:
            return prefix + [f"r = {_vwrap('x * (1 << y)')}"]
        if op is Opcode.SHR:
            return prefix + [f"r = {_vwrap(f'(x & {_MASK}) >> y')}"]
        return prefix + ["r = x >> y"]
    if op is Opcode.MIN:
        return ["r = np.minimum(x, y)"]
    if op is Opcode.MAX:
        return ["r = np.maximum(x, y)"]
    raise AssertionError(f"not an ALU opcode: {op}")  # pragma: no cover


def _batch_lines(pc: int, instr: Instruction, vector: bool) -> list[str]:
    """Body statements of one PLAIN (ALU/unary) instruction.

    ``vector`` selects the data-plane emission (numpy lane vectors); the
    control plane computes on lane 0's Python ints and broadcasts via the
    whole-row store ``w[addr] = r``.  Shift amounts, pointers and branch
    tests always come from lane 0 — the footprint proof plus the per-lane
    fingerprint mask guarantee they are lane-uniform.
    """
    op = instr.opcode
    read = _vread if vector else _sread
    body: list[str] = []
    if op in ALU_OPS:
        s1, e1 = read(instr.src1, "p1")
        s2, e2 = read(instr.src2, "p2")
        if op in (Opcode.SHL, Opcode.SHR, Opcode.SRA):
            s2, e2 = _sread(instr.src2, "p2")  # control-proven scalar amount
        body += s1 + [f"x = {e1}"] + s2 + [f"y = {e2}"]
        body += (_vector_alu if vector else _scalar_alu)(op, instr)
        sd, ed = _waddr(instr.dst, "q")
        body += sd + [f"w[{ed}] = r"]
    elif op in (Opcode.MOV, Opcode.ABS, Opcode.NEG, Opcode.NOT):
        sd, ed = _waddr(instr.dst, "q")
        s1, e1 = read(instr.src1, "p1")
        body += sd + s1 + [f"x = {e1}"]
        if op is Opcode.MOV:
            body += ["r = x"]
        elif op is Opcode.ABS:
            body += [f"r = {_vwrap('np.abs(x)')}" if vector else f"r = {_wrap_expr('abs(x)')}"]
        elif op is Opcode.NEG:
            body += [f"r = {_vwrap('-x')}" if vector else f"r = {_wrap_expr('-x')}"]
        else:
            body += [f"r = {_vwrap('~x')}" if vector else f"r = {_wrap_expr('~x')}"]
        body += [f"w[{ed}] = r"]
    else:  # pragma: no cover - callers dispatch on kind first
        raise AssertionError(f"not a plain opcode: {op}")
    return body


def generate_batch_source(dec: DecodedProgram, vector_pcs: frozenset[int]) -> str:
    """Source text of the batched functions for one decoded program.

    Pure function of ``(decoded tables, vector_pcs)`` — what the
    artifact-cache persistence keys on (plus :data:`CODEGEN_VERSION`).
    Function names mirror the scalar predecoder: ``_f{i}`` plains,
    ``_c{i}`` branches (returning the taken flag), ``_s{i}`` SNB stores
    (taking the batched resolver), ``_b{i}`` fused superblocks.
    """
    lines: list[str] = [
        f"# repro.fabric.batch codegen v{CODEGEN_VERSION}: "
        f"{dec.name} ({len(vector_pcs)}/{dec.n} vector pcs)"
    ]
    for i, instr in enumerate(dec.instrs):
        op = instr.opcode
        kind = dec.kinds[i]
        if kind == _K_PLAIN:
            body = _batch_lines(i, instr, i in vector_pcs)
            lines.append(f"def _f{i}(w):")
            lines.extend(f"    {stmt}" for stmt in body)
        elif kind == _K_BRANCH:
            s1, e1 = _sread(instr.src1, "p1")
            lines.append(f"def _c{i}(w):")
            lines.extend(f"    {stmt}" for stmt in s1)
            lines.append(f"    x = {e1}")
            lines.append(f"    return {_BRANCH_EXPR[op]}")
        elif kind == _K_SNB:
            sd, ed = _waddr(instr.dst, "q")
            read = _vread if i in vector_pcs else _sread
            s1, e1 = read(instr.src1, "p1")
            lines.append(f"def _s{i}(w, res):")
            lines.extend(f"    {stmt}" for stmt in sd)
            lines.append(f"    naddr = {ed}")
            lines.extend(f"    {stmt}" for stmt in s1)
            lines.append(f"    x = {e1}")
            lines.append(f"    res({instr.aux}, naddr, x)")
        # NOP / HALT / JMP need no function
    # fused superblocks mirror the scalar block layout exactly
    for start, blk in enumerate(dec.blocks):
        if blk is None:
            continue
        _fn, count, *_rest, btarget = blk
        lines.append(f"def _b{start}(w):")
        end = start + count - (1 if btarget >= 0 else 0)
        for k in range(start, end):
            for stmt in _batch_lines(k, dec.instrs[k], k in vector_pcs):
                lines.append(f"    {stmt}")
        if btarget >= 0:
            instr = dec.instrs[start + count - 1]
            s1, e1 = _sread(instr.src1, "p1")
            for stmt in s1:
                lines.append(f"    {stmt}")
            lines.append(f"    x = {e1}")
            lines.append(f"    return {_BRANCH_EXPR[instr.opcode]}")
    return "\n".join(lines) + "\n"


@dataclass(eq=False)
class BatchCode:
    """Executable batched form of one decoded program."""

    name: str
    source: str
    #: Per-pc callable: plain/branch fns take ``(w)``, SNB fns ``(w, res)``.
    fns: list[Callable | None]
    #: Per-pc fused block ``(fn, count, branch_target)`` or None.
    blocks: list[tuple | None]
    kinds: list[int]
    targets: list[int]
    n: int
    #: JIT tier actually applied (``numba`` or ``numpy``).
    jit: str


def _compile_source(dec: DecodedProgram, source: str, jit: str) -> BatchCode:
    namespace: dict[str, object] = {}
    glb = {"np": np, "_Degrade": BatchDegrade}
    code = compile(source, f"<batch:{dec.name}>", "exec")
    exec(code, glb, namespace)
    fns: list[Callable | None] = [None] * dec.n
    for i, kind in enumerate(dec.kinds):
        if kind == _K_PLAIN:
            fns[i] = namespace[f"_f{i}"]  # type: ignore[assignment]
        elif kind == _K_BRANCH:
            fns[i] = namespace[f"_c{i}"]  # type: ignore[assignment]
        elif kind == _K_SNB:
            fns[i] = namespace[f"_s{i}"]  # type: ignore[assignment]
    blocks: list[tuple | None] = [None] * dec.n
    numba = _numba_module() if jit == "numba" else None
    for start, blk in enumerate(dec.blocks):
        if blk is None:
            continue
        _fn, count, *_rest, btarget = blk
        bfn = namespace[f"_b{start}"]
        if numba is not None:  # pragma: no cover - needs numba installed
            try:
                bfn = _JitThunk(bfn, numba.njit(cache=False)(bfn))
            except Exception:
                pass
        blocks[start] = (bfn, count, btarget)
    return BatchCode(
        name=dec.name,
        source=source,
        fns=fns,
        blocks=blocks,
        kinds=dec.kinds,
        targets=dec.targets,
        n=dec.n,
        jit=jit if numba is not None else "numpy",
    )


def _source_key(dec: DecodedProgram, vector_pcs: frozenset[int]) -> str:
    digest = hashlib.sha1(repr(sorted(vector_pcs)).encode()).hexdigest()[:10]
    return f"{dec.name}@{digest}"


def batch_code_for(
    dec: DecodedProgram,
    footprint: Footprint,
    *,
    jit: str = "numpy",
    sources: "dict[str, str] | None" = None,
) -> BatchCode:
    """Batched code for a decoded program (cached on the decode).

    ``sources`` is an optional persistent source map (plan-hash keyed in
    the artifact cache); generated sources are added to it so the caller
    can flush the map back to disk.
    """
    cache = dec.__dict__.get("_batch_code")
    if cache is None:
        cache = dec.__dict__["_batch_code"] = {}
    key = (footprint.vector_pcs, jit)
    code = cache.get(key)
    if code is not None:
        return code
    skey = _source_key(dec, footprint.vector_pcs)
    source = sources.get(skey) if sources is not None else None
    if source is None:
        source = generate_batch_source(dec, footprint.vector_pcs)
        if sources is not None:
            sources[skey] = source
    try:
        code = _compile_source(dec, source, jit)
    except Exception:
        # a stale persisted source must never kill the batch: regenerate
        source = generate_batch_source(dec, footprint.vector_pcs)
        if sources is not None:
            sources[skey] = source
        code = _compile_source(dec, source, jit)
    cache[key] = code
    return code


# ---------------------------------------------------------------------------
# the batched driver
# ---------------------------------------------------------------------------


def _run_tile_batched(code: BatchCode, w, res, entry: int, max_steps: int) -> None:
    """Advance one tile's ``(512, K)`` array entry-to-HALT.

    Mirrors :func:`repro.fabric.predecode.run_block`'s dispatch (fused
    blocks first, then per-kind), with lane-0 control driving all lanes.
    Anything unexpected — pc escaping the region, a runaway loop — raises
    :class:`BatchDegrade`; the pilot then reproduces the real behaviour.
    """
    fns = code.fns
    blocks = code.blocks
    kinds = code.kinds
    targets = code.targets
    n = code.n
    pc = entry
    steps = 0
    while 0 <= pc < n:
        blk = blocks[pc]
        if blk is not None:
            fn, count, btarget = blk
            steps += count
            if fn(w) and btarget >= 0:
                pc = btarget
            else:
                pc += count
        else:
            kind = kinds[pc]
            if kind == _K_PLAIN:
                fns[pc](w)
                pc += 1
            elif kind == _K_BRANCH:
                pc = targets[pc] if fns[pc](w) else pc + 1
            elif kind == _K_SNB:
                fns[pc](w, res)
                pc += 1
            elif kind == _K_JMP:
                pc = targets[pc]
            elif kind == _K_NOP:
                pc += 1
            else:  # HALT
                return
            steps += 1
        if steps > max_steps:
            raise BatchDegrade(f"{code.name}: exceeded {max_steps} instructions")
    raise BatchDegrade(f"{code.name}: pc left the program region")


# ---------------------------------------------------------------------------
# lane state + result views
# ---------------------------------------------------------------------------


class BatchState:
    """Per-coordinate ``(512, K)`` lane memories plus the lane mask."""

    def __init__(self, mesh, k: int) -> None:
        self.k = k
        self.arrays: dict[tuple[int, int], np.ndarray] = {}
        for row in range(mesh.rows):
            for col in range(mesh.cols):
                tile = mesh.tile((row, col))
                arr = np.empty((tile.dmem.size, k), dtype=np.int64)
                arr[:] = np.asarray(tile.dmem._words, dtype=np.int64)[:, None]
                self.arrays[(row, col)] = arr
        #: Per-lane validity: False once a lane's fingerprint diverged.
        self.lane_ok = np.ones(k, dtype=bool)


class _MeshView:
    """Immutable word snapshot of a whole mesh (pilot / fallback lanes)."""

    __slots__ = ("mem",)

    def __init__(self, mesh) -> None:
        self.mem = {
            (r, c): list(mesh.tile((r, c)).dmem._words)
            for r in range(mesh.rows)
            for c in range(mesh.cols)
        }

    def words(self, coord, base: int, count: int) -> list[int]:
        return self.mem[coord][base:base + count]


class _LaneView:
    """One lane's column of the batched state."""

    __slots__ = ("state", "lane")

    def __init__(self, state: BatchState, lane: int) -> None:
        self.state = state
        self.lane = lane

    def words(self, coord, base: int, count: int) -> list[int]:
        return self.state.arrays[coord][base:base + count, self.lane].tolist()


@dataclass
class LaneResult:
    """Outcome of one lane of a batched artifact execution."""

    index: int
    #: True when this lane's outputs come from the vector tier; False for
    #: the pilot and for lanes replayed on the scalar path.
    batched: bool
    #: True when the lane's control fingerprint diverged (it then took the
    #: checkpoint/rollback scalar path; its outputs are still exact).
    diverged: bool
    #: Simulated fabric time of this lane (batched lanes replicate the
    #: pilot's delta — identical control trace, identical cycles).
    sim_ns: float
    #: Configuration-port busy time attributed to this lane (ditto).
    reconfig_ns: float
    _view: object = field(repr=False, default=None)

    def words(self, coord, base: int, count: int) -> list[int]:
        """Read ``count`` data-memory words of this lane's final state."""
        return self._view.words(coord, base, count)


@dataclass
class BatchResult:
    """Outcome of :func:`execute_artifact_batch`."""

    lanes: list[LaneResult]
    #: True when the whole vector tier was abandoned (structural
    #: ineligibility, cross-check mismatch, or ``K < min_vector_lanes``).
    degraded: bool
    degrade_reason: str = ""
    #: JIT tier the generated code ran under (``numba``/``numpy``/``off``).
    jit_tier: str = "numpy"
    pilot_sim_ns: float = 0.0


# ---------------------------------------------------------------------------
# per-epoch configuration mirroring
# ---------------------------------------------------------------------------


def _wrap_rows(values: list) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    return (arr * 65536) >> 16


def _mirror_epoch_config(state: BatchState, mesh, lane_specs) -> None:
    """Apply one epoch's host pokes and ICAP data images to every lane.

    Mirrors :meth:`RuntimeManager._execute_epoch` + the reconfiguration
    planner's apply order exactly: pokes first, then (sorted) data images
    of programs being loaded, then the epoch's own (sorted) data images.
    Link changes carry no data-memory payload.  Body epochs share their
    image dicts across lanes by identity (``CompiledArtifact.bind``),
    so only pokes are genuinely per-lane.
    """
    spec0 = lane_specs[0]
    k = state.k
    # -- host pokes (the per-lane payload) -----------------------------
    for coord, image0 in spec0.pokes.items():
        arr = state.arrays[coord]
        addrs = list(image0)
        if all(spec is spec0 for spec in lane_specs):
            matrix = [[image0[a]] * k for a in addrs]
        else:
            columns = []
            for spec in lane_specs:
                image = spec.pokes.get(coord)
                if image is None or set(image) != set(image0):
                    raise BatchDegrade(
                        f"lane poke address sets differ at {coord}"
                    )
                columns.append(image)
            matrix = [[col[a] for col in columns] for a in addrs]
        arr[np.asarray(addrs, dtype=np.int64)] = _wrap_rows(matrix)
    for spec in lane_specs[1:]:
        extra = set(spec.pokes) - set(spec0.pokes)
        if extra:
            raise BatchDegrade(f"lane pokes touch extra tiles {sorted(extra)}")
        if spec.programs is not spec0.programs and spec.programs != spec0.programs:
            raise BatchDegrade("lane program maps differ")
        if (
            spec.data_images is not spec0.data_images
            and spec.data_images != spec0.data_images
        ):
            raise BatchDegrade("lane data images differ")
    # -- program data images (only for programs the planner will load) --
    for coord, program in sorted(spec0.programs.items()):
        if mesh.tile(coord).resident_base(program) is not None:
            continue  # pinned: the planner skips it, so do we
        if program.data_image:
            _broadcast_image(state.arrays[coord], program.data_image)
    # -- epoch data images ---------------------------------------------
    for coord, image in sorted(spec0.data_images.items()):
        if image:
            _broadcast_image(state.arrays[coord], image)


def _broadcast_image(arr: np.ndarray, image: dict) -> None:
    addrs = np.fromiter(image.keys(), dtype=np.int64, count=len(image))
    vals = _wrap_rows(list(image.values()))
    arr[addrs] = vals[:, None]


# ---------------------------------------------------------------------------
# persistent source store (ArtifactCache disk tier)
# ---------------------------------------------------------------------------


class _SourceStore:
    """Generated-source map persisted beside the artifact (best effort)."""

    def __init__(self, artifact) -> None:
        self.cache = None
        self.artifact_hash = getattr(artifact, "artifact_hash", "") or ""
        self.sources: dict[str, str] = {}
        self._loaded_keys: frozenset[str] = frozenset()
        if self.artifact_hash:
            try:
                from repro.compile.cache import get_cache

                self.cache = get_cache()
                loaded = self.cache.load_batch_sources(
                    self.artifact_hash, CODEGEN_VERSION
                )
                if loaded:
                    self.sources.update(loaded)
            except Exception:
                self.cache = None
        self._loaded_keys = frozenset(self.sources)

    def flush(self) -> None:
        if self.cache is None or not self.artifact_hash:
            return
        if frozenset(self.sources) == self._loaded_keys:
            return  # nothing new generated
        try:
            self.cache.save_batch_sources(
                self.artifact_hash, CODEGEN_VERSION, self.sources
            )
            self._loaded_keys = frozenset(self.sources)
        except Exception:
            pass  # the source store is a pure cache; losing it is harmless


# ---------------------------------------------------------------------------
# the pilot-driven executor
# ---------------------------------------------------------------------------


def _fingerprint_mask(fp: Footprint, arr: np.ndarray) -> np.ndarray:
    """(K,) bool: which lanes match the profiled control fingerprint."""
    if not fp.fingerprint:
        return np.ones(arr.shape[1], dtype=bool)
    cached = fp.__dict__.get("_fp_arrays")
    if cached is None:
        addrs = np.fromiter((a for a, _v in fp.fingerprint), np.int64)
        vals = np.fromiter((v for _a, v in fp.fingerprint), np.int64)
        cached = fp.__dict__["_fp_arrays"] = (addrs, vals)
    addrs, vals = cached
    return (arr[addrs] == vals[:, None]).all(axis=0)


class _PhaseDriver:
    """The ``RuntimeManager.phase_hook`` advancing all lanes per phase."""

    def __init__(self, rtms, state: BatchState, jit: str, store: _SourceStore,
                 max_steps: int) -> None:
        self.rtms = rtms
        self.state = state
        self.jit = jit
        self.store = store
        self.max_steps = max_steps
        self.degraded = False
        self.reason = ""
        self._resolvers: dict[tuple[int, int], Callable] = {}

    def degrade(self, reason: str) -> None:
        if not self.degraded:
            self.degraded = True
            self.reason = reason

    def _resolver(self, coord):
        res = self._resolvers.get(coord)
        if res is None:
            mesh = self.rtms.mesh
            arrays = self.state.arrays
            dirs = tuple(Direction)

            def res(dircode: int, naddr, value, _coord=coord):
                direction = dirs[dircode]
                if mesh.active_link(_coord) is not direction:
                    raise BatchDegrade(f"link mismatch at {_coord}")
                if not 0 <= naddr < _N:
                    raise BatchDegrade(f"neighbour address {naddr} out of range")
                target = mesh.neighbour_coord(_coord, direction)
                if type(value) is int:
                    value = wrap_word(value)
                arrays[target][naddr] = value

            self._resolvers[coord] = res
        return res

    def on_phase(self, spec, tiles) -> None:
        """Called by ``_execute_epoch`` after tile starts, before compute."""
        if self.degraded or not tiles:
            return
        try:
            from repro.fabric.simulator import FastPhase

            phase = FastPhase.analyse(tiles)
            if phase is None:
                raise BatchDegrade("a tile of the phase is not decodable")
            decoded, footprints = phase.decoded, phase.footprints
            for tile, fp in zip(tiles, footprints):
                if fp is None:
                    raise BatchDegrade(f"no footprint for tile {tile.coord}")
            if phase.fallbacks:
                raise BatchDegrade("phase not proven conflict-free")
            # -- per-lane divergence masks (sticky) ---------------------
            for tile, fp in zip(tiles, footprints):
                self.state.lane_ok &= _fingerprint_mask(
                    fp, self.state.arrays[tile.coord]
                )
            # -- advance every lane through the phase -------------------
            for tile, (dec, base), fp in zip(tiles, decoded, footprints):
                code = batch_code_for(
                    dec, fp, jit=self.jit, sources=self.store.sources
                )
                _run_tile_batched(
                    code,
                    self.state.arrays[tile.coord],
                    self._resolver(tile.coord) if dec.has_snb else None,
                    tile.pc - base,
                    self.max_steps,
                )
        except BatchDegrade as exc:
            self.degrade(str(exc))
        except Exception as exc:  # defensive: never poison the pilot
            self.degrade(f"unexpected {exc!r}")


def execute_artifact_batch(
    rtms,
    artifact,
    payloads: Sequence,
    *,
    tag: str = "",
    on_slice: Callable[[int], None] | None = None,
    jit: str | None = None,
    min_vector_lanes: int | None = None,
) -> BatchResult:
    """Execute ``artifact`` once per payload, vectorized across lanes.

    Lane 0 is the *pilot*: it runs through the ordinary engine on the
    real mesh (exact timing/ICAP accounting).  The remaining lanes
    advance as columns of batched numpy state; any lane whose control
    fingerprint diverges — and every lane, if the vector tier degrades —
    is replayed bit-exactly on the scalar path from a pre-batch
    checkpoint.  Outputs are therefore always identical to K sequential
    :meth:`~repro.fabric.rtms.RuntimeManager.execute_artifact` calls.

    ``on_slice(i)`` fires before epoch ``i`` (the cancellation poll
    site).  ``jit`` overrides ``REPRO_BATCH_JIT``.  Lane timing: batched
    lanes replicate the pilot's simulated-time/ICAP deltas (identical
    control trace => identical cycles) and the manager clock advances as
    if the lanes had run sequentially.
    """
    if not payloads:
        raise BatchError("execute_artifact_batch needs at least one payload")
    rtms._check_artifact(artifact)
    tier = resolve_jit_tier(jit)
    k = len(payloads)
    if min_vector_lanes is None:
        min_vector_lanes = DEFAULT_MIN_VECTOR_LANES

    def _scalar_lane(index: int, payload) -> LaneResult:
        start_ns = rtms.now_ns
        busy = rtms.icap.total_busy_ns
        rtms.execute_artifact(artifact, payload, tag=f"{tag}l{index}_")
        return LaneResult(
            index=index,
            batched=False,
            diverged=False,
            sim_ns=rtms.now_ns - start_ns,
            reconfig_ns=rtms.icap.total_busy_ns - busy,
            _view=_MeshView(rtms.mesh),
        )

    vector_viable = (
        tier != "off"
        and k >= min_vector_lanes
        and not getattr(rtms, "dataflow", False)
        and _pd.resolve_engine(rtms.engine) == "fast"
    )
    if not vector_viable:
        lanes = [_scalar_lane(i, p) for i, p in enumerate(payloads)]
        return BatchResult(
            lanes=lanes,
            degraded=True,
            degrade_reason="vector tier disabled"
            if tier == "off" or k < min_vector_lanes
            else "reference engine / dataflow manager",
            jit_tier=tier,
        )

    # Bind the pilot fully; other lanes only need their *input* epoch
    # (the per-lane pokes) — body epochs share every payload dict across
    # lanes by construction (``CompiledArtifact.bind``), so retagging
    # them per lane would only burn time on identical copies.  Binding
    # the input port up front still validates each lane's payload shape
    # before anything runs (mismatched shapes are rejected cleanly).
    pilot_epochs = artifact.bind(payloads[0], f"{tag}l0_")
    port = artifact.plan.input_port
    lane_inputs = None
    if port is not None:
        lane_inputs = [pilot_epochs[0]] + [
            port.bind(payload, f"{tag}l{index}_")
            for index, payload in enumerate(payloads[1:], start=1)
        ]
    state = BatchState(rtms.mesh, k)
    store = _SourceStore(artifact)
    driver = _PhaseDriver(rtms, state, tier, store, _MAX_STEPS)
    checkpoint = rtms.checkpoint()
    start_ns = rtms.now_ns
    busy_before = rtms.icap.total_busy_ns
    previous_hook = getattr(rtms, "phase_hook", None)
    rtms.phase_hook = driver.on_phase
    try:
        for index, epoch in enumerate(pilot_epochs):
            if on_slice is not None:
                on_slice(index)
            if not driver.degraded:
                if index == 0 and lane_inputs is not None:
                    lane_specs = lane_inputs  # the one per-lane epoch
                else:
                    lane_specs = [epoch]  # body: shared across lanes
                try:
                    _mirror_epoch_config(state, rtms.mesh, lane_specs)
                except BatchDegrade as exc:
                    driver.degrade(str(exc))
            rtms.execute([epoch])
    finally:
        rtms.phase_hook = previous_hook
        store.flush()
    pilot_sim = rtms.now_ns - start_ns
    pilot_reconfig = rtms.icap.total_busy_ns - busy_before

    # -- lane-0 cross-check: the vector tier must have tracked the pilot
    if not driver.degraded:
        for coord, arr in state.arrays.items():
            live = np.asarray(rtms.mesh.tile(coord).dmem._words, dtype=np.int64)
            if not np.array_equal(arr[:, 0], live):
                driver.degrade(f"pilot cross-check mismatch at {coord}")
                break

    lane_ok = state.lane_ok.copy()
    if driver.degraded:
        lane_ok[:] = False
    pilot_view = _MeshView(rtms.mesh)
    lanes: list[LaneResult] = [
        LaneResult(
            index=0,
            batched=False,
            diverged=False,
            sim_ns=pilot_sim,
            reconfig_ns=pilot_reconfig,
            _view=pilot_view,
        )
    ]
    fallback = [i for i in range(1, k) if not lane_ok[i]]
    batched = [i for i in range(1, k) if lane_ok[i]]
    for index in batched:
        lanes.append(
            LaneResult(
                index=index,
                batched=True,
                diverged=False,
                sim_ns=pilot_sim,
                reconfig_ns=pilot_reconfig,
                _view=_LaneView(state, index),
            )
        )
    if fallback:
        resume = rtms.checkpoint()
        for index in fallback:
            rtms.restore(checkpoint)
            start = rtms.now_ns
            busy = rtms.icap.total_busy_ns
            rtms.execute(artifact.bind(payloads[index], f"{tag}l{index}_"))
            lanes.append(
                LaneResult(
                    index=index,
                    batched=False,
                    diverged=not driver.degraded,
                    sim_ns=rtms.now_ns - start,
                    reconfig_ns=rtms.icap.total_busy_ns - busy,
                    _view=_MeshView(rtms.mesh),
                )
            )
        rtms.restore(resume)
    # Sequential-equivalent clock: replicated lanes occupied the fabric
    # for the pilot's duration each (the fallback replays already charged
    # their real time above).
    rtms.now_ns += len(batched) * pilot_sim
    lanes.sort(key=lambda lane: lane.index)
    return BatchResult(
        lanes=lanes,
        degraded=driver.degraded,
        degrade_reason=driver.reason,
        jit_tier=tier,
        pilot_sim_ns=pilot_sim,
    )
