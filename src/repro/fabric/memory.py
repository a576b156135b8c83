"""Tile memories: 512x48 data memory and 512x72 instruction memory.

Data memory doubles as the register file: all instruction operands address
it.  The physical tile builds it from two dual-port BRAMs giving two reads
plus one write per cycle; that port budget is enforced *statically* through
:attr:`repro.fabric.isa.Instruction.cycles` (multi-read instructions take
extra cycles) rather than dynamically, so the functional model stays simple
while the timing stays honest.

Both memories track access counters so tests and the trace module can check
e.g. that a butterfly program touches exactly the words its cost table
claims.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import FaultError, MemoryError_
from repro.fabric.fixedpoint import WORD_BITS, wrap_word

# wrap_word's constants, inlined into the hot store path below.
_WORD_MASK = (1 << WORD_BITS) - 1
_SIGN_BIT = 1 << (WORD_BITS - 1)
_WORD_WRAP = 1 << WORD_BITS
from repro.units import DATA_MEM_WORDS, INSTR_MEM_WORDS


class DataMemory:
    """A 512-word memory of signed 48-bit integers.

    Words are plain Python ints so fixed-point intermediates never silently
    lose bits; every store wraps to 48-bit two's complement, matching the
    hardware datapath.
    """

    def __init__(self, size: int = DATA_MEM_WORDS) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.size = size
        self._words: list[int] = [0] * size
        self.reads = 0
        self.writes = 0
        #: Words rewritten through the reconfiguration port (for stats).
        self.reconfig_writes = 0

    def _check(self, addr: int) -> None:
        if not isinstance(addr, int):
            raise MemoryError_(f"address must be int, got {type(addr).__name__}")
        if not 0 <= addr < self.size:
            raise MemoryError_(f"address {addr} outside data memory [0, {self.size})")

    def read(self, addr: int) -> int:
        """Read one word (counted as a port access)."""
        # Hot path inlined (SNB stores and interpreter operand fetches):
        # ints within range skip the diagnostic helper entirely.
        if type(addr) is int and 0 <= addr < self.size:
            self.reads += 1
            return self._words[addr]
        self._check(addr)
        self.reads += 1
        return self._words[addr]

    def write(self, addr: int, value: int) -> None:
        """Write one word, wrapping to 48 bits (counted as a port access)."""
        if type(addr) is int and 0 <= addr < self.size:
            self.writes += 1
            # wrap_word inlined: stores are the hottest port operation.
            value &= _WORD_MASK
            if value & _SIGN_BIT:
                value -= _WORD_WRAP
            self._words[addr] = value
            return
        self._check(addr)
        self.writes += 1
        self._words[addr] = wrap_word(value)

    def peek(self, addr: int) -> int:
        """Read without touching the access counters (debug/host access)."""
        self._check(addr)
        return self._words[addr]

    def poke(self, addr: int, value: int) -> None:
        """Write without touching the access counters (host preload)."""
        if type(addr) is int and 0 <= addr < self.size:
            self._words[addr] = wrap_word(value)
            return
        self._check(addr)
        self._words[addr] = wrap_word(value)

    def load_image(self, image: Mapping[int, int], *, reconfig: bool = False) -> int:
        """Bulk-load ``{addr: word}``; returns the number of words written.

        With ``reconfig=True`` the words are counted as ICAP traffic, which
        is how :class:`~repro.fabric.reconfig.ReconfigPlanner` applies data
        images.
        """
        words = self._words
        size = self.size
        for addr, value in image.items():
            if type(addr) is not int or not 0 <= addr < size:
                self._check(addr)
            # wrap_word inlined, as in write(): images are the bulk of pokes.
            value &= _WORD_MASK
            if value & _SIGN_BIT:
                value -= _WORD_WRAP
            words[addr] = value
        if reconfig:
            self.reconfig_writes += len(image)
        return len(image)

    def load_block(self, base: int, values: Iterable[int]) -> int:
        """Host-load consecutive words starting at ``base``."""
        count = 0
        for offset, value in enumerate(values):
            self.poke(base + offset, value)
            count += 1
        return count

    def dump_block(self, base: int, count: int) -> list[int]:
        """Read ``count`` consecutive words without counting port accesses."""
        if count < 0:
            raise MemoryError_(f"count must be non-negative, got {count}")
        self._check(base)
        if count and base + count > self.size:
            raise MemoryError_(
                f"block [{base}, {base + count}) exceeds memory size {self.size}"
            )
        return self._words[base:base + count]

    def snapshot(self) -> list[int]:
        """Copy of the full memory contents."""
        return list(self._words)

    def load_words(self, words: Sequence[int]) -> None:
        """Replace the whole contents from a :meth:`snapshot` copy.

        Counters are untouched (checkpoint restore is a host/ICAP-side
        operation whose *time* cost is charged by whoever schedules the
        transfer).  Values are re-wrapped defensively so hand-built word
        lists behave like a sequence of :meth:`poke` calls.
        """
        if len(words) != self.size:
            raise MemoryError_(
                f"restore image has {len(words)} words, memory has {self.size}"
            )
        # In-place so any alias of the word list stays valid.
        self._words[:] = [wrap_word(w) for w in words]

    def diff(self, other: "DataMemory | Sequence[int]") -> list[int]:
        """Addresses whose words differ from ``other`` (ascending).

        ``other`` may be another :class:`DataMemory` of the same size or
        a full word list as returned by :meth:`snapshot`.  This is the
        primitive readback scrubbing is built on: compare the frame just
        read back against the golden/checkpoint image and return exactly
        the corrupted word addresses, so a *partial* repair can rewrite
        only those words (33.33 ns each over the ICAP) instead of
        reloading the whole 512-word memory.  No access counters are
        touched — readback does not go through the tile's ports.
        """
        words = other._words if isinstance(other, DataMemory) else other
        if len(words) != self.size:
            raise MemoryError_(
                f"cannot diff {self.size}-word memory against "
                f"{len(words)}-word image"
            )
        mine = self._words
        return [addr for addr in range(self.size) if mine[addr] != words[addr]]

    def clear(self) -> None:
        """Zero the memory and reset counters."""
        self._words = [0] * self.size
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the port-access counters without touching the contents.

        Used by the engine-equivalence tests to compare the access
        accounting of one run in isolation from the setup traffic.
        """
        self.reads = 0
        self.writes = 0
        self.reconfig_writes = 0


#: Sentinel stored in an instruction slot hit by an SEU.  Executing it is
#: an error; readback scrubbing recognises it as a corrupted frame word.
class _CorruptedWord:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return "<SEU-corrupted instruction word>"


SEU_CORRUPTED = _CorruptedWord()


class InstructionMemory:
    """A 512-word instruction store holding decoded instructions.

    The hardware stores 72-bit encoded words; the model stores the decoded
    :class:`~repro.fabric.isa.Instruction` objects and only uses the 72-bit
    encoding to size reconfiguration transfers.
    """

    def __init__(self, size: int = INSTR_MEM_WORDS) -> None:
        if size <= 0:
            raise ValueError(f"memory size must be positive, got {size}")
        self.size = size
        self._slots: list[object | None] = [None] * size
        self.reconfig_writes = 0
        #: SEU-hit slots: addr -> the original (pre-fault) slot contents.
        self._corrupted: dict[int, object | None] = {}

    def load(self, instructions: list, base: int = 0, *, reconfig: bool = False) -> int:
        """Load a program image at ``base``; returns words written.

        Raises :class:`MemoryError_` if the program does not fit — the
        paper leans on this limit (Huffman does not fit in one tile and is
        split into five processes).
        """
        if base < 0 or base + len(instructions) > self.size:
            raise MemoryError_(
                f"program of {len(instructions)} words at base {base} "
                f"exceeds instruction memory of {self.size} words"
            )
        self._slots[base:base + len(instructions)] = instructions
        if reconfig:
            self.reconfig_writes += len(instructions)
        return len(instructions)

    def fetch(self, pc: int):
        """Fetch the instruction at ``pc``.

        Fetching an unloaded slot is an error: the model treats it as the
        tile running off the end of its program.
        """
        if not 0 <= pc < self.size:
            raise MemoryError_(f"pc {pc} outside instruction memory [0, {self.size})")
        instr = self._slots[pc]
        if instr is None:
            raise MemoryError_(f"fetch from unloaded instruction word {pc}")
        if instr is SEU_CORRUPTED:
            raise FaultError(
                f"fetch from SEU-corrupted instruction word {pc} "
                f"(scrub the tile before running it)"
            )
        return instr

    # ------------------------------------------------------------------
    # fault-model hooks (SEU corruption, readback scrubbing)
    # ------------------------------------------------------------------

    def corrupt_slot(self, addr: int) -> None:
        """Model an SEU in instruction word ``addr``.

        The decoded model cannot meaningfully flip one of the 72 encoded
        bits, so the whole word is replaced by :data:`SEU_CORRUPTED`:
        executing it raises :class:`~repro.errors.FaultError` and
        readback scrubbing sees a frame mismatch.  The pre-fault slot is
        kept so :meth:`repair_slot` can restore it (the golden-image
        rewrite).  Corrupting a corrupted word is a no-op (stuck-at).
        """
        if not 0 <= addr < self.size:
            raise MemoryError_(f"address {addr} outside instruction memory")
        if addr in self._corrupted:
            return
        self._corrupted[addr] = self._slots[addr]
        self._slots[addr] = SEU_CORRUPTED

    def repair_slot(self, addr: int) -> None:
        """Rewrite a corrupted word from its pre-fault contents."""
        if addr in self._corrupted:
            self._slots[addr] = self._corrupted.pop(addr)

    @property
    def has_corruption(self) -> bool:
        """True when any slot currently holds an SEU-corrupted word."""
        return bool(self._corrupted)

    def corrupted_slots(self) -> list[int]:
        """Addresses of SEU-corrupted words (ascending)."""
        return sorted(self._corrupted)

    # ------------------------------------------------------------------
    # snapshots (checkpoint / golden-image machinery)
    # ------------------------------------------------------------------

    def snapshot(self) -> list[object | None]:
        """Copy of the slot list (decoded objects are shared, immutable)."""
        return list(self._slots)

    def load_slots(self, slots: Sequence[object | None]) -> None:
        """Restore the slot list from a :meth:`snapshot` copy.

        Clears any SEU corruption (a full golden rewrite repairs it) and
        leaves ``reconfig_writes`` untouched — time/traffic accounting is
        the scheduler's job.
        """
        if len(slots) != self.size:
            raise MemoryError_(
                f"restore image has {len(slots)} slots, memory has {self.size}"
            )
        self._slots = list(slots)
        self._corrupted.clear()

    def diff(self, golden: Sequence[object | None]) -> list[int]:
        """Slot addresses that differ from a golden :meth:`snapshot`.

        Comparison is by identity: decoded instruction objects are shared
        between the image and the memory, so any slot that is not the
        same object (corrupted sentinel, evicted, different program) is a
        mismatch.
        """
        if len(golden) != self.size:
            raise MemoryError_(
                f"cannot diff {self.size}-slot memory against "
                f"{len(golden)}-slot image"
            )
        mine = self._slots
        return [addr for addr in range(self.size) if mine[addr] is not golden[addr]]

    def loaded_words(self) -> int:
        """Number of occupied instruction slots."""
        return sum(1 for slot in self._slots if slot is not None)

    def loaded_addrs(self) -> list[int]:
        """Addresses of occupied instruction slots (ascending).

        Used by the fault injector to retarget an SEU that hit an
        unloaded slot onto architecturally live state.
        """
        return [a for a, slot in enumerate(self._slots) if slot is not None]

    def peek_slot(self, addr: int):
        """Slot contents without the fetch-time checks (host/debug view).

        Unlike :meth:`fetch` this returns unloaded (``None``) and
        SEU-corrupted slots as-is instead of raising — it is the readback
        path, not the execution path.
        """
        if not 0 <= addr < self.size:
            raise MemoryError_(f"address {addr} outside instruction memory")
        return self._slots[addr]

    def clear(self) -> None:
        """Erase all instruction slots."""
        self._slots = [None] * self.size
        self.reconfig_writes = 0
        self._corrupted.clear()
