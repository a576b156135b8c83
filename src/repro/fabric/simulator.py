"""Lock-step concurrent execution of several tiles.

Within one computation phase all participating tiles run simultaneously on
the hardware.  For phases with inter-tile traffic (paired vertical
exchanges, ``vcp``) the *interleaving* of neighbour stores matters for
functional correctness, so this module executes instructions in global time
order: a heap keeps each tile's local clock and always steps the tile whose
next instruction completes earliest.  Ties break on mesh coordinate, making
runs deterministic.

For phases without cross-tile traffic the result is identical to running
the tiles one after another, just with honest concurrent timing
(makespan = slowest tile).

Two execution tiers share this contract (see :mod:`repro.fabric.predecode`):

* the **reference** tier pops the heap once per *instruction* — the oracle;
* the **fast** tier (default) runs a phase the footprint profiler proves
  conflict-free as lowered traces, each tile entry-to-``HALT`` in one
  call, when every tile's run is admitted (cycle budget, active link).
  Every other phase runs whole on the oracle from its start state.
  Cycle counts, memory images and the returned :class:`ConcurrentRun` are
  bit-identical across tiers; ``REPRO_REFERENCE_SIM=1`` (or
  ``engine="reference"``) forces the oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.fabric import predecode as _pd
from repro.fabric.tile import Tile
from repro.units import CYCLE_NS

__all__ = ["ConcurrentRun", "FastPhase", "run_concurrent"]


@dataclass
class ConcurrentRun:
    """Result of a lock-step multi-tile run."""

    #: Wall-clock duration of the phase in ns (slowest tile).
    makespan_ns: float
    #: Per-tile busy time in ns, keyed by tile coordinate.
    busy_ns: dict[tuple[int, int], float] = field(default_factory=dict)
    #: Per-tile instruction counts for this run.
    instructions: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Mean fraction of the makespan each tile spent busy."""
        if not self.busy_ns or self.makespan_ns <= 0:
            return 0.0
        return sum(self.busy_ns.values()) / (len(self.busy_ns) * self.makespan_ns)


def run_concurrent(
    tiles: list[Tile],
    max_cycles_per_tile: int = 10_000_000,
    start_ns: float = 0.0,
    *,
    engine: str | None = None,
) -> ConcurrentRun:
    """Run every tile to ``HALT`` with globally time-ordered interleaving.

    All tiles start at ``start_ns`` (per-tile skews are handled by the
    epoch scheduler, which splits skewed work into separate calls).

    The per-tile cycle budget follows the same semantics as
    :meth:`Tile.run <repro.fabric.tile.Tile.run>`: consumed cycles are
    checked **after** each instruction with ``consumed > max_cycles``,
    so a tile finishing at exactly the budget is legal and the
    instruction that crosses it (including its ``HALT``) raises
    :class:`~repro.errors.ExecutionError` identifying the runaway tile.

    ``engine`` selects ``"fast"`` / ``"reference"`` / ``None`` (auto —
    fast unless ``REPRO_REFERENCE_SIM`` is set); both tiers produce
    bit-identical results.
    """
    if not tiles:
        return ConcurrentRun(makespan_ns=0.0)
    seen: set[tuple[int, int]] = set()
    for tile in tiles:
        if tile.coord in seen:
            raise ExecutionError(f"duplicate tile coordinate {tile.coord}")
        seen.add(tile.coord)
        if tile.halted:
            raise ExecutionError(f"{tile!r} is halted; load or restart it first")

    if _pd.resolve_engine(engine) == "fast":
        phase = FastPhase.analyse(tiles)
        if phase is not None:
            return phase.run(max_cycles_per_tile, start_ns)
        _pd.COUNTERS.fallback_runs += len(tiles)
    return _run_reference(tiles, max_cycles_per_tile, start_ns)


def _run_reference(
    tiles: list[Tile],
    max_cycles_per_tile: int,
    start_ns: float,
) -> ConcurrentRun:
    """The oracle loop: one heap event per instruction.

    The heap is keyed by *elapsed cycles* (an exact integer) rather than
    absolute nanoseconds: all tiles share ``start_ns``, so cycle order is
    time order, and integer keys keep the event ordering exact for any
    ``start_ns`` (no float-rounding ties).
    """
    clock: list[tuple[int, tuple[int, int], int]] = []
    start_instr: list[int] = []
    for index, tile in enumerate(tiles):
        heapq.heappush(clock, (0, tile.coord, index))
        start_instr.append(tile.stats.instructions)

    elapsed = [0] * len(tiles)
    makespan_cycles = 0

    while clock:
        now, coord, index = heapq.heappop(clock)
        tile = tiles[index]
        cycles = tile.step()
        finished = now + cycles
        elapsed[index] = finished
        if finished > max_cycles_per_tile:
            raise ExecutionError(
                f"{tile!r} exceeded {max_cycles_per_tile} cycles without halting"
            )
        if finished > makespan_cycles:
            makespan_cycles = finished
        if not tile.halted:
            heapq.heappush(clock, (finished, coord, index))

    return ConcurrentRun(
        makespan_ns=makespan_cycles * CYCLE_NS,
        busy_ns={t.coord: elapsed[i] * CYCLE_NS for i, t in enumerate(tiles)},
        instructions={
            t.coord: t.stats.instructions - start_instr[i]
            for i, t in enumerate(tiles)
        },
    )


# Phase-analysis memo: whether a phase is proven is a pure function of the
# phase signature (per-tile coord, decoded program, base, entry pc) and of
# which footprints validated against live memory, so repeated phases
# (every stage of a streamed transform) skip straight to the verdict.
# Values keep references to the decoded programs so the id()s in the key
# stay pinned.
_ANALYSIS_MEMO: dict[tuple, tuple[bool, tuple]] = {}
_ANALYSIS_MEMO_MAX = 4096


@dataclass(eq=False)
class FastPhase:
    """One phase's fast-engine state: each tile's ``(decoded program,
    base)`` and validated footprint, and whether the phase is proven
    conflict-free."""

    tiles: list[Tile]
    decoded: list[tuple[_pd.DecodedProgram, int]]
    footprints: list[_pd.Footprint | None]
    proven: bool

    @classmethod
    def analyse(cls, tiles: list[Tile], decoded=None) -> "FastPhase | None":
        """Decode and analyse a phase (``None``: a tile is ineligible);
        ``decoded``, each tile's ``(decoded program, base)`` checked
        against it, skips the decoding."""
        if decoded is None:
            decoded = [_pd.decode_for_tile(tile) for tile in tiles]
            if any(entry is None for entry in decoded):
                return None
        footprints = [
            _pd.footprint_for(tile, dec, base)
            for tile, (dec, base) in zip(tiles, decoded)
        ]
        # Footprint objects are cached per (program, entry) on the decoded
        # program, so the verdict is fully determined by the phase
        # signature plus which footprints validated — memoized.
        signature = tuple(
            (tile.coord, id(dec), base, tile.pc)
            for tile, (dec, base) in zip(tiles, decoded)
        )
        memo_key = (signature, tuple(fp is not None for fp in footprints))
        hit = _ANALYSIS_MEMO.get(memo_key)
        if hit is not None:
            proven = hit[0]
        else:
            proven = _proven(tiles, decoded, footprints)
            if len(_ANALYSIS_MEMO) >= _ANALYSIS_MEMO_MAX:
                _ANALYSIS_MEMO.clear()
            _ANALYSIS_MEMO[memo_key] = (proven, tuple(d for d, _ in decoded))
        return cls(tiles, decoded, footprints, proven)

    def run(
        self, max_cycles_per_tile: int = 10_000_000, start_ns: float = 0.0
    ) -> ConcurrentRun:
        """Every tile entry-to-``HALT`` as its lowered trace, or the whole
        phase on the oracle.

        The traces run only when the phase is proven and every tile's run
        is admitted (:func:`predecode.admit_lowered`: budget, link).  All
        checks come before any tile runs, so a refused phase starts the
        oracle from its start state, which raises the reference's
        exception at the reference's instruction.

        Soundness of the traces: tiles only *read* their own data memory
        and only *write* remotely through ``SNB``; the phase proof keeps
        every store edge's addresses off its target's footprint and off
        every other storer's addresses there, so the stores commute with
        the target's execution and the fingerprints validated at analysis
        still hold when each trace runs.  Tiles run in coordinate order,
        the order the reference pops their elapsed-0 events.
        """
        tiles, footprints = self.tiles, self.footprints
        if self.proven:
            admitted = [
                _pd.admit_lowered(tile, fp, max_cycles_per_tile)
                for tile, fp in zip(tiles, footprints)
            ]
            if all(ok for ok, _ in admitted):
                cycles = [0] * len(tiles)
                for i in sorted(range(len(tiles)), key=lambda i: tiles[i].coord):
                    cycles[i] = _pd.run_trace(
                        tiles[i], footprints[i], self.decoded[i][1], admitted[i][1]
                    )
                return ConcurrentRun(
                    makespan_ns=max(cycles) * CYCLE_NS,
                    busy_ns={t.coord: c * CYCLE_NS for t, c in zip(tiles, cycles)},
                    instructions={
                        t.coord: fp.instructions for t, fp in zip(tiles, footprints)
                    },
                )
        _pd.COUNTERS.fallback_runs += len(tiles)
        return _run_reference(tiles, max_cycles_per_tile, start_ns)


def _proven(tiles, decoded, footprints) -> bool:
    """Whether every footprint validated and every store edge commutes:
    its addresses miss the target's footprint and every other storer's
    addresses there, so no store can interact with another tile's run."""
    if any(fp is None for fp in footprints):
        return False
    coords = {tile.coord: i for i, tile in enumerate(tiles)}
    stored: dict[tuple[int, int], set[int]] = {}
    for tile, (dec, _base), fp in zip(tiles, decoded, footprints):
        row, col = tile.coord
        for direction in dec.snb_dirs:
            dr, dc = direction.delta
            target = (row + dr, col + dc)
            # A valid footprint pins the whole trace, so a direction the
            # profiled run never stored toward is truly silent.
            addrs = fp.remote.get(direction.code, frozenset())
            j = coords.get(target)
            if j is not None and not addrs.isdisjoint(footprints[j].local):
                return False
            others = stored.setdefault(target, set())
            if not addrs.isdisjoint(others):
                return False
            others |= addrs
    return True
