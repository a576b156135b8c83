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
* the **fast** tier (default) pops the heap once per *communication
  boundary*: a statically decoded program advances through whole silent
  basic-block runs between ``SNB``/``HALT`` events.  Tiles that some other
  tile can store into are single-stepped so every remote write lands at
  its exact global time, and tiles of a phase proven conflict-free run
  entry-to-``HALT`` in one event as their lowered trace.  Store order,
  cycle counts, memory images and the returned :class:`ConcurrentRun` are
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
    #: The :class:`FastPhase` a fast-engine run executed (None: oracle).
    phase: "FastPhase | None" = field(default=None, repr=False, compare=False)

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
    phase: "FastPhase | None" = None,
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
    bit-identical results.  A fast run returns the :class:`FastPhase` it
    executed as ``ConcurrentRun.phase``; passing that back as ``phase``
    for the same tiles at the same programs, bases and entry pcs (what a
    lowered plan's guard establishes) skips decoding and phase analysis
    whenever :meth:`FastPhase.holds`.
    """
    if phase is not None and phase.holds():
        return phase.run(max_cycles_per_tile, start_ns)
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
    ``start_ns`` (no float-rounding ties).  Both engine tiers key their
    heaps identically, which is part of the bit-identity contract.
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


# Per-tile advance mode in the fast loop.
_MODE_FULL = 0  # proven conflict-free: entry->HALT in one event, lowered
_MODE_BATCH = 1  # runs whole silent blocks, pausing before each SNB
_MODE_STEP = 2  # some other tile stores into it: one instruction per event
_MODE_REF = 3  # left its decoded image (co-residency): oracle single-steps
_BLOCK_HALT, _BLOCK_BUDGET = _pd.BLOCK_HALT, _pd.BLOCK_BUDGET

# Phase-analysis memo: the edge/commute/mode derivation is a pure function
# of the phase signature (per-tile coord, decoded program, base, entry pc)
# and of which footprints validated against live memory, so repeated phases
# (every stage of a streamed transform) skip straight to the cached modes.
# Values keep references to the decoded programs so the id()s in the key
# stay pinned.
_ANALYSIS_MEMO: dict[tuple, tuple[tuple[int, ...], tuple]] = {}
_ANALYSIS_MEMO_MAX = 4096


@dataclass(eq=False)
class FastPhase:
    """One phase's fast-engine state, hoisted out of the event loop:
    each tile's ``(decoded program, base)``, validated footprint and
    advance mode.  A caller that knows the phase repeats (a lowered plan)
    keeps the object and re-checks only :meth:`holds` before a
    :meth:`run`."""

    tiles: list[Tile]
    decoded: list[tuple[_pd.DecodedProgram, int]]
    footprints: list[_pd.Footprint | None]
    modes: tuple[int, ...]

    def __post_init__(self) -> None:
        self.coords = tuple(tile.coord for tile in self.tiles)
        self.pcs = tuple(tile.pc for tile in self.tiles)
        #: The elapsed-0 events, sorted: already a valid heap.
        self.first = sorted((0, c, i) for i, c in enumerate(self.coords))
        #: Per tile, everything an event needs: (tile, mode, dec, base, fp).
        self.events = [
            (tile, mode, dec, base, fp) for tile, mode, (dec, base), fp
            in zip(self.tiles, self.modes, self.decoded, self.footprints)
        ]
        self.fallbacks = len(self.modes) - self.modes.count(_MODE_FULL)

    @classmethod
    def analyse(cls, tiles: list[Tile]) -> "FastPhase | None":
        """Decode and analyse a phase (``None``: a tile is ineligible)."""
        decoded = [_pd.decode_for_tile(tile) for tile in tiles]
        if any(entry is None for entry in decoded):
            return None
        footprints = [
            _pd.footprint_for(tile, dec, base)
            for tile, (dec, base) in zip(tiles, decoded)
        ]
        # Footprint objects are cached per (program, entry) on the decoded
        # program, so the rest of the analysis is fully determined by the
        # phase signature plus which footprints validated — memoized.
        signature = tuple(
            (tile.coord, id(dec), base, tile.pc)
            for tile, (dec, base) in zip(tiles, decoded)
        )
        memo_key = (signature, tuple(fp is not None for fp in footprints))
        hit = _ANALYSIS_MEMO.get(memo_key)
        if hit is not None:
            modes = hit[0]
        else:
            coords = {tile.coord: i for i, tile in enumerate(tiles)}
            modes = tuple(_analyse_phase(tiles, decoded, coords, footprints))
            if len(_ANALYSIS_MEMO) >= _ANALYSIS_MEMO_MAX:
                _ANALYSIS_MEMO.clear()
            _ANALYSIS_MEMO[memo_key] = (modes, tuple(d for d, _ in decoded))
        return cls(tiles, decoded, footprints, modes)

    def holds(self) -> bool:
        """The per-run checks, per tile: the analysed entry pc, no
        SEU-corrupted word, and :func:`predecode.footprint_for`'s verdict
        unchanged (fingerprint words match, or still no footprint).
        Program, residency and memory size are the caller's guarantee."""
        for tile, (dec, base), fp, pc in zip(
            self.tiles, self.decoded, self.footprints, self.pcs
        ):
            if tile.pc != pc or tile.imem.has_corruption:
                return False
            if fp is None:
                if _pd.footprint_for(tile, dec, base) is not None:
                    return False
                continue
            w = tile.dmem._words
            for addr, value in fp.fingerprint:
                if w[addr] != value:
                    return False
        return True

    def run(
        self, max_cycles_per_tile: int = 10_000_000, start_ns: float = 0.0
    ) -> ConcurrentRun:
        """Communication-boundary batching over the same event heap.

        Soundness argument (why this preserves bit-identical results):

        * tiles only *read* their own data memory, and only *write*
          remotely through ``SNB`` — so a tile may be advanced through a
          silent run in one event iff no other tile in the phase can
          store into it;
        * which tiles can store into which is static: the ``SNB``
          direction fields of each decoded program give the
          (conservative) set of target coordinates.  Targets are
          single-stepped, everyone else runs whole silent blocks, pausing
          *before* each of their own ``SNB`` s so the store executes when
          the paused event pops — i.e. at exactly the heap key
          ``(elapsed, coord)`` the reference interpreter gives that
          instruction.  The global store order is therefore unchanged;
        * on top of that, the footprint profiler
          (:func:`predecode.footprint_for`) can *prove* a phase
          conflict-free: when every store edge's remote address set is
          disjoint from its target's local footprint (and storers into a
          common target don't overlap), the interleaving of the phase's
          stores with the target's execution commutes, so both sides of
          an exchange advance entry-to-``HALT`` in single events;
        * all event keys are exact integers (elapsed cycles), so ordering
          and the final ``cycles * CYCLE_NS`` conversions are bit-exact.
        """
        tiles = self.tiles
        events = self.events
        start_instr = [tile.stats.instructions for tile in tiles]
        _pd.COUNTERS.fallback_runs += self.fallbacks
        run_lowered, run_block = _pd.run_lowered, _pd.run_block

        elapsed = [0] * len(tiles)
        makespan_cycles = 0
        clock = list(self.first)

        while clock:
            now, coord, index = heapq.heappop(clock)
            tile, mode, dec, base, footprint = events[index]
            remaining = max_cycles_per_tile - now
            if mode == _MODE_FULL:
                # The phase proof keeps every store of this phase off the
                # footprint's words, so the fingerprint checked at phase
                # start still holds when the event pops.
                boundary = _BLOCK_HALT
                cycles = run_lowered(tile, footprint, base, remaining)
                if cycles is None:
                    boundary, cycles = run_block(tile, dec, base, remaining)
            elif mode == _MODE_STEP:
                boundary, cycles = run_block(
                    tile, dec, base, remaining, max_instrs=1
                )
            elif mode == _MODE_BATCH:
                boundary, cycles = run_block(
                    tile, dec, base, remaining, stop_at_comm=True
                )
            else:  # _MODE_REF
                cycles = tile.step()
                boundary = _BLOCK_HALT if tile.halted else _pd.BLOCK_LIMIT
                if cycles > remaining:
                    boundary = _BLOCK_BUDGET
            if boundary == _BLOCK_BUDGET:
                raise ExecutionError(
                    f"{tile!r} exceeded {max_cycles_per_tile} cycles without halting"
                )
            finished = now + cycles
            elapsed[index] = finished
            if finished > makespan_cycles:
                makespan_cycles = finished
            if not tile.halted:
                if boundary == _pd.BLOCK_EXIT:
                    # co-residency fall-through: finish this tile on the oracle
                    events = list(events)
                    events[index] = (tile, _MODE_REF, dec, base, footprint)
                heapq.heappush(clock, (finished, coord, index))

        return ConcurrentRun(
            makespan_ns=makespan_cycles * CYCLE_NS,
            busy_ns={c: e * CYCLE_NS for c, e in zip(self.coords, elapsed)},
            instructions={
                t.coord: t.stats.instructions - before
                for t, before in zip(tiles, start_instr)
            },
            phase=self,
        )


def _analyse_phase(tiles, decoded, coords, footprints) -> list[int]:
    """Derive each tile's advance mode from the phase's store edges."""
    # Store edges: (src index, target coord, frozenset(addrs) | None).
    edges: list[tuple[int, tuple[int, int], frozenset | None]] = []
    for i, (tile, (dec, _base)) in enumerate(zip(tiles, decoded)):
        row, col = tile.coord
        fp = footprints[i]
        for direction in dec.snb_dirs:
            dr, dc = direction.delta
            target = (row + dr, col + dc)
            if fp is None:
                addrs = None  # unknown: conservative
            else:
                # A valid footprint pins the whole trace, so a direction
                # the profiled run never stored toward is truly silent.
                addrs = fp.remote.get(direction.code, frozenset())
            edges.append((i, target, addrs))

    # An edge "commutes" when its stores provably cannot interact with
    # the target's execution or any other storer's writes there.
    per_target: dict[tuple[int, int], list[int]] = {}
    for e, (_i, target, _addrs) in enumerate(edges):
        per_target.setdefault(target, []).append(e)
    commutes = [False] * len(edges)
    for e, (i, target, addrs) in enumerate(edges):
        if addrs is None:
            continue
        j = coords.get(target)
        if j is not None:
            if footprints[j] is None or (addrs & footprints[j].local):
                continue
        overlap = False
        for other in per_target[target]:
            if other == e:
                continue
            other_addrs = edges[other][2]
            if other_addrs is None or (addrs & other_addrs):
                overlap = True
                break
        if not overlap:
            commutes[e] = True

    incoming_ok = [True] * len(tiles)  # all incoming edges commute
    outgoing_ok = [True] * len(tiles)  # all outgoing edges commute
    timed_into = [False] * len(tiles)  # some storer still does timed stores
    for e, (i, target, _addrs) in enumerate(edges):
        if not commutes[e]:
            outgoing_ok[i] = False
        j = coords.get(target)
        if j is not None and not commutes[e]:
            incoming_ok[j] = False
    full = [
        footprints[i] is not None and incoming_ok[i] and outgoing_ok[i]
        for i in range(len(tiles))
    ]
    for e, (i, target, _addrs) in enumerate(edges):
        if not full[i]:
            j = coords.get(target)
            if j is not None:
                timed_into[j] = True

    # A silent unproven program simply never pauses in batch mode.
    return [
        _MODE_FULL if full[i] else _MODE_STEP if timed_into[i] else _MODE_BATCH
        for i in range(len(tiles))
    ]
