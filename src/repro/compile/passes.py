"""The pass manager and the individual compiler passes.

A compile is a linear pipeline over a :class:`CompileUnit`:

``lower`` (frontend) → ``validate-links`` → ``validate-memory`` →
``validate-schedule`` → ``predecode`` → ``validate-routes`` →
``switch-table`` → ``cold-deltas`` → ``hash``

Each pass is an ordinary function ``(CompileUnit) -> None`` registered
with a name, individually importable and testable; the manager times
every pass (the ``python -m repro compile`` demo prints the timings)
and wraps failures in :class:`~repro.errors.CompileError` carrying the
pass name.

Validation rules enforced here (the fabric laws the legacy runners
only discovered at execution time):

* **link legality** — a tile's single outgoing write port may only
  attach to a principal N/E/S/W neighbour *inside* the mesh (the
  semi-systolic rule of Sec. 2);
* **memory budgets** — every data/poke address within the 512-word data
  memory, every program within the 512-word instruction memory;
* **schedule sanity** — coordinates in-mesh, unique epoch names (the
  switch-table index), run tiles carrying a resident-or-loaded program;
* **route coverage** — an ``SNB``-storing program only runs on a tile
  whose link, tracked across the whole schedule, points in the store's
  direction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import CompileError
from repro.fabric.bitstream import DMEM_BYTES_PER_WORD, program_icap_bytes
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.predecode import predecode
from repro.units import DATA_MEM_WORDS, INSTR_MEM_WORDS

from repro.compile.hashing import plan_hash
from repro.compile.ir import (
    CompiledArtifact,
    Coord,
    EpochPlan,
    KernelGraph,
    PassTiming,
    SwitchPieces,
)

__all__ = [
    "CompileUnit",
    "PassManager",
    "default_passes",
    "validate_links_pass",
    "validate_memory_pass",
    "validate_schedule_pass",
    "predecode_pass",
    "validate_routes_pass",
    "switch_table_pass",
    "cold_deltas_pass",
    "hash_pass",
    "finish",
]

@dataclass
class CompileUnit:
    """Mutable state threaded through the pass pipeline."""

    graph: KernelGraph
    plan: EpochPlan
    programs: list = field(default_factory=list)
    decoded: list = field(default_factory=list)
    epoch_names: tuple[str, ...] = ()
    switch_pieces: tuple[SwitchPieces, ...] = ()
    cold_bytes: tuple[int, ...] = ()
    cold_link_changes: tuple[int, ...] = ()
    artifact_hash: str = ""
    timings: list[PassTiming] = field(default_factory=list)


Pass = Callable[[CompileUnit], None]


# ---------------------------------------------------------------------------
# validation passes
# ---------------------------------------------------------------------------


def _check_coord(coord: Coord, plan: EpochPlan, epoch: str, what: str,
                 pass_name: str) -> None:
    row, col = coord
    if not (0 <= row < plan.rows and 0 <= col < plan.cols):
        raise CompileError(
            f"{what} coordinate {coord} outside the "
            f"{plan.rows}x{plan.cols} mesh",
            pass_name=pass_name, epoch=epoch, coord=coord,
        )


def validate_links_pass(unit: CompileUnit) -> None:
    """Every link demand attaches to an in-mesh principal neighbour."""
    plan = unit.plan
    for demand in unit.graph.links:
        _check_coord(demand.coord, plan, demand.epoch, "link", "validate-links")
        if demand.direction is None:
            continue  # detach is always legal
        if not isinstance(demand.direction, Direction):
            raise CompileError(
                f"link at {demand.coord} is not a principal direction: "
                f"{demand.direction!r}",
                pass_name="validate-links", epoch=demand.epoch,
                coord=demand.coord,
            )
        dr, dc = demand.direction.delta
        neighbour = (demand.coord[0] + dr, demand.coord[1] + dc)
        if not (0 <= neighbour[0] < plan.rows and 0 <= neighbour[1] < plan.cols):
            raise CompileError(
                f"tile {demand.coord} links {demand.direction.name} off "
                f"the mesh (neighbour {neighbour} outside "
                f"{plan.rows}x{plan.cols})",
                pass_name="validate-links", epoch=demand.epoch,
                coord=demand.coord,
            )


def validate_memory_pass(unit: CompileUnit) -> None:
    """All addresses inside the 512-word memories; programs fit IMEM."""
    plan = unit.plan
    for spec in plan.epochs:
        for kind, images in (("data image", spec.data_images),
                             ("poke", spec.pokes)):
            for coord, image in images.items():
                _check_coord(coord, plan, spec.name, kind, "validate-memory")
                for addr in image:
                    if not 0 <= addr < DATA_MEM_WORDS:
                        raise CompileError(
                            f"{kind} address {addr} at {coord} outside the "
                            f"{DATA_MEM_WORDS}-word data memory",
                            pass_name="validate-memory", epoch=spec.name,
                            coord=coord,
                        )
        for coord, program in spec.programs.items():
            _check_coord(coord, plan, spec.name, "program", "validate-memory")
            if program.imem_words > INSTR_MEM_WORDS:
                raise CompileError(
                    f"program {program.name!r} ({program.imem_words} words) "
                    f"exceeds the {INSTR_MEM_WORDS}-word instruction memory",
                    pass_name="validate-memory", epoch=spec.name, coord=coord,
                )
            for addr in program.data_image:
                if not 0 <= addr < DATA_MEM_WORDS:
                    raise CompileError(
                        f"program {program.name!r} data image address "
                        f"{addr} outside the data memory",
                        pass_name="validate-memory", epoch=spec.name,
                        coord=coord,
                    )


def validate_schedule_pass(unit: CompileUnit) -> None:
    """Epoch names unique; run/depends coordinates legal; runs runnable."""
    plan = unit.plan
    seen: set[str] = set()
    if plan.input_port is not None:
        seen.add(plan.input_port.name)
    #: Programs installed on a tile by any earlier (or this) epoch.
    installed: dict[Coord, bool] = {}
    for spec in plan.epochs:
        if spec.name in seen:
            raise CompileError(
                f"duplicate epoch name (the switch-table index needs "
                f"unique names)",
                pass_name="validate-schedule", epoch=spec.name,
            )
        seen.add(spec.name)
        for coord in spec.programs:
            installed[coord] = True
        for coord in spec.run:
            _check_coord(coord, plan, spec.name, "run", "validate-schedule")
            if not installed.get(coord):
                raise CompileError(
                    f"tile {coord} runs before any epoch installed a "
                    f"program on it",
                    pass_name="validate-schedule", epoch=spec.name,
                    coord=coord,
                )
        if len(set(spec.run)) != len(spec.run):
            raise CompileError(
                "duplicate coordinates in the run set",
                pass_name="validate-schedule", epoch=spec.name,
            )
        for coord in spec.depends_on:
            _check_coord(coord, plan, spec.name, "depends_on",
                         "validate-schedule")


# ---------------------------------------------------------------------------
# analysis / artifact passes
# ---------------------------------------------------------------------------


def predecode_pass(unit: CompileUnit) -> None:
    """Eagerly predecode every distinct program (first-use order).

    The legacy runners predecoded lazily, per tile, on first execution;
    compiling eagerly moves that cost into the (cached) compile, so the
    first work item of a warm artifact runs entirely on the fast tier.
    """
    programs: list = []
    decoded: list = []
    seen: set[int] = set()
    for spec in unit.plan.epochs:
        for _, program in sorted(spec.programs.items()):
            if id(program) in seen:
                continue
            seen.add(id(program))
            programs.append(program)
            decoded.append(predecode(program))
    unit.programs = programs
    unit.decoded = decoded


def validate_routes_pass(unit: CompileUnit) -> None:
    """SNB stores only happen over a matching configured link.

    Tracks the single write port of every tile across the whole schedule
    (links persist between epochs on real fabric) and checks each run
    program's statically known store directions against it — the check
    the mesh would otherwise only raise as a runtime ``LinkError``.
    Requires :func:`predecode_pass` (uses the decoded ``snb_dirs``).
    """
    link_state: dict[Coord, Direction | None] = {}
    for spec in unit.plan.epochs:
        for coord, direction in spec.links.items():
            link_state[coord] = direction
        for coord in spec.run:
            program = spec.programs.get(coord)
            if program is None:
                continue  # resident re-run: direction proven when installed
            dirs = predecode(program).snb_dirs
            if not dirs:
                continue
            active = link_state.get(coord)
            for direction in dirs:
                if direction != active:
                    raise CompileError(
                        f"program {program.name!r} at {coord} stores "
                        f"{direction.name} but the active link is "
                        f"{active.name if active else 'detached'}",
                        pass_name="validate-routes", epoch=spec.name,
                        coord=coord,
                    )


def switch_table_pass(unit: CompileUnit) -> None:
    """Record, per epoch, the pieces the pairwise switch-cost table is
    priced from.

    ``artifact.switch_cost_ns(i, j)`` is the reconfiguration time epoch
    ``j`` costs when it executes immediately after epoch ``i`` on an
    otherwise fresh fabric — exactly ``RuntimeManager.switch_cost([e_i,
    e_j]) - RuntimeManager.switch_cost([e_i])`` on a fresh mesh (pinned
    by the parity tests).  What epoch ``j`` would transfer — and how long
    each piece takes — does not depend on its predecessor, so this pass
    works it out once per epoch: its program loads ``(coord, program,
    ns)`` and link targets ``(coord, direction)`` in coordinate order and
    the durations of its charged data images.  An entry then only tests
    ``i``'s residency and links against ``j``'s pieces, so the pass is
    linear in the epochs and no E² table is built or stored.
    """
    transfer_ns = IcapPort().transfer_ns
    pieces = []
    for spec in unit.plan.epochs:
        loads = tuple(
            (coord, program, transfer_ns(program_icap_bytes(program)))
            for coord, program in sorted(spec.programs.items())
        )
        images = tuple(
            transfer_ns(len(image) * DMEM_BYTES_PER_WORD)
            for _, image in sorted(spec.data_images.items())
            if image
        )
        pieces.append((loads, images, tuple(sorted(spec.links.items()))))
    unit.epoch_names = tuple(spec.name for spec in unit.plan.epochs)
    unit.switch_pieces = tuple(pieces)


def cold_deltas_pass(unit: CompileUnit) -> None:
    """Per-epoch bitstream deltas of one cold sequential execution.

    Walks setup + body accumulating residency and link state the way a
    cold fabric would, recording per epoch the ICAP payload bytes and
    billable link changes — byte-for-byte what
    :class:`~repro.fabric.reconfig.ReconfigPlanner` emits on a fresh
    mesh (instruction words 9 B, data words 6 B; capacity eviction not
    modeled, same caveat as ``switch_cost``).
    """
    resident: dict[Coord, set[int]] = {}
    links: dict[Coord, Direction | None] = {}
    cold_bytes: list[int] = []
    cold_links: list[int] = []
    for spec in unit.plan.epochs:
        nbytes = 0
        changed = 0
        for coord, program in sorted(spec.programs.items()):
            if id(program) in resident.get(coord, ()):
                continue
            nbytes += program_icap_bytes(program)
            resident.setdefault(coord, set()).add(id(program))
        for _, image in sorted(spec.data_images.items()):
            nbytes += len(image) * DMEM_BYTES_PER_WORD
        for coord, direction in sorted(spec.links.items()):
            if links.get(coord) == direction:
                continue
            changed += 1
            links[coord] = direction
        cold_bytes.append(nbytes)
        cold_links.append(changed)
    unit.cold_bytes = tuple(cold_bytes)
    unit.cold_link_changes = tuple(cold_links)


def hash_pass(unit: CompileUnit) -> None:
    """Content-address the plan (the cache key and artifact identity)."""
    unit.artifact_hash = plan_hash(unit.plan)


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------

DEFAULT_PASSES: tuple[tuple[str, Pass], ...] = (
    ("validate-links", validate_links_pass),
    ("validate-memory", validate_memory_pass),
    ("validate-schedule", validate_schedule_pass),
    ("predecode", predecode_pass),
    ("validate-routes", validate_routes_pass),
    ("switch-table", switch_table_pass),
    ("cold-deltas", cold_deltas_pass),
    ("hash", hash_pass),
)


def default_passes() -> list[tuple[str, Pass]]:
    """A fresh copy of the default pipeline (callers may splice)."""
    return list(DEFAULT_PASSES)


def finish(unit: CompileUnit) -> CompiledArtifact:
    """Assemble the immutable artifact from a fully-passed unit."""
    return CompiledArtifact(
        plan=unit.plan,
        graph=unit.graph,
        programs=tuple(unit.programs),
        decoded=tuple(unit.decoded),
        epoch_names=unit.epoch_names,
        switch_pieces=unit.switch_pieces,
        cold_bytes=unit.cold_bytes,
        cold_link_changes=unit.cold_link_changes,
        artifact_hash=unit.artifact_hash,
        pass_timings=tuple(unit.timings),
    )


class PassManager:
    """Runs a pass pipeline over a unit, timing each pass."""

    def __init__(self, passes: list[tuple[str, Pass]] | None = None) -> None:
        self.passes = default_passes() if passes is None else list(passes)

    def run(self, unit: CompileUnit) -> CompiledArtifact:
        for name, fn in self.passes:
            t0 = time.perf_counter()
            try:
                fn(unit)
            except CompileError:
                raise
            except Exception as exc:  # diagnostic context for pass bugs
                raise CompileError(
                    f"pass crashed: {exc}", pass_name=name
                ) from exc
            unit.timings.append(
                PassTiming(name, (time.perf_counter() - t0) * 1e9)
            )
        return finish(unit)
