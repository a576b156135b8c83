"""Reconfiguration planning: turning configuration deltas into timed plans.

A *reconfiguration transaction* gathers the payloads needed to move the
fabric from its current state to a target state:

* instruction images for tiles whose program changes (charged 9 B/word),
* data images (twiddle reloads, copy-variable re-initialization, 6 B/word),
* link changes (charged the swept per-link cost ``L``).

The planner only emits *deltas* — a tile whose program is already resident
("pinned" processes, label ``(f)`` in Table 4) is skipped, which is where
partial reconfiguration earns its keep.  :func:`plan_delta` states that
rule once, against a live mesh or a :class:`FabricShadow` of one.

Applying a transaction does two things: it mutates the mesh (loads
programs/data, flips links) and schedules every payload on the
:class:`~repro.fabric.icap.IcapPort`, honouring per-tile earliest-start
times so reconfiguration of an idle tile overlaps computation elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ReconfigError
from repro.fabric.assembler import Program
from repro.fabric.bitstream import (
    DMEM_BYTES_PER_WORD,
    IMEM_BYTES_PER_WORD,
    ReconfigKind,
)
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.units import INSTR_MEM_WORDS

__all__ = [
    "FabricShadow",
    "ReconfigPlanner",
    "ReconfigTransaction",
    "plan_delta",
]

Coord = tuple[int, int]

_IMEM, _DMEM, _LINK = ReconfigKind.IMEM, ReconfigKind.DMEM, ReconfigKind.LINK


@dataclass(slots=True)
class ReconfigTransaction:
    """An ordered list of reconfiguration payloads.

    ``ops`` holds, per payload, ``(kind, coord, nbytes, label, target)``
    where ``target`` is what applying it writes: the decoded
    :class:`~repro.fabric.assembler.Program` (IMEM; the simulator runs
    decoded instructions, the bitstream only carries the cost), the
    ``{addr: word}`` image (DMEM) or the direction (LINK).
    """

    ops: list[tuple] = field(default_factory=list)
    #: Total ICAP payload in bytes (links excluded; they cost time L).
    total_bytes: int = field(init=False)
    #: Number of link settings changed (the ``l_ij`` of Eq. 1).
    link_changes: int = field(init=False)

    def __post_init__(self) -> None:
        self.total_bytes = sum([op[2] for op in self.ops])
        self.link_changes = [op[0] for op in self.ops].count(_LINK)


#: The payloads setting ``target`` (a program to load, or a link
#: direction) on one tile, by ``(coord, id(target))``; the values pin the
#: targets.  Every epoch and artifact setting it shares them.
_PAYLOADS: dict[tuple, tuple] = {}


def _payloads(kind: ReconfigKind, coord: Coord, target) -> tuple:
    ops = _PAYLOADS.get((coord, id(target)))
    if ops is None:
        if kind is _IMEM:
            name, image = target.name, target.data_image
            ops = ((_IMEM, coord, target.imem_words * IMEM_BYTES_PER_WORD,
                    f"imem:{name}@{coord}", target),)
            if image:
                ops += ((_DMEM, coord, len(image) * DMEM_BYTES_PER_WORD,
                         f"dmem:{name}@{coord}", image),)
        else:
            ops = ((_LINK, coord, 0, f"link@{coord}", target),)
        if len(_PAYLOADS) >= 4096:
            _PAYLOADS.clear()
        _PAYLOADS[coord, id(target)] = ops
    return ops


def plan_delta(
    state,
    programs: list[tuple[Coord, Program]],
    data_images: list[tuple[Coord, dict[int, int]]],
    links: list[tuple[Coord, Direction | None]],
    force_program_reload: bool = False,
) -> list[tuple]:
    """The ``ops`` of the delta taking ``state`` (a mesh or a
    :class:`FabricShadow`) to one epoch's target, given as ``(coord,
    target)`` items in coordinate order: program loads, each with its
    ``.var`` image, skipped when the same :class:`Program` object is
    resident (pinning) unless ``force_program_reload``; every non-empty
    data image (always charged: their values change each epoch); every
    link not already set so."""
    ops = []
    resident_base = state.resident_base
    for coord, program in programs:
        if resident_base(coord, program) is not None and not force_program_reload:
            continue
        ops += _payloads(_IMEM, coord, program)
    for coord, image in data_images:
        if image:
            ops.append((_DMEM, coord, len(image) * DMEM_BYTES_PER_WORD,
                        f"dmem:data@{coord}", image))
    for coord, direction in links:
        if state.active_link(coord) != direction:
            ops += _payloads(_LINK, coord, direction)
    return ops


class FabricShadow:
    """What :func:`plan_delta` reads of a mesh, without memories: per
    tile the resident programs in install order with their bases and the
    bump pointer, advanced as :meth:`Tile.install_program
    <repro.fabric.tile.Tile.install_program>` does (bump allocation,
    wholesale eviction), and the write link."""

    def __init__(self, mesh: Mesh | None = None) -> None:
        self.mesh = mesh  # copied from tile by tile (None: a fresh fabric)
        self._tiles = {} if mesh is None else mesh._tiles
        #: coord -> {id(program): (program, base)}, in install order.
        self.resident: dict[Coord, dict[int, tuple[Program, int]]] = {}
        self.next_free: dict[Coord, int] = {}
        self.links: dict[Coord, Direction | None] = {}

    def resident_base(self, coord: Coord, program: Program) -> int | None:
        resident = self.resident.get(coord)
        if resident is None:  # untouched: as the mesh has it
            tile = self._tiles.get(coord)
            if tile is None:  # a fresh fabric, or off the mesh
                return None
            resident = tile._resident
        entry = resident.get(id(program))
        return None if entry is None else entry[1]

    def active_link(self, coord: Coord) -> Direction | None:
        if coord in self.links or self.mesh is None:
            return self.links.get(coord)
        return self.mesh.active_link(coord)

    def apply(self, ops: list[tuple]) -> None:
        """Advance past ``ops`` as ``ReconfigPlanner.apply`` does."""
        for kind, coord, _, _, target in ops:
            if kind is _LINK:
                self.links[coord] = target
            elif kind is _IMEM:
                resident = self.resident.get(coord)
                if resident is None:  # first install here: copy the tile's
                    tile = self._tiles.get(coord)
                    resident = dict(getattr(tile, "_resident", {}))
                    self.resident[coord] = resident
                    self.next_free[coord] = getattr(tile, "_next_free", 0)
                if id(target) in resident:
                    continue  # a forced refresh keeps its base
                base = self.next_free.get(coord, 0)
                words = target.imem_words
                if base + words > INSTR_MEM_WORDS:
                    resident.clear()
                    base = 0
                resident[id(target)] = (target, base)
                self.next_free[coord] = base + words

    def state(self, coords) -> tuple:
        """Per tile of ``coords``: resident program ids in install order,
        bump pointer, write link (``RuntimeManager``'s plan guard)."""
        return tuple(
            (tuple(self.resident.get(c, ())), self.next_free.get(c, 0),
             self.links.get(c))
            for c in coords
        )


class ReconfigPlanner:
    """Builds and applies reconfiguration transactions against a mesh."""

    def __init__(self, mesh: Mesh, icap: IcapPort, link_cost_ns: float = 0.0) -> None:
        self.mesh = mesh
        self.icap = icap
        self.link_cost_ns = link_cost_ns

    @property
    def link_cost_ns(self) -> float:
        """The per-link cost ``L`` of Eq. 1 (finite, non-negative)."""
        return self._link_cost_ns

    @link_cost_ns.setter
    def link_cost_ns(self, value: float) -> None:
        if not 0 <= value < math.inf:  # NaN and infinities too
            raise ReconfigError(
                f"link cost must be finite and non-negative, got {value}")
        self._link_cost_ns = value

    # ------------------------------------------------------------------
    # plan building
    # ------------------------------------------------------------------

    def plan(
        self,
        *,
        programs: dict[Coord, Program] | None = None,
        data_images: dict[Coord, dict[int, int]] | None = None,
        links: dict[Coord, Direction | None] | None = None,
        force_program_reload: bool = False,
    ) -> ReconfigTransaction:
        """Compute the delta transaction for the requested target state
        (:func:`plan_delta` against the live mesh), after checking every
        coordinate and link target lies on the mesh."""
        programs, data_images, links = programs or {}, data_images or {}, links or {}
        self.validate(programs, data_images, links)
        return ReconfigTransaction(plan_delta(
            self.mesh, sorted(programs.items()), sorted(data_images.items()),
            sorted(links.items()), force_program_reload,
        ))

    def validate(self, programs: dict, data_images: dict, links: dict) -> None:
        """Raise :class:`~repro.errors.LinkError` for an off-mesh
        coordinate or link target, so :meth:`apply` need not."""
        images = (coord for coord, image in data_images.items() if image)
        for coord in (*programs, *images, *links):
            self.mesh.tile(coord)
        for coord, direction in links.items():
            if direction is not None:
                self.mesh.neighbour_coord(coord, direction)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    def apply(
        self, ops: list[tuple], ready: dict[Coord, float], start_ns: float
    ) -> tuple[float, float]:
        """Apply a transaction's ``ops`` from ``start_ns``: mutate the mesh
        and schedule each payload on the ICAP, in order.

        ``ready`` holds per-tile earliest start times (a tile still
        computing cannot be reconfigured; a missing tile is free at
        ``start_ns``); each touched tile's moves to the end of its last
        payload.  The single port serializes the payloads while untouched
        tiles keep computing — the paper's partial-overlap mechanism.
        Returns the port's busy time (Eq. 1's term B) and when the last
        payload ends (``start_ns`` for no ops).
        """
        icap, mesh = self.icap, self.mesh
        busy_before = icap._busy_total_ns
        end = start_ns
        for kind, coord, nbytes, label, target in ops:
            at = ready.get(coord, start_ns)
            earliest = at if at > start_ns else start_ns  # ``max``, no call
            if kind is _LINK:
                _, end = icap.schedule_fixed(self._link_cost_ns, earliest, label)
                mesh.links.configure(coord, target)
            else:
                _, end = icap.schedule(nbytes, earliest, label)
                tile = mesh.tile(coord)
                if kind is _DMEM:
                    tile.dmem.load_image(target, reconfig=True)
                else:
                    self.install(tile, target)
            ready[coord] = end
        return icap._busy_total_ns - busy_before, end

    @staticmethod
    def install(tile, program: Program) -> None:
        """Write an instruction bitstream's payload into ``tile``."""
        if tile.resident_base(program) is None:
            tile.install_program(program, reconfig=True)
        else:  # forced refresh of a resident image
            tile.imem.reconfig_writes += program.imem_words
            tile.dmem.load_image(program.data_image, reconfig=True)
