"""Reconfiguration planning: turning configuration deltas into timed plans.

A *reconfiguration transaction* gathers the partial bitstreams needed to
move the fabric from its current state to a target state:

* instruction images for tiles whose program changes (charged 9 B/word),
* data images (twiddle reloads, copy-variable re-initialization, 6 B/word),
* link changes (charged the swept per-link cost ``L``).

The planner only emits *deltas* — a tile whose program is already resident
("pinned" processes, label ``(f)`` in Table 4) is skipped, which is where
partial reconfiguration earns its keep.

Applying a transaction does two things: it mutates the mesh (loads
programs/data, flips links) and schedules every payload on the
:class:`~repro.fabric.icap.IcapPort`, honouring per-tile earliest-start
times so reconfiguration of an idle tile overlaps computation elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ReconfigError
from repro.fabric.assembler import Program
from repro.fabric.bitstream import PartialBitstream, ReconfigKind
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh

__all__ = ["ReconfigPlanner", "ReconfigTransaction", "AppliedReconfig"]

Coord = tuple[int, int]


@dataclass
class ReconfigTransaction:
    """An ordered list of partial bitstreams plus the payloads behind them.

    ``ops`` holds, per bitstream, ``(kind, coord, nbytes, label, target)``
    where ``target`` is what applying it writes: the decoded
    :class:`~repro.fabric.assembler.Program` (IMEM; the simulator runs
    decoded instructions, the bitstream only carries the cost), the
    ``{addr: word}`` image (DMEM) or the direction (LINK): a recorded
    transaction re-applies without decoding words.  Totals are cached.
    """

    bitstreams: list[PartialBitstream] = field(default_factory=list)
    ops: list[tuple] = field(default_factory=list)

    def add(self, bitstream: PartialBitstream, target) -> None:
        """Append one bitstream and the payload applying it writes."""
        self.bitstreams.append(bitstream)
        b = bitstream
        self.ops.append((b.kind, b.coord, b.nbytes, b.label, target))

    @cached_property
    def total_bytes(self) -> int:
        """Total ICAP payload in bytes (links excluded; they cost time L)."""
        return sum(b.nbytes for b in self.bitstreams)

    @cached_property
    def link_changes(self) -> int:
        """Number of link settings changed (the ``l_ij`` of Eq. 1)."""
        return sum(1 for b in self.bitstreams if b.kind is ReconfigKind.LINK)

    @property
    def memory_words(self) -> int:
        """Total memory words rewritten."""
        return sum(b.payload_words for b in self.bitstreams)

    def duration_ns(self, icap: IcapPort, link_cost_ns: float) -> float:
        """Back-to-back duration if nothing overlaps (upper bound)."""
        return (
            icap.transfer_ns(self.total_bytes) + self.link_changes * link_cost_ns
        )


@dataclass
class AppliedReconfig:
    """Timing results of applying a transaction.

    ``tile_ready_ns`` gives, per touched tile, when its last payload
    finished — the earliest the tile may start computing.
    """

    start_ns: float
    end_ns: float
    tile_ready_ns: dict[Coord, float] = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


class ReconfigPlanner:
    """Builds and applies reconfiguration transactions against a mesh."""

    def __init__(self, mesh: Mesh, icap: IcapPort, link_cost_ns: float = 0.0) -> None:
        if link_cost_ns < 0:
            raise ReconfigError(f"link cost must be non-negative, got {link_cost_ns}")
        self.mesh = mesh
        self.icap = icap
        self.link_cost_ns = link_cost_ns

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
        """Compute the delta transaction for the requested target state.

        A program load is skipped when the same :class:`Program` object is
        already resident on the tile (pinning), unless
        ``force_program_reload`` is set.  Link changes are skipped when the
        link already points the right way.  Data images are always loaded
        (they exist precisely because their values change each epoch).
        """
        txn = ReconfigTransaction()
        for coord, program in sorted((programs or {}).items()):
            tile = self.mesh.tile(coord)
            if not force_program_reload and tile.resident_base(program) is not None:
                continue  # pinned: already resident (possibly co-resident)
            txn.add(
                PartialBitstream(
                    ReconfigKind.IMEM,
                    coord,
                    tuple(program.encoded()),
                    label=f"imem:{program.name}@{coord}",
                ),
                program,
            )
            if program.data_image:
                self._add_image(
                    txn, coord, program.data_image, f"dmem:{program.name}@{coord}"
                )
        for coord, image in sorted((data_images or {}).items()):
            if not image:
                continue
            self.mesh.tile(coord)
            self._add_image(txn, coord, image, f"dmem:data@{coord}")
        for coord, direction in sorted(
            (links or {}).items(), key=lambda kv: kv[0]
        ):
            if self.mesh.active_link(coord) == direction:
                continue
            self.mesh.tile(coord)  # validated here, so apply need not
            if direction is not None:
                self.mesh.neighbour_coord(coord, direction)  # stays on-mesh
            txn.add(
                PartialBitstream(
                    ReconfigKind.LINK,
                    coord,
                    aux=-1 if direction is None else direction.code,
                    label=f"link@{coord}",
                ),
                direction,
            )
        return txn

    @staticmethod
    def _add_image(
        txn: ReconfigTransaction, coord: Coord, image: dict[int, int], label: str
    ) -> None:
        flat: list[int] = []
        for addr, value in sorted(image.items()):
            flat.extend((addr, value))
        txn.add(
            PartialBitstream(ReconfigKind.DMEM, coord, tuple(flat), label=label),
            image,
        )

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    def apply(
        self,
        txn: ReconfigTransaction,
        tile_busy_until: dict[Coord, float] | None = None,
        now_ns: float = 0.0,
    ) -> AppliedReconfig:
        """Apply a transaction: mutate the mesh and schedule the ICAP.

        ``tile_busy_until`` holds per-tile earliest start times (a tile
        still computing cannot be reconfigured); missing tiles are treated
        as free at ``now_ns``.  Payloads are scheduled in transaction
        order; the single ICAP port serializes them while untouched tiles
        keep computing — the paper's partial-overlap mechanism.
        """
        busy = tile_busy_until or {}
        ready: dict[Coord, float] = {}
        first_start = None
        last_end = now_ns
        icap = self.icap
        links = self.mesh.links
        for kind, coord, nbytes, label, target in txn.ops:
            # ``max`` and ``min`` unrolled: same first-extreme results
            earliest = now_ns
            at = busy.get(coord, now_ns)
            earliest = at if at > earliest else earliest
            at = ready.get(coord, 0.0)
            earliest = at if at > earliest else earliest
            if kind is ReconfigKind.LINK:
                start, end = icap.schedule_fixed(self.link_cost_ns, earliest, label)
                links.configure(coord, target)
            else:
                start, end = icap.schedule(nbytes, earliest, label)
                tile = self.mesh.tile(coord)
                if kind is ReconfigKind.DMEM:
                    tile.dmem.load_image(target, reconfig=True)
                elif tile.resident_base(target) is None:
                    tile.install_program(target, reconfig=True)
                else:  # forced refresh of a resident image
                    tile.imem.reconfig_writes += target.imem_words
                    tile.dmem.load_image(target.data_image, reconfig=True)
            ready[coord] = end
            if first_start is None or start < first_start:
                first_start = start
            last_end = end if end > last_end else last_end
        return AppliedReconfig(
            start_ns=first_start if first_start is not None else now_ns,
            end_ns=last_end,
            tile_ready_ns=ready,
        )
