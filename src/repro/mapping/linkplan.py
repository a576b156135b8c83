"""Physical placement and link planning for pipeline mappings.

Turns a :class:`~repro.mapping.placement.PipelineMapping` into tile
coordinates on a concrete mesh (boustrophedon / snake order keeps every
pipeline successor a mesh neighbour) and derives the link activity:

* **static links** — each tile points at its pipeline successor; set up
  once before streaming starts;
* **per-block relinks** — a replicated stage (Fig. 15) needs its producer
  to alternate its write link among the instance tiles and the instances
  to take turns feeding the consumer, costing link reconfigurations at
  block rate.  This is what Table 4's "reLink" row flags for the two
  implementations that split/duplicate the DCT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MappingError
from repro.fabric.links import Direction
from repro.mapping.placement import PipelineMapping

__all__ = ["LinkPlan", "snake_placement", "plan_links"]

Coord = tuple[int, int]


def snake_placement(n_tiles: int, mesh_cols: int) -> list[Coord]:
    """Coordinates for ``n_tiles`` in boustrophedon order.

    Row 0 runs left->right, row 1 right->left, and so on, so consecutive
    pipeline positions are always mesh neighbours.
    """
    if n_tiles < 1:
        raise MappingError("n_tiles must be >= 1")
    if mesh_cols < 1:
        raise MappingError("mesh_cols must be >= 1")
    coords: list[Coord] = []
    for index in range(n_tiles):
        row, offset = divmod(index, mesh_cols)
        col = offset if row % 2 == 0 else mesh_cols - 1 - offset
        coords.append((row, col))
    return coords


def _direction(src: Coord, dst: Coord) -> Direction:
    delta = (dst[0] - src[0], dst[1] - src[1])
    for direction in Direction:
        if direction.delta == delta:
            return direction
    raise MappingError(f"tiles {src} and {dst} are not mesh neighbours")


@dataclass(frozen=True)
class LinkPlan:
    """Link activity of a placed pipeline."""

    #: Tile coordinate of every pipeline position (stage copies expanded).
    placement: tuple[Coord, ...]
    #: Static links: tile -> direction of its pipeline successor.
    static_links: dict[Coord, Direction] = field(default_factory=dict)
    #: Link reconfigurations charged per block (replicated-stage steering).
    per_block_relinks: int = 0

    @property
    def needs_relink(self) -> bool:
        """Table 4's "reLink" flag: any runtime link switching at all."""
        return self.per_block_relinks > 0

    def per_block_relink_ns(self, link_cost_ns: float) -> float:
        """Per-block link reconfiguration time at cost ``L`` per link."""
        if not link_cost_ns >= 0:  # NaN too
            raise MappingError("link_cost_ns must be non-negative")
        return self.per_block_relinks * link_cost_ns


def plan_links(mapping: PipelineMapping, mesh_cols: int = 5) -> LinkPlan:
    """Place a mapping snake-wise and derive its link plan.

    Every physical tile (stage copies expanded in pipeline order) is
    placed consecutively; static links chain each tile to the next.  For
    a stage with ``k > 1`` copies, the producer's link steers among the
    ``k`` instances (one relink per block) and the downstream edge merges
    them (one more relink per block), following the copy/steer pattern of
    Fig. 15.
    """
    n = mapping.n_tiles
    coords = snake_placement(n, mesh_cols)

    static: dict[Coord, Direction] = {}
    for index in range(n - 1):
        static[coords[index]] = _direction(coords[index], coords[index + 1])

    relinks = 0
    position = 0
    for stage_index, stage in enumerate(mapping.stages):
        if stage.copies > 1:
            if stage_index > 0:
                relinks += 1  # producer steers among instances
            if stage_index < mapping.n_stages - 1:
                relinks += 1  # instances take turns feeding the consumer
        position += stage.copies
    return LinkPlan(
        placement=tuple(coords),
        static_links=static,
        per_block_relinks=relinks,
    )
