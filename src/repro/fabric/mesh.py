"""The tile array: a 2-D mesh with reconfigurable near-neighbour links.

The mesh owns the tiles and the :class:`~repro.fabric.links.LinkState`.  It
installs a neighbour resolver into every tile so that ``SNB`` instructions
are checked against the *currently configured* link: storing toward a
direction whose link is not active raises
:class:`~repro.errors.LinkError`, which is how tests catch mappings that
forgot a link reconfiguration.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import LinkError
from repro.fabric.links import Direction, LinkState
from repro.fabric.tile import Tile

__all__ = ["Mesh"]

Coord = tuple[int, int]


class Mesh:
    """A ``rows x cols`` array of tiles with single-direction write links.

    Coordinates are (row, col) with row 0 at the top; see
    :attr:`Direction.delta` for the orientation convention.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError(f"mesh dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.links = LinkState()
        self._tiles: dict[Coord, Tile] = {}
        dmems: dict[Coord, object] = {}
        get_active = self.links._active.get
        for r in range(rows):
            for c in range(cols):
                tile = Tile(coord=(r, c), name=f"T{r}_{c}")
                tile.neighbour_resolver = _resolver((r, c), get_active, dmems)
                self._tiles[(r, c)] = tile
                dmems[r, c] = tile.dmem

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.rows * self.cols

    def __iter__(self) -> Iterator[Tile]:
        return iter(self._tiles.values())

    def __contains__(self, coord: Coord) -> bool:
        return coord in self._tiles

    def tile(self, coord: Coord) -> Tile:
        """Tile at (row, col)."""
        try:
            return self._tiles[coord]
        except KeyError:
            raise LinkError(
                f"coordinate {coord} outside {self.rows}x{self.cols} mesh"
            ) from None

    def neighbour_coord(self, coord: Coord, direction: Direction) -> Coord:
        """Coordinate of the neighbour in ``direction``; raises if off-mesh."""
        return _neighbour(self._tiles, coord, direction)

    def neighbours(self, coord: Coord) -> dict[Direction, Coord]:
        """All in-mesh neighbours of ``coord``."""
        self.tile(coord)  # bounds check
        result = {}
        for direction in Direction:
            dr, dc = direction.delta
            target = (coord[0] + dr, coord[1] + dc)
            if target in self._tiles:
                result[direction] = target
        return result

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------

    def configure_link(self, coord: Coord, direction: Direction | None) -> bool:
        """Attach (or detach) a tile's write port; returns True if changed.

        The *time* cost of the change is charged by the reconfiguration
        planner; this method only validates and applies the topology.
        """
        self.tile(coord)
        if direction is not None:
            self.neighbour_coord(coord, direction)  # must stay on-mesh
        return self.links.configure(coord, direction)

    def active_link(self, coord: Coord) -> Direction | None:
        """Direction the tile currently writes toward (None = detached)."""
        return self.links.get(coord)

    def resident_base(self, coord: Coord, program) -> int | None:
        """Instruction-memory base of ``program`` on the tile at ``coord``."""
        return self.tile(coord).resident_base(program)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def reset_stats(self) -> None:
        """Clear execution statistics on every tile."""
        for tile in self:
            tile.stats.reset()

    def total_cycles(self) -> int:
        """Sum of busy cycles over all tiles (for utilization metrics)."""
        return sum(tile.stats.cycles for tile in self)

    def describe(self) -> str:
        """Multi-line ASCII picture of the mesh's active links."""
        arrows = {
            Direction.NORTH: "^",
            Direction.EAST: ">",
            Direction.SOUTH: "v",
            Direction.WEST: "<",
            None: ".",
        }
        lines = []
        for r in range(self.rows):
            cells = []
            for c in range(self.cols):
                cells.append(arrows[self.links.get((r, c))])
            lines.append(" ".join(cells))
        return "\n".join(lines)


def _neighbour(tiles: dict, coord: Coord, direction: Direction) -> Coord:
    dr, dc = direction.delta
    target = (coord[0] + dr, coord[1] + dc)
    if target not in tiles:
        rows, cols = max(tiles)
        raise LinkError(f"tile {coord} has no neighbour to the {direction.name} "
                        f"in a {rows + 1}x{cols + 1} mesh")
    return target


def _resolver(coord: Coord, get_active, dmems: dict):
    """The ``SNB`` resolver of the tile at ``coord``.  It closes over the
    link map's ``get`` and the coordinate -> data memory map, never over
    the mesh: a mesh is no reference cycle, so a dropped fabric is freed
    by refcount (DESIGN §16)."""
    memories: dict[int, object] = {}  # by ``id``: an enum hashes in Python

    def port(direction: Direction):
        """Data memory behind the link, or None unless it is active
        (a lowered trace stores there directly; see ``predecode``)."""
        if get_active(coord) is not direction:
            return None
        memory = memories.get(id(direction))
        if memory is None:  # on-mesh: links are checked when configured
            target = _neighbour(dmems, coord, direction)
            memory = memories[id(direction)] = dmems[target]
        return memory

    def resolve(direction: Direction, naddr: int, value: int) -> None:
        memory = port(direction)
        if memory is None:
            active = get_active(coord)
            raise LinkError(
                f"tile {coord} stored toward {direction.name} but its "
                f"link is {'detached' if active is None else active.name}"
            )
        memory.write(naddr, value)

    resolve.port = port
    return resolve
