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
        for r in range(rows):
            for c in range(cols):
                tile = Tile(coord=(r, c), name=f"T{r}_{c}")
                tile.neighbour_resolver = self._make_resolver((r, c))
                self._tiles[(r, c)] = tile

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
        dr, dc = direction.delta
        target = (coord[0] + dr, coord[1] + dc)
        if target not in self._tiles:
            raise LinkError(
                f"tile {coord} has no neighbour to the {direction.name} "
                f"in a {self.rows}x{self.cols} mesh"
            )
        return target

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

    def _make_resolver(self, coord: Coord):
        # Bind the underlying map's ``get`` — one dict probe per store
        # instead of a bound-method hop (SNB stores are the hottest
        # cross-tile path of an exchange sweep).
        get_active = self.links._active.get
        writers: dict[Direction, object] = {}

        last_direction: Direction | None = None
        last_write = None

        def resolve(direction: Direction, naddr: int, value: int) -> None:
            nonlocal last_direction, last_write
            if get_active(coord) is not direction:
                active = get_active(coord)
                raise LinkError(
                    f"tile {coord} stored toward {direction.name} but its "
                    f"link is {'detached' if active is None else active.name}"
                )
            # Identity-cached write port: a direction only gets here after
            # passing the active-link check, and links are validated
            # on-mesh when configured, so the lookup cannot go off-mesh.
            # The ``is`` probe (links rarely flip inside a phase) skips
            # both an enum-keyed dict hash and two attribute walks on the
            # hottest cross-tile path of an exchange sweep.
            if direction is not last_direction:
                write = writers.get(direction)
                if write is None:
                    target = self.neighbour_coord(coord, direction)
                    write = writers[direction] = self._tiles[target].dmem.write
                last_direction, last_write = direction, write
            last_write(naddr, value)

        # Keyed by ``id``: an enum member hashes in Python, once a run.
        memories: dict[int, object] = {}

        def port(direction: Direction):
            """Data memory behind the link, or None unless it is active
            (a lowered trace stores there directly; see ``predecode``)."""
            if get_active(coord) is not direction:
                return None
            memory = memories.get(id(direction))
            if memory is None:
                target = self.neighbour_coord(coord, direction)
                memory = memories[id(direction)] = self._tiles[target].dmem
            return memory

        resolve.port = port
        return resolve

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
