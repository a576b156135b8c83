"""Spare-tile remapping: re-placing work off hard-failed coordinates.

Partial reconfiguration makes SEU scrubbing affordable; it also makes
*spare-tile repair* cheap: when readback scrubbing declares a tile
hard-failed (a stuck-at fault that re-appears after every rewrite), the
runtime can re-run the placement step with the failed coordinate
excluded and stream the displaced programs onto a spare tile — only the
moved tile's images pay the ICAP, everything else stays resident.

This module implements that re-placement as a deterministic nearest-
spare assignment plus a rewriting helper:

* :func:`plan_remap` — pick a healthy spare for every failed coordinate
  (Manhattan-nearest, deterministic tie-break by (row, col));
* :func:`remap_epochs` — rewrite a :class:`~repro.fabric.rtms.EpochSpec`
  schedule through a coordinate map (the fault campaign's repair path).

Remapping preserves link *directions*: a failed tile's traffic pattern
only survives if its spare keeps the same neighbours, so
:func:`remap_epochs` verifies adjacency
for every remapped link endpoint and raise
:class:`~repro.errors.MappingError` when the displaced coordinate cannot
legally carry the link.  Campaigns that need cross-tile communication
therefore reserve spares adjacent to the pipeline (e.g. a spare column).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.errors import MappingError
from repro.fabric.links import Direction
from repro.fabric.rtms import EpochSpec

__all__ = [
    "free_coords",
    "plan_remap",
    "remap_epochs",
]

Coord = tuple[int, int]


def free_coords(
    rows: int, cols: int, used: set[Coord], failed: set[Coord]
) -> list[Coord]:
    """Healthy, unoccupied coordinates of a ``rows x cols`` mesh.

    Sorted by (row, col) so every caller sees the same spare order.
    """
    if rows <= 0 or cols <= 0:
        raise MappingError(f"mesh dimensions must be positive, got {rows}x{cols}")
    for coord in used | failed:
        if not (0 <= coord[0] < rows and 0 <= coord[1] < cols):
            raise MappingError(f"coordinate {coord} outside {rows}x{cols} mesh")
    return [
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if (r, c) not in used and (r, c) not in failed
    ]


def plan_remap(
    rows: int,
    cols: int,
    used: set[Coord],
    failed: set[Coord],
) -> dict[Coord, Coord]:
    """Assign each *used and failed* coordinate a healthy spare.

    Greedy nearest-spare matching in deterministic order: failed
    coordinates are processed by (row, col) and each takes the free
    healthy coordinate with the smallest Manhattan distance (ties fall
    to (row, col) order).  Raises :class:`MappingError` when the mesh has
    fewer spares than failures — the fabric must then be taken out of
    service (the pool quarantines it).
    """
    to_move = sorted(used & failed)
    spares = free_coords(rows, cols, used, failed)
    mapping: dict[Coord, Coord] = {}
    for coord in to_move:
        if not spares:
            raise MappingError(
                f"no healthy spare tile left for failed coordinate {coord} "
                f"in {rows}x{cols} mesh"
            )
        spares.sort(
            key=lambda s: (abs(s[0] - coord[0]) + abs(s[1] - coord[1]), s)
        )
        mapping[coord] = spares.pop(0)
    return mapping


def _check_link(
    coord: Coord, direction: Direction | None, rows: int, cols: int
) -> None:
    if direction is None:
        return
    dr, dc = direction.delta
    target = (coord[0] + dr, coord[1] + dc)
    if not (0 <= target[0] < rows and 0 <= target[1] < cols):
        raise MappingError(
            f"remapped link at {coord} toward {direction.name} leaves the "
            f"{rows}x{cols} mesh"
        )


def remap_epochs(
    epochs: list[EpochSpec],
    coord_map: dict[Coord, Coord],
    *,
    rows: int | None = None,
    cols: int | None = None,
) -> list[EpochSpec]:
    """Rewrite an epoch schedule through a coordinate map.

    Every coordinate-keyed field of each :class:`EpochSpec` (links,
    programs, data images, pokes, run set, dependencies) is remapped;
    programs and data payloads are shared, not copied — the remapped
    schedule streams the *same* images to the new coordinates, and the
    planner's residency rules charge only what actually moves.  When
    ``rows``/``cols`` are given, remapped link endpoints are validated to
    stay on-mesh.
    """

    def m(coord: Coord) -> Coord:
        return coord_map.get(coord, coord)

    remapped: list[EpochSpec] = []
    for spec in epochs:
        links = {m(c): d for c, d in spec.links.items()}
        if rows is not None and cols is not None:
            for coord, direction in links.items():
                _check_link(coord, direction, rows, cols)
        remapped.append(
            dc_replace(
                spec,
                links=links,
                programs={m(c): p for c, p in spec.programs.items()},
                data_images={m(c): img for c, img in spec.data_images.items()},
                pokes={m(c): img for c, img in spec.pokes.items()},
                run=[m(c) for c in spec.run],
                depends_on=[m(c) for c in spec.depends_on],
            )
        )
    return remapped
