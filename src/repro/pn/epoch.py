"""Configurations and epochs (the ``C_i`` / ``T_i`` of Eq. 1).

A :class:`Configuration` captures everything that must be true of the
fabric for one phase of the application: which process runs where and which
links are up.  An :class:`Epoch` is a configuration plus how long it stays
active.  The cost of switching configurations is proportional to the number
of changed links (``l_ij``) plus the memory words that must be paged in,
all at the published ICAP rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ProcessNetworkError
from repro.fabric.links import Direction
from repro.pn.network import ProcessNetwork
from repro.units import DMEM_WORD_RELOAD_NS, IMEM_WORD_RELOAD_NS

__all__ = ["Configuration", "Epoch", "reconfig_cost_ns"]

Coord = tuple[int, int]


@dataclass(frozen=True)
class Configuration:
    """One phase's binding + interconnect state.

    Attributes
    ----------
    name:
        Label (``C1``, ``C2`` ... in the paper).
    binding:
        process name -> tile coordinate for every process active in the
        phase.  Multiple processes may share a tile (time-multiplexed).
    links:
        tile coordinate -> active write direction (or None).
    """

    name: str
    binding: dict[str, Coord] = field(default_factory=dict)
    links: dict[Coord, Direction | None] = field(default_factory=dict)

    def tiles(self) -> set[Coord]:
        """All tiles referenced by the binding."""
        return set(self.binding.values())

    def processes_on(self, coord: Coord) -> list[str]:
        """Processes bound to one tile, in insertion order."""
        return [p for p, c in self.binding.items() if c == coord]

    def changed_links(self, other: "Configuration") -> int:
        """Number of link settings that differ from ``other`` (l_ij)."""
        coords = set(self.links) | set(other.links)
        return sum(
            1 for c in coords if self.links.get(c) != other.links.get(c)
        )

    def moved_processes(self, other: "Configuration") -> list[str]:
        """Processes bound to a different tile in ``other``.

        Data these processes produced must be copied across tiles when the
        configuration switches — Eq. 1's third term.
        """
        return [
            p
            for p in self.binding
            if p in other.binding and other.binding[p] != self.binding[p]
        ]


@dataclass(frozen=True)
class Epoch:
    """A configuration active for ``duration_ns`` (the ``T_i`` of Eq. 1)."""

    configuration: Configuration
    duration_ns: float

    def __post_init__(self) -> None:
        if not 0 <= self.duration_ns < math.inf:  # NaN and infinities too
            raise ProcessNetworkError(
                f"epoch {self.configuration.name}: duration must be finite "
                f"and non-negative, got {self.duration_ns}"
            )


def reconfig_cost_ns(
    before: Configuration,
    after: Configuration,
    network: ProcessNetwork,
    link_cost_ns: float,
    *,
    resident: set[tuple[str, Coord]] | None = None,
) -> float:
    """Cost ``tau_ij`` of switching ``before`` -> ``after``.

    Link changes are charged ``link_cost_ns`` each.  A process newly bound
    to a tile pages in its instructions (9 B/word) and fixed data
    (6 B/word) unless the (process, tile) pair is in ``resident`` —
    residency is how pinning (Table 4's ``(f)`` label) and previous visits
    are modelled.  The caller owns updating ``resident`` afterwards.
    """
    if not link_cost_ns >= 0:  # NaN too
        raise ProcessNetworkError("link_cost_ns must be non-negative")
    cost = before.changed_links(after) * link_cost_ns
    already = resident if resident is not None else {
        (p, c) for p, c in before.binding.items()
    }
    for process_name, coord in after.binding.items():
        if (process_name, coord) in already:
            continue
        process = network.process(process_name)
        cost += (
            process.insts * IMEM_WORD_RELOAD_NS
            + process.data1 * DMEM_WORD_RELOAD_NS
        )
    return cost
