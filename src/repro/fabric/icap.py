"""Model of the reconfiguration port (ICAP).

The prototype loads partial bitstreams through the Xilinx ICAP at a
sustained 180 MB/s (Sec. 2, citing Liu et al. FPL'09).  Two properties of
that port drive the paper's cost model and are captured here:

1. **Bandwidth** — reloading one 48-bit data word costs 33.33 ns and one
   72-bit instruction word 50 ns.
2. **Serialization** — there is a single port, so concurrent reload
   requests queue.  *Partial* reconfiguration helps because the port can
   reload one tile while every other tile keeps computing; it does not let
   two tiles reload simultaneously.

:class:`IcapPort` keeps a busy-until timeline.  Callers ask it to schedule a
transfer no earlier than some time (e.g. when the target tile became idle)
and get back the actual [start, end) interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReconfigError
from repro.units import ICAP_BYTES_PER_S, NS_PER_S

__all__ = ["IcapPort", "Transfer"]


@dataclass(frozen=True)
class Transfer:
    """One completed ICAP transfer (for traces and tests)."""

    label: str
    nbytes: int
    start_ns: float
    end_ns: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class IcapPort:
    """A serializing, bandwidth-limited reconfiguration channel.

    Parameters
    ----------
    bandwidth_bytes_per_s:
        Sustained throughput; defaults to the published 180 MB/s.
    """

    bandwidth_bytes_per_s: float = ICAP_BYTES_PER_S
    busy_until_ns: float = 0.0
    transfers: list[Transfer] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ReconfigError(
                f"bandwidth must be positive, got {self.bandwidth_bytes_per_s}"
            )
        # Running duration total so :attr:`total_busy_ns` is O(1); the
        # per-epoch full-timeline sum dominated epoch bookkeeping.
        self._busy_total_ns = sum((t.duration_ns for t in self.transfers), 0.0)

    def transfer_ns(self, nbytes: float) -> float:
        """Pure duration of an ``nbytes`` transfer (no queueing)."""
        if not nbytes >= 0:  # NaN too
            raise ReconfigError(f"nbytes must be non-negative, got {nbytes}")
        return nbytes / self.bandwidth_bytes_per_s * NS_PER_S

    def schedule(
        self, nbytes: float, earliest_ns: float = 0.0, label: str = ""
    ) -> tuple[float, float]:
        """Reserve the port for a transfer; returns (start, end) in ns.

        The transfer starts at ``max(earliest_ns, port free time)`` — the
        queueing that makes reconfiguration of many tiles serialize.
        """
        return self._reserve(self.transfer_ns(nbytes), earliest_ns, label, int(nbytes))

    def schedule_fixed(
        self, duration_ns: float, earliest_ns: float = 0.0, label: str = ""
    ) -> tuple[float, float]:
        """Reserve the port for a fixed-duration operation (link changes).

        Link reconfigurations go through the same configuration port but
        their cost ``L`` is the paper's swept parameter rather than a byte
        count, so they are scheduled by duration.
        """
        if not duration_ns >= 0:  # NaN too
            raise ReconfigError(f"duration must be non-negative, got {duration_ns}")
        return self._reserve(duration_ns, earliest_ns, label, 0)

    def _reserve(
        self, duration_ns: float, earliest_ns: float, label: str, nbytes: int
    ) -> tuple[float, float]:
        start = max(earliest_ns, self.busy_until_ns)
        end = start + duration_ns
        self.busy_until_ns = end
        self.transfers.append(Transfer(label, nbytes, start, end))
        self._busy_total_ns += end - start
        return start, end

    @property
    def total_busy_ns(self) -> float:
        """Total time the port has spent transferring (running total)."""
        return self._busy_total_ns

    def busy_ns_by_prefix(self, prefix: str) -> float:
        """Port busy time of transfers whose label starts with ``prefix``.

        Scrubbing labels its readback/repair traffic ``scrub:`` so the
        fault campaign can report how much of the single port's bandwidth
        went to scrubbing vs. epoch reconfiguration — the two streams
        compete on the same timeline exactly as Eq. 1 predicts.  O(n) in
        the transfer count; meant for end-of-run reporting, not hot paths.
        """
        return sum(
            t.duration_ns for t in self.transfers if t.label.startswith(prefix)
        )

    def reset(self) -> None:
        """Clear the timeline (new run)."""
        self.busy_until_ns = 0.0
        self.transfers.clear()
        self._busy_total_ns = 0.0
