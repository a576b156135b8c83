"""Energy model for the fabric.

The paper motivates CGRAs with the performance/watt figure of merit but
publishes no power numbers; this model supplies a parameterized estimate
so explorations can rank designs by energy too.  Defaults are
order-of-magnitude figures for a 28 nm FPGA fabric (DSP-based 48-bit PE
at ~400 MHz):

* dynamic energy per executed instruction (~20 pJ: one DSP op plus two
  BRAM accesses),
* ICAP energy per transferred byte (~50 pJ: configuration-port burst),
* energy per link reconfiguration (~1 nJ: routing-mux region rewrite),
* static power per instantiated tile (~0.15 mW leakage + clock tree).

Every constant is a constructor argument; the model's *use* (how terms
combine, how utilization trades against tile count) is what the tests
pin down.  Energy feeds :class:`repro.dse.objectives.DesignPoint`
consumers through :meth:`EnergyModel.run_energy_nj`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import FabricError
from repro.fabric.rtms import RunReport
from repro.units import ICAP_BYTES_PER_S, NS_PER_S

__all__ = ["EnergyModel", "EnergyBreakdown"]


def _check(what: str, value: float) -> None:
    if not 0 <= value < math.inf:  # NaN and infinities too
        raise FabricError(f"{what} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one run, decomposed like Eq. 1 decomposes time."""

    compute_nj: float
    reconfig_nj: float
    link_nj: float
    static_nj: float

    @property
    def total_nj(self) -> float:
        return self.compute_nj + self.reconfig_nj + self.link_nj + self.static_nj

    def __str__(self) -> str:
        return (
            f"compute={self.compute_nj:.1f}nJ reconfig={self.reconfig_nj:.1f}nJ "
            f"link={self.link_nj:.1f}nJ static={self.static_nj:.1f}nJ "
            f"total={self.total_nj:.1f}nJ"
        )


@dataclass(frozen=True)
class EnergyModel:
    """Parameterized fabric energy model."""

    instruction_pj: float = 20.0
    icap_byte_pj: float = 50.0
    link_switch_nj: float = 1.0
    tile_static_mw: float = 0.15

    def __post_init__(self) -> None:
        for name in ("instruction_pj", "icap_byte_pj", "link_switch_nj",
                     "tile_static_mw"):
            _check(name, getattr(self, name))

    # ------------------------------------------------------------------

    def compute_nj(self, instructions: int) -> float:
        """Dynamic energy of executed instructions."""
        _check("instruction count", instructions)
        return instructions * self.instruction_pj / 1000.0

    def reconfig_nj(self, icap_bytes: float) -> float:
        """Energy of configuration traffic."""
        _check("byte count", icap_bytes)
        return icap_bytes * self.icap_byte_pj / 1000.0

    def link_nj(self, link_changes: int) -> float:
        _check("link change count", link_changes)
        return link_changes * self.link_switch_nj

    def static_nj(self, n_tiles: int, duration_ns: float) -> float:
        """Leakage + clock energy over a run's duration."""
        _check("tile count", n_tiles)
        _check("duration", duration_ns)
        # mW * ns = pJ
        return n_tiles * self.tile_static_mw * duration_ns / 1000.0

    # ------------------------------------------------------------------

    def run_energy_nj(
        self,
        report: RunReport,
        n_tiles: int,
        instructions: int,
    ) -> EnergyBreakdown:
        """Energy of a finished run.

        ``instructions`` comes from the mesh's tile statistics (the
        report does not carry per-instruction detail); ICAP bytes are
        derived from the report's reconfiguration time at the nominal
        port bandwidth, and link switches from the report's counters.
        """
        link_time = 0.0  # link changes are charged by count, not bytes
        icap_bytes = max(
            0.0,
            (report.reconfig_ns - link_time) * ICAP_BYTES_PER_S / NS_PER_S,
        )
        return EnergyBreakdown(
            compute_nj=self.compute_nj(instructions),
            reconfig_nj=self.reconfig_nj(icap_bytes),
            link_nj=self.link_nj(report.link_changes),
            static_nj=self.static_nj(n_tiles, report.total_ns),
        )

    def steady_state_mw(
        self,
        n_tiles: int,
        instructions_per_s: float,
        icap_bytes_per_s: float = 0.0,
        link_switches_per_s: float = 0.0,
    ) -> float:
        """Average power of a steady-state pipeline in milliwatts.

        Lets DSE compare designs by performance/watt: e.g. items/s divided
        by this figure.
        """
        dynamic_mw = instructions_per_s * self.instruction_pj * 1e-9
        icap_mw = icap_bytes_per_s * self.icap_byte_pj * 1e-9
        link_mw = link_switches_per_s * self.link_switch_nj * 1e-6
        static_mw = n_tiles * self.tile_static_mw
        return dynamic_mw + icap_mw + link_mw + static_mw
