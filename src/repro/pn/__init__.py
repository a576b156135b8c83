"""Process-network application model.

The paper models an application as a set of interacting sequential
processes ``{p1..pk}`` whose communication pattern changes over time
(Sec. 2).  Phases with a common pattern are *epochs*; the process-to-tile
binding plus the link set active during an epoch is a *configuration*
``C_i``; and the application runtime decomposes as Eq. 1:

    Runtime = sum_i T_i  +  sum_ij tau_ij  +  sum tau_copy

This package provides the process/network/epoch data model, the published
cost profiles (Table 1 for the 1024-point FFT, Table 3 for the JPEG
encoder) and the Eq. 1 runtime evaluator.
"""

from repro.pn.process import CopyVariant, Process
from repro.pn.network import Channel, ProcessNetwork
from repro.pn.epoch import Configuration, Epoch, reconfig_cost_ns
from repro.pn.runtime_model import Eq1Breakdown, eq1_runtime
from repro.pn.profiles import (
    FFT1024_PROFILE,
    JPEG_PROFILE,
    fft1024_processes,
    jpeg_process_network,
    jpeg_processes,
)

__all__ = [
    "Channel",
    "Configuration",
    "CopyVariant",
    "Epoch",
    "Eq1Breakdown",
    "FFT1024_PROFILE",
    "JPEG_PROFILE",
    "Process",
    "ProcessNetwork",
    "eq1_runtime",
    "fft1024_processes",
    "jpeg_process_network",
    "jpeg_processes",
    "reconfig_cost_ns",
]
