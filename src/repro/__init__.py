"""repro — partially reconfigurable CGRA design-space exploration.

A from-scratch reproduction of *"Design and Implementation of High
Performance Architectures with Partially Reconfigurable CGRAs"*
(Shahraki Moghaddam, Paul, Balakrishnan — IEEE IPDPSW 2013).

The library has four layers:

:mod:`repro.fabric`
    A cycle-accurate functional model of the reMORPH-style fabric: 48-bit
    tiles with 512-word instruction/data memories, an assembler for the
    tile ISA, a mesh with reconfigurable near-neighbour links, the
    180 MB/s ICAP reconfiguration port and the epoch-based runtime
    manager with partial-overlap accounting.
:mod:`repro.pn` / :mod:`repro.mapping`
    The process-network application model (Eq. 1), the published cost
    profiles (Tables 1 and 3) and the mapping machinery — tile cost
    model, pipeline metrics and the reBalanceOne/Two/OPT algorithms.
:mod:`repro.kernels`
    The two case studies: the radix-2 FFT (decomposition, twiddle
    classification, the tau performance model, fabric-executed
    butterflies) and a complete baseline JPEG encoder/decoder with
    fabric-executed stages.
:mod:`repro.dse` / :mod:`repro.experiments`
    Sweeps, Pareto fronts, and one module per published table/figure.
:mod:`repro.serve`
    A multi-tenant fabric job service on top of the kernels: persistent
    kernel sessions, reconfiguration-affinity scheduling, asyncio QoS
    (timeouts, retries, backpressure, drain) and Prometheus-style
    metrics.  Not imported here — ``from repro.serve import ...``.

Quickstart::

    from repro import FFTPlan, FFTPerformanceModel, StageProfile

    model = FFTPerformanceModel(
        plan=FFTPlan(n=1024, m=128, cols=10),
        profile=StageProfile.table1(),
    )
    print(model.throughput(link_cost_ns=300.0), "FFTs/s")

See README.md for the full tour and DESIGN.md for the reproduction notes.
"""

from repro._lazy import lazy_exports
from repro._version import __version__

# Exported names by defining module, imported on first use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.errors": (
            "AssemblerError", "DSEError", "ExecutionError", "FabricError",
            "FaultError", "KernelError", "LinkError", "MappingError",
            "ProcessNetworkError", "ReconfigError", "ReproError", "ScrubError",
        ),
        "repro.fabric": (
            "Direction", "IcapPort", "Mesh", "Program", "RuntimeManager", "Tile",
            "assemble",
        ),
        "repro.pn": (
            "Channel", "Configuration", "Epoch", "Process", "ProcessNetwork",
            "eq1_runtime", "fft1024_processes", "jpeg_process_network",
            "jpeg_processes",
        ),
        "repro.mapping": (
            "PipelineMapping", "PipelineMetrics", "Stage", "TileCostModel",
            "evaluate_mapping", "rebalance", "rebalance_one", "rebalance_opt",
            "rebalance_two",
        ),
        "repro.kernels.fft": (
            "FabricFFT", "FFTPerformanceModel", "FFTPlan", "StageProfile",
            "classify_twiddles", "fft_reference",
        ),
        "repro.kernels.jpeg": (
            "JPEGDecoder", "JPEGEncoder", "decode_image", "encode_image",
        ),
        "repro.dse": (
            "DesignPoint", "explore_fft", "explore_jpeg", "pareto_front", "sweep",
        ),
    },
)

__all__ = [
    "AssemblerError",
    "Channel",
    "Configuration",
    "DSEError",
    "DesignPoint",
    "Direction",
    "Epoch",
    "ExecutionError",
    "FFTPerformanceModel",
    "FFTPlan",
    "FabricError",
    "FabricFFT",
    "FaultError",
    "IcapPort",
    "JPEGDecoder",
    "JPEGEncoder",
    "KernelError",
    "LinkError",
    "MappingError",
    "Mesh",
    "PipelineMapping",
    "PipelineMetrics",
    "Process",
    "ProcessNetwork",
    "ProcessNetworkError",
    "Program",
    "ReconfigError",
    "ReproError",
    "RuntimeManager",
    "ScrubError",
    "Stage",
    "StageProfile",
    "Tile",
    "TileCostModel",
    "__version__",
    "assemble",
    "classify_twiddles",
    "decode_image",
    "encode_image",
    "eq1_runtime",
    "evaluate_mapping",
    "explore_fft",
    "explore_jpeg",
    "fft1024_processes",
    "fft_reference",
    "jpeg_process_network",
    "jpeg_processes",
    "pareto_front",
    "rebalance",
    "rebalance_one",
    "rebalance_opt",
    "rebalance_two",
    "sweep",
]
