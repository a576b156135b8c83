"""repro.serve — multi-tenant fabric job service.

The serving layer applies the paper's amortization insight (Eq. 1:
runtime = compute + reconfiguration + copies; pay term B once, reuse the
resident configuration) at the *job* level: a pool of simulated fabrics
keeps kernel configurations warm, and a reconfiguration-affinity
scheduler places incoming FFT/JPEG jobs where the modeled switch cost
(τ terms) is lowest — the CGRA analogue of warm-model serving.

Modules
-------
:mod:`repro.serve.jobs`
    Job/result dataclasses and kernel specs (the residency key).
:mod:`repro.serve.sessions`
    Persistent per-kernel fabric sessions with cooperative cancellation.
:mod:`repro.serve.pool`
    Workers, resident state, and the switch-cost oracle.
:mod:`repro.serve.scheduler`
    Affinity + cold-FIFO policies and the deterministic trace replayer.
:mod:`repro.serve.metrics`
    Prometheus-style counters/gauges/histograms.
:mod:`repro.serve.service`
    The asyncio service: admission control, timeouts, retries, drain.
:mod:`repro.serve.client`
    Trace generator and the ``python -m repro serve`` demo.
"""

from repro.serve.jobs import (
    JobKind,
    JobRequest,
    JobResult,
    JobStatus,
    KernelSpec,
    fft_spec,
    jpeg_spec,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import FabricPool, FabricWorker
from repro.serve.scheduler import (
    AffinityPolicy,
    FIFOPolicy,
    make_policy,
    simulate_trace,
)
from repro.serve.sessions import (
    CancelToken,
    FFTSession,
    JPEGSession,
    SessionStats,
    default_session_factory,
)



def __getattr__(name: str):
    """``FabricJobService`` on first use (PEP 562): its module imports
    asyncio, which shard workers and the durable engine never run."""
    if name == "FabricJobService":
        from repro.serve.service import FabricJobService

        return FabricJobService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AffinityPolicy",
    "CancelToken",
    "FIFOPolicy",
    "FFTSession",
    "FabricJobService",
    "FabricPool",
    "FabricWorker",
    "JPEGSession",
    "JobKind",
    "JobRequest",
    "JobResult",
    "JobStatus",
    "KernelSpec",
    "MetricsRegistry",
    "SessionStats",
    "default_session_factory",
    "fft_spec",
    "jpeg_spec",
    "make_policy",
    "simulate_trace",
]
