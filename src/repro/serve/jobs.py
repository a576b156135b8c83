"""Job model of the fabric serving layer.

A *job* is one kernel invocation a client wants executed on some fabric
in the pool: an FFT transform or a JPEG frame encode, plus quality-of-
service knobs (timeout, retry budget).  The scheduler never looks inside
the payload — everything it needs for placement is the job's
:class:`KernelSpec`, whose :attr:`~KernelSpec.config_key` names the
fabric *configuration* (programs + links + static data) the job requires.
Two jobs with the same config key can share a warm fabric without paying
Eq. 1's reconfiguration term again; that equivalence class is the whole
basis of affinity scheduling.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any

from repro.errors import ServeError

__all__ = [
    "JobKind",
    "JobStatus",
    "RejectReason",
    "KernelSpec",
    "JobRequest",
    "JobResult",
    "fft_spec",
    "jpeg_spec",
    "conv2d_spec",
    "gemm_spec",
    "dsp_spec",
    "spec_for",
]

_job_ids = itertools.count(1)


class JobKind(str, enum.Enum):
    """Kernel families the service knows how to run.

    Values match the kernel-frontend registry kinds
    (:func:`repro.compile.frontends.get_frontend`), which is what lets
    the serving and cluster layers dispatch on the registry instead of
    hardcoding per-kernel branches.
    """

    FFT = "fft"
    JPEG = "jpeg"
    CONV2D = "conv2d"
    GEMM = "gemm"
    DSP = "dsp"


class JobStatus(str, enum.Enum):
    """Terminal states of a job (the service reports exactly one)."""

    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"
    REJECTED = "rejected"

    @property
    def ok(self) -> bool:
        return self is JobStatus.DONE


class RejectReason(str, enum.Enum):
    """Why admission control turned a job away.

    The closed vocabulary of the ``serve_jobs_rejected_total{reason}``
    metric label and of :attr:`JobResult.error` for rejected jobs
    (``"rejected: <reason>"``) — previously free-form strings scattered
    through the service, now auditable in one place.
    """

    STOPPED = "stopped"        #: service not started (or already torn down)
    DRAINING = "draining"      #: drain() in progress, no new admissions
    QUEUE_FULL = "queue_full"  #: bounded queue at capacity, wait=False
    SHED = "shed"              #: probabilistic overload shedding fired
    ADMISSION_CAP = "admission_cap"  #: hard shedding cap (queue delay)
    SHUTDOWN = "shutdown"      #: queued job failed by a non-drain shutdown
    HANDOFF = "handoff"        #: queued job handed off to another shard
    EXPIRED = "expired"        #: deadline already past at admission time


@dataclass(frozen=True)
class KernelSpec:
    """What fabric configuration a job needs.

    ``params`` must be hashable; together with ``kind`` it determines the
    resident state (tile programs, link plan, static data images), so it
    doubles as the residency-equivalence key.
    """

    kind: JobKind
    params: tuple[Any, ...]

    @property
    def config_key(self) -> str:
        """Identity of the resident configuration this spec requires."""
        inner = ",".join(str(p) for p in self.params)
        return f"{self.kind.value}({inner})"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.config_key


def fft_spec(n: int = 64, m: int = 8, cols: int = 2) -> KernelSpec:
    """Spec for an ``n``-point fabric FFT with partition ``m`` on ``cols``
    columns (the mesh is ``n/m x cols``)."""
    return KernelSpec(JobKind.FFT, (n, m, cols))


def jpeg_spec(quality: int = 75, chroma: bool = False) -> KernelSpec:
    """Spec for the single-tile JPEG block pipeline at ``quality``."""
    return KernelSpec(JobKind.JPEG, (quality, chroma))


def conv2d_spec(size: int = 16, kernel: str = "sharpen") -> KernelSpec:
    """Spec for the single-tile 3x3 stencil over a ``size``-side frame."""
    return KernelSpec(JobKind.CONV2D, (size, kernel))


def gemm_spec(n: int = 8, block: int = 4) -> KernelSpec:
    """Spec for the single-tile blocked integer GEMM of side ``n``."""
    return KernelSpec(JobKind.GEMM, (n, block))


def dsp_spec(n: int = 16, taps: int = 8, decim: int = 2) -> KernelSpec:
    """Spec for the streaming DSP chain (FIR → decimate → n-point FFT)."""
    return KernelSpec(JobKind.DSP, (n, taps, decim))


def spec_for(kind: JobKind | str, params: dict | None = None) -> KernelSpec:
    """Build a spec for any registered kernel through the registry.

    ``params`` (canonical-parameter overrides) are filled, coerced and
    ordered by the kernel's registered frontend, so a spec built here and
    one built by the typed helpers above are interchangeable.
    """
    from repro.compile.frontends import get_frontend

    kind = JobKind(kind)
    frontend = get_frontend(kind.value)
    return KernelSpec(kind, frontend.spec_params(params))


@dataclass
class JobRequest:
    """One client request.

    Attributes
    ----------
    spec:
        The kernel configuration the job needs (placement key).
    payload:
        Kernel input: a length-``n`` complex vector for FFT, an 8-bit
        greyscale frame for JPEG.
    timeout_s:
        Wall-clock budget per *attempt*; exceeded attempts are cancelled
        at the next epoch boundary and retried.
    max_retries:
        Extra attempts after the first (0 = fail fast).
    deadline_s:
        Absolute deadline in the ``time.monotonic()`` domain (0 = none).
        Unlike ``timeout_s`` (a per-attempt budget), the deadline bounds
        the job's *whole* life: admission, queueing, retries, breaker
        requeues and drain migrations all check it, so a cluster never
        spends fabric time on an answer nobody is waiting for anymore.
    job_id:
        Auto-assigned when left empty.
    """

    spec: KernelSpec
    payload: Any
    timeout_s: float = 30.0
    max_retries: int = 1
    deadline_s: float = 0.0
    job_id: str = ""
    #: Free-form client tag (shows up in metrics labels and traces).
    tag: str = ""
    # -- crash recovery (filled by the durability layer, not clients) --
    #: First epoch slice still to execute (0 = run from scratch).  A
    #: recovered FFT job resumes from its last journaled checkpoint.
    resume_slice: int = 0
    #: Path of the pickled fabric checkpoint to restore before resuming.
    checkpoint_path: str = ""
    #: CRC32 of the checkpoint file (validated before restore; a
    #: mismatch silently falls back to running from scratch).
    checkpoint_crc: int = 0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ServeError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ServeError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.deadline_s < 0:
            raise ServeError(
                f"deadline_s must be non-negative, got {self.deadline_s}"
            )
        if not self.job_id:
            self.job_id = f"job-{next(_job_ids)}"

    def expired(self, now: float) -> bool:
        """Is the deadline past at monotonic instant ``now``?

        Always ``False`` for deadline-free jobs, so deterministic
        harnesses that never set ``deadline_s`` never consult a clock.
        """
        return self.deadline_s > 0 and now >= self.deadline_s


@dataclass(slots=True)
class JobResult:
    """Terminal outcome of one job.

    The simulated-time fields decompose the job's fabric occupancy the
    way Eq. 1 decomposes an application run: ``sim_ns`` is the fabric
    time the job held its worker, ``reconfig_ns`` the configuration-port
    busy time it caused, and ``reconfig_saved_ns`` how much of the cold
    configuration cost it avoided by landing on a warm fabric.

    Slotted: a router keeps every result it delivered (first-wins).
    """

    job_id: str
    status: JobStatus
    output: Any = None
    error: str = ""
    worker_id: str = ""
    attempts: int = 0
    #: True when the job's configuration was already resident.
    warm: bool = False
    # -- wall-clock accounting (service-side) --------------------------
    queue_wait_s: float = 0.0
    serve_s: float = 0.0
    # -- simulated fabric accounting -----------------------------------
    sim_ns: float = 0.0
    reconfig_ns: float = 0.0
    reconfig_saved_ns: float = 0.0
    # -- durability ----------------------------------------------------
    #: For shed rejections: how long the client should back off before
    #: resubmitting (the ``Retry-After`` hint).
    retry_after_s: float = 0.0
    #: True when this result was reconstructed from the job journal
    #: after a restart rather than executed in this incarnation.
    recovered: bool = False
    #: Epoch slices skipped by resuming from a journaled checkpoint.
    resumed_slices: int = 0

    @property
    def ok(self) -> bool:
        return self.status.ok
