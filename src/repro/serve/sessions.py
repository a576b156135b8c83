"""Kernel sessions: resident fabric state that outlives a single job.

The paper's amortization trick — keep configurations resident so only
the first epoch pays the ICAP (pinning, Table 4 label *(f)*; red/green
twiddle reuse, Sec. 3.1) — becomes, at the serving level, a *session*: a
mesh plus :class:`~repro.fabric.rtms.RuntimeManager` that stays alive
between jobs of the same :class:`~repro.serve.jobs.KernelSpec`.  The
first job on a session is *cold* (programs + static data stream through
the ICAP); subsequent same-spec jobs are *warm* and only pay the
per-job data movement (yellow twiddles, link replays).

Sessions also own cooperative cancellation: between fabric epochs (FFT)
or blocks (JPEG) they poll a :class:`CancelToken`, so a service timeout
aborts a job at the next boundary instead of blocking a worker thread
forever — the same slicing discipline
:meth:`repro.pn.executor.NetworkExecutor.run_bounded` gives process
networks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

from repro.errors import JobCancelled, ServeError
from repro.fabric.icap import IcapPort
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import EpochSpec, RuntimeManager
from repro.serve.jobs import JobKind, KernelSpec

__all__ = [
    "CancelToken",
    "SessionStats",
    "KernelSession",
    "FFTSession",
    "JPEGSession",
    "ArtifactSession",
    "Conv2DSession",
    "GEMMSession",
    "DSPSession",
    "default_session_factory",
    "SessionFactory",
]


class CancelToken:
    """Thread-safe cancellation flag polled at epoch boundaries."""

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        """Raise :class:`JobCancelled` when the token has fired."""
        if self._event.is_set():
            raise JobCancelled("job cancelled at epoch boundary")


@dataclass
class SessionStats:
    """Fabric accounting of one job run on a session."""

    output: Any = None
    #: Simulated fabric time this job occupied the session.
    sim_ns: float = 0.0
    #: Configuration-port busy time this job caused (Eq. 1 term B).
    reconfig_ns: float = 0.0
    #: Epochs (or blocks) executed — the cancellation granularity.
    slices: int = 0
    # -- fault-tolerance accounting (sessions running under a fault
    # -- campaign fill these; plain sessions leave them zero) ----------
    #: SEUs scrubbing detected during the job.
    faults_detected: int = 0
    #: Detected faults repaired (rollback + rewrite) during the job.
    faults_corrected: int = 0
    #: ICAP busy time spent on scrub readback/repair traffic.
    scrub_ns: float = 0.0
    #: Mean detection-to-repair time of this job's corrected faults.
    mttr_ns: float = 0.0
    #: Tiles declared hard-failed (spare-remapped) during the job.
    hard_faults: int = 0


class KernelSession(Protocol):
    """What the pool needs from a session (real or injected for tests)."""

    config_key: str

    def run(self, payload: Any, cancel: CancelToken) -> SessionStats:
        """Execute one job; must poll ``cancel`` between slices."""
        ...  # pragma: no cover - protocol

    def pin_epochs(self) -> list[EpochSpec]:
        """Program-residency epochs (for warm switch-cost probes)."""
        ...  # pragma: no cover - protocol

    def cold_setup_epochs(self) -> list[EpochSpec]:
        """Programs plus static data — what a cold start streams through
        the ICAP before the first job's own data."""
        ...  # pragma: no cover - protocol

    @property
    def rtms(self) -> RuntimeManager:
        ...  # pragma: no cover - protocol


class _BaseSession:
    """Shared accounting: run a list of epochs slice-by-slice."""

    def __init__(self, spec: KernelSpec, link_cost_ns: float) -> None:
        self.spec = spec
        self.config_key = spec.config_key
        self.link_cost_ns = link_cost_ns
        self.jobs_run = 0
        #: Optional per-slice hook ``progress(completed_slices, rtms)``,
        #: set by the durability layer to journal epoch progress (and
        #: write fabric checkpoints) between slices.  Exceptions from
        #: the hook propagate — a journaling failure must not be
        #: silently swallowed mid-job.
        self.progress: Callable[[int, RuntimeManager], None] | None = None

    def _jobs_done(self, count: int = 1) -> None:
        """Count ``count`` finished jobs and drop the ICAP transfer log.

        The port appends one labelled record per transfer, and a
        session keeps one port for its lifetime — kilobytes a job,
        forever, for a log nothing in the serving layer reads.  The
        port's ``busy_until_ns`` and running ``total_busy_ns`` (what
        timing and ``reconfig_ns`` are computed from) do not depend on
        it.
        """
        self.jobs_run += count
        self.rtms.icap.transfers.clear()

    def _execute_sliced(
        self,
        rtms: RuntimeManager,
        epochs: list[EpochSpec],
        cancel: CancelToken,
        stats: SessionStats,
        *,
        start_slice: int = 0,
    ) -> None:
        for offset, epoch in enumerate(epochs):
            cancel.check()
            rtms.execute([epoch])
            stats.slices += 1
            if self.progress is not None:
                self.progress(start_slice + offset + 1, rtms)


class FFTSession(_BaseSession):
    """A persistent ``rows x cols`` mesh running ``n``-point transforms.

    Thin serving wrapper over the FFT's compiled artifact (the same
    :class:`~repro.compile.ir.CompiledArtifact` ``FabricFFT`` executes):
    every job binds one work item off the shared artifact and runs it
    slice-by-slice with cancellation polls, on a runtime manager whose
    residency (lru-cached stage programs) survives between jobs.
    """

    def __init__(self, spec: KernelSpec, link_cost_ns: float = 100.0) -> None:
        from repro.kernels.fft.decompose import FFTPlan
        from repro.kernels.fft.runner import FabricFFT

        super().__init__(spec, link_cost_ns)
        n, m, cols = spec.params
        self.fft = FabricFFT(FFTPlan(int(n), int(m), int(cols)), link_cost_ns)
        self.artifact = self.fft.artifact
        self.mesh = Mesh(self.fft.plan.rows, self.fft.plan.cols)
        self.rtms = RuntimeManager(
            self.mesh, IcapPort(), link_cost_ns=link_cost_ns
        )

    def run(self, payload: Any, cancel: CancelToken) -> SessionStats:
        x = np.asarray(payload, dtype=np.complex128)
        stats = SessionStats()
        start_ns = self.rtms.now_ns
        busy_before = self.rtms.icap.total_busy_ns
        epochs = self.artifact.bind(x, tag=f"j{self.jobs_run}_")
        self._execute_sliced(self.rtms, epochs, cancel, stats)
        stats.output = self.fft.read_output(self.mesh)
        stats.sim_ns = self.rtms.now_ns - start_ns
        stats.reconfig_ns = self.rtms.icap.total_busy_ns - busy_before
        self._jobs_done()
        return stats

    def run_batch(
        self, payloads: list, cancel: CancelToken
    ) -> list[SessionStats]:
        """Execute K same-plan transforms vector-batched across lanes.

        Bit-identical to K sequential :meth:`run` calls (the batched
        tier's contract) with sequential-equivalent timing.  A cold
        session runs its first job on the scalar path so the batch pilot
        is warm; cancellation is polled at every pilot epoch boundary.
        Per-slice ``progress`` journaling is scalar-path-only — batched
        lanes are journaled per lane by the durable engine instead.
        """
        xs = [np.asarray(p, dtype=np.complex128) for p in payloads]
        if not xs:
            raise ServeError("run_batch needs at least one payload")
        results: list[SessionStats] = []
        if self.jobs_run == 0:
            results.append(self.run(xs[0], cancel))
            xs = xs[1:]
        if not xs:
            return results
        if len(xs) == 1:
            results.append(self.run(xs[0], cancel))
            return results
        port = self.artifact.plan.input_port
        n_slices = len(self.artifact.plan.body) + (1 if port else 0)
        batch = self.rtms.execute_artifact_batch(
            self.artifact,
            xs,
            tag=f"j{self.jobs_run}_",
            on_slice=lambda index: cancel.check(),
        )
        for lane in batch.lanes:
            results.append(
                SessionStats(
                    output=self.fft.read_output_words(lane.words),
                    sim_ns=lane.sim_ns,
                    reconfig_ns=lane.reconfig_ns,
                    slices=n_slices,
                )
            )
        self._jobs_done(len(xs))
        return results

    def run_resumed(
        self,
        payload: Any,
        cancel: CancelToken,
        from_slice: int,
        checkpoint,
    ) -> SessionStats:
        """Resume a transform from a journaled epoch checkpoint.

        Restores ``checkpoint`` (a
        :class:`~repro.fabric.rtms.FabricCheckpoint`, typically
        unpickled from a restart's journal sidecar) into this fresh
        session's mesh, re-keys the restored residency tables onto this
        process's artifact programs (see
        :func:`repro.serve.durability.resume.rekey_residency`), then
        executes only epochs ``from_slice..end``.  The produced output
        and final data memories are bit-identical to an uninterrupted
        run of the same payload; ``stats.slices`` counts only the
        slices actually executed here.
        """
        from repro.serve.durability.resume import rekey_residency

        x = np.asarray(payload, dtype=np.complex128)
        stats = SessionStats()
        self.rtms.restore(checkpoint)
        rekey_residency(self.mesh, self.artifact.programs)
        start_ns = self.rtms.now_ns
        busy_before = self.rtms.icap.total_busy_ns
        epochs = self.artifact.bind(x, tag=f"j{self.jobs_run}_")
        if not 0 <= from_slice <= len(epochs):
            raise ServeError(
                f"resume slice {from_slice} outside 0..{len(epochs)}"
            )
        self._execute_sliced(
            self.rtms,
            epochs[from_slice:],
            cancel,
            stats,
            start_slice=from_slice,
        )
        stats.output = self.fft.read_output(self.mesh)
        stats.sim_ns = self.rtms.now_ns - start_ns
        stats.reconfig_ns = self.rtms.icap.total_busy_ns - busy_before
        self._jobs_done()
        return stats

    def pin_epochs(self) -> list[EpochSpec]:
        """The transform's program loads, stripped of data/links/run."""
        return self.artifact.pin_epochs()

    def cold_setup_epochs(self) -> list[EpochSpec]:
        """FFT static state is all instruction images (twiddles are
        per-job yellow data, charged warm and cold alike)."""
        return self.pin_epochs()


class JPEGSession(_BaseSession):
    """A persistent single-tile JPEG block pipeline.

    Wraps :class:`~repro.kernels.jpeg.fabric_runner.FabricBlockPipeline`
    (whose five stage programs are co-resident and whose DCT/quantizer
    tables load through the ICAP exactly once) and entropy-codes the
    fabric's zig-zag output into a decodable JFIF stream per job.
    """

    def __init__(self, spec: KernelSpec, link_cost_ns: float = 100.0) -> None:
        from repro.kernels.jpeg.fabric_runner import FabricBlockPipeline

        super().__init__(spec, link_cost_ns)
        quality, chroma = spec.params
        self.pipeline = FabricBlockPipeline(
            quality=int(quality), chroma=bool(chroma)
        )
        self.artifact = self.pipeline.artifact
        self.rtms = self.pipeline.rtms

    def run(self, payload: Any, cancel: CancelToken) -> SessionStats:
        from repro.kernels.jpeg.encoder import JPEGEncoder, blocks_of
        from repro.kernels.jpeg.huffman import (
            BitWriter,
            encode_block_coefficients,
        )

        img = np.asarray(payload)
        if img.dtype.kind == "f":
            img = np.clip(np.rint(img), 0, 255)
        img = img.astype(np.int64)
        if img.ndim != 2:
            raise ServeError(f"JPEG payload must be a 2-D frame, got {img.shape}")
        stats = SessionStats()
        start_ns = self.rtms.now_ns
        busy_before = self.rtms.icap.total_busy_ns
        height, width = img.shape
        blocks, rows, cols = blocks_of(img)
        writer = BitWriter()
        prev_dc = 0
        for r in range(rows):
            for c in range(cols):
                cancel.check()
                zz = self.pipeline.encode_block(blocks[r, c])
                prev_dc = encode_block_coefficients(zz, prev_dc, writer)
                stats.slices += 1
        host = JPEGEncoder(quality=self.pipeline.quality)
        stats.output = host.wrap_stream(writer.flush(), height, width)
        stats.sim_ns = self.rtms.now_ns - start_ns
        stats.reconfig_ns = self.rtms.icap.total_busy_ns - busy_before
        self._jobs_done()
        return stats

    def run_batch(
        self, payloads: list, cancel: CancelToken
    ) -> list[SessionStats]:
        """Encode K frames with all their blocks in one vector dispatch.

        JPEG's natural lane axis is the *block*: the blocks of every
        frame in the group are concatenated into one stack and run
        through the five stage programs at once (bit-identical to the
        per-block scalar loop), which is what lets a group of small
        frames amortise the dispatch the way one big frame would.  The
        host Huffman stage then consumes each frame's zig-zag rows
        sequentially, and each frame's stats sum exactly its own lanes'
        fabric time — per-job lifecycle records stay separate.  Frames
        of different shapes group fine (lanes are always 8x8 blocks).
        """
        from repro.kernels.jpeg.encoder import JPEGEncoder, blocks_of
        from repro.kernels.jpeg.huffman import (
            BitWriter,
            encode_block_coefficients,
        )

        if not payloads:
            raise ServeError("run_batch needs at least one payload")
        frames = []  # (height, width, block_count) per payload
        stacks = []
        for payload in payloads:
            img = np.asarray(payload)
            if img.dtype.kind == "f":
                img = np.clip(np.rint(img), 0, 255)
            img = img.astype(np.int64)
            if img.ndim != 2:
                raise ServeError(
                    f"JPEG payload must be a 2-D frame, got {img.shape}"
                )
            height, width = img.shape
            blocks, rows, cols = blocks_of(img)
            frames.append((height, width, rows * cols))
            stacks.append(blocks.reshape(-1, 8, 8))
        cancel.check()
        zz_all, sims, reconfigs = self.pipeline.encode_block_stack(
            np.concatenate(stacks),
            on_slice=lambda index: cancel.check(),
        )
        results: list[SessionStats] = []
        offset = 0
        for height, width, count in frames:
            stats = SessionStats(slices=count)
            writer = BitWriter()
            prev_dc = 0
            for zz in zz_all[offset:offset + count]:
                prev_dc = encode_block_coefficients(zz, prev_dc, writer)
            host = JPEGEncoder(quality=self.pipeline.quality)
            stats.output = host.wrap_stream(writer.flush(), height, width)
            stats.sim_ns = float(sims[offset:offset + count].sum())
            stats.reconfig_ns = float(
                reconfigs[offset:offset + count].sum()
            )
            offset += count
            results.append(stats)
        self._jobs_done(len(frames))
        return results

    def pin_epochs(self) -> list[EpochSpec]:
        """The five co-resident stage programs."""
        return self.artifact.pin_epochs()

    def cold_setup_epochs(self) -> list[EpochSpec]:
        """Stage programs plus the charged ``data1`` preload image (the
        artifact's setup prologue)."""
        return [*self.artifact.setup_epochs(), *self.pin_epochs()]


class ArtifactSession(_BaseSession):
    """Generic session over any process-network kernel runner.

    The dataflow frontend makes kernels uniform enough that one serving
    wrapper covers them all: the runner supplies the compiled artifact,
    the mesh/runtime pair whose residency survives between jobs, and a
    ``read_output_words(words)`` reader; this class adds the serving
    concerns — setup-once preload, slice-by-slice execution with
    cancellation polls, per-job fabric accounting, and the vector-batched
    group path with the cold-pilot-first discipline.  The three
    process-network kernels (conv2d, gemm, dsp) serve through subclasses
    that only construct their runner.
    """

    def __init__(self, spec: KernelSpec, link_cost_ns: float, runner) -> None:
        super().__init__(spec, link_cost_ns)
        self.runner = runner
        self.artifact = runner.artifact
        self.mesh = runner.mesh
        self.rtms = runner.rtms
        self._preloaded = False

    def _ensure_setup(self) -> None:
        """Run the artifact's cold prologue once (billed to the first
        job, exactly like the scalar runners do it)."""
        if not self._preloaded:
            self.rtms.run_setup(self.artifact)
            self._preloaded = True

    def _read(self) -> Any:
        return self.runner.read_output_words(
            lambda coord, base, count: (
                self.mesh.tile(coord).dmem.dump_block(base, count)
            )
        )

    def run(self, payload: Any, cancel: CancelToken) -> SessionStats:
        stats = SessionStats()
        start_ns = self.rtms.now_ns
        busy_before = self.rtms.icap.total_busy_ns
        self._ensure_setup()
        epochs = self.artifact.bind(payload, tag=f"j{self.jobs_run}_")
        self._execute_sliced(self.rtms, epochs, cancel, stats)
        stats.output = self._read()
        stats.sim_ns = self.rtms.now_ns - start_ns
        stats.reconfig_ns = self.rtms.icap.total_busy_ns - busy_before
        self._jobs_done()
        return stats

    def run_batch(
        self, payloads: list, cancel: CancelToken
    ) -> list[SessionStats]:
        """Execute K same-spec jobs vector-batched across lanes.

        Bit-identical to K sequential :meth:`run` calls; a cold session
        runs its first job on the scalar path so the batch pilot is warm.
        """
        payloads = list(payloads)
        if not payloads:
            raise ServeError("run_batch needs at least one payload")
        results: list[SessionStats] = []
        if self.jobs_run == 0:
            results.append(self.run(payloads[0], cancel))
            payloads = payloads[1:]
        if not payloads:
            return results
        if len(payloads) == 1:
            results.append(self.run(payloads[0], cancel))
            return results
        port = self.artifact.plan.input_port
        n_slices = len(self.artifact.plan.body) + (1 if port else 0)
        batch = self.rtms.execute_artifact_batch(
            self.artifact,
            payloads,
            tag=f"j{self.jobs_run}_",
            on_slice=lambda index: cancel.check(),
        )
        for lane in batch.lanes:
            results.append(
                SessionStats(
                    output=self.runner.read_output_words(lane.words),
                    sim_ns=lane.sim_ns,
                    reconfig_ns=lane.reconfig_ns,
                    slices=n_slices,
                )
            )
        self._jobs_done(len(payloads))
        return results

    def pin_epochs(self) -> list[EpochSpec]:
        return self.artifact.pin_epochs()

    def cold_setup_epochs(self) -> list[EpochSpec]:
        """Programs plus any charged setup images (the artifact's cold
        prologue; empty prologues — e.g. gemm — contribute nothing)."""
        return [*self.artifact.setup_epochs(), *self.pin_epochs()]


class Conv2DSession(ArtifactSession):
    """A persistent single-tile 3x3 stencil."""

    def __init__(self, spec: KernelSpec, link_cost_ns: float = 100.0) -> None:
        from repro.kernels.conv2d.runner import FabricConv2D

        size, kernel = spec.params
        super().__init__(
            spec, link_cost_ns, FabricConv2D(size=int(size), kernel=str(kernel))
        )


class GEMMSession(ArtifactSession):
    """A persistent single-tile blocked integer GEMM."""

    def __init__(self, spec: KernelSpec, link_cost_ns: float = 100.0) -> None:
        from repro.kernels.gemm.runner import FabricGEMM

        n, block = spec.params
        super().__init__(
            spec, link_cost_ns, FabricGEMM(n=int(n), block=int(block))
        )


class DSPSession(ArtifactSession):
    """A persistent single-tile FIR → decimate → FFT chain."""

    def __init__(self, spec: KernelSpec, link_cost_ns: float = 100.0) -> None:
        from repro.kernels.dsp.runner import FabricDSP

        n, taps, decim = spec.params
        super().__init__(
            spec,
            link_cost_ns,
            FabricDSP(n=int(n), taps=int(taps), decim=int(decim)),
        )


_SESSION_TYPES: dict[JobKind, type] = {
    JobKind.FFT: FFTSession,
    JobKind.JPEG: JPEGSession,
    JobKind.CONV2D: Conv2DSession,
    JobKind.GEMM: GEMMSession,
    JobKind.DSP: DSPSession,
}

#: Callable building a fresh (cold) session for a spec.
SessionFactory = Callable[[KernelSpec], KernelSession]


def default_session_factory(
    spec: KernelSpec, link_cost_ns: float = 100.0
) -> KernelSession:
    """Build a cold session of the right kind for ``spec``."""
    try:
        session_type = _SESSION_TYPES[spec.kind]
    except KeyError:
        raise ServeError(f"no session type for kernel kind {spec.kind!r}")
    return session_type(spec, link_cost_ns=link_cost_ns)
