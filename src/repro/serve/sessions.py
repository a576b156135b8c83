"""Kernel sessions: resident fabric state that outlives a single job.

The paper's amortization trick — keep configurations resident so only
the first epoch pays the ICAP (pinning, Table 4 label *(f)*; red/green
twiddle reuse, Sec. 3.1) — becomes, at the serving level, a *session*: a
mesh plus :class:`~repro.fabric.rtms.RuntimeManager` that stays alive
between jobs of the same :class:`~repro.serve.jobs.KernelSpec`.  The
first job on a session is *cold* (programs + static data stream through
the ICAP); subsequent same-spec jobs are *warm* and only pay the
per-job data movement (yellow twiddles, link replays).

Every artifact kernel (FFT, conv2d, gemm, dsp) serves through one
:class:`ArtifactSession`, which owns its fabric and needs from the
kernel's runner only the compiled artifact and an output reader.  A
JPEG job is a frame of blocks plus host entropy coding, so
:class:`JPEGSession` stays its own class.

Sessions also own cooperative cancellation: between fabric epochs
(artifact kernels) or blocks (JPEG) they poll a :class:`CancelToken`,
so a service timeout aborts a job at the next boundary instead of
blocking a worker thread forever.
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
    """What every session shares: job accounting and the cold-start probes."""

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

    def pin_epochs(self) -> list[EpochSpec]:
        """The artifact's program loads, stripped of data/links/run."""
        return self.artifact.pin_epochs()

    def cold_setup_epochs(self) -> list[EpochSpec]:
        """Programs plus any charged setup images (the artifact's cold
        prologue; empty prologues — FFT, gemm — contribute nothing)."""
        return [*self.artifact.setup_epochs(), *self.pin_epochs()]


class ArtifactSession(_BaseSession):
    """The resident-fabric session of every artifact kernel.

    The session owns its fabric: a mesh of the artifact's shape and a
    :class:`~repro.fabric.rtms.RuntimeManager` whose residency survives
    between jobs.  The runner only supplies the compiled ``artifact``
    and a ``read_output_words(words)`` reader; this class adds the
    serving concerns — setup-once preload, slice-by-slice execution
    with cancellation polls and ``progress`` hooks, resume from an
    epoch checkpoint, per-job fabric accounting, and the vector-batched
    group path with the cold-pilot-first discipline.  The kinds serve
    through subclasses that only construct their runner.
    """

    def __init__(self, spec: KernelSpec, link_cost_ns: float, runner) -> None:
        super().__init__(spec, link_cost_ns)
        self.runner = runner
        self.artifact = runner.artifact
        self.mesh = Mesh(self.artifact.rows, self.artifact.cols)
        self.rtms = RuntimeManager(
            self.mesh, IcapPort(), link_cost_ns=link_cost_ns
        )
        self._preloaded = False

    def power_on(self) -> None:
        """Return the session, in place, to what construction gives."""
        self.rtms.power_on()
        self.jobs_run = 0
        self._preloaded = False

    def run(self, payload: Any, cancel: CancelToken) -> SessionStats:
        return self._run(payload, cancel, 0)

    def run_resumed(
        self,
        payload: Any,
        cancel: CancelToken,
        from_slice: int,
        checkpoint,
    ) -> SessionStats:
        """Resume a job from a journaled epoch checkpoint.

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

        self.rtms.restore(checkpoint)
        rekey_residency(self.mesh, self.artifact.programs)
        # The checkpoint was taken after the setup prologue ran.
        self._preloaded = True
        return self._run(payload, cancel, from_slice)

    def _run(
        self, payload: Any, cancel: CancelToken, from_slice: int
    ) -> SessionStats:
        stats = SessionStats()
        start_ns = self.rtms.now_ns
        busy_before = self.rtms.icap.total_busy_ns
        if not self._preloaded:
            # The cold prologue bills to the first job, exactly like the
            # scalar runners do it.
            self.rtms.run_setup(self.artifact)
            self._preloaded = True
        epochs = self.artifact.bind(payload, tag=f"j{self.jobs_run}_")
        if not 0 <= from_slice <= len(epochs):
            raise ServeError(
                f"resume slice {from_slice} outside 0..{len(epochs)}"
            )
        for index in range(from_slice, len(epochs)):
            cancel.check()
            self.rtms.execute([epochs[index]])
            stats.slices += 1
            if self.progress is not None:
                self.progress(index + 1, self.rtms)
        mesh = self.mesh
        stats.output = self.runner.read_output_words(
            lambda coord, base, count: mesh.tile(coord).dmem.dump_block(
                base, count
            )
        )
        stats.sim_ns = self.rtms.now_ns - start_ns
        stats.reconfig_ns = self.rtms.icap.total_busy_ns - busy_before
        self._jobs_done()
        return stats

    def run_batch(
        self, payloads: list, cancel: CancelToken
    ) -> list[SessionStats]:
        """Execute K same-spec jobs vector-batched across lanes.

        Bit-identical to K sequential :meth:`run` calls with
        sequential-equivalent timing.  A cold session runs its first job
        on the scalar path so the batch pilot is warm; cancellation is
        polled at every pilot epoch boundary.  Per-slice ``progress``
        journaling is scalar-path-only — batched lanes are journaled per
        lane by the durable engine instead.
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


class FFTSession(ArtifactSession):
    """A persistent ``rows x cols`` mesh running ``n``-point transforms."""

    def __init__(self, spec: KernelSpec, link_cost_ns: float = 100.0) -> None:
        from repro.kernels.fft.decompose import FFTPlan
        from repro.kernels.fft.runner import FabricFFT

        n, m, cols = spec.params
        super().__init__(
            spec,
            link_cost_ns,
            FabricFFT(FFTPlan(int(n), int(m), int(cols)), link_cost_ns),
        )
        # Kept only for benchmarks/spine/ladder.py, which reads
        # ``session.fft.read_output(session.mesh)``.
        self.fft = self.runner


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


class JPEGSession(_BaseSession):
    """A persistent single-tile JPEG block pipeline.

    A JPEG job is a frame, not one bound work item: its blocks each fire
    the five stage programs and the host entropy-codes the zig-zag
    output into a JFIF stream, so it keeps its own class rather than
    make :class:`ArtifactSession` branch on the kind.  It wraps
    :class:`~repro.kernels.jpeg.fabric_runner.FabricBlockPipeline`
    (whose stage programs are co-resident and whose DCT/quantizer tables
    load through the ICAP exactly once) and runs on its fabric.
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

    def power_on(self) -> None:
        self.pipeline.power_on()
        self.jobs_run = 0

    def _stream(self, zigzags, height: int, width: int) -> bytes:
        """Entropy-code a frame's zig-zag rows into a JFIF stream."""
        from repro.kernels.jpeg.encoder import JPEGEncoder
        from repro.kernels.jpeg.huffman import (
            BitWriter,
            encode_block_coefficients,
        )

        writer = BitWriter()
        prev_dc = 0
        for zz in zigzags:
            prev_dc = encode_block_coefficients(zz, prev_dc, writer)
        host = JPEGEncoder(quality=self.pipeline.quality)
        return host.wrap_stream(writer.flush(), height, width)

    def run(self, payload: Any, cancel: CancelToken) -> SessionStats:
        from repro.kernels.jpeg.encoder import as_frame, blocks_of

        img = as_frame(payload)
        start_ns = self.rtms.now_ns
        busy_before = self.rtms.icap.total_busy_ns
        zigzags = []
        for block in blocks_of(img)[0].reshape(-1, 8, 8):
            cancel.check()
            zigzags.append(self.pipeline.encode_block(block))
        stats = SessionStats(
            output=self._stream(zigzags, *img.shape),
            sim_ns=self.rtms.now_ns - start_ns,
            reconfig_ns=self.rtms.icap.total_busy_ns - busy_before,
            slices=len(zigzags),
        )
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
        from repro.kernels.jpeg.encoder import as_frame, blocks_of

        if not payloads:
            raise ServeError("run_batch needs at least one payload")
        frames = [as_frame(payload) for payload in payloads]
        stacks = [blocks_of(img)[0].reshape(-1, 8, 8) for img in frames]
        cancel.check()
        zz_all, sims, reconfigs = self.pipeline.encode_block_stack(
            np.concatenate(stacks),
            on_slice=lambda index: cancel.check(),
        )
        results: list[SessionStats] = []
        offset = 0
        for img, stack in zip(frames, stacks):
            lanes = slice(offset, offset + len(stack))
            results.append(
                SessionStats(
                    output=self._stream(zz_all[lanes], *img.shape),
                    sim_ns=float(sims[lanes].sum()),
                    reconfig_ns=float(reconfigs[lanes].sum()),
                    slices=len(stack),
                )
            )
            offset += len(stack)
        self._jobs_done(len(frames))
        return results


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
