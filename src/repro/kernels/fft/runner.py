"""End-to-end N-point radix-2 FFT on the fabric simulator.

:class:`FabricFFT` orchestrates a complete DIF FFT over a
``rows x cols`` mesh, the way the MicroBlaze runtime would: per column it
forwards data from the previous column (``hcp``), and per stage it loads
twiddles (charging the ICAP only for YELLOW reloads, per the
classification), performs the vertical exchange for cross-tile stages, and
runs the butterfly programs.  Every data word that moves between tiles
moves through real ``SNB`` stores over configured links — the orchestrator
only pokes the initial input (the "preprocessing column") and reads back
the final output.

The epoch schedule itself is produced by the configuration compiler: the
runner holds a :class:`~repro.compile.ir.CompiledArtifact` (lowered by
:mod:`repro.kernels.fft.lowering`, validated and analysed by the
:mod:`repro.compile` passes, served from the content-addressed cache) and
binds one work item per transform.  ``transform_epochs`` therefore
returns exactly the epoch lists the pre-compiler runner assembled by
hand — same names, same program objects, same images — which is pinned
by the engine-equivalence tests.

The result is validated against the from-scratch reference FFT in the
test suite; ``measured_profile`` produces the simulator's own Table-1
analogue (per-stage butterfly and copy runtimes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.compile import CompiledArtifact, compile_fft
from repro.errors import KernelError
from repro.fabric.icap import IcapPort
from repro.fabric.links import Direction
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import EpochSpec, RunReport, RuntimeManager
from repro.fabric.tile import Tile
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.fft.perf_model import StageProfile
from repro.kernels.fft.programs import (
    QFORMAT,
    FFTLayout,
    bf_exchange_program,
    bf_internal_program,
    copy_program,
)
from repro.kernels.fft.reference import bit_reverse_indices
from repro.kernels.fft.twiddle import classify_twiddles
from repro.units import CYCLE_NS

__all__ = [
    "FabricFFT",
    "FabricFFTResult",
    "FabricFFTBatchResult",
    "FabricFFTStreamResult",
]

Coord = tuple[int, int]


@dataclass
class FabricFFTResult:
    """Output and execution report of one fabric FFT run."""

    output: np.ndarray
    report: RunReport
    mesh: Mesh

    @property
    def total_ns(self) -> float:
        return self.report.total_ns


@dataclass
class FabricFFTBatchResult:
    """Outputs and lane accounting of one vector-batched transform batch."""

    outputs: list  # list[np.ndarray], natural order, one per lane
    #: repro.fabric.batch.BatchResult covering every lane (the fabric is
    #: pinned before dispatch, so all K lanes run warm).
    batch: object
    total_ns: float
    mesh: Mesh


@dataclass
class FabricFFTStreamResult:
    """Outputs and completion times of a pipelined transform batch."""

    outputs: list[np.ndarray]
    #: Time each transform's last epoch finished, in stream order.
    completion_ns: tuple[float, ...]

    @property
    def total_ns(self) -> float:
        return self.completion_ns[-1]

    @property
    def steady_interval_ns(self) -> float:
        """Average inter-completion gap once the pipeline is filled.

        With one transform this degenerates to the full latency.
        """
        if len(self.completion_ns) == 1:
            return self.completion_ns[0]
        gaps = [
            b - a
            for a, b in zip(self.completion_ns, self.completion_ns[1:])
        ]
        return sum(gaps) / len(gaps)

    @property
    def latency_ns(self) -> float:
        """Completion time of the first transform (pipeline fill)."""
        return self.completion_ns[0]


class FabricFFT:
    """Runs ``plan.n``-point FFTs on a freshly built mesh.

    Parameters
    ----------
    plan:
        The decomposition (``plan.m`` must be <= 64; the functional
        layout needs ``7m + 48`` data words).
    link_cost_ns:
        Per-link reconfiguration cost charged by the runtime manager.
    """

    def __init__(self, plan: FFTPlan, link_cost_ns: float = 0.0) -> None:
        self.plan = plan
        self.layout = FFTLayout(plan.m)  # validates the memory budget
        self.link_cost_ns = link_cost_ns
        #: The compiled configuration this runner executes.  Compiling is
        #: cached process-wide, so building many runners over the same
        #: decomposition (a DSE sweep, a fault campaign's rebuilds) pays
        #: for lowering + validation exactly once.
        self.artifact: CompiledArtifact = compile_fft(plan, link_cost_ns)

    @cached_property
    def schedule(self):
        """The twiddle classification of the plan (classified on first
        read; the lowering classifies for itself)."""
        return classify_twiddles(self.plan)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, x: np.ndarray) -> FabricFFTResult:
        """Transform ``x`` (length ``plan.n``); returns natural-order output."""
        mesh = Mesh(self.plan.rows, self.plan.cols)
        rtms = RuntimeManager(mesh, IcapPort(), link_cost_ns=self.link_cost_ns)
        report = rtms.execute_artifact(self.artifact, x)
        return FabricFFTResult(
            output=self.read_output(mesh), report=report, mesh=mesh
        )

    def run_batch(self, xs) -> "FabricFFTBatchResult":
        """Transform a stack of payloads in one vector-batched execution.

        ``xs`` is a ``(K, plan.n)`` array (or a list of length-``plan.n``
        payloads).  The fabric is warmed first (setup prologue plus one
        pinning pass over the body programs), then all K transforms run
        through :meth:`RuntimeManager.execute_artifact_batch` — outputs
        are bit-identical to K sequential :meth:`run` calls and the
        simulated clock advances sequential-equivalently.
        """
        payloads = [np.asarray(x) for x in xs]
        if not payloads:
            raise KernelError("empty transform batch")
        mesh = Mesh(self.plan.rows, self.plan.cols)
        rtms = RuntimeManager(mesh, IcapPort(), link_cost_ns=self.link_cost_ns)
        rtms.run_setup(self.artifact)
        # Pin the body programs up front (the one-time cold streaming a
        # serving session pays), so every lane — the batch pilot included
        # — runs warm and the replicated lane timings match sequential
        # warm scalar runs.
        rtms.execute(self.artifact.pin_epochs())
        result = rtms.execute_artifact_batch(self.artifact, payloads, tag="b")
        outputs = [
            self.read_output_words(lane.words) for lane in result.lanes
        ]
        return FabricFFTBatchResult(
            outputs=outputs, batch=result, total_ns=rtms.now_ns, mesh=mesh
        )

    def run_stream(self, xs: list[np.ndarray]) -> "FabricFFTStreamResult":
        """Pipeline a batch of transforms through the columns.

        Uses the runtime manager's dataflow discipline: column 0 starts
        transform ``t + 1`` as soon as it has forwarded transform ``t``,
        while the later columns are still busy — the temporal pipelining
        that makes multi-column designs profitable (Sec. 3.3).  Returns
        every output (each checked against the same fabric that produced
        single-shot results) plus per-transform completion times from
        which the steady-state interval falls out.
        """
        if not xs:
            raise KernelError("empty transform batch")
        mesh = Mesh(self.plan.rows, self.plan.cols)
        rtms = RuntimeManager(
            mesh, IcapPort(), link_cost_ns=self.link_cost_ns, dataflow=True
        )
        outputs: list[np.ndarray] = []
        completions: list[float] = []
        for t, x in enumerate(xs):
            rtms.execute_artifact(self.artifact, x, tag=f"t{t}_")
            outputs.append(self.read_output(mesh))
            completions.append(rtms.now_ns)
        return FabricFFTStreamResult(
            outputs=outputs, completion_ns=tuple(completions)
        )

    # ------------------------------------------------------------------
    # epoch construction (delegated to the compiled artifact)
    # ------------------------------------------------------------------

    def transform_epochs(self, x: np.ndarray, tag: str = "") -> list[EpochSpec]:
        """The full epoch schedule of one transform (public building block).

        Callers that keep their own persistent mesh/runtime-manager — the
        streaming path above, or a serving-layer kernel session that
        wants program residency to survive across jobs — execute these
        epochs on it; all programs are ``lru_cache``-shared, so a second
        transform on the same fabric pays no instruction reconfiguration
        (pinning).  The input-port encoder validates the payload's shape
        and fixed-point headroom.
        """
        return self.artifact.bind(x, tag)

    # ------------------------------------------------------------------
    # data movement out (the external output circuit)
    # ------------------------------------------------------------------

    def read_output(self, mesh: Mesh) -> np.ndarray:
        """Read the natural-order transform output back off ``mesh``."""
        return self.read_output_words(
            lambda coord, base, count: mesh.tile(coord).dmem.dump_block(
                base, count
            )
        )

    def read_output_words(self, words) -> np.ndarray:
        """The natural-order output via a ``words(coord, base, count)``
        reader — the mesh-agnostic form batched lane views read through."""
        plan, lay = self.plan, self.layout
        last = plan.cols - 1
        brev = np.empty(plan.n, dtype=np.complex128)
        for row in range(plan.rows):
            base = row * plan.m
            re = QFORMAT.decode_words(words((row, last), lay.re, plan.m))
            im = QFORMAT.decode_words(words((row, last), lay.im, plan.m))
            brev[base:base + plan.m] = re + 1j * im
        return brev[bit_reverse_indices(plan.n)]

    # ------------------------------------------------------------------
    # simulator-measured profile (the Table 1 analogue)
    # ------------------------------------------------------------------

    def measured_profile(self) -> StageProfile:
        """Per-stage butterfly and copy runtimes measured on the simulator.

        Butterfly programs are executed standalone on a scratch tile (the
        loop structure, and therefore the cycle count, is independent of
        the data); copies run on a 2x1 scratch mesh.  EXPERIMENTS.md
        compares these with the published Table 1.
        """
        plan, lay, m = self.plan, self.layout, self.plan.m
        bf_ns = []
        for stage in range(plan.stages):
            if plan.is_exchange_stage(stage):
                program = bf_exchange_program(m, True, "C", "A")
            else:
                program = bf_internal_program(m, plan.span(stage))
            tile = Tile()
            tile.load_program(program)
            bf_ns.append(tile.run() * CYCLE_NS)
        vcp_ns = self._measure_copy(
            copy_program(m, lay.sa, lay.sb, "S"), rows=2, cols=1,
            direction=Direction.SOUTH,
        )
        hcp_ns = self._measure_copy(
            copy_program(2 * m, 0, 0, "E"), rows=1, cols=2,
            direction=Direction.EAST,
        )
        return StageProfile(bf_ns=tuple(bf_ns), vcp_ns=vcp_ns, hcp_ns=hcp_ns)

    def _measure_copy(self, program, rows: int, cols: int,
                      direction: Direction) -> float:
        mesh = Mesh(rows, cols)
        mesh.configure_link((0, 0), direction)
        tile = mesh.tile((0, 0))
        tile.load_program(program)
        return tile.run() * CYCLE_NS
