"""Lowering the fabric FFT to the configuration-compiler IR.

The FFT is expressed as a process chain on a
:class:`~repro.compile.graph.DataflowGraph`: per column a horizontal
copy (``hcp``) forwards data from the previous column, per stage
twiddles are installed (YELLOW reloads charged to the ICAP, the rest
free pokes), and the butterflies run either tile-internally or as
systolic relay-sweep exchanges — one process per epoch, chained in
firing order, so the graph's edges mirror the systolic schedule.  The
lowering emits *tagless* epoch templates — :meth:`CompiledArtifact.bind`
prefixes the per-transform tag (``t0_``, ``t1_``, …) at bind time, which
reproduces the legacy epoch names byte for byte.

The transform input is late-bound through an :class:`InputPort` whose
encoder performs the same shape and Q-format-headroom validation the
runner used to do, so rejecting a bad payload raises the identical
:class:`~repro.errors.KernelError`.

All tile programs come from the ``lru_cache``-d factories in
``programs.py``; two artifacts of the same shape therefore share program
*objects*, which is what keeps program pinning (and hence reconfiguration
accounting) bit-identical across compiles.

Importing this module registers the ``fft`` kernel frontend (and the
``fft-input-v1`` input-port encoder factory).
"""

from __future__ import annotations

import numpy as np

from repro.compile.graph import DataflowGraph
from repro.compile.ir import (
    Coord,
    EpochPlan,
    KernelGraph,
    register_port_encoder,
)
from repro.errors import KernelError
from repro.fabric.links import Direction
from repro.fabric.rtms import EpochSpec
from repro.kernels.fft.decompose import FFTPlan
from repro.kernels.fft.programs import (
    QFORMAT,
    FFTLayout,
    bf_exchange_program,
    bf_internal_program,
    copy_pair_program,
    copy_program,
    local_copy_pair_program,
)
from repro.kernels.fft.twiddle import TwiddleClass, classify_twiddles

__all__ = ["lower_fft"]


def lower_fft(
    plan: FFTPlan, link_cost_ns: float = 0.0
) -> tuple[KernelGraph, EpochPlan]:
    """Lower one FFT decomposition to a (graph, plan) pair."""
    return _FFTLowering(plan, link_cost_ns).lower()


def _fft_input_encoder(signature: tuple):
    """The input-port encoder for one ``fft-input-v1`` signature.

    Built from the static signature alone so the artifact cache's disk
    tier can rebuild it on load (see
    :func:`repro.compile.ir.register_port_encoder`).  Performs the same
    shape and Q-format-headroom validation the legacy runner did.
    """
    _tag, n, m, re_base, im_base = signature
    rows, stages = n // m, n.bit_length() - 1

    def encode(x) -> dict[Coord, dict[int, int]]:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (n,):
            raise KernelError(
                f"input must have shape ({n},), got {x.shape}"
            )
        limit = QFORMAT.max_value / (2 * n)
        peak = float(np.max(np.abs(x.real)) + np.max(np.abs(x.imag))) or 1.0
        if peak > limit:
            raise KernelError(
                f"input magnitude {peak:.3g} risks Q{QFORMAT.frac_bits} "
                f"overflow after {stages} stages (limit {limit:.3g})"
            )
        re_words = QFORMAT.encode_words(x.real)
        im_words = QFORMAT.encode_words(x.imag)
        pokes: dict[Coord, dict[int, int]] = {}
        for row in range(rows):
            base = row * m
            image = dict(
                zip(range(re_base, re_base + m), re_words[base:base + m])
            )
            image.update(
                zip(range(im_base, im_base + m), im_words[base:base + m])
            )
            pokes[(row, 0)] = image
        return pokes

    return encode


register_port_encoder("fft-input-v1", _fft_input_encoder)


class _FFTLowering:
    """One lowering run: builds the body epochs and the input port."""

    def __init__(self, plan: FFTPlan, link_cost_ns: float) -> None:
        self.plan = plan
        self.layout = FFTLayout(plan.m)  # validates the memory budget
        self.schedule = classify_twiddles(plan)
        w = np.exp(-2j * np.pi * np.arange(plan.n) / plan.n)
        self._wre_words = QFORMAT.encode_words(w.real)
        self._wim_words = QFORMAT.encode_words(w.imag)
        self._twiddle_images: dict[tuple[int, int], dict[int, int]] = {}
        self.graph = DataflowGraph(
            kind="fft",
            params={
                "n": plan.n,
                "m": plan.m,
                "cols": plan.cols,
                "link_cost_ns": float(link_cost_ns),
            },
            rows=plan.rows,
            cols=plan.cols,
            link_cost_ns=float(link_cost_ns),
        )
        self._prev = None

    def _chain(self, spec: EpochSpec) -> None:
        """Add one process, chained after the previous one (the systolic
        schedule is a linear pipeline per transform)."""
        self._prev = self.graph.add_process(
            spec.name, spec=spec, after=self._prev
        )

    def lower(self) -> tuple[KernelGraph, EpochPlan]:
        plan, lay = self.plan, self.layout
        self.graph.set_input(
            "input",
            signature=("fft-input-v1", plan.n, plan.m, lay.re, lay.im),
            depends_on=tuple((r, 0) for r in range(plan.rows)),
        )
        for col in range(plan.cols):
            if col > 0:
                self._chain(self._hcp_epoch(col))
            for stage in plan.stages_of_column(col):
                twiddles = self._twiddle_epoch(col, stage)
                if twiddles is not None:
                    self._chain(twiddles)
                if plan.is_exchange_stage(stage):
                    for spec in self._exchange_epochs(col, stage):
                        self._chain(spec)
                else:
                    self._chain(self._internal_epoch(col, stage))
        return self.graph.lower()

    # ------------------------------------------------------------------
    # twiddles
    # ------------------------------------------------------------------

    def _twiddle_epoch(self, col: int, stage: int) -> EpochSpec | None:
        """Install stage twiddles; YELLOW tiles pay the ICAP, others are free."""
        re_base, im_base = self.layout.wre, self.layout.wim
        wre, wim = self._wre_words, self._wim_words
        images: dict[Coord, dict[int, int]] = {}
        pokes: dict[Coord, dict[int, int]] = {}
        for row in range(self.plan.rows):
            cls = self.schedule.class_of(row, stage)
            image = self._twiddle_images.get((row, stage))
            if image is None:
                exps = self.plan.tile_twiddle_exponents(row, stage)
                image = dict(zip(range(re_base, re_base + len(exps)),
                                 map(wre.__getitem__, exps)))
                image.update(zip(range(im_base, im_base + len(exps)),
                                 map(wim.__getitem__, exps)))
                self._twiddle_images[(row, stage)] = image
            if cls is TwiddleClass.YELLOW:
                images[(row, col)] = image
            else:
                pokes[(row, col)] = image
        if not images and not pokes:
            return None
        return EpochSpec(
            name=f"twiddles_s{stage}_c{col}",
            data_images=images,
            pokes=pokes,
        )

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------

    def _hcp_epoch(self, col: int) -> EpochSpec:
        """Forward the 2m data words from column ``col - 1`` east."""
        m = self.plan.m
        program = copy_program(2 * m, 0, 0, "E")
        coords = [(r, col - 1) for r in range(self.plan.rows)]
        return EpochSpec(
            name=f"hcp_c{col - 1}to{col}",
            links={c: Direction.EAST for c in coords},
            programs={c: program for c in coords},
            run=coords,
            depends_on=[(r, col) for r in range(self.plan.rows)],
        )

    def _internal_epoch(self, col: int, stage: int) -> EpochSpec:
        program = bf_internal_program(self.plan.m, self.plan.span(stage))
        coords = [(r, col) for r in range(self.plan.rows)]
        return EpochSpec(
            name=f"bf_int_s{stage}_c{col}",
            programs={c: program for c in coords},
            run=coords,
        )

    def _exchange_epochs(self, col: int, stage: int) -> list[EpochSpec]:
        """Pre-sweeps, butterflies, post-sweeps and commits for one stage."""
        plan, lay = self.plan, self.layout
        m, half = plan.m, plan.m // 2
        d = plan.span(stage) // m
        lowers = [r for r in range(plan.rows) if plan.is_lower_partner(r, stage)]
        uppers = [r for r in range(plan.rows) if r not in lowers]
        epochs: list[EpochSpec] = []

        south = ["A", "B"]   # pre-south chain: hop k writes south[(k-1) % 2]
        north = ["C", "D"]   # pre-north chain
        f_s = south[(d - 1) % 2]   # arrival of pre-south at upper tiles
        f_n = north[(d - 1) % 2]   # arrival of pre-north at lower tiles

        # Pre-south: lower tiles' second halves travel d hops south.
        epochs.extend(
            self._sweep(
                col, stage, "pre_s", lowers, Direction.SOUTH, d,
                first_src=(lay.re + half, lay.im + half),
                chain=south,
            )
        )
        # Pre-north: upper tiles' first halves travel d hops north.
        epochs.extend(
            self._sweep(
                col, stage, "pre_n", uppers, Direction.NORTH, d,
                first_src=(lay.re, lay.im),
                chain=north,
            )
        )

        # Compute.  Lower reads the north arrival and emits diffs into A's
        # chain start; upper reads the south arrival and emits sums into
        # C's chain start.  Output buffers are always free: sweeps only
        # parked payloads in the *other* chain at each tile class.
        out_lower = "A" if f_n != "A" else "B"
        out_upper = "C" if f_s != "C" else "D"
        programs = {}
        for r in lowers:
            programs[(r, col)] = bf_exchange_program(m, True, f_n, out_lower)
        for r in uppers:
            programs[(r, col)] = bf_exchange_program(m, False, f_s, out_upper)
        coords = [(r, col) for r in range(plan.rows)]
        epochs.append(
            EpochSpec(
                name=f"bf_x_s{stage}_c{col}", programs=programs, run=coords
            )
        )

        # Post-south: lower diffs -> upper tiles' first halves.
        post_s_chain = ["B", "A"] if out_lower == "A" else ["A", "B"]
        epochs.extend(
            self._sweep(
                col, stage, "post_s", lowers, Direction.SOUTH, d,
                first_src_buf=out_lower,
                chain=post_s_chain,
            )
        )
        arrival = post_s_chain[(d - 1) % 2]
        epochs.append(
            self._commit_epoch(
                col, stage, "commit_s", lowers, arrival, dst_offset=0
            )
        )

        # Post-north: upper sums -> lower tiles' second halves.
        post_n_chain = ["D", "C"] if out_upper == "C" else ["C", "D"]
        epochs.extend(
            self._sweep(
                col, stage, "post_n", uppers, Direction.NORTH, d,
                first_src_buf=out_upper,
                chain=post_n_chain,
            )
        )
        arrival = post_n_chain[(d - 1) % 2]
        epochs.append(
            self._commit_epoch(
                col, stage, "commit_n", uppers, arrival, dst_offset=half
            )
        )
        return epochs

    def _sweep(
        self,
        col: int,
        stage: int,
        label: str,
        origins: list[int],
        direction: Direction,
        d: int,
        chain: list[str],
        first_src: tuple[int, int] | None = None,
        first_src_buf: str | None = None,
    ) -> list[EpochSpec]:
        """``d`` relay epochs moving one payload per origin row.

        Hop ``k`` (1-based): the payload from origin ``r`` sits at row
        ``r + step*(k-1)`` and moves one row further; it is written into
        staging buffer ``chain[(k-1) % 2]`` of the receiver.  Hop 1 reads
        either the RE/IM chunks (``first_src``) or a staging buffer
        (``first_src_buf``); later hops read the previous chain buffer.
        All of an epoch's copies read one buffer class and write the
        other, so no same-buffer read/write race exists by construction.
        """
        lay, half, m = self.layout, self.plan.m // 2, self.plan.m
        step = 1 if direction is Direction.SOUTH else -1
        epochs = []
        for k in range(1, d + 1):
            dst_buf = lay.staging(chain[(k - 1) % 2])
            if k == 1:
                if first_src is not None:
                    src_re, src_im = first_src
                    program = copy_pair_program(
                        half, src_re, dst_buf, src_im, dst_buf + half,
                        direction.name[0],
                    )
                else:
                    assert first_src_buf is not None
                    program = copy_program(
                        m, lay.staging(first_src_buf), dst_buf,
                        direction.name[0],
                    )
            else:
                src_buf = lay.staging(chain[(k - 2) % 2])
                program = copy_program(m, src_buf, dst_buf, direction.name[0])
            senders = [(r + step * (k - 1), col) for r in origins]
            epochs.append(
                EpochSpec(
                    name=f"{label}_s{stage}_c{col}_h{k}",
                    links={c: direction for c in senders},
                    programs={c: program for c in senders},
                    run=senders,
                )
            )
        return epochs

    def _commit_epoch(
        self,
        col: int,
        stage: int,
        label: str,
        origins: list[int],
        arrival_buf: str,
        dst_offset: int,
    ) -> EpochSpec:
        """Move an arrived payload from staging into RE/IM at an offset.

        ``origins`` are the rows the payloads came *from*; the commit runs
        on their partners (where the payloads arrived).
        """
        lay, half = self.layout, self.plan.m // 2
        src = lay.staging(arrival_buf)
        program = local_copy_pair_program(
            half, src, lay.re + dst_offset, src + half, lay.im + dst_offset
        )
        targets = [
            (self.plan.partner_row(r, stage), col) for r in origins
        ]
        return EpochSpec(
            name=f"{label}_s{stage}_c{col}",
            programs={c: program for c in targets},
            run=targets,
        )


# ---------------------------------------------------------------------------
# frontend registration
# ---------------------------------------------------------------------------


def _example_payload(params: dict, rng) -> np.ndarray:
    """A deterministic complex vector inside half the Q-format headroom.

    Uniform and bounded: the encoder rejects ``max|re| + max|im|`` above
    the headroom limit, so each part stays within a quarter of it (a
    Gaussian draw would cross the limit about once in a few thousand).
    """
    n = int(params["n"])
    quarter = QFORMAT.max_value / (2 * n) / 4.0
    return quarter * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))


def _reference(params: dict, payload) -> np.ndarray:
    return np.fft.fft(np.asarray(payload, dtype=np.complex128))


def _verify(params: dict, payload, output) -> None:
    """FFT's oracle rule: within the Q30 rounding bound of the float
    reference (the same ``atol`` the runner tests pin)."""
    n = int(params["n"])
    expected = _reference(params, payload)
    if not np.allclose(np.asarray(output), expected, atol=2e-7 * n):
        err = float(np.max(np.abs(np.asarray(output) - expected)))
        raise KernelError(
            f"fft output diverged from the float reference by {err:.3g} "
            f"(bound {2e-7 * n:.3g})"
        )


def _register() -> None:
    from repro.compile.frontends import KernelFrontend, register_frontend

    register_frontend(
        KernelFrontend(
            kind="fft",
            description="n-point decimation-in-frequency FFT on an "
            "n/m x cols mesh (systolic relay exchanges)",
            param_names=("n", "m", "cols"),
            defaults=(
                ("n", 64), ("m", 8), ("cols", 2), ("link_cost_ns", 100.0)
            ),
            lower=lambda params: lower_fft(
                FFTPlan(params["n"], params["m"], params["cols"]),
                params["link_cost_ns"],
            ),
            example_payload=_example_payload,
            reference=_reference,
            verify=_verify,
            exact=False,
        )
    )


_register()
